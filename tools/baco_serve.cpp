// baco_serve: the distributed tuning service.
//
// By default it serves the JSONL session protocol on its standard
// streams — one connection. With --listen unix:PATH or
// --listen tcp:HOST:PORT it becomes a multi-client server: an accept
// loop serves every connection against one shared SessionManager (and
// worker fleet), so any number of clients tune concurrently, and
// baco_worker --connect processes can join the fleet over the same
// socket. The Coordinator multiplexes concurrent fleet-driven runs with
// fair round-robin scheduling; --max-active-runs caps how many run
// requests may share the fleet at once (further runs get a structured
// "busy" error frame, optionally after waiting --admission-wait-ms).
// --max-clients bounds concurrent connections; --max-sessions
// caps the in-memory session registry (excess sessions spill their
// checkpoints to disk and reload transparently on the next request —
// requires --checkpoint-dir). SIGINT/SIGTERM stop the accept loop
// gracefully: live connections are closed, sessions checkpointed.
//
// Evaluation workers either run in-process (--workers N), as child
// processes spawned from --worker-cmd (each wired through pipes), or
// attach over the --listen socket at runtime.
//
// --async drives every server-side run request tell-as-results-land
// (one async drive over the fleet or a thread pool), streaming one
// result frame per landed evaluation; clients can also opt in per
// request with "async":true on the run frame.
//
// --selftest runs the hermetic end-to-end checks (the same parity
// contracts the ctest suite enforces): a Study driven with
// ExecutionPolicy::Distributed must reproduce the same-seed
// ExecutionPolicy::Batched run bit-for-bit, an async fleet drive must
// complete the full budget without stalling, and two concurrent
// Unix-socket clients against one acceptor must produce bit-for-bit
// the histories of two sequential stdio runs.
//
// --list enumerates the registered benchmarks and MethodRegistry
// methods (the names open_session and Study accept) and exits.
//
// Observability: --metrics-interval N appends one JSONL line with the
// full metrics registry (counters, gauges, histogram percentiles, and
// the coordinator's per-run and per-worker entries) every N seconds to
// --metrics-file (default stderr); SIGUSR1 triggers an immediate dump at
// any time. Clients pull the same registry snapshot over the wire with a
// stats frame (SessionClient::stats()), and the shutdown log reads it
// too. --trace FILE records spans for the whole serving lifetime and
// exports one merged Chrome timeline on shutdown — server spans on the
// "server" track plus every span buffer the workers shipped back over
// the wire, each on its own worker-N track. Status lines are structured
// events (JSONL on stderr by default); --log-file redirects, --log-level
// filters.
//
// Usage:
//   baco_serve [--listen unix:PATH|tcp:HOST:PORT]
//              [--max-clients N] [--max-sessions N]
//              [--max-active-runs N] [--admission-wait-ms N]
//              [--checkpoint-dir DIR] [--cache FILE]
//              [--workers N] [--worker-cmd CMD]
//              [--idle-timeout SECONDS] [--async]
//              [--metrics-interval SECONDS] [--metrics-file PATH]
//              [--trace FILE] [--log-file PATH] [--log-level LEVEL]
//   baco_serve --selftest [benchmark]
//   baco_serve --list

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/baco.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/coordinator.hpp"
#include "serve/server.hpp"
#include "serve/session_manager.hpp"
#include "serve/transport.hpp"
#include "serve/worker.hpp"

namespace {

/** SIGINT/SIGTERM target: flips the acceptor's stop flag (both calls on
 *  the stop path — shutdown(2), unlink(2) — are async-signal-safe, but
 *  they can clobber errno, which the interrupted syscall's caller is
 *  about to read — hence the save/restore). */
baco::serve::Acceptor* g_acceptor = nullptr;

void
stop_on_signal(int)
{
    const int saved_errno = errno;
    if (g_acceptor)
        g_acceptor->stop();
    errno = saved_errno;
}

/** SIGUSR1 target: ask the metrics publisher for an immediate dump
 *  (nothing happens in signal context). An atomic, not a volatile
 *  sig_atomic_t: the flag is read by the publisher THREAD, not by the
 *  interrupted code, and sig_atomic_t is only a handler-to-same-thread
 *  contract — cross-thread visibility needs the atomic (lock-free for
 *  int everywhere we build, so the store stays async-signal-safe). */
std::atomic<int> g_dump_metrics{0};

void
dump_on_signal(int)
{
    const int saved_errno = errno;
    g_dump_metrics.store(1, std::memory_order_relaxed);
    errno = saved_errno;
}

/**
 * Background metrics publisher: appends one JSONL line with the full
 * registry snapshot every `interval` seconds (0 = on demand only) and
 * whenever SIGUSR1 raised g_dump_metrics, to `path` ("" or "-" =
 * stderr). The poll loop wakes every 200ms, so a SIGUSR1 dump lands
 * within that latency and stop() returns promptly.
 */
class MetricsPublisher {
 public:
    void
    start(double interval_seconds, std::string path)
    {
        interval_ = interval_seconds;
        path_ = std::move(path);
        start_time_ = std::chrono::steady_clock::now();
        thread_ = std::thread([this] { loop(); });
    }

    void
    stop()
    {
        if (!thread_.joinable())
            return;
        stop_.store(true);
        thread_.join();
    }

    void
    dump(const char* reason)
    {
        using std::chrono::duration;
        using std::chrono::steady_clock;
        double uptime =
            duration<double>(steady_clock::now() - start_time_).count();
        char extra[128];
        std::snprintf(extra, sizeof extra,
                      "\"ts\":%lld,\"uptime_s\":%.3f,\"reason\":\"%s\"",
                      static_cast<long long>(std::time(nullptr)), uptime,
                      reason);
        std::string line =
            baco::obs::MetricsRegistry::global().snapshot().to_json(extra);
        if (path_.empty() || path_ == "-") {
            std::fprintf(stderr, "%s\n", line.c_str());
            return;
        }
        if (FILE* f = std::fopen(path_.c_str(), "a")) {
            std::fprintf(f, "%s\n", line.c_str());
            std::fclose(f);
        }
    }

 private:
    void
    loop()
    {
        using std::chrono::duration;
        using std::chrono::steady_clock;
        auto last = steady_clock::now();
        while (!stop_.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
            if (g_dump_metrics.exchange(0, std::memory_order_relaxed))
                dump("sigusr1");
            if (interval_ > 0 &&
                duration<double>(steady_clock::now() - last).count() >=
                    interval_) {
                last = steady_clock::now();
                dump("interval");
            }
        }
    }

    std::atomic<bool> stop_{false};
    std::thread thread_;
    double interval_ = 0.0;
    std::string path_;
    std::chrono::steady_clock::time_point start_time_;
};

/**
 * Socket leg: two clients tuning different sessions CONCURRENTLY over a
 * Unix socket against one acceptor must produce bit-for-bit the same
 * histories as two sequential single-connection (stdio-shaped) runs
 * with the same seeds — serve::socket_parity_check, the same contract
 * tests/test_serve_socket.cpp pins over unix AND tcp listeners.
 */
bool
selftest_socket(const std::string& benchmark_name)
{
    using namespace baco::serve;
    std::string path =
        "/tmp/baco_selftest_" + std::to_string(::getpid()) + ".sock";
    SocketParityResult parity = socket_parity_check(
        "unix:" + path, benchmark_name, "baco", /*budget=*/12,
        /*batch=*/3, /*seed1=*/21, /*seed2=*/22);
    std::printf("baco_serve selftest: socket leg — 2 concurrent unix-"
                "socket clients %s 2 sequential stdio runs (2 x %zu "
                "evals) [%s]%s%s\n",
                parity.ok ? "==" : "!=", parity.evals_per_client,
                parity.ok ? "ok" : "FAILED",
                parity.detail.empty() ? "" : ": ",
                parity.detail.c_str());
    return parity.ok;
}

int
selftest(const std::string& benchmark_name)
{
    using namespace baco;
    const int budget = 16;
    const std::uint64_t seed = 17;
    const int batch = 4;

    auto study_with = [&](ExecutionPolicy policy) {
        return StudyBuilder()
            .benchmark(benchmark_name)
            .method("baco")
            .budget(budget)
            .seed(seed)
            .execution(policy)
            .build()
            .run();
    };

    StudyResult reference = study_with(ExecutionPolicy::Batched(batch));
    StudyResult distributed =
        study_with(ExecutionPolicy::Distributed(2, batch));

    bool ok = histories_equal(reference.history, distributed.history);
    std::printf("baco_serve selftest: %s — %zu evals, best %.6g, "
                "Study[distributed, 2 workers] %s Study[batched=%d]\n",
                distributed.benchmark.c_str(), distributed.history.size(),
                distributed.history.best_value, ok ? "==" : "!=", batch);

    // Async leg: a tell-as-results-land fleet drive must still exhaust
    // the budget and find a finite best (history order is scheduling-
    // dependent, so no bit-for-bit claim here).
    StudyResult async = study_with(
        ExecutionPolicy::Distributed(2, batch, /*async=*/true));
    bool async_ok =
        async.history.size() == static_cast<std::size_t>(budget) &&
        async.history.best_config.has_value();
    std::printf("baco_serve selftest: async fleet drive — %zu/%d evals, "
                "best %.6g [%s]\n",
                async.history.size(), budget, async.history.best_value,
                async_ok ? "ok" : "FAILED");

    bool socket_ok = selftest_socket(benchmark_name);
    return ok && async_ok && socket_ok ? 0 : 1;
}

int
list_registry()
{
    using namespace baco;
    std::printf("benchmarks (%zu):\n", suite::all_benchmarks().size());
    for (const Benchmark& b : suite::all_benchmarks())
        std::printf("  %-10s %-24s budget %d\n", b.framework.c_str(),
                    b.name.c_str(), b.full_budget);
    MethodRegistry& registry = MethodRegistry::global();
    std::printf("methods:\n");
    for (const std::string& name : registry.names())
        std::printf("  %s\n", name.c_str());
    auto aliases = registry.aliases();
    if (!aliases.empty()) {
        std::printf("method aliases:\n");
        for (const auto& [alias, canonical] : aliases)
            std::printf("  %-12s -> %s\n", alias.c_str(),
                        canonical.c_str());
    }
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::signal(SIGPIPE, SIG_IGN);
    using namespace baco;

    std::string checkpoint_dir;
    std::string cache_file;
    std::string worker_cmd;
    std::string listen_spec;
    int workers = 0;
    int max_clients = 64;
    int max_active_runs = 0;
    int admission_wait_ms = 0;
    long max_sessions = 0;
    double idle_timeout = 0.0;
    double metrics_interval = 0.0;
    std::string metrics_file;
    std::string trace_file;
    std::string log_file;
    std::string log_level = "info";
    bool async_runs = false;
    bool run_selftest = false;
    bool run_list = false;
    std::string selftest_benchmark = "SDDMM/email-Enron";

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--checkpoint-dir" && i + 1 < argc) {
            checkpoint_dir = argv[++i];
        } else if (arg == "--cache" && i + 1 < argc) {
            cache_file = argv[++i];
        } else if (arg == "--workers" && i + 1 < argc) {
            workers = std::atoi(argv[++i]);
        } else if (arg == "--worker-cmd" && i + 1 < argc) {
            worker_cmd = argv[++i];
        } else if (arg == "--listen" && i + 1 < argc) {
            listen_spec = argv[++i];
        } else if (arg == "--max-clients" && i + 1 < argc) {
            max_clients = std::atoi(argv[++i]);
        } else if (arg == "--max-sessions" && i + 1 < argc) {
            max_sessions = std::atol(argv[++i]);
        } else if (arg == "--max-active-runs" && i + 1 < argc) {
            max_active_runs = std::atoi(argv[++i]);
        } else if (arg == "--admission-wait-ms" && i + 1 < argc) {
            admission_wait_ms = std::atoi(argv[++i]);
        } else if (arg == "--idle-timeout" && i + 1 < argc) {
            idle_timeout = std::atof(argv[++i]);
        } else if (arg == "--metrics-interval" && i + 1 < argc) {
            metrics_interval = std::atof(argv[++i]);
        } else if (arg == "--metrics-file" && i + 1 < argc) {
            metrics_file = argv[++i];
        } else if (arg == "--trace" && i + 1 < argc) {
            trace_file = argv[++i];
        } else if (arg == "--log-file" && i + 1 < argc) {
            log_file = argv[++i];
        } else if (arg == "--log-level" && i + 1 < argc) {
            log_level = argv[++i];
        } else if (arg == "--async") {
            async_runs = true;
        } else if (arg == "--selftest") {
            run_selftest = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                selftest_benchmark = argv[++i];
        } else if (arg == "--list") {
            run_list = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--listen unix:PATH|tcp:HOST:PORT] "
                         "[--max-clients N] [--max-sessions N] "
                         "[--max-active-runs N] [--admission-wait-ms N] "
                         "[--checkpoint-dir DIR] [--cache FILE] "
                         "[--workers N] [--worker-cmd CMD] "
                         "[--idle-timeout S] [--async] "
                         "[--metrics-interval S] [--metrics-file PATH] "
                         "[--trace FILE] [--log-file PATH] "
                         "[--log-level LEVEL] | "
                         "--selftest [benchmark] | --list\n",
                         argv[0]);
            return 2;
        }
    }
    if (max_sessions > 0 && checkpoint_dir.empty()) {
        std::fprintf(stderr,
                     "baco_serve: --max-sessions requires "
                     "--checkpoint-dir (spilled sessions live in their "
                     "checkpoints)\n");
        return 2;
    }

    {
        obs::LogLevel level = obs::LogLevel::kInfo;
        if (!obs::parse_log_level(log_level, level)) {
            std::fprintf(stderr, "baco_serve: unknown log level '%s'\n",
                         log_level.c_str());
            return 2;
        }
        obs::EventLog::global().configure(level, log_file);
    }

    if (run_list)
        return list_registry();
    if (run_selftest)
        return selftest(selftest_benchmark);

    if (!trace_file.empty())
        obs::Trace::enable();

    EvalCache cache;
    if (!cache_file.empty())
        cache.load(cache_file);  // absent file = start empty

    serve::SessionManagerOptions sopt;
    sopt.checkpoint_dir = checkpoint_dir;
    sopt.idle_timeout_seconds = idle_timeout;
    sopt.cache = cache_file.empty() ? nullptr : &cache;
    if (max_sessions > 0)
        sopt.max_live_sessions = static_cast<std::size_t>(max_sessions);
    serve::SessionManager sessions(sopt);

    // --worker-cmd implies at least one worker.
    if (!worker_cmd.empty() && workers <= 0)
        workers = 1;

    serve::CoordinatorOptions copt;
    copt.max_active_runs = max_active_runs;
    copt.admission_wait_ms = admission_wait_ms;
    serve::Coordinator coordinator(copt);
    std::vector<std::thread> worker_threads;
    std::vector<int> worker_pids;
    if (workers > 0) {
        if (!worker_cmd.empty()) {
            for (int w = 0; w < workers; ++w) {
                serve::ChildProcess child =
                    serve::spawn_process({worker_cmd});
                if (!child.transport ||
                    coordinator.add_worker(std::move(child.transport)) < 0) {
                    obs::log_error("serve", "worker_attach_failed",
                                   obs::LogFields()
                                       .num("worker", w)
                                       .str("cmd", worker_cmd));
                    return 1;
                }
                worker_pids.push_back(child.pid);
            }
        } else {
            worker_threads =
                serve::attach_loopback_workers(coordinator, workers);
        }
        obs::log_info("serve", "fleet_ready",
                      obs::LogFields()
                          .num("workers", coordinator.num_workers())
                          .str("mode", worker_cmd.empty() ? "in-process"
                                                          : worker_cmd));
    }

    serve::ServerContext ctx;
    ctx.sessions = &sessions;
    ctx.coordinator = &coordinator;
    ctx.async_runs = async_runs;

    // The publisher runs in every serving mode: --metrics-interval
    // makes it periodic, and SIGUSR1 forces a dump either way.
    MetricsPublisher metrics;
    metrics.start(metrics_interval, metrics_file);
    std::signal(SIGUSR1, dump_on_signal);

    if (!listen_spec.empty()) {
        // ---- Multi-client socket server. ----
        std::string error;
        std::optional<serve::SocketAddress> addr =
            serve::parse_socket_address(listen_spec, &error);
        serve::Listener listener;
        if (!addr || !listener.open(*addr, &error)) {
            obs::log_error("serve", "listen_failed",
                           obs::LogFields()
                               .str("address", listen_spec)
                               .str("error", error));
            return 1;
        }
        serve::AcceptorOptions aopt;
        aopt.max_clients = max_clients;
        serve::Acceptor acceptor(std::move(listener), ctx, aopt);
        g_acceptor = &acceptor;
        std::signal(SIGINT, stop_on_signal);
        std::signal(SIGTERM, stop_on_signal);
        obs::log_info("serve", "listening",
                      obs::LogFields()
                          .str("address", acceptor.address().str())
                          .num("max_clients", max_clients)
                          .num("max_sessions",
                               static_cast<std::int64_t>(max_sessions)));
        acceptor.run();
        g_acceptor = nullptr;
    } else {
        // ---- Single connection on the standard streams. ----
        serve::PipeTransport stdio(0, 1, /*owns_fds=*/false);
        serve_connection(stdio, ctx);
    }

    metrics.stop();
    if (metrics_interval > 0 || !metrics_file.empty())
        metrics.dump("shutdown");
    const obs::MetricsSnapshot served = obs::MetricsRegistry::global().snapshot();
    if (!listen_spec.empty()) {
        obs::log_info(
            "serve", "acceptor_stopped",
            obs::LogFields()
                .num("connections", served.value("acceptor.accepted_total"))
                .num("peak_clients", served.value("acceptor.peak_clients"))
                .num("workers_attached",
                     served.value("acceptor.workers_attached_total"))
                .num("rejected", served.value("acceptor.rejected_total"))
                .num("sessions_spilled", served.value("sessions.spill_total"))
                .num("sessions_reloaded",
                     served.value("sessions.reload_total")));
    }
    sessions.checkpoint_all();
    // Shutdown before the trace export: the coordinator's goodbye drain
    // collects the workers' final span buffers, so the exported timeline
    // has every track complete.
    coordinator.shutdown();
    for (std::thread& t : worker_threads)
        t.join();
    for (int pid : worker_pids)
        serve::wait_process(pid);
    if (!cache_file.empty())
        cache.save(cache_file);
    if (!trace_file.empty()) {
        bool exported = obs::Trace::export_chrome(trace_file);
        obs::log_info("serve", "trace_exported",
                      obs::LogFields()
                          .str("file", trace_file)
                          .flag("ok", exported)
                          .str("run", obs::Trace::run_id()));
    }

    obs::log_info("serve", "exit",
                  obs::LogFields()
                      .num("requests", served.value("serve.requests_total"))
                      .num("errors", served.value("serve.errors_total")));
    return 0;
}
