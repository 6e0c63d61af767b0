// Multi-client socket serving: the Acceptor loop, SocketTransport
// (Unix-domain and TCP), runtime worker attach, the bounded session
// registry's spill/reload, and the front-door Remote/Attached execution
// policies.
//
// The headline pin (ISSUE acceptance): two clients tuning different
// sessions CONCURRENTLY over one `baco_serve --listen`-shaped acceptor
// produce bit-for-bit the same histories as two sequential
// single-connection (stdio-shaped) runs with the same seeds.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "api/baco.hpp"
#include "drive_reference.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/coordinator.hpp"
#include "serve/server.hpp"
#include "serve/session_manager.hpp"
#include "serve/stats_util.hpp"
#include "serve/transport.hpp"
#include "serve/worker.hpp"

namespace baco::serve {
namespace {

constexpr const char* kBench = "SDDMM/email-Enron";

// A peer vanishing mid-send must surface as a failed send, not SIGPIPE.
const int kSigpipeIgnored = [] {
    std::signal(SIGPIPE, SIG_IGN);
    return 0;
}();

std::string
unique_unix_path(const std::string& tag)
{
    static int counter = 0;
    return testing::TempDir() + "baco_sock_" + tag + "_" +
           std::to_string(::getpid()) + "_" + std::to_string(counter++) +
           ".sock";
}

void
concurrent_clients_match_sequential(const std::string& listen_spec)
{
    const int budget = 10;
    const int batch = 3;
    // The shared parity harness (also the --selftest socket leg):
    // sequential stdio-shaped references, then the same two sessions
    // concurrently over one acceptor, compared bit-for-bit.
    SocketParityResult parity = socket_parity_check(
        listen_spec, kBench, "baco", budget, batch, /*seed1=*/31,
        /*seed2=*/32);
    EXPECT_TRUE(parity.ok) << parity.detail;
    EXPECT_EQ(parity.evals_per_client, static_cast<std::size_t>(budget));
    EXPECT_EQ(parity.metrics.value("acceptor.accepted_total"), 2.0);
    EXPECT_EQ(parity.metrics.value("serve.errors_total"), 0.0);
    // Per client: open + close plus one suggest/observe pair per round.
    EXPECT_GE(parity.metrics.value("serve.requests_total"),
              2.0 * (2 + budget / batch));
}

TEST(ServeSocket, ConcurrentUnixClientsMatchSequentialStdioRuns)
{
    concurrent_clients_match_sequential("unix:" +
                                        unique_unix_path("parity"));
}

TEST(ServeSocket, ConcurrentTcpClientsMatchSequentialStdioRuns)
{
    concurrent_clients_match_sequential("tcp:127.0.0.1:0");
}

TEST(ServeSocket, MidFrameDisconnectLeavesServerServing)
{
    std::string path = unique_unix_path("midframe");
    Listener listener;
    ASSERT_TRUE(listener.open(*parse_socket_address("unix:" + path)));
    SessionManager sessions;
    ServerContext ctx;
    ctx.sessions = &sessions;
    Acceptor acceptor(std::move(listener), ctx);
    std::thread server([&acceptor] { acceptor.run(); });

    // A raw client that dies mid-frame — half a hello, no newline.
    auto raw_connect = [&] {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        sockaddr_un sa = {};
        sa.sun_family = AF_UNIX;
        std::memcpy(sa.sun_path, path.c_str(), path.size());
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa),
                            sizeof sa),
                  0);
        return fd;
    };
    {
        int fd = raw_connect();
        Message hello;
        hello.type = MsgType::kHello;
        std::string frame = encode(hello);
        std::string half = frame.substr(0, frame.size() / 2);
        ASSERT_EQ(::send(fd, half.data(), half.size(), 0),
                  static_cast<ssize_t>(half.size()));
        ::close(fd);
    }
    // A second one that completes the handshake, then dies mid-request.
    {
        int fd = raw_connect();
        Message hello;
        hello.type = MsgType::kHello;
        std::string frame = encode(hello) + "\n";
        ASSERT_EQ(::send(fd, frame.data(), frame.size(), 0),
                  static_cast<ssize_t>(frame.size()));
        char buf[512];
        ASSERT_GT(::recv(fd, buf, sizeof buf, 0), 0);  // welcome
        Message open;
        open.type = MsgType::kOpenSession;
        open.session = "doomed";
        open.benchmark = kBench;
        open.method = "Uniform";
        open.budget = 8;
        std::string partial = encode(open);
        partial = partial.substr(0, partial.size() - 5);  // cut mid-frame
        ASSERT_EQ(::send(fd, partial.data(), partial.size(), 0),
                  static_cast<ssize_t>(partial.size()));
        ::close(fd);
    }

    // The server must still serve a well-behaved client end-to-end, and
    // the truncated open_session must not have leaked a session.
    std::unique_ptr<Transport> t =
        connect_socket("unix:" + path);
    ASSERT_TRUE(t);
    SessionClient client(*t);
    ASSERT_TRUE(client.handshake());
    std::vector<double> values =
        drive_session(client, "healthy", kBench, "Uniform", 6, 7, 2);
    EXPECT_EQ(values.size(), 6u);
    EXPECT_EQ(sessions.size(), 0u);  // "doomed" never opened; "healthy" closed

    acceptor.stop();
    server.join();
}

TEST(ServeSocket, MaxClientsRejectsTheExcessConnection)
{
    std::string path = unique_unix_path("full");
    Listener listener;
    ASSERT_TRUE(listener.open(*parse_socket_address("unix:" + path)));
    SessionManager sessions;
    ServerContext ctx;
    ctx.sessions = &sessions;
    AcceptorOptions opt;
    opt.max_clients = 1;
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::global().snapshot();
    Acceptor acceptor(std::move(listener), ctx, opt);
    std::thread server([&acceptor] { acceptor.run(); });

    std::unique_ptr<Transport> first = connect_socket("unix:" + path);
    ASSERT_TRUE(first);
    SessionClient c1(*first);
    ASSERT_TRUE(c1.handshake());  // occupies the only slot

    std::unique_ptr<Transport> second = connect_socket("unix:" + path);
    ASSERT_TRUE(second);
    Message hello;
    hello.type = MsgType::kHello;
    ASSERT_TRUE(second->send(encode(hello)));
    std::string line;
    ASSERT_EQ(second->recv(line, 10000), RecvStatus::kOk);
    Message reply;
    ASSERT_TRUE(decode(line, reply));
    EXPECT_EQ(reply.type, MsgType::kError);
    EXPECT_NE(reply.text.find("server full"), std::string::npos)
        << reply.text;

    // Freeing the slot re-admits clients.
    first->close();
    while (acceptor.live_clients() > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::unique_ptr<Transport> third = connect_socket("unix:" + path);
    ASSERT_TRUE(third);
    SessionClient c3(*third);
    EXPECT_TRUE(c3.handshake());

    acceptor.stop();
    server.join();
    EXPECT_EQ(obs::MetricsRegistry::global().snapshot().delta_since(before)
                  .value("acceptor.rejected_total"),
              1.0);
}

TEST(ServeSocket, SessionsSpillAndReloadAcrossConcurrentClients)
{
    const int budget = 8;
    const int batch = 2;
    // Uncapped reference histories.
    std::vector<double> ref1 = sequential_session_values(
        "s1", kBench, "baco", budget, 51, batch);
    std::vector<double> ref2 = sequential_session_values(
        "s2", kBench, "baco", budget, 52, batch);

    std::string ckpt_dir = testing::TempDir() + "baco_spill_" +
                           std::to_string(::getpid());
    std::string path = unique_unix_path("spill");
    Listener listener;
    ASSERT_TRUE(listener.open(*parse_socket_address("unix:" + path)));
    SessionManagerOptions sopt;
    sopt.checkpoint_dir = ckpt_dir;
    sopt.max_live_sessions = 1;  // two sessions must ping-pong spill
    SessionManager sessions(sopt);
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::global().snapshot();
    ServerContext ctx;
    ctx.sessions = &sessions;
    Acceptor acceptor(std::move(listener), ctx);
    std::thread server([&acceptor] { acceptor.run(); });

    // Two connections, one session each, driven round-robin from one
    // thread so every round of one session evicts the other's tuner.
    auto t1 = connect_socket("unix:" + path);
    auto t2 = connect_socket("unix:" + path);
    ASSERT_TRUE(t1 && t2);
    SessionClient c1(*t1), c2(*t2);
    ASSERT_TRUE(c1.handshake());
    ASSERT_TRUE(c2.handshake());
    ASSERT_EQ(c1.open("s1", kBench, "baco", budget, 51).type,
              MsgType::kOpened);
    ASSERT_EQ(c2.open("s2", kBench, "baco", budget, 52).type,
              MsgType::kOpened);

    const Benchmark& bench = suite::find_benchmark(kBench);
    auto one_round = [&](SessionClient& c, const std::string& name,
                         std::uint64_t seed, std::vector<double>& out) {
        Message configs = c.suggest(name, batch);
        ASSERT_EQ(configs.type, MsgType::kConfigs) << configs.text;
        std::vector<ObservedResult> results;
        for (std::size_t i = 0; i < configs.configs.size(); ++i) {
            ObservedResult r;
            r.config = configs.configs[i];
            EvalResult e =
                evaluate_on(bench, r.config, seed, configs.index + i);
            r.value = e.value;
            r.feasible = e.feasible;
            out.push_back(e.value);
            results.push_back(std::move(r));
        }
        ASSERT_EQ(c.observe(name, std::move(results)).type, MsgType::kOk);
    };
    std::vector<double> got1, got2;
    for (int round = 0; round < budget / batch; ++round) {
        one_round(c1, "s1", 51, got1);
        one_round(c2, "s2", 52, got2);
    }

    // Lifetime per-session stats: every spill folds the live histograms
    // into the spilled metadata and a reload re-attaches them as the
    // base, so the counts cover ALL incarnations — one entry per
    // suggest/observe round despite the tuner having been rebuilt from
    // its checkpoint in between.
    Message s1_stats = c1.stats("s1");
    ASSERT_EQ(s1_stats.type, MsgType::kStatsReport) << s1_stats.text;
    const std::uint64_t rounds = budget / batch;
    bool saw_suggest = false;
    bool saw_observe = false;
    for (const StatEntry& e : s1_stats.stats) {
        if (e.name == "session.suggest_seconds") {
            saw_suggest = true;
            EXPECT_EQ(e.count, rounds);
        }
        if (e.name == "session.observe_seconds") {
            saw_observe = true;
            EXPECT_EQ(e.count, rounds);
        }
    }
    EXPECT_TRUE(saw_suggest);
    EXPECT_TRUE(saw_observe);

    EXPECT_EQ(c1.close("s1").type, MsgType::kOk);
    EXPECT_EQ(c2.close("s2").type, MsgType::kOk);

    EXPECT_EQ(got1, ref1);
    EXPECT_EQ(got2, ref2);
    // The cap is 1 and two sessions interleaved: reloads must have
    // happened, and the registry never ended above the cap.
    const obs::MetricsSnapshot moved =
        obs::MetricsRegistry::global().snapshot().delta_since(before);
    EXPECT_GT(moved.value("sessions.spill_total"), 0.0);
    EXPECT_GT(moved.value("sessions.reload_total"), 0.0);
    EXPECT_LE(sessions.size(), 1u);

    acceptor.stop();
    server.join();
}

TEST(ServeSocket, WorkerAttachedOverSocketServesRunRequests)
{
    const int budget = 8;
    std::string path = unique_unix_path("fleet");
    Listener listener;
    ASSERT_TRUE(listener.open(*parse_socket_address("unix:" + path)));
    SessionManager sessions;
    Coordinator coordinator;
    ServerContext ctx;
    ctx.sessions = &sessions;
    ctx.coordinator = &coordinator;
    Acceptor acceptor(std::move(listener), ctx);
    std::thread server([&acceptor] { acceptor.run(); });

    // A worker joins the fleet over the same socket clients use.
    std::thread worker([&path] {
        std::unique_ptr<Transport> t = connect_socket("unix:" + path);
        ASSERT_TRUE(t);
        run_worker_loop(*t);
    });
    while (coordinator.num_workers() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(coordinator.num_workers(), 1u);

    // A server-side run sharded over that worker must match the
    // in-process run bit-for-bit (worker placement never matters).
    auto run_session = [&](Transport& t, const std::string& name) {
        SessionClient client(t);
        EXPECT_TRUE(client.handshake());
        Message open = client.open(name, kBench, "Uniform", budget, 9);
        EXPECT_EQ(open.type, MsgType::kOpened) << open.text;
        Message run;
        run.type = MsgType::kRun;
        run.session = name;
        run.n = 3;
        Message done = client.rpc(std::move(run));
        EXPECT_EQ(done.type, MsgType::kDone) << done.text;
        EXPECT_EQ(client.close(name).type, MsgType::kOk);
        return done;
    };

    std::unique_ptr<Transport> fleet_client =
        connect_socket("unix:" + path);
    ASSERT_TRUE(fleet_client);
    Message sharded = run_session(*fleet_client, "fleet-run");

    SessionManager local_sessions;
    ServerContext local_ctx;
    local_ctx.sessions = &local_sessions;
    auto [client_end, server_end] = loopback_pair();
    std::thread local_server(
        [&local_ctx, t = std::shared_ptr<Transport>(std::move(server_end))] {
            serve_connection(*t, local_ctx);
        });
    Message local = run_session(*client_end, "local-run");
    Message bye;
    bye.type = MsgType::kShutdown;
    client_end->send(encode(bye));
    local_server.join();
    EXPECT_EQ(sharded.evals, static_cast<std::uint64_t>(budget));
    EXPECT_EQ(sharded.evals, local.evals);
    EXPECT_EQ(sharded.best, local.best);

    acceptor.stop();
    server.join();
    coordinator.shutdown();
    worker.join();
}

TEST(ServeSocket, RemotePolicyMatchesLoopbackDistributed)
{
    const int budget = 12;
    const int batch = 4;
    auto study_with = [&](ExecutionPolicy policy) {
        return StudyBuilder()
            .benchmark(kBench)
            .method("baco")
            .budget(budget)
            .seed(5)
            .execution(policy)
            .build()
            .run();
    };
    StudyResult reference = study_with(ExecutionPolicy::Distributed(1, batch));

    // A worker daemon (baco_worker --listen shape) the study dials.
    std::string path = unique_unix_path("daemon");
    Listener worker_listener;
    ASSERT_TRUE(
        worker_listener.open(*parse_socket_address("unix:" + path)));
    std::thread daemon([&worker_listener] {
        std::unique_ptr<Transport> t = worker_listener.accept();
        ASSERT_TRUE(t);
        run_worker_loop(*t);
    });

    StudyResult remote = study_with(
        ExecutionPolicy::Remote({"unix:" + path}, batch));
    EXPECT_TRUE(histories_equal(reference.history, remote.history));
    daemon.join();
}

TEST(ServeSocket, AttachedPolicyDrivesAnExternallyOwnedFleet)
{
    const int budget = 12;
    const int batch = 4;
    auto study_with = [&](ExecutionPolicy policy) {
        return StudyBuilder()
            .benchmark(kBench)
            .method("baco")
            .budget(budget)
            .seed(6)
            .execution(policy)
            .build()
            .run();
    };
    StudyResult reference =
        study_with(ExecutionPolicy::Distributed(2, batch));

    Coordinator fleet;
    std::vector<std::thread> workers = attach_loopback_workers(fleet, 2);
    StudyResult first = study_with(ExecutionPolicy::Attached(&fleet, batch));
    // The fleet survives the study — a second one reuses it.
    StudyResult second =
        study_with(ExecutionPolicy::Attached(&fleet, batch));
    EXPECT_TRUE(histories_equal(reference.history, first.history));
    EXPECT_TRUE(histories_equal(reference.history, second.history));
    fleet.shutdown();
    for (std::thread& w : workers)
        w.join();
}

TEST(ServeSocket, CmdWorkerAddressSpawnsAChildProcess)
{
    if (::access("./baco_worker", X_OK) != 0)
        GTEST_SKIP() << "baco_worker binary not in the working directory";
    const int budget = 8;
    const int batch = 4;
    auto study_with = [&](ExecutionPolicy policy) {
        return StudyBuilder()
            .benchmark(kBench)
            .method("Uniform")
            .budget(budget)
            .seed(8)
            .execution(policy)
            .build()
            .run();
    };
    StudyResult reference =
        study_with(ExecutionPolicy::Distributed(1, batch));
    StudyResult spawned = study_with(
        ExecutionPolicy::Remote({"cmd:./baco_worker --capacity 2"}, batch));
    EXPECT_TRUE(histories_equal(reference.history, spawned.history));
}

TEST(ServeSocket, DeadWorkerDetectedViaMissedHeartbeats)
{
    // Reroute the event log so the death is asserted in the record a
    // fleet operator would read; restored on every exit path.
    std::string log_path = testing::TempDir() + "baco_dead_worker_" +
                           std::to_string(::getpid()) + ".jsonl";
    struct LogGuard {
        ~LogGuard()
        {
            obs::EventLog::global().configure(obs::LogLevel::kWarn, "");
        }
    } log_guard;
    obs::EventLog::global().configure(obs::LogLevel::kInfo, log_path);

    std::string path = unique_unix_path("dead");
    Listener listener;
    ASSERT_TRUE(listener.open(*parse_socket_address("unix:" + path)));
    SessionManager sessions;
    Coordinator coordinator;
    ServerContext ctx;
    ctx.sessions = &sessions;
    ctx.coordinator = &coordinator;
    Acceptor acceptor(std::move(listener), ctx);
    std::thread server([&acceptor] { acceptor.run(); });

    // A healthy worker beaconing every 50ms.
    std::thread healthy([&path] {
        std::unique_ptr<Transport> t = connect_socket("unix:" + path);
        ASSERT_TRUE(t);
        WorkerOptions opt;
        opt.heartbeat_ms = 50;
        run_worker_loop(*t, opt);
    });
    // A wedged worker: advertises the same beacon, accepts work, then
    // goes silent WITHOUT closing its socket — the shape a hung
    // evaluation (or a worker SIGSTOPped mid-run) presents. A kill(2)'d
    // process would close the socket and take the cheap kClosed path;
    // only missed heartbeats can catch this one.
    std::atomic<bool> release{false};
    std::thread wedged([&path, &release] {
        std::unique_ptr<Transport> t = connect_socket("unix:" + path);
        ASSERT_TRUE(t);
        Message hello;
        hello.type = MsgType::kHello;
        hello.text = "worker";
        hello.capacity = 1;
        hello.heartbeat_ms = 50;
        ASSERT_TRUE(t->send(encode(hello)));
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    });
    while (coordinator.num_workers() < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));

    obs::MetricsSnapshot before =
        obs::MetricsRegistry::global().snapshot();

    // A sharded run across both workers. The wedged worker's shards go
    // silent; after 2 missed 50ms heartbeat intervals the coordinator
    // must declare it dead, requeue onto the healthy worker, and still
    // finish the full budget (values are (seed, index)-derived, so the
    // requeue changes nothing observable).
    const int budget = 16;
    const Benchmark& bench = suite::find_benchmark(kBench);
    auto space = bench.make_space(SpaceVariant{});
    std::unique_ptr<AskTellTuner> tuner = MethodRegistry::global().make(
        "Uniform", *space, {budget, /*doe_samples=*/4, /*seed=*/77});
    {
        CoordinatorExecutor exec(coordinator, kBench, 77, /*max_inflight=*/4);
        drive(*tuner, exec, drive_options(/*batch_size=*/4));
    }
    TuningHistory history = tuner->take_history();
    EXPECT_EQ(history.size(), static_cast<std::size_t>(budget));

    // The registry counted the death...
    obs::MetricsSnapshot delta =
        obs::MetricsRegistry::global().snapshot().delta_since(before);
    EXPECT_GE(delta.value("coord.workers_lost_total"), 1.0);
    // ...the health registry agrees...
    int dead = 0;
    int alive = 0;
    for (const WorkerHealthSnapshot& h : coordinator.health()) {
        if (h.state == "dead")
            ++dead;
        if (h.state == "alive")
            ++alive;
    }
    EXPECT_EQ(dead, 1);
    EXPECT_EQ(alive, 1);
    EXPECT_EQ(coordinator.num_workers(), 1u);
    // ...and the event log recorded it with the heartbeat reason.
    obs::EventLog::global().configure(obs::LogLevel::kWarn, "");
    std::ifstream in(log_path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("worker_dead"), std::string::npos)
        << buf.str();
    EXPECT_NE(buf.str().find("heartbeat"), std::string::npos);

    release.store(true);
    wedged.join();
    acceptor.stop();
    server.join();
    coordinator.shutdown();
    healthy.join();
}

TEST(ServeSocket, StatsFrameIsOneBoundedRegistrySnapshot)
{
    std::string path = unique_unix_path("snapshot");
    Listener listener;
    ASSERT_TRUE(listener.open(*parse_socket_address("unix:" + path)));
    SessionManagerOptions sopt;
    sopt.checkpoint_dir = testing::TempDir() + "baco_snapshot_" +
                          std::to_string(::getpid());
    sopt.max_live_sessions = 1;
    SessionManager sessions(sopt);
    Coordinator coordinator;
    ServerContext ctx;
    ctx.sessions = &sessions;
    ctx.coordinator = &coordinator;
    Acceptor acceptor(std::move(listener), ctx);
    std::thread server([&acceptor] { acceptor.run(); });

    // The fleet: worker 0 answers evaluate frames from this test, which
    // can hold them; worker 1 is killed at once and stays listed dead.
    auto [held_end, held_side] = loopback_pair();
    ASSERT_EQ(coordinator.add_worker_registered(std::move(held_side), 1), 0);
    auto [dead_end, dead_side] = loopback_pair();
    ASSERT_EQ(coordinator.add_worker_registered(std::move(dead_side), 1), 1);
    dead_end->close();
    while (coordinator.num_workers() != 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::mutex mu;
    std::condition_variable cv;
    bool hold = false;
    int held = 0;
    std::thread worker([&, t = held_end.get()] {
        const Benchmark& bench = suite::find_benchmark(kBench);
        std::string line;
        Message m;
        while (t->recv(line, -1) == RecvStatus::kOk && decode(line, m) &&
               m.type == MsgType::kEvaluate) {
            {
                std::unique_lock<std::mutex> lock(mu);
                ++held;
                cv.notify_all();
                cv.wait(lock, [&] { return !hold; });
            }
            EvalResult e = evaluate_on(bench, m.config, m.seed, m.index);
            Message r;
            r.type = MsgType::kResult;
            r.id = m.id;
            r.run = m.run;
            r.index = m.index;
            r.value = e.value;
            r.feasible = e.feasible;
            t->send(encode(r));
        }
    });

    auto runner_t = connect_socket("unix:" + path);
    auto stats_t = connect_socket("unix:" + path);
    ASSERT_TRUE(runner_t && stats_t);
    SessionClient runner(*runner_t);
    SessionClient poller(*stats_t);
    ASSERT_TRUE(runner.handshake());
    ASSERT_TRUE(poller.handshake());
    // Opening the second session spills the first (one live slot).
    ASSERT_EQ(runner.open("parked", kBench, "Uniform", 8, 1).type,
              MsgType::kOpened);
    ASSERT_EQ(runner.open("live", kBench, "Uniform", 8, 2).type,
              MsgType::kOpened);
    ASSERT_EQ(sessions.spilled_sessions(), 1u);
    auto async_run = [&runner] {
        Message run;
        run.type = MsgType::kRun;
        run.session = "live";
        run.n = 2;
        run.budget = 2;
        run.async = true;
        return runner.rpc(std::move(run));
    };
    // A first run registers every metric a run touches, so the runs
    // below add no new names of their own.
    ASSERT_EQ(async_run().type, MsgType::kDone);
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::global().snapshot();

    // An async run stuck with one evaluation on worker 0 and one queued.
    {
        std::lock_guard<std::mutex> lock(mu);
        hold = true;
    }
    Message done;
    std::thread run_thread([&] { done = async_run(); });
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return held == 3; });
    }
    auto same_but_clock = [](const std::vector<StatEntry>& a,
                             const std::vector<StatEntry>& b) {
        if (a.size() != b.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            bool clock = a[i].name.find("last_seen_s") != std::string::npos;
            if (a[i].name != b[i].name ||
                (!clock && (a[i].value != b[i].value ||
                            a[i].count != b[i].count)))
                return false;
        }
        return true;
    };
    std::vector<StatEntry> settled;
    for (int i = 0; i < 400; ++i) {
        std::vector<StatEntry> now;
        append_stats(obs::MetricsRegistry::global().snapshot(), now);
        if (same_but_clock(now, settled))
            break;
        settled = std::move(now);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    Message reply = poller.stats();
    ASSERT_EQ(reply.type, MsgType::kStatsReport) << reply.text;
    std::vector<StatEntry> snapshot;
    append_stats(obs::MetricsRegistry::global().snapshot(), snapshot);
    ASSERT_EQ(reply.stats.size(), snapshot.size());
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
        const StatEntry& got = reply.stats[i];
        const StatEntry& want = snapshot[i];
        SCOPED_TRACE(want.name);
        EXPECT_EQ(got.name, want.name);
        EXPECT_EQ(got.kind, want.kind);
        if (want.name.find("last_seen_s") != std::string::npos) {
            // Seconds since the worker's last frame: read twice.
            EXPECT_NEAR(got.value, want.value, 1.0);
            continue;
        }
        EXPECT_EQ(got.value, want.value);
        EXPECT_EQ(got.count, want.count);
        EXPECT_EQ(got.sum, want.sum);
        EXPECT_EQ(got.p50, want.p50);
        EXPECT_EQ(got.p99, want.p99);
    }
    // The frame names the live run, both workers and both sessions.
    auto value_of = [&reply](const std::string& name) {
        for (const StatEntry& e : reply.stats)
            if (e.name == name)
                return e.value;
        ADD_FAILURE() << "no stat " << name;
        return -1.0;
    };
    std::string run_prefix;
    for (const StatEntry& e : reply.stats)
        if (e.name.rfind("coord.run.", 0) == 0 &&
            e.name.find(".inflight") != std::string::npos)
            run_prefix = e.name.substr(0, e.name.size() - 8);
    ASSERT_FALSE(run_prefix.empty());
    EXPECT_EQ(value_of(run_prefix + "inflight"), 1.0);
    EXPECT_EQ(value_of(run_prefix + "queued"), 1.0);
    EXPECT_EQ(value_of("coord.worker.0.state"), 2.0);
    EXPECT_EQ(value_of("coord.worker.1.state"), 0.0);
    EXPECT_EQ(value_of("coord.worker.alive"), 1.0);
    EXPECT_GE(value_of("sessions.live"), 1.0);
    EXPECT_GE(value_of("sessions.spilled"), 1.0);

    {
        std::lock_guard<std::mutex> lock(mu);
        hold = false;
    }
    cv.notify_all();
    run_thread.join();
    EXPECT_EQ(done.type, MsgType::kDone) << done.text;
    EXPECT_EQ(done.evals, 4u);
    EXPECT_EQ(runner.close("live").type, MsgType::kOk);
    EXPECT_EQ(runner.close("parked").type, MsgType::kOk);

    // The ended run left the registry with its entries; nothing grew.
    const obs::MetricsSnapshot after =
        obs::MetricsRegistry::global().snapshot();
    for (const obs::MetricValue& m : after.metrics)
        EXPECT_EQ(m.name.rfind(run_prefix, 0), std::string::npos) << m.name;
    EXPECT_EQ(after.metrics.size(), before.metrics.size());

    acceptor.stop();
    server.join();
    held_end->close();
    worker.join();
    coordinator.shutdown();
    std::filesystem::remove_all(sopt.checkpoint_dir);
}

TEST(ServeSocket, MetricsIntervalFileAndSigusr1Dump)
{
    if (::access("./baco_serve", X_OK) != 0)
        GTEST_SKIP() << "baco_serve binary not in the working directory";
    std::string sock = unique_unix_path("metrics");
    std::string metrics_path = testing::TempDir() + "baco_metrics_" +
                               std::to_string(::getpid()) + ".jsonl";
    std::remove(metrics_path.c_str());
    ChildProcess serve = spawn_process(
        {"./baco_serve", "--listen", "unix:" + sock, "--metrics-interval",
         "60", "--metrics-file", metrics_path, "--log-level", "error"});
    ASSERT_TRUE(serve.transport);

    std::unique_ptr<Transport> t;
    for (int i = 0; i < 400 && !t; ++i) {
        t = connect_socket("unix:" + sock);
        if (!t)
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ASSERT_TRUE(t) << "server socket never came up";
    SessionClient client(*t);
    ASSERT_TRUE(client.handshake());
    std::vector<double> values =
        drive_session(client, "m", kBench, "Uniform", 6, 3, 2);
    EXPECT_EQ(values.size(), 6u);

    auto file_contains = [&](const char* needle) {
        std::ifstream in(metrics_path);
        std::stringstream buf;
        buf << in.rdbuf();
        return buf.str().find(needle) != std::string::npos;
    };
    // The 60s interval cannot have fired: only SIGUSR1 produces this.
    ::kill(serve.pid, SIGUSR1);
    for (int i = 0; i < 200 && !file_contains("\"reason\":\"sigusr1\"");
         ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    EXPECT_TRUE(file_contains("\"reason\":\"sigusr1\""));

    t->close();
    ::kill(serve.pid, SIGTERM);
    EXPECT_EQ(wait_process(serve.pid), 0);
    // The graceful-exit dump always lands, and the dumps carry the
    // registry itself, not just headers.
    EXPECT_TRUE(file_contains("\"reason\":\"shutdown\""));
    EXPECT_TRUE(file_contains("serve.requests_total"));
}

TEST(ServeSocket, DistributedTraceMergesServerAndWorkerTracks)
{
    if (::access("./baco_serve", X_OK) != 0 ||
        ::access("./baco_worker", X_OK) != 0)
        GTEST_SKIP() << "baco_serve/baco_worker not in working directory";
    std::string sock = unique_unix_path("trace");
    std::string trace_path = testing::TempDir() + "baco_trace_dist_" +
                             std::to_string(::getpid()) + ".json";
    std::remove(trace_path.c_str());
    ChildProcess serve = spawn_process(
        {"./baco_serve", "--listen", "unix:" + sock, "--trace", trace_path,
         "--log-level", "error"});
    ASSERT_TRUE(serve.transport);
    std::unique_ptr<Transport> t;
    for (int i = 0; i < 400 && !t; ++i) {
        t = connect_socket("unix:" + sock);
        if (!t)
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ASSERT_TRUE(t) << "server socket never came up";

    ChildProcess w0 = spawn_process({"./baco_worker", "--connect",
                                     "unix:" + sock, "--heartbeat-ms",
                                     "200", "--log-level", "error"});
    ChildProcess w1 = spawn_process({"./baco_worker", "--connect",
                                     "unix:" + sock, "--heartbeat-ms",
                                     "200", "--log-level", "error"});
    ASSERT_TRUE(w0.transport && w1.transport);

    SessionClient client(*t);
    ASSERT_TRUE(client.handshake());
    // Wait for both workers to show in the fleet-health stats.
    for (int i = 0; i < 400; ++i) {
        Message stats = client.stats();
        double fleet_alive = 0.0;
        for (const StatEntry& e : stats.stats) {
            if (e.name == "coord.worker.alive")
                fleet_alive = e.value;
        }
        if (fleet_alive >= 2.0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }

    // A server-side run: the coordinator shards evaluations over both
    // worker processes, each stamped with the propagated trace context.
    ASSERT_EQ(client.open("traced", kBench, "Uniform", 16, 11).type,
              MsgType::kOpened);
    Message run;
    run.type = MsgType::kRun;
    run.session = "traced";
    run.n = 4;
    Message done = client.rpc(std::move(run));
    EXPECT_EQ(done.type, MsgType::kDone) << done.text;
    EXPECT_EQ(client.close("traced").type, MsgType::kOk);
    t->close();

    // Graceful shutdown: goodbye drain, then the merged export.
    ::kill(serve.pid, SIGTERM);
    EXPECT_EQ(wait_process(serve.pid), 0);
    wait_process(w0.pid);
    wait_process(w1.pid);

    std::ifstream in(trace_path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string doc = buf.str();
    ASSERT_FALSE(doc.empty()) << "no trace exported at " << trace_path;
    // One timeline: the server track plus both worker processes' spans.
    EXPECT_NE(doc.find("\"server\""), std::string::npos);
    EXPECT_NE(doc.find("\"worker-0\""), std::string::npos);
    EXPECT_NE(doc.find("\"worker-1\""), std::string::npos);
    EXPECT_NE(doc.find("\"worker.evaluate\""), std::string::npos);
    // Every imported span carries the SAME run id — the one the server
    // stamped on its dispatches (also recorded as pid-1 metadata).
    std::string first_run;
    std::size_t at = 0;
    int run_spans = 0;
    while ((at = doc.find("\"run\": \"", at)) != std::string::npos) {
        at += 8;
        std::string id = doc.substr(at, doc.find('"', at) - at);
        if (first_run.empty())
            first_run = id;
        EXPECT_EQ(id, first_run);
        ++run_spans;
    }
    EXPECT_GE(run_spans, 2);  // both workers shipped spans
    EXPECT_FALSE(first_run.empty());
    EXPECT_NE(doc.find(first_run), std::string::npos);
}

TEST(ServeSocket, UnreachableRemoteWorkerFailsLoudly)
{
    auto study = StudyBuilder()
                     .benchmark(kBench)
                     .method("Uniform")
                     .budget(4)
                     .execution(ExecutionPolicy::Remote(
                         {"unix:" + unique_unix_path("nowhere")}))
                     .build();
    EXPECT_THROW(study.run(), std::runtime_error);
}

TEST(ServeSocket, AddressParsing)
{
    std::string error;
    auto u = parse_socket_address("unix:/tmp/x.sock");
    ASSERT_TRUE(u);
    EXPECT_EQ(u->kind, SocketAddress::Kind::kUnix);
    EXPECT_EQ(u->path, "/tmp/x.sock");
    EXPECT_EQ(u->str(), "unix:/tmp/x.sock");

    auto t = parse_socket_address("tcp:localhost:7070");
    ASSERT_TRUE(t);
    EXPECT_EQ(t->kind, SocketAddress::Kind::kTcp);
    EXPECT_EQ(t->host, "localhost");
    EXPECT_EQ(t->port, 7070);

    auto v6 = parse_socket_address("tcp:[::1]:8080");
    ASSERT_TRUE(v6);
    EXPECT_EQ(v6->host, "::1");
    EXPECT_EQ(v6->port, 8080);
    EXPECT_EQ(v6->str(), "tcp:[::1]:8080");

    EXPECT_FALSE(parse_socket_address("unix:", &error));
    EXPECT_FALSE(parse_socket_address("tcp:nohost", &error));
    EXPECT_FALSE(parse_socket_address("tcp:h:99999", &error));
    EXPECT_FALSE(parse_socket_address("http://x", &error));
    EXPECT_FALSE(parse_socket_address("tcp:h:12x", &error));
}

}  // namespace
}  // namespace baco::serve
