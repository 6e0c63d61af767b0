#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "api/study.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "serve/coordinator.hpp"
#include "serve/stats_util.hpp"
#include "serve/transport.hpp"

namespace baco::serve {

namespace {

/**
 * Live request totals across every connection (the Acceptor's
 * AcceptorStats aggregates only finished connections, so the stats
 * frame reports these registry counters for an always-current view).
 */
struct ConnMetrics {
  obs::Counter& requests = counter("serve.requests_total");
  obs::Counter& errors = counter("serve.errors_total");
  obs::Counter& connections = counter("serve.connections_total");

  static ConnMetrics& get()
  {
      static ConnMetrics m;
      return m;
  }

 private:
  static obs::Counter& counter(const char* name)
  {
      return obs::MetricsRegistry::global().counter(name);
  }
};

/** The server-wide stats_report: global registry + registry/acceptor
 *  totals (an empty-session stats request). */
Message
handle_server_stats(const Message& req, const ServerContext& ctx)
{
    Message reply;
    reply.type = MsgType::kStatsReport;
    reply.id = req.id;
    reply.stats_version = kStatsVersion;
    append_stats(obs::MetricsRegistry::global().snapshot(), reply.stats);
    reply.stats.push_back(stat_gauge(
        "sessions.live", static_cast<double>(ctx.sessions->size())));
    reply.stats.push_back(stat_gauge(
        "sessions.spilled",
        static_cast<double>(ctx.sessions->spilled_sessions())));
    reply.stats.push_back(stat_counter(
        "sessions.spill_total",
        static_cast<double>(ctx.sessions->spill_count())));
    reply.stats.push_back(stat_counter(
        "sessions.reload_total",
        static_cast<double>(ctx.sessions->reload_count())));
    if (ctx.acceptor) {
        AcceptorStats a = ctx.acceptor->stats();
        reply.stats.push_back(stat_counter(
            "acceptor.accepted_total", static_cast<double>(a.accepted)));
        reply.stats.push_back(
            stat_counter("acceptor.workers_attached_total",
                         static_cast<double>(a.workers_attached)));
        reply.stats.push_back(stat_counter(
            "acceptor.rejected_total", static_cast<double>(a.rejected)));
        reply.stats.push_back(stat_counter(
            "acceptor.finished_requests_total",
            static_cast<double>(a.requests)));
        reply.stats.push_back(stat_counter(
            "acceptor.finished_errors_total",
            static_cast<double>(a.errors)));
        reply.stats.push_back(stat_gauge(
            "acceptor.peak_clients", static_cast<double>(a.peak_clients)));
        reply.stats.push_back(stat_gauge(
            "acceptor.live_clients",
            static_cast<double>(ctx.acceptor->live_clients())));
    }
    if (ctx.coordinator) {
        // Per-run scheduler counters: one gauge triple per active run,
        // so a stats poll shows who is on the fleet right now.
        std::vector<RunStatsSnapshot> runs = ctx.coordinator->run_stats();
        reply.stats.push_back(stat_gauge(
            "coord.runs.active.now", static_cast<double>(runs.size())));
        for (const RunStatsSnapshot& r : runs) {
            std::string prefix = "coord.run." + std::to_string(r.run) + ".";
            reply.stats.push_back(stat_gauge(
                prefix + "inflight", static_cast<double>(r.inflight)));
            reply.stats.push_back(stat_gauge(
                prefix + "queued", static_cast<double>(r.queued)));
            reply.stats.push_back(stat_counter(
                prefix + "landed", static_cast<double>(r.landed)));
        }
        // Fleet health from the WorkerHealth registry (its own mutex, so
        // this is safe while sharded runs are in flight). State is
        // encoded numerically: 2 alive, 1 slow, 0 dead.
        double alive = 0.0;
        double slow = 0.0;
        for (const WorkerHealthSnapshot& h : ctx.coordinator->health()) {
            std::string prefix =
                "coord.worker." + std::to_string(h.worker) + ".";
            double state = h.state == "alive" ? 2.0
                           : h.state == "slow" ? 1.0
                                               : 0.0;
            alive += h.state != "dead" ? 1.0 : 0.0;
            slow += h.state == "slow" ? 1.0 : 0.0;
            reply.stats.push_back(stat_gauge(prefix + "state", state));
            reply.stats.push_back(stat_gauge(
                prefix + "inflight", static_cast<double>(h.inflight)));
            reply.stats.push_back(stat_counter(
                prefix + "completed", static_cast<double>(h.completed)));
            reply.stats.push_back(stat_counter(
                prefix + "heartbeats",
                static_cast<double>(h.heartbeats)));
            reply.stats.push_back(
                stat_gauge(prefix + "ewma_latency_s", h.ewma_latency_s));
            reply.stats.push_back(
                stat_gauge(prefix + "last_seen_s", h.last_seen_s));
        }
        reply.stats.push_back(stat_gauge("coord.fleet.alive", alive));
        reply.stats.push_back(stat_gauge("coord.fleet.slow", slow));
    }
    return reply;
}

/**
 * Server-side drive of one session: Study::advance on the session's
 * study, on the coordinator's fleet when workers are attached and
 * in-process otherwise. A sync run drives barrier rounds of n; an async
 * run keeps n evaluations in flight, tells each as it lands and streams
 * one result frame per told evaluation. The drive's executor opens its
 * own coordinator run lease (subject to admission control), so nothing
 * here serializes connections against each other.
 */
Message
handle_run(const Message& req, const ServerContext& ctx, Transport& stream)
{
    // An async run's n is also the pool's thread count without workers:
    // clamp the client-supplied value so one frame cannot make the
    // server spawn an unbounded thread fleet.
    constexpr int kMaxAsyncSlots = 64;
    constexpr int kDefaultAsyncSlots = 4;
    const bool async = req.async || ctx.async_runs;
    const int n = async ? std::clamp(req.n > 0 ? req.n : kDefaultAsyncSlots,
                                     1, kMaxAsyncSlots)
                        : std::max(1, req.n);
    const ExecutionPolicy policy =
        ctx.coordinator && ctx.coordinator->num_workers() > 0
            ? ExecutionPolicy::Attached(ctx.coordinator, n, async)
        : async ? ExecutionPolicy::Async(n, /*num_threads=*/n)
                : ExecutionPolicy::Batched(n, /*num_threads=*/1);
    StudyEventFn on_event;
    if (async) {
        on_event = [&](const AsyncEvent& ev) {
            Message frame;
            frame.type = MsgType::kResult;
            frame.id = req.id;
            frame.index = ev.index;
            frame.value = ev.result.value;
            frame.feasible = ev.result.feasible;
            frame.eval_seconds = ev.eval_seconds;
            frame.evals = ev.evals;
            frame.best = ev.best;
            if (!stream.send(encode(frame))) {
                // The client is gone: abort the drive instead of burning
                // the session's remaining budget into a dead pipe. (The
                // drive drains its in-flight work before rethrowing; the
                // coordinator absorbs late worker replies as benign.)
                throw std::runtime_error(
                    "client disconnected during async run");
            }
        };
    }

    Message done;
    done.type = MsgType::kDone;
    done.id = req.id;
    bool drove = ctx.sessions->with_study(req.session, [&](Study& study) {
        study.advance(policy, req.budget > 0 ? req.budget : -1, on_event);
        done.evals = study.tuner().history().size();
        done.best = study.tuner().history().best_value;
    });
    if (!drove) {
        return make_error(req.id,
                          "no such session (or a batch is outstanding): " +
                              req.session);
    }
    return done;
}

}  // namespace

ServeStats
serve_connection(Transport& transport, const ServerContext& ctx)
{
    ServeStats stats;
    if (!ctx.sessions)
        return stats;

    std::string line;
    if (transport.recv(line) != RecvStatus::kOk)
        return stats;
    Message hello;
    if (!decode(line, hello)) {
        transport.send(encode(make_error(0, "expected hello frame")));
        return stats;
    }
    return serve_connection(transport, ctx, hello);
}

ServeStats
serve_connection(Transport& transport, const ServerContext& ctx,
                 const Message& hello)
{
    ServeStats stats;
    if (!ctx.sessions)
        return stats;

    // ---- Version handshake. ----
    std::string line;
    if (hello.type != MsgType::kHello) {
        transport.send(encode(make_error(0, "expected hello frame")));
        return stats;
    }
    if (hello.version != kProtocolVersion) {
        transport.send(encode(make_error(
            0, "protocol version mismatch: server speaks v" +
                   std::to_string(kProtocolVersion) + ", client sent v" +
                   std::to_string(hello.version))));
        return stats;
    }
    Message welcome;
    welcome.type = MsgType::kWelcome;
    if (!transport.send(encode(welcome)))
        return stats;
    stats.handshake_ok = true;
    ConnMetrics::get().connections.add();

    // ---- Request/response loop. ----
    auto last_sweep = std::chrono::steady_clock::now();
    for (;;) {
        if (transport.recv(line) != RecvStatus::kOk)
            break;
        stats.requests += 1;
        ConnMetrics::get().requests.add();
        Message req;
        std::string err;
        if (!decode(line, req, &err)) {
            stats.errors += 1;
            ConnMetrics::get().errors.add();
            if (!transport.send(encode(make_error(0, err))))
                break;
            continue;
        }
        if (req.type == MsgType::kShutdown)
            break;

        Message reply;
        if (req.type == MsgType::kStats && req.session.empty()) {
            reply = handle_server_stats(req, ctx);
        } else if (req.type == MsgType::kRun) {
            try {
                reply = handle_run(req, ctx, transport);
            } catch (const CoordinatorBusy& e) {
                // Admission refusal: a machine-readable code so clients
                // can back off and retry instead of parsing the text.
                reply = make_error(req.id, e.what());
                reply.code = "busy";
            } catch (const std::exception& e) {
                reply = make_error(req.id, e.what());
            }
        } else {
            reply = ctx.sessions->handle(req);
        }
        if (reply.type == MsgType::kError) {
            stats.errors += 1;
            ConnMetrics::get().errors.add();
        }
        if (!transport.send(encode(reply)))
            break;
        // Idle eviction is a full-registry sweep; time-gate it so busy
        // connections don't pay O(sessions) per request.
        auto now = std::chrono::steady_clock::now();
        if (now - last_sweep >= std::chrono::seconds(1)) {
            last_sweep = now;
            ctx.sessions->evict_idle();
        }
    }
    return stats;
}

// ---------------------------------------------------------------------------
// Acceptor
// ---------------------------------------------------------------------------

Acceptor::Acceptor(Listener listener, ServerContext ctx, AcceptorOptions opt)
    : listener_(std::move(listener)), ctx_(ctx), opt_(opt)
{
    if (opt_.max_clients < 1)
        opt_.max_clients = 1;
    if (opt_.poll_ms < 1)
        opt_.poll_ms = 1;
    // Connections report the acceptor's aggregation in the server-wide
    // stats frame.
    ctx_.acceptor = this;
}

Acceptor::~Acceptor()
{
    stop();
    reap(/*all=*/true);
}

void
Acceptor::stop()
{
    stopping_.store(true);
    listener_.close();
}

std::size_t
Acceptor::live_clients() const
{
    MutexLock lock(mutex_);
    std::size_t live = 0;
    for (const auto& c : connections_)
        if (c->is_client.load() && !c->done.load())
            ++live;
    return live;
}

AcceptorStats
Acceptor::stats() const
{
    MutexLock lock(mutex_);
    return stats_;
}

void
Acceptor::reap(bool all)
{
    // Joining with mutex_ held would deadlock against a connection
    // thread recording its stats, so move the finished (or, on
    // shutdown, every) connection out first and join unlocked. A
    // thread's done flag is set strictly after its stats section, so a
    // done connection never touches the mutex again.
    std::vector<std::unique_ptr<Connection>> finished;
    {
        MutexLock lock(mutex_);
        auto it = connections_.begin();
        while (it != connections_.end()) {
            if (all || (*it)->done.load()) {
                finished.push_back(std::move(*it));
                it = connections_.erase(it);
            } else {
                ++it;
            }
        }
    }
    // Close everything first, join second: a connection thread can be
    // mid-run waiting on coordinator results, and only its own
    // transport closing unsticks the streaming path — an interleaved
    // close-then-join could join a thread whose unblocker comes later
    // in the list. Transports whose ownership moved on (attached
    // workers) are left open — the coordinator shuts them down.
    if (all) {
        for (auto& c : finished) {
            if (!c->released.load())
                c->transport->close();
        }
    }
    for (auto& c : finished) {
        if (c->thread.joinable())
            c->thread.join();
    }
}

namespace {

/** Transport view over shared ownership (a worker connection's socket
 *  outlives its Acceptor connection record). */
class SharedTransport : public Transport {
 public:
    explicit SharedTransport(std::shared_ptr<Transport> inner)
        : inner_(std::move(inner))
    {
    }

    bool
    send(const std::string& line) override
    {
        return inner_->send(line);
    }

    RecvStatus
    recv(std::string& line, int timeout_ms) override
    {
        return inner_->recv(line, timeout_ms);
    }

    void
    close() override
    {
        inner_->close();
    }

 private:
    std::shared_ptr<Transport> inner_;
};

}  // namespace

void
Acceptor::route_connection(Connection* conn)
{
    // First frame, read on the connection's own thread — a client that
    // connects and sends nothing stalls only itself, never the accept
    // loop. Routing on it is what lets one listening socket serve both
    // session clients and worker registrations.
    Transport& transport = *conn->transport;
    std::string line;
    std::string reject;
    Message hello;
    if (transport.recv(line, opt_.hello_timeout_ms) != RecvStatus::kOk) {
        reject = "";  // silent connection: nothing to answer
    } else if (!decode(line, hello)) {
        reject = "expected hello frame";
    } else if (hello.type == MsgType::kHello && hello.text == "worker") {
        if (!ctx_.coordinator) {
            reject = "server accepts no workers";
        } else if (hello.version != kProtocolVersion) {
            reject = "protocol version mismatch";
        } else {
            // Attach (or re-attach — a worker killed for heartbeat loss
            // reconnects through this same path) mid-run is safe: the
            // Coordinator synchronizes internally and re-leases the new
            // worker to whatever runs have queued work.
            ctx_.coordinator->add_worker_registered(
                std::make_unique<SharedTransport>(conn->transport),
                hello.capacity, hello.heartbeat_ms);
            conn->released.store(true);
            MutexLock lock(mutex_);
            stats_.workers_attached += 1;
            conn->done.store(true);
            return;
        }
    } else {
        // A session client (or a first frame serve_connection will
        // answer with an error): admit it against the client cap.
        MutexLock lock(mutex_);
        std::size_t live = 0;
        for (const auto& c : connections_)
            if (c->is_client.load() && !c->done.load())
                ++live;
        if (live >= static_cast<std::size_t>(opt_.max_clients)) {
            stats_.rejected += 1;
            lock.unlock();
            obs::log_warn("serve", "client_rejected",
                          obs::LogFields()
                              .str("reason", "server_full")
                              .num("max_clients", opt_.max_clients));
            transport.send(encode(make_error(
                0, "server full: " + std::to_string(opt_.max_clients) +
                       " clients connected")));
            conn->done.store(true);
            return;
        }
        conn->is_client.store(true);
        stats_.accepted += 1;
        stats_.peak_clients = std::max<std::uint64_t>(stats_.peak_clients,
                                                      live + 1);
        lock.unlock();

        ServeStats s = serve_connection(transport, ctx_, hello);
        MutexLock guard(mutex_);
        stats_.requests += s.requests;
        stats_.errors += s.errors;
        conn->done.store(true);
        return;
    }

    if (!reject.empty())
        transport.send(encode(make_error(0, reject)));
    {
        MutexLock lock(mutex_);
        stats_.rejected += 1;
    }
    conn->done.store(true);
}

void
Acceptor::run()
{
    while (!stopping_.load() && !listener_.closed()) {
        std::unique_ptr<Transport> client = listener_.accept(opt_.poll_ms);
        if (client && !stopping_.load()) {
            MutexLock lock(mutex_);
            // Hard bound on connection threads: the per-role caps are
            // enforced post-hello, so allow slack for connections still
            // introducing themselves, but never unbounded growth under
            // a connect flood.
            std::size_t live = 0;
            for (const auto& c : connections_)
                if (!c->done.load())
                    ++live;
            if (live >= static_cast<std::size_t>(opt_.max_clients) + 16) {
                // Dropped without a frame; the flood case by definition
                // has no well-behaved peer waiting for an answer.
            } else {
                // Spawn and publish under the same lock: a shutdown
                // reap must never see a connection whose thread member
                // is not yet assigned. The new thread touches mutex_
                // only under its own locks, so no lock-order issue.
                auto conn = std::make_unique<Connection>();
                conn->transport =
                    std::shared_ptr<Transport>(std::move(client));
                Connection* raw = conn.get();
                raw->thread =
                    std::thread([this, raw] { route_connection(raw); });
                connections_.push_back(std::move(conn));
            }
        }
        reap(/*all=*/false);
    }
    reap(/*all=*/true);
}

}  // namespace baco::serve
