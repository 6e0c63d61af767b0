// Run-multiplexed coordination: concurrent fleet-driven runs on one
// shared worker fleet must each reproduce their undisturbed serial
// references bit-for-bit, admission control must refuse runs past the
// cap with a structured "busy" error, and a worker killed for
// heartbeat silence must be able to re-register over the same socket
// and be re-leased to new runs.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/study.hpp"
#include "drive_reference.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/coordinator.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session_manager.hpp"
#include "serve/transport.hpp"
#include "serve/worker.hpp"
#include "suite/registry.hpp"
#include "suite/runner.hpp"

namespace baco::serve {
namespace {

constexpr const char* kBench = "SDDMM/email-Enron";

std::string
unique_unix_path(const std::string& tag)
{
    static int counter = 0;
    return testing::TempDir() + "baco_conc_" + tag + "_" +
           std::to_string(::getpid()) + "_" + std::to_string(counter++) +
           ".sock";
}

/** A worker fleet of loopback threads attached to a coordinator. */
struct Fleet {
  Coordinator coordinator;
  std::vector<std::thread> threads;

  explicit Fleet(int workers, CoordinatorOptions opt = CoordinatorOptions{})
      : coordinator(opt)
  {
      threads = attach_loopback_workers(coordinator, workers);
      EXPECT_EQ(coordinator.num_workers(),
                static_cast<std::size_t>(workers));
  }

  ~Fleet()
  {
      coordinator.shutdown();
      for (std::thread& t : threads)
          t.join();
  }
};

TEST(ServeConcurrent, RunTagAndBusyCodeRoundTripAndStayOffLegacyFrames)
{
    // The run tag crosses the wire on every frame type that carries it.
    Message m;
    m.type = MsgType::kEvaluate;
    m.id = 77;
    m.benchmark = kBench;
    m.seed = 9;
    m.index = 4;
    m.run = 7;
    std::string wire = encode(m);
    EXPECT_NE(wire.find("\"run\":7"), std::string::npos) << wire;
    Message out;
    ASSERT_TRUE(decode(wire, out));
    EXPECT_EQ(out.run, 7u);

    // An untagged frame is byte-identical to the pre-multiplexing
    // protocol: no "run" key at all, and decoding leaves run at 0.
    m.run = 0;
    wire = encode(m);
    EXPECT_EQ(wire.find("\"run\""), std::string::npos) << wire;
    Message legacy;
    ASSERT_TRUE(decode(wire, legacy));
    EXPECT_EQ(legacy.run, 0u);

    Message r;
    r.type = MsgType::kResult;
    r.id = 77;
    r.value = 2.5;
    r.run = 7;
    ASSERT_TRUE(decode(encode(r), out));
    EXPECT_EQ(out.run, 7u);

    Message beat;
    beat.type = MsgType::kHeartbeat;
    beat.evals = 5;
    beat.run = 7;
    ASSERT_TRUE(decode(encode(beat), out));
    EXPECT_EQ(out.run, 7u);

    Message bye;
    bye.type = MsgType::kGoodbye;
    bye.evals = 9;
    bye.run = 7;
    ASSERT_TRUE(decode(encode(bye), out));
    EXPECT_EQ(out.run, 7u);

    // The machine-readable error code: absent unless set, round-trips
    // when set.
    Message err = make_error(77, "coordinator busy: 1 active runs");
    EXPECT_EQ(encode(err).find("\"code\""), std::string::npos);
    err.code = "busy";
    wire = encode(err);
    EXPECT_NE(wire.find("\"code\":\"busy\""), std::string::npos) << wire;
    ASSERT_TRUE(decode(wire, out));
    EXPECT_EQ(out.code, "busy");
}

TEST(ServeConcurrent, ConcurrentFleetRunsMatchSerialRuns)
{
    // Three tuning runs share one 2-worker fleet CONCURRENTLY; each
    // must produce bit-for-bit the history an undisturbed fleet gives
    // its seed. This is the determinism acceptance pin for the
    // run-multiplexed scheduler: values are (seed, index)-derived and
    // assembly is per-run, so interleaving must be unobservable.
    const Benchmark& b = suite::find_benchmark(kBench);
    const int budget = 12;
    const int batch = 3;
    const std::uint64_t seeds[] = {61, 62, 63};
    constexpr int kRuns = 3;

    std::vector<TuningHistory> refs;
    for (std::uint64_t seed : seeds)
        refs.push_back(reference_run(b, "BaCO", budget, seed, batch));

    Fleet fleet(2);
    std::vector<TuningHistory> got(kRuns);
    std::vector<std::thread> drivers;
    for (int i = 0; i < kRuns; ++i) {
        drivers.emplace_back([&fleet, &got, &seeds, &b, i] {
            std::shared_ptr<SearchSpace> space =
                b.make_space(SpaceVariant{});
            std::unique_ptr<AskTellTuner> tuner =
                MethodRegistry::global().make(
                    "BaCO", *space, {budget, b.doe_samples, seeds[i]});
            {
                CoordinatorExecutor exec(fleet.coordinator, b.name,
                                         seeds[i], batch);
                drive(*tuner, exec, drive_options(batch));
            }
            got[i] = tuner->take_history();
        });
    }
    for (std::thread& t : drivers)
        t.join();
    for (int i = 0; i < kRuns; ++i) {
        EXPECT_TRUE(histories_equal(refs[i], got[i]))
            << "seed " << seeds[i];
    }
}

TEST(ServeConcurrent, AttachedStudyIsOneCoordinatorRun)
{
    // A synchronous Attached study holds one coordinator run for its
    // whole budget: one admission, and with max_active_runs = 1 a second
    // tenant is refused for as long as the study runs — it can never
    // slip in between two rounds and make the study itself busy.
    CoordinatorOptions copt;
    copt.max_active_runs = 1;
    Fleet fleet(2, copt);
    bool refused = false;
    Coordinator::RunLease intruder;
    obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
    StudyResult r;
    EXPECT_NO_THROW(
        r = StudyBuilder()
                .benchmark(kBench)
                .method("random")
                .budget(40)
                .seed(3)
                .execution(ExecutionPolicy::Attached(&fleet.coordinator, 4))
                .on_event([&](const AsyncEvent& ev) {
                    if (ev.evals != 4)
                        return;  // once, after the first round
                    try {
                        intruder = fleet.coordinator.begin_run();
                    } catch (const CoordinatorBusy&) {
                        refused = true;
                    }
                })
                .build()
                .run());
    intruder.reset();
    obs::MetricsSnapshot delta =
        obs::MetricsRegistry::global().snapshot().delta_since(before);
    EXPECT_TRUE(refused);
    EXPECT_EQ(r.history.size(), 40u);
    EXPECT_EQ(delta.value("coord.runs.admitted_total"), 1.0);
}

TEST(ServeConcurrent, AttachedFleetHonoursPolicySuggestAhead)
{
    // suggest_ahead is one policy option: an attached fleet reads it
    // from the ExecutionPolicy exactly like an owned one.
    Fleet fleet(3);
    ExecutionPolicy policy =
        ExecutionPolicy::Attached(&fleet.coordinator, 4, /*async=*/true);
    policy.suggest_ahead = true;
    obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
    StudyResult r = StudyBuilder()
                        .benchmark(kBench)
                        .method("baco")
                        .budget(24)
                        .seed(23)
                        .execution(policy)
                        .build()
                        .run();
    obs::MetricsSnapshot delta =
        obs::MetricsRegistry::global().snapshot().delta_since(before);
    EXPECT_EQ(r.history.size(), 24u);
    EXPECT_GE(delta.value("engine.suggest_ahead_total"), 1.0);
    EXPECT_GE(delta.value("engine.suggest_ahead_used_total"), 1.0);
}

TEST(ServeConcurrent, ConcurrentRunRequestsShareTheFleet)
{
    // Server level: two socket clients issue overlapping sync run
    // frames against one acceptor and a shared 2-worker fleet. Both
    // must complete their full budgets with the outcomes an unshared
    // in-process run gives the same (session, seed).
    const int budget = 9;
    const int batch = 3;
    std::string path = unique_unix_path("share");
    Listener listener;
    ASSERT_TRUE(listener.open(*parse_socket_address("unix:" + path)));
    SessionManager sessions;
    Coordinator coordinator;
    std::vector<std::thread> workers =
        attach_loopback_workers(coordinator, 2);
    ServerContext ctx;
    ctx.sessions = &sessions;
    ctx.coordinator = &coordinator;
    Acceptor acceptor(std::move(listener), ctx);
    std::thread server([&acceptor] { acceptor.run(); });

    auto run_session = [&](Transport& t, const std::string& name,
                           std::uint64_t seed) {
        SessionClient client(t);
        EXPECT_TRUE(client.handshake());
        Message open = client.open(name, kBench, "baco", budget, seed);
        EXPECT_EQ(open.type, MsgType::kOpened) << open.text;
        Message run;
        run.type = MsgType::kRun;
        run.session = name;
        run.n = batch;
        Message done = client.rpc(std::move(run));
        EXPECT_EQ(done.type, MsgType::kDone) << done.text;
        EXPECT_EQ(client.close(name).type, MsgType::kOk);
        return done;
    };

    // Undisturbed references: the same runs over single-connection
    // servers with no fleet (determinism is placement-independent, so
    // in-process evaluation is the same contract).
    auto reference = [&](const std::string& name, std::uint64_t seed) {
        SessionManager local_sessions;
        ServerContext local_ctx;
        local_ctx.sessions = &local_sessions;
        auto [client_end, server_end] = loopback_pair();
        std::thread local_server(
            [&local_ctx,
             t = std::shared_ptr<Transport>(std::move(server_end))] {
                serve_connection(*t, local_ctx);
            });
        Message done = run_session(*client_end, name, seed);
        Message bye;
        bye.type = MsgType::kShutdown;
        client_end->send(encode(bye));
        local_server.join();
        return done;
    };
    Message ref1 = reference("c1", 41);
    Message ref2 = reference("c2", 42);

    Message done1;
    Message done2;
    std::thread client1([&] {
        std::unique_ptr<Transport> t = connect_socket("unix:" + path);
        ASSERT_TRUE(t);
        done1 = run_session(*t, "c1", 41);
    });
    std::thread client2([&] {
        std::unique_ptr<Transport> t = connect_socket("unix:" + path);
        ASSERT_TRUE(t);
        done2 = run_session(*t, "c2", 42);
    });
    client1.join();
    client2.join();

    EXPECT_EQ(done1.evals, static_cast<std::uint64_t>(budget));
    EXPECT_EQ(done2.evals, static_cast<std::uint64_t>(budget));
    EXPECT_EQ(done1.evals, ref1.evals);
    EXPECT_EQ(done1.best, ref1.best);
    EXPECT_EQ(done2.evals, ref2.evals);
    EXPECT_EQ(done2.best, ref2.best);

    acceptor.stop();
    server.join();
    coordinator.shutdown();
    for (std::thread& w : workers)
        w.join();
}

TEST(ServeConcurrent, AdmissionControlCapsActiveRuns)
{
    CoordinatorOptions copt;
    copt.max_active_runs = 1;
    Fleet fleet(1, copt);
    {
        Coordinator::RunLease lease = fleet.coordinator.begin_run();
        ASSERT_TRUE(lease);
        EXPECT_EQ(fleet.coordinator.active_runs(), 1u);
        // Past the cap with no admission wait: an immediate refusal.
        EXPECT_THROW(fleet.coordinator.begin_run(), CoordinatorBusy);
        EXPECT_EQ(fleet.coordinator.active_runs(), 1u);
    }
    // The lease released its run: admission reopens.
    Coordinator::RunLease next = fleet.coordinator.begin_run();
    EXPECT_TRUE(next);
    EXPECT_EQ(fleet.coordinator.active_runs(), 1u);
}

TEST(ServeConcurrent, BusyRunRequestGetsStructuredErrorFrame)
{
    // A run frame refused by admission control must come back as an
    // error with code "busy" — machine-readable backoff, not text
    // matching — and succeed once the fleet frees up.
    std::string path = unique_unix_path("busy");
    Listener listener;
    ASSERT_TRUE(listener.open(*parse_socket_address("unix:" + path)));
    SessionManager sessions;
    CoordinatorOptions copt;
    copt.max_active_runs = 1;
    Coordinator coordinator(copt);
    std::vector<std::thread> workers =
        attach_loopback_workers(coordinator, 1);
    ServerContext ctx;
    ctx.sessions = &sessions;
    ctx.coordinator = &coordinator;
    Acceptor acceptor(std::move(listener), ctx);
    std::thread server([&acceptor] { acceptor.run(); });

    std::unique_ptr<Transport> t = connect_socket("unix:" + path);
    ASSERT_TRUE(t);
    SessionClient client(*t);
    ASSERT_TRUE(client.handshake());
    ASSERT_EQ(client.open("b", kBench, "Uniform", 6, 3).type,
              MsgType::kOpened);

    Message run;
    run.type = MsgType::kRun;
    run.session = "b";
    run.n = 2;
    {
        // The only admission slot is held elsewhere (another tenant
        // mid-run, modeled by a direct lease on the shared fleet).
        Coordinator::RunLease occupant = coordinator.begin_run();
        Message refused = client.rpc(Message(run));
        ASSERT_EQ(refused.type, MsgType::kError) << refused.text;
        EXPECT_EQ(refused.code, "busy") << refused.text;
    }
    Message done = client.rpc(Message(run));
    EXPECT_EQ(done.type, MsgType::kDone) << done.text;
    EXPECT_EQ(done.evals, 6u);
    EXPECT_EQ(client.close("b").type, MsgType::kOk);

    acceptor.stop();
    server.join();
    coordinator.shutdown();
    for (std::thread& w : workers)
        w.join();
}

/** Makes one worker's result frames wait for another worker's first. */
struct ResultGate {
  std::mutex mu;
  std::condition_variable cv;
  bool armed = false;   ///< the waiting worker's results wait while set
  bool opened = false;  ///< the opening worker has sent a result
};

/**
 * A worker's transport whose result frames either open the gate or wait
 * (at most 10 s) until it is open. Every other frame, heartbeats
 * included, passes straight through.
 */
class GatedTransport : public Transport {
 public:
  GatedTransport(std::unique_ptr<Transport> inner, ResultGate& gate,
                 bool opener)
      : inner_(std::move(inner)), gate_(gate), opener_(opener)
  {
  }

  bool
  send(const std::string& line) override
  {
      Message m;
      if (decode(line, m) && m.type == MsgType::kResult) {
          std::unique_lock<std::mutex> lock(gate_.mu);
          if (opener_) {
              gate_.opened = true;
              gate_.cv.notify_all();
          } else {
              gate_.cv.wait_for(lock, std::chrono::seconds(10), [this] {
                  return !gate_.armed || gate_.opened;
              });
          }
      }
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
  std::unique_ptr<Transport> inner_;
  ResultGate& gate_;
  const bool opener_;
};

TEST(ServeConcurrent, WorkerReconnectsAfterHeartbeatDeath)
{
    // A worker goes silent mid-run (hung evaluation shape: socket open,
    // no beats). The run must complete on the survivor with results
    // identical to an undisturbed fleet; the SAME worker binary then
    // reconnects through the acceptor's registration path, is re-leased
    // work, and the next run matches its undisturbed reference too. In
    // that run the healthy worker's results wait for the reborn worker's
    // first, so how many shards the reborn one serves depends on the
    // fleet, not on scheduling.
    const Benchmark& b = suite::find_benchmark(kBench);
    const int budget = 16;
    const int batch = 4;

    auto reference = [&](std::uint64_t seed) {
        return reference_run(b, "Uniform", budget, seed, batch);
    };
    TuningHistory ref1 = reference(77);
    TuningHistory ref2 = reference(78);

    std::string path = unique_unix_path("reborn");
    Listener listener;
    ASSERT_TRUE(listener.open(*parse_socket_address("unix:" + path)));
    SessionManager sessions;
    Coordinator coordinator;
    ServerContext ctx;
    ctx.sessions = &sessions;
    ctx.coordinator = &coordinator;
    Acceptor acceptor(std::move(listener), ctx);
    std::thread server([&acceptor] { acceptor.run(); });

    ResultGate gate;
    std::thread healthy([&path, &gate] {
        std::unique_ptr<Transport> t = connect_socket("unix:" + path);
        ASSERT_TRUE(t);
        GatedTransport gated(std::move(t), gate, /*opener=*/false);
        WorkerOptions opt;
        opt.heartbeat_ms = 50;
        run_worker_loop(gated, opt);
    });
    // The wedged worker: advertises a 50ms beacon, accepts work, never
    // answers and never beats — only missed heartbeats can catch it.
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

    auto drive = [&](std::uint64_t seed) {
        std::shared_ptr<SearchSpace> space = b.make_space(SpaceVariant{});
        std::unique_ptr<AskTellTuner> tuner = MethodRegistry::global().make(
            "Uniform", *space, {budget, b.doe_samples, seed});
        {
            CoordinatorExecutor exec(coordinator, b.name, seed, batch);
            baco::drive(*tuner, exec, drive_options(batch));
        }
        return tuner->take_history();
    };

    TuningHistory mid_death = drive(77);
    EXPECT_TRUE(histories_equal(ref1, mid_death));
    EXPECT_EQ(coordinator.num_workers(), 1u);  // the wedge was killed

    // Re-registration: the same worker loop reconnects over the same
    // listening socket and must be admitted back into the fleet.
    std::thread reborn([&path, &gate] {
        std::unique_ptr<Transport> t = connect_socket("unix:" + path);
        ASSERT_TRUE(t);
        GatedTransport gated(std::move(t), gate, /*opener=*/true);
        WorkerOptions opt;
        opt.heartbeat_ms = 50;
        run_worker_loop(gated, opt);
    });
    while (coordinator.num_workers() < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    {
        std::lock_guard<std::mutex> lock(gate.mu);
        gate.armed = true;
    }

    TuningHistory after_rebirth = drive(78);
    EXPECT_TRUE(histories_equal(ref2, after_rebirth));

    // The re-registered worker (health slot 2) actually served shards —
    // re-leasing is real, not just a live socket.
    std::uint64_t reborn_completed = 0;
    int alive = 0;
    for (const WorkerHealthSnapshot& h : coordinator.health()) {
        if (h.state == "alive")
            ++alive;
        if (h.worker == 2)
            reborn_completed = h.completed;
    }
    EXPECT_EQ(alive, 2);
    EXPECT_GE(reborn_completed, 1u);

    release.store(true);
    wedged.join();
    acceptor.stop();
    server.join();
    coordinator.shutdown();
    healthy.join();
    reborn.join();
}

}  // namespace
}  // namespace baco::serve
