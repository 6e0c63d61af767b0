// The coordinator + worker fleet: shard-deterministic distributed runs
// matching thread-pool drives and the reference serial loop,
// worker-failure recovery, straggler re-dispatch, backpressure, and the
// checkpointed kill/resume of a distributed run.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "api/study.hpp"
#include "drive_reference.hpp"
#include "exec/checkpoint.hpp"
#include "exec/drive.hpp"
#include "exec/eval_cache.hpp"
#include "obs/metrics.hpp"
#include "serve/coordinator.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"
#include "serve/worker.hpp"
#include "suite/registry.hpp"
#include "suite/runner.hpp"

namespace baco::serve {
namespace {

constexpr const char* kBench = "SDDMM/email-Enron";

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

/** drive() `tuner` on kBench across the coordinator's fleet. */
void
fleet_drive(Coordinator& coordinator, AskTellTuner& tuner, DriveOptions opt)
{
    CoordinatorExecutor exec(coordinator, kBench, tuner.run_seed(),
                             opt.batch_size);
    drive(tuner, exec, std::move(opt));
}

/**
 * Evaluate configs[i] of kBench under index first_index + i across the
 * fleet, as one run; results in input order. Rethrows a failed
 * evaluation.
 */
std::vector<EvalResult>
fleet_evaluate(Coordinator& coordinator, std::uint64_t seed,
               std::uint64_t first_index,
               const std::vector<Configuration>& configs,
               double* eval_seconds = nullptr)
{
    CoordinatorExecutor exec(coordinator, kBench, seed);
    for (std::size_t i = 0; i < configs.size(); ++i)
        exec.submit(first_index + i, configs[i]);
    std::vector<EvalResult> results(configs.size());
    for (std::size_t n = 0; n < configs.size(); ++n) {
        Landed l = exec.wait_any();
        if (l.error)
            std::rethrow_exception(l.error);
        results[l.index - first_index] = l.result;
        if (eval_seconds)
            *eval_seconds += l.eval_seconds;
    }
    return results;
}

/** The history of a kBench study under `policy`. */
TuningHistory
study_history(const char* method, int budget, std::uint64_t seed,
              const ExecutionPolicy& policy, EvalCache* cache = nullptr)
{
    StudyBuilder sb;
    sb.benchmark(kBench).method(method).budget(budget).seed(seed).execution(
        policy);
    if (cache)
        sb.cache(cache);
    return sb.build().run().history;
}

TEST(ServeDistributed, TwoWorkersReproduceBatchedPoolTrajectory)
{
    // The headline acceptance check: a coordinator with 2 loopback
    // workers tuning a registry benchmark produces the same incumbent
    // trajectory as a batched thread-pool study with the same seed.
    const int budget = 16;
    const std::uint64_t seed = 5;
    const int batch = 4;

    TuningHistory reference = study_history(
        "BaCO", budget, seed, ExecutionPolicy::Batched(batch));
    TuningHistory distributed = study_history(
        "BaCO", budget, seed, ExecutionPolicy::Distributed(2, batch));

    ASSERT_EQ(distributed.size(), reference.size());
    EXPECT_TRUE(histories_equal(reference, distributed));
    EXPECT_EQ(reference.best_trajectory(), distributed.best_trajectory());
}

TEST(ServeDistributed, WorkerCountDoesNotChangeHistory)
{
    // Shard-determinism: 1, 2 or 3 workers — identical histories.
    TuningHistory h1 = study_history("Uniform", 12, 9,
                                     ExecutionPolicy::Distributed(1, 3));
    TuningHistory h3 = study_history("Uniform", 12, 9,
                                     ExecutionPolicy::Distributed(3, 3));
    EXPECT_TRUE(histories_equal(h1, h3));
}

TEST(ServeDistributed, BatchOneMatchesSerialRunExactly)
{
    const Benchmark& b = suite::find_benchmark(kBench);
    TuningHistory serial = reference_run(b, "Uniform", 10, 41);
    TuningHistory distributed = study_history(
        "Uniform", 10, 41, ExecutionPolicy::Distributed(2, 1));
    EXPECT_TRUE(histories_equal(serial, distributed));
}

TEST(ServeDistributed, AsyncSingleSlotMatchesSerialRun)
{
    // One slot in flight serializes the async drive completely, so even
    // the tell-as-results-land mode reproduces the serial loop exactly.
    const Benchmark& b = suite::find_benchmark(kBench);
    TuningHistory serial = reference_run(b, "BaCO", 12, 17);
    TuningHistory async = study_history(
        "BaCO", 12, 17, ExecutionPolicy::Distributed(2, 1, /*async=*/true));
    EXPECT_TRUE(histories_equal(serial, async));
}

TEST(ServeDistributed, AsyncDriveStreamsEveryResultAndKillResumeRecovers)
{
    const Benchmark& b = suite::find_benchmark(kBench);
    std::shared_ptr<SearchSpace> space = b.make_space(SpaceVariant{});
    const int budget = 18;
    const std::uint64_t seed = 23;
    const int slots = 4;

    std::string ckpt = testing::TempDir() + "baco_dist_async_ckpt.jsonl";
    std::string snapshot = testing::TempDir() + "baco_dist_async_kill.jsonl";
    std::remove(ckpt.c_str());
    std::remove(snapshot.c_str());

    // First leg: full async fleet run, photographing the checkpoint
    // right after the 6th tell — evaluations still in flight.
    std::uint64_t streamed = 0;
    {
        Fleet fleet(3);
        std::unique_ptr<AskTellTuner> tuner = MethodRegistry::global().make(
            "BaCO", *space, {budget, b.doe_samples, seed});
        DriveOptions dopt = drive_options(slots, /*async=*/true);
        dopt.checkpoint_path = ckpt;
        dopt.on_event = [&](const AsyncEvent& ev) {
            EXPECT_EQ(ev.evals, streamed + 1);
            if (++streamed == 6) {
                std::FILE* in = std::fopen(ckpt.c_str(), "rb");
                std::FILE* out = std::fopen(snapshot.c_str(), "wb");
                ASSERT_NE(in, nullptr);
                ASSERT_NE(out, nullptr);
                char buf[4096];
                std::size_t n;
                while ((n = std::fread(buf, 1, sizeof buf, in)) > 0)
                    std::fwrite(buf, 1, n, out);
                std::fclose(in);
                std::fclose(out);
            }
        };
        fleet_drive(fleet.coordinator, *tuner, dopt);
        EXPECT_EQ(tuner->history().size(),
                  static_cast<std::size_t>(budget));
        EXPECT_EQ(streamed, static_cast<std::uint64_t>(budget));
    }

    std::optional<CheckpointData> snap = load_checkpoint(snapshot);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->history.size(), 6u);
    ASSERT_GE(snap->pending.size(), 1u);

    // Second leg: a fresh fleet (different size, to prove placement
    // independence) resumes the killed run and finishes the budget
    // without double-telling anything.
    Fleet fleet2(2);
    std::unique_ptr<AskTellTuner> resumed = MethodRegistry::global().make(
        "BaCO", *space, {budget, b.doe_samples, seed});
    std::vector<PendingEval> pending;
    ASSERT_TRUE(resume_from_checkpoint(snapshot, *resumed, &pending));
    ASSERT_EQ(pending.size(), snap->pending.size());
    std::vector<std::size_t> pending_hashes;
    for (const PendingEval& p : pending)
        pending_hashes.push_back(config_hash(p.config));

    DriveOptions dopt = drive_options(slots, /*async=*/true);
    dopt.resume_pending = std::move(pending);
    fleet_drive(fleet2.coordinator, *resumed, dopt);
    const TuningHistory& h = resumed->history();
    ASSERT_EQ(h.size(), static_cast<std::size_t>(budget));
    std::map<std::size_t, int> counts;
    for (const Observation& o : h.observations)
        counts[config_hash(o.config)] += 1;
    EXPECT_EQ(counts.size(), static_cast<std::size_t>(budget));
    for (std::size_t ph : pending_hashes)
        EXPECT_EQ(counts[ph], 1) << "in-flight config lost or re-told";

    std::remove(ckpt.c_str());
    std::remove(snapshot.c_str());
}

TEST(ServeDistributed, SuggestAheadSingleSlotMatchesSerialRun)
{
    // Suggest-ahead is ignored at one slot — there is nothing to
    // overlap — so the fleet must still reproduce the serial loop
    // bit-for-bit, prefetch knob and all.
    const Benchmark& b = suite::find_benchmark(kBench);
    TuningHistory serial = reference_run(b, "BaCO", 12, 17);

    std::shared_ptr<SearchSpace> space = b.make_space(SpaceVariant{});
    Fleet fleet(2);
    std::unique_ptr<AskTellTuner> tuner = MethodRegistry::global().make(
        "BaCO", *space, {12, b.doe_samples, 17});
    DriveOptions dopt = drive_options(/*slots=*/1, /*async=*/true);
    dopt.suggest_ahead = true;
    fleet_drive(fleet.coordinator, *tuner, dopt);
    EXPECT_TRUE(histories_equal(serial, tuner->history()));
}

TEST(ServeDistributed, SuggestAheadFleetPrefetchesAndStaysExactlyOnce)
{
    // Multi-slot suggest-ahead across a real worker fleet: the drive
    // must complete the budget with every suggestion told exactly once,
    // and the engine.suggest_ahead_* counters must show the prefetch
    // actually launched and was consumed.
    const Benchmark& b = suite::find_benchmark(kBench);
    std::shared_ptr<SearchSpace> space = b.make_space(SpaceVariant{});
    const int budget = 18;

    Fleet fleet(3);
    std::unique_ptr<AskTellTuner> tuner = MethodRegistry::global().make(
        "BaCO", *space, {budget, b.doe_samples, 23});
    DriveOptions dopt = drive_options(/*slots=*/4, /*async=*/true);
    dopt.suggest_ahead = true;

    obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
    fleet_drive(fleet.coordinator, *tuner, dopt);
    obs::MetricsSnapshot delta =
        obs::MetricsRegistry::global().snapshot().delta_since(before);

    const TuningHistory& h = tuner->history();
    EXPECT_EQ(h.size(), static_cast<std::size_t>(budget));
    std::map<std::size_t, int> counts;
    for (const Observation& o : h.observations)
        ++counts[config_hash(o.config)];
    for (const auto& [hash, n] : counts)
        EXPECT_EQ(n, 1) << "config told more than once (hash " << hash
                        << ")";
    EXPECT_GE(delta.value("engine.suggest_ahead_total"), 1.0);
    EXPECT_GE(delta.value("engine.suggest_ahead_used_total"), 1.0);
}

TEST(ServeDistributed, FleetEvaluationsMatchLocalOnesByIndex)
{
    const Benchmark& b = suite::find_benchmark(kBench);
    std::shared_ptr<SearchSpace> space = b.make_space(SpaceVariant{});
    Fleet fleet(3);

    RngEngine rng(7);
    std::vector<Configuration> configs;
    for (int i = 0; i < 10; ++i)
        configs.push_back(space->sample_unconstrained(rng));

    double eval_seconds = 0.0;
    std::vector<EvalResult> sharded = fleet_evaluate(
        fleet.coordinator, 99, 12, configs, &eval_seconds);

    ASSERT_EQ(sharded.size(), configs.size());
    EXPECT_GT(eval_seconds, 0.0);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EvalResult local = evaluate_on(b, configs[i], 99, 12 + i);
        EXPECT_EQ(sharded[i].value, local.value) << i;
        EXPECT_EQ(sharded[i].feasible, local.feasible) << i;
    }
}

TEST(ServeDistributed, SurvivesWorkerDeathMidRun)
{
    // One worker's transport closes mid-run; its in-flight tasks are
    // re-queued onto the survivor and the run completes with the same
    // history (determinism is placement-independent).
    const Benchmark& b = suite::find_benchmark(kBench);
    std::shared_ptr<SearchSpace> space = b.make_space(SpaceVariant{});

    Coordinator coordinator;
    // Worker 1: a normal loopback worker.
    auto [c1, w1] = loopback_pair();
    std::thread t1([t = std::shared_ptr<Transport>(std::move(w1))] {
        run_worker_loop(*t);
    });
    ASSERT_GE(coordinator.add_worker(std::move(c1)), 0);
    // Worker 2: registers, answers a couple of frames, then dies.
    auto [c2, w2] = loopback_pair();
    std::thread t2([t = std::shared_ptr<Transport>(std::move(w2))] {
        Message hello;
        hello.type = MsgType::kHello;
        hello.text = "worker";
        hello.capacity = 1;
        t->send(encode(hello));
        std::string line;
        int answered = 0;
        while (answered < 2 && t->recv(line) == RecvStatus::kOk) {
            Message req;
            if (!decode(line, req) || req.type != MsgType::kEvaluate)
                break;
            const Benchmark& bench = suite::find_benchmark(req.benchmark);
            EvalResult r =
                evaluate_on(bench, req.config, req.seed, req.index);
            Message reply;
            reply.type = MsgType::kResult;
            reply.id = req.id;
            reply.value = r.value;
            reply.feasible = r.feasible;
            t->send(encode(reply));
            ++answered;
        }
        t->close();  // the "crash"
    });
    ASSERT_GE(coordinator.add_worker(std::move(c2)), 0);
    ASSERT_EQ(coordinator.num_workers(), 2u);

    std::unique_ptr<AskTellTuner> tuner = MethodRegistry::global().make(
        "Uniform", *space, {12, b.doe_samples, 31});
    fleet_drive(coordinator, *tuner, drive_options(4));
    TuningHistory history = tuner->take_history();
    coordinator.shutdown();
    t1.join();
    t2.join();

    EXPECT_EQ(history.size(), 12u);
    EXPECT_LE(coordinator.num_workers(), 1u);

    TuningHistory reference = study_history(
        "Uniform", 12, 31, ExecutionPolicy::Distributed(2, 4));
    EXPECT_TRUE(histories_equal(reference, history));
}

TEST(ServeDistributed, StragglerIsReDispatchedToFreeWorker)
{
    // Worker 2 swallows its first evaluate frame (a straggler); the
    // coordinator's deadline re-dispatches the task to worker 1 and the
    // batch completes. The duplicate answer is ignored by id.
    const Benchmark& b = suite::find_benchmark(kBench);
    std::shared_ptr<SearchSpace> space = b.make_space(SpaceVariant{});

    CoordinatorOptions copt;
    copt.straggler_ms = 50;
    copt.poll_ms = 5;
    Coordinator coordinator(copt);

    auto [c1, w1] = loopback_pair();
    std::thread t1([t = std::shared_ptr<Transport>(std::move(w1))] {
        run_worker_loop(*t);
    });
    ASSERT_GE(coordinator.add_worker(std::move(c1)), 0);

    std::atomic<int> swallowed{0};
    auto [c2, w2] = loopback_pair();
    std::thread t2([t = std::shared_ptr<Transport>(std::move(w2)),
                    &swallowed] {
        Message hello;
        hello.type = MsgType::kHello;
        hello.text = "worker";
        hello.capacity = 1;
        t->send(encode(hello));
        std::string line;
        while (t->recv(line) == RecvStatus::kOk) {
            Message req;
            if (!decode(line, req) || req.type != MsgType::kEvaluate)
                break;  // shutdown
            swallowed.fetch_add(1);
            // Never answer: a hung evaluation.
        }
    });
    ASSERT_GE(coordinator.add_worker(std::move(c2)), 0);

    RngEngine rng(3);
    std::vector<Configuration> configs;
    for (int i = 0; i < 6; ++i)
        configs.push_back(space->sample_unconstrained(rng));
    std::vector<EvalResult> results =
        fleet_evaluate(coordinator, 17, 0, configs);
    coordinator.shutdown();
    t1.join();
    t2.join();

    ASSERT_EQ(results.size(), configs.size());
    EXPECT_GE(swallowed.load(), 1);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EvalResult local = evaluate_on(b, configs[i], 17, i);
        EXPECT_EQ(results[i].value, local.value) << i;
    }
}

TEST(ServeDistributed, GarbageEmittingWorkerDoesNotWedgeBatch)
{
    // A worker that answers with undecodable frames (e.g. corruption on
    // an ssh pipe) is declared dead and its tasks are re-queued onto the
    // healthy worker — the batch must complete, not hang.
    const Benchmark& b = suite::find_benchmark(kBench);
    std::shared_ptr<SearchSpace> space = b.make_space(SpaceVariant{});

    Coordinator coordinator;
    auto [c1, w1] = loopback_pair();
    std::thread t1([t = std::shared_ptr<Transport>(std::move(w1))] {
        run_worker_loop(*t);
    });
    ASSERT_GE(coordinator.add_worker(std::move(c1)), 0);

    auto [c2, w2] = loopback_pair();
    std::thread t2([t = std::shared_ptr<Transport>(std::move(w2))] {
        Message hello;
        hello.type = MsgType::kHello;
        hello.text = "worker";
        t->send(encode(hello));
        std::string line;
        while (t->recv(line) == RecvStatus::kOk) {
            Message req;
            if (!decode(line, req) || req.type != MsgType::kEvaluate)
                break;
            t->send("%%% not a frame %%%");
        }
    });
    ASSERT_GE(coordinator.add_worker(std::move(c2)), 0);

    RngEngine rng(5);
    std::vector<Configuration> configs;
    for (int i = 0; i < 6; ++i)
        configs.push_back(space->sample_unconstrained(rng));
    std::vector<EvalResult> results =
        fleet_evaluate(coordinator, 23, 0, configs);
    coordinator.shutdown();
    t1.join();
    t2.join();

    ASSERT_EQ(results.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EvalResult local = evaluate_on(b, configs[i], 23, i);
        EXPECT_EQ(results[i].value, local.value) << i;
    }
}

TEST(ServeDistributed, ThrowsWhenAllWorkersAreGone)
{
    const Benchmark& b = suite::find_benchmark(kBench);
    std::shared_ptr<SearchSpace> space = b.make_space(SpaceVariant{});

    Coordinator coordinator;
    auto [c1, w1] = loopback_pair();
    std::thread t1([t = std::shared_ptr<Transport>(std::move(w1))] {
        std::string line;
        Message hello;
        hello.type = MsgType::kHello;
        hello.text = "worker";
        t->send(encode(hello));
        t->recv(line);  // swallow the first evaluate...
        t->close();     // ...and die
    });
    ASSERT_GE(coordinator.add_worker(std::move(c1)), 0);

    RngEngine rng(1);
    std::vector<Configuration> configs = {
        space->sample_unconstrained(rng)};
    EXPECT_THROW(fleet_evaluate(coordinator, 1, 0, configs),
                 std::runtime_error);
    t1.join();
}

TEST(ServeDistributed, SharedCacheShortCircuitsDispatch)
{
    EvalCache cache;
    const ExecutionPolicy policy = ExecutionPolicy::Distributed(2, 3);

    TuningHistory h1 = study_history("Uniform", 9, 13, policy, &cache);
    EXPECT_EQ(cache.misses(), 9u);
    std::uint64_t hits_before = cache.hits();

    // Second identical run: every lookup hits; no worker dispatch needed.
    TuningHistory h2 = study_history("Uniform", 9, 13, policy, &cache);
    EXPECT_TRUE(histories_equal(h1, h2));
    EXPECT_EQ(cache.misses(), 9u);
    EXPECT_EQ(cache.hits(), hits_before + 9u);
}

TEST(ServeDistributed, KilledDistributedRunResumesFromCheckpoint)
{
    // Acceptance scenario: the distributed driver dies mid-run; a new
    // driver restores the tuner from the checkpoint and finishes with
    // the exact uninterrupted history.
    const Benchmark& b = suite::find_benchmark(kBench);
    const int budget = 16;
    const std::uint64_t seed = 53;
    const int batch = 4;
    std::string path =
        testing::TempDir() + "baco_test_distributed.ckpt.jsonl";

    TuningHistory reference = study_history(
        "BaCO", budget, seed, ExecutionPolicy::Batched(batch));

    // Interrupted half: coordinator-driven with checkpointing, killed at
    // a batch boundary by capping max_evals.
    std::shared_ptr<SearchSpace> space = b.make_space(SpaceVariant{});
    {
        Fleet fleet(2);
        std::unique_ptr<AskTellTuner> tuner = MethodRegistry::global().make(
            "BaCO", *space, {budget, b.doe_samples, seed});
        DriveOptions dopt = drive_options(batch);
        dopt.max_evals = 8;
        dopt.checkpoint_path = path;
        fleet_drive(fleet.coordinator, *tuner, dopt);
        ASSERT_EQ(tuner->history().size(), 8u);
        // Fleet destructor = the whole driver process dying.
    }

    // Resumed half: a fresh fleet and tuner pick the run back up.
    Fleet fleet(2);
    std::unique_ptr<AskTellTuner> tuner = MethodRegistry::global().make(
        "BaCO", *space, {budget, b.doe_samples, seed});
    ASSERT_TRUE(resume_from_checkpoint(path, *tuner));
    ASSERT_EQ(tuner->history().size(), 8u);
    fleet_drive(fleet.coordinator, *tuner, drive_options(batch));
    TuningHistory final_history = tuner->take_history();

    EXPECT_TRUE(histories_equal(reference, final_history));
    EXPECT_EQ(reference.best_value, final_history.best_value);
    std::remove(path.c_str());
}

TEST(ServeDistributed, AddWorkerRejectsBadHandshake)
{
    CoordinatorOptions copt;
    copt.handshake_ms = 200;
    Coordinator coordinator(copt);

    // Wrong role.
    auto [c1, w1] = loopback_pair();
    Message hello;
    hello.type = MsgType::kHello;
    hello.text = "client";
    w1->send(encode(hello));
    EXPECT_EQ(coordinator.add_worker(std::move(c1)), -1);

    // Wrong protocol version.
    auto [c2, w2] = loopback_pair();
    hello.text = "worker";
    hello.version = kProtocolVersion + 7;
    w2->send(encode(hello));
    EXPECT_EQ(coordinator.add_worker(std::move(c2)), -1);

    // Silence: handshake times out.
    auto [c3, w3] = loopback_pair();
    EXPECT_EQ(coordinator.add_worker(std::move(c3)), -1);
    EXPECT_EQ(coordinator.num_workers(), 0u);
}

}  // namespace
}  // namespace baco::serve
