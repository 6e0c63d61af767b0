// The fully asynchronous (tell-as-results-land) evaluation mode:
// adversarial per-config delay schedules, slot-utilization and
// every-config-told invariants, single-slot bit-for-bit determinism,
// kill/resume with in-flight evaluations, cache interaction and
// objective-exception draining.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "api/study.hpp"
#include "baselines/random_search.hpp"
#include "core/tuner.hpp"
#include "drive_reference.hpp"
#include "exec/checkpoint.hpp"
#include "exec/drive.hpp"
#include "exec/eval_cache.hpp"
#include "obs/metrics.hpp"
#include "suite/registry.hpp"
#include "suite/runner.hpp"

namespace baco {
namespace {

using Clock = std::chrono::steady_clock;

SearchSpace
synthetic_space()
{
    SearchSpace s;
    s.add_ordinal("tile", {2, 4, 8, 16, 32, 64, 128, 256}, true);
    s.add_categorical("mode", {"a", "b"});
    s.add_ordinal("unroll", {1, 2, 4, 8}, true);
    s.add_constraint("unroll <= tile");
    return s;
}

EvalResult
synthetic_eval(const Configuration& c, RngEngine& rng)
{
    double tile = static_cast<double>(as_int(c[0]));
    bool mode_b = as_int(c[1]) == 1;
    double unroll = static_cast<double>(as_int(c[2]));
    double v = 1.0 + std::pow(std::log2(tile / 32.0), 2) +
               (mode_b ? 0.0 : 1.5) +
               0.5 * std::pow(std::log2(unroll / 4.0), 2);
    return EvalResult{v * rng.lognormal_factor(0.05), true};
}

/** Multiset of configuration hashes in a history. */
std::map<std::size_t, int>
config_multiset(const TuningHistory& h)
{
    std::map<std::size_t, int> m;
    for (const Observation& o : h.observations)
        m[config_hash(o.config)] += 1;
    return m;
}

TEST(AsyncEngine, SingleSlotMatchesSerialBitForBit)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 24;
    opt.doe_samples = 8;
    opt.seed = 42;

    Tuner reference(s, opt);
    TuningHistory serial = reference_serial_loop(reference, synthetic_eval);

    Tuner tuner(s, opt);
    // One slot: async degenerates to the serial loop.
    TuningHistory async =
        pool_drive(tuner, synthetic_eval, 3, drive_options(1, true));

    ASSERT_EQ(serial.size(), async.size());
    EXPECT_TRUE(histories_equal(serial, async));
    EXPECT_EQ(serial.best_value, async.best_value);
}

TEST(AsyncEngine, MultiSlotHistoryIsPermutationOfSerialForSampling)
{
    // A sampling tuner draws the identical configuration sequence no
    // matter how asks are sliced, and indices are dealt in suggestion
    // order — so the async history must be a permutation of the serial
    // one, with the identical best.
    SearchSpace s = synthetic_space();
    RandomSearchOptions opt;
    opt.budget = 30;
    opt.seed = 9;

    RandomSearchTuner serial_tuner(s, opt, /*biased_walk=*/false);
    TuningHistory serial = reference_serial_loop(serial_tuner, synthetic_eval);

    RandomSearchTuner async_tuner(s, opt, /*biased_walk=*/false);
    TuningHistory async =
        pool_drive(async_tuner, synthetic_eval, 4, drive_options(4, true));

    ASSERT_EQ(serial.size(), async.size());
    EXPECT_EQ(config_multiset(serial), config_multiset(async));
    EXPECT_EQ(serial.best_value, async.best_value);
}

/**
 * Records every configuration handed out and every configuration told
 * back, to pin the "every suggested config is eventually observed"
 * invariant through arbitrary completion orders.
 */
class AuditingTuner : public AskTellTuner {
 public:
  explicit AuditingTuner(AskTellTuner& inner) : inner_(inner) {}

  std::vector<Configuration>
  suggest(int n) override
  {
      return record(inner_.suggest(n));
  }
  std::vector<Configuration>
  suggest_with_pending(int n,
                       const std::vector<Configuration>& pending) override
  {
      return record(inner_.suggest_with_pending(n, pending));
  }
  void
  observe(const std::vector<Configuration>& configs,
          const std::vector<EvalResult>& results) override
  {
      for (const Configuration& c : configs)
          observed_[config_hash(c)] += 1;
      inner_.observe(configs, results);
  }
  int remaining() const override { return inner_.remaining(); }
  std::uint64_t run_seed() const override { return inner_.run_seed(); }
  const TuningHistory& history() const override { return inner_.history(); }
  TuningHistory& mutable_history() override
  {
      return inner_.mutable_history();
  }
  TuningHistory take_history() override { return inner_.take_history(); }

  const std::map<std::size_t, int>& suggested() const { return suggested_; }
  const std::map<std::size_t, int>& observed() const { return observed_; }

 private:
  std::vector<Configuration>
  record(std::vector<Configuration> out)
  {
      for (const Configuration& c : out)
          suggested_[config_hash(c)] += 1;
      return out;
  }

  AskTellTuner& inner_;
  std::map<std::size_t, int> suggested_;
  std::map<std::size_t, int> observed_;
};

TEST(AsyncEngine, EverySuggestedConfigIsEventuallyToldUnderRandomJitter)
{
    SearchSpace s = synthetic_space();
    RandomSearchOptions opt;
    opt.budget = 40;
    opt.seed = 5;
    RandomSearchTuner inner(s, opt, /*biased_walk=*/false);
    AuditingTuner tuner(inner);

    // Random per-evaluation jitter (drawn from the evaluation's own
    // noise stream, so the schedule is adversarially uneven but the
    // results stay deterministic).
    auto jittered = [](const Configuration& c, RngEngine& rng) {
        EvalResult r = synthetic_eval(c, rng);
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<int>(rng.uniform(50.0, 4000.0))));
        return r;
    };

    TuningHistory h = pool_drive(tuner, jittered, 4, drive_options(4, true));

    EXPECT_EQ(h.size(), 40u);
    EXPECT_EQ(tuner.suggested(), tuner.observed());
}

TEST(AsyncEngine, SlowestFirstScheduleDoesNotStarveSlots)
{
    // Adversarial schedule: the very first evaluation to start is 100x
    // slower than the rest. A batched engine would barrier its whole
    // round on it; the async engine must keep the other slots churning
    // through (nearly) the entire budget while it runs.
    SearchSpace s = synthetic_space();
    RandomSearchOptions opt;
    opt.budget = 24;
    opt.seed = 3;
    RandomSearchTuner tuner(s, opt, /*biased_walk=*/false);

    std::atomic<int> started{0};
    std::atomic<int> concurrent{0};
    std::atomic<int> high_water{0};
    std::atomic<bool> slow_done{false};
    auto adversarial = [&](const Configuration& c, RngEngine& rng) {
        bool slow = started.fetch_add(1) == 0;
        int now = concurrent.fetch_add(1) + 1;
        int seen = high_water.load();
        while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(slow ? 250 : 2));
        if (slow)
            slow_done.store(true);
        concurrent.fetch_sub(1);
        return synthetic_eval(c, rng);
    };

    std::atomic<int> told_while_slow_running{0};
    DriveOptions dopt = drive_options(4, true);
    dopt.on_event = [&](const AsyncEvent&) {
        if (!slow_done.load())
            told_while_slow_running.fetch_add(1);
    };
    auto t0 = Clock::now();
    TuningHistory h = pool_drive(tuner, adversarial, 4, dopt);
    double wall = std::chrono::duration<double>(Clock::now() - t0).count();

    EXPECT_EQ(h.size(), 24u);
    // All four slots were busy simultaneously at some point...
    EXPECT_EQ(high_water.load(), 4);
    // ...and the short evaluations were told while the straggler ran
    // instead of barriering behind it (23 shorts exist; allow scheduler
    // slack).
    EXPECT_GE(told_while_slow_running.load(), 18);
    // Wall-clock is dominated by the one straggler, not by 24 rounds.
    EXPECT_LT(wall, 1.5);
}

TEST(AsyncEngine, KillResumeWithInFlightEvaluationsDoesNotDoubleTell)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 20;
    opt.doe_samples = 6;
    opt.seed = 11;

    std::string ckpt = testing::TempDir() + "baco_async_ckpt.jsonl";
    std::string snapshot = testing::TempDir() + "baco_async_kill.jsonl";
    std::remove(ckpt.c_str());
    std::remove(snapshot.c_str());

    auto jittered = [](const Configuration& c, RngEngine& rng) {
        EvalResult r = synthetic_eval(c, rng);
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<int>(rng.uniform(100.0, 2000.0))));
        return r;
    };

    // First leg: run to completion, but photograph the checkpoint right
    // after the 8th tell — a moment with (slots - 1) evaluations still
    // in flight — exactly what a kill at that instant would leave behind.
    {
        Tuner tuner(s, opt);
        DriveOptions dopt = drive_options(4, true);
        dopt.checkpoint_path = ckpt;
        int told = 0;
        dopt.on_event = [&](const AsyncEvent&) {
            if (++told == 8) {
                std::ifstream in(ckpt, std::ios::binary);
                std::ofstream out(snapshot, std::ios::binary);
                out << in.rdbuf();
            }
        };
        pool_drive(tuner, jittered, 4, dopt);
    }

    std::optional<CheckpointData> snap = load_checkpoint(snapshot);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->history.size(), 8u);
    ASSERT_EQ(snap->pending.size(), 3u);  // slots - 1 in flight at a tell

    // Second leg: restore the killed run and let it finish.
    Tuner resumed(s, opt);
    std::vector<PendingEval> pending;
    ASSERT_TRUE(resume_from_checkpoint(snapshot, resumed, &pending));
    ASSERT_EQ(pending.size(), 3u);
    std::vector<std::size_t> pending_hashes;
    for (const PendingEval& p : pending)
        pending_hashes.push_back(config_hash(p.config));

    DriveOptions dopt = drive_options(4, true);
    dopt.resume_pending = std::move(pending);
    TuningHistory h = pool_drive(resumed, jittered, 4, dopt);

    // No double-telling: exactly the budget was observed, every config
    // exactly once (the tuner dedups), and each formerly in-flight
    // config was told exactly once.
    ASSERT_EQ(h.size(), 20u);
    std::map<std::size_t, int> counts = config_multiset(h);
    EXPECT_EQ(counts.size(), 20u);
    for (std::size_t ph : pending_hashes)
        EXPECT_EQ(counts[ph], 1) << "in-flight config lost or re-told";
    EXPECT_TRUE(h.best_config.has_value());

    std::remove(ckpt.c_str());
    std::remove(snapshot.c_str());
}

TEST(AsyncEngine, SingleSlotKillResumeReproducesUninterruptedRun)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 16;
    opt.doe_samples = 6;
    opt.seed = 23;

    Tuner reference(s, opt);
    TuningHistory uninterrupted =
        reference_serial_loop(reference, synthetic_eval);

    std::string ckpt = testing::TempDir() + "baco_async_ckpt1.jsonl";
    std::remove(ckpt.c_str());
    DriveOptions dopt = drive_options(1, true);
    dopt.checkpoint_path = ckpt;
    {
        Tuner tuner(s, opt);
        ThreadPoolExecutor exec(synthetic_eval, tuner.run_seed(), 0);
        DriveOptions first = dopt;
        first.max_evals = 7;
        drive(tuner, exec, first);
    }
    Tuner resumed(s, opt);
    std::vector<PendingEval> pending;
    ASSERT_TRUE(resume_from_checkpoint(ckpt, resumed, &pending));
    EXPECT_TRUE(pending.empty());  // single slot: nothing was in flight
    TuningHistory h = pool_drive(resumed, synthetic_eval, 0, dopt);

    EXPECT_TRUE(histories_equal(uninterrupted, h));
    std::remove(ckpt.c_str());
}

TEST(AsyncEngine, CacheShortCircuitsRepeatAsyncRuns)
{
    SearchSpace s = synthetic_space();
    EvalCache cache;
    RandomSearchOptions opt;
    opt.budget = 16;
    opt.seed = 7;

    DriveOptions dopt = drive_options(4, true);
    dopt.cache = &cache;
    dopt.cache_namespace = "async-test";

    RandomSearchTuner first(s, opt, false);
    TuningHistory h1 = pool_drive(first, synthetic_eval, 4, dopt);
    std::uint64_t hits_before = cache.hits();

    RandomSearchTuner second(s, opt, false);
    TuningHistory h2 = pool_drive(second, synthetic_eval, 4, dopt);

    EXPECT_EQ(h2.size(), 16u);
    EXPECT_EQ(cache.hits(), hits_before + 16);
    EXPECT_EQ(h1.best_value, h2.best_value);
}

TEST(AsyncEngine, ObjectiveExceptionIsRethrownAfterDraining)
{
    SearchSpace s = synthetic_space();
    RandomSearchOptions opt;
    opt.budget = 24;
    opt.seed = 13;
    RandomSearchTuner tuner(s, opt, false);

    std::atomic<int> calls{0};
    auto flaky = [&](const Configuration& c, RngEngine& rng) {
        if (calls.fetch_add(1) == 5)
            throw std::runtime_error("compiler segfault");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return synthetic_eval(c, rng);
    };

    ThreadPoolExecutor exec(flaky, tuner.run_seed(), 4);
    EXPECT_THROW(drive(tuner, exec, drive_options(4, true)),
                 std::runtime_error);
    // Everything dispatched before the abort drained cleanly.
    EXPECT_LT(tuner.history().size(), 24u);
}

TEST(AsyncEngine, CallbackExceptionIsRethrownAfterDraining)
{
    // An exception from the caller's on_event callback (or the tuner)
    // must drain the in-flight work before unwinding, and nothing may be
    // told after it.
    SearchSpace s = synthetic_space();
    RandomSearchOptions opt;
    opt.budget = 24;
    opt.seed = 29;
    RandomSearchTuner tuner(s, opt, false);

    auto slowish = [](const Configuration& c, RngEngine& rng) {
        EvalResult r = synthetic_eval(c, rng);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        return r;
    };

    ThreadPoolExecutor exec(slowish, tuner.run_seed(), 4);
    DriveOptions dopt = drive_options(4, true);
    int told = 0;
    dopt.on_event = [&](const AsyncEvent&) {
        if (++told == 3)
            throw std::runtime_error("client went away");
    };
    EXPECT_THROW(drive(tuner, exec, dopt), std::runtime_error);
    // The abort happened at the 3rd tell; nothing was told afterwards.
    EXPECT_EQ(told, 3);
    EXPECT_EQ(tuner.history().size(), 3u);
}

// ---- Suggest-ahead pipelining -------------------------------------------

/**
 * Audits the suggest-ahead discipline: every tuner entry asserts no other
 * call is in progress (the engine must serialize ALL tuner access even
 * though the speculative suggest runs on a pool lane), and every
 * suggest_with_pending checks its pending set is exactly the
 * suggested-but-not-yet-observed multiset — i.e. the speculation never
 * runs against a stale or incomplete view of the in-flight work, and no
 * result is ever told twice or dropped.
 */
class PendingAuditTuner : public AskTellTuner {
 public:
  explicit PendingAuditTuner(AskTellTuner& inner) : inner_(inner) {}

  std::vector<Configuration>
  suggest(int n) override
  {
      Guard g(this);
      std::lock_guard<std::mutex> lock(mu_);
      return record(inner_.suggest(n));
  }
  std::vector<Configuration>
  suggest_with_pending(int n,
                       const std::vector<Configuration>& pending) override
  {
      Guard g(this);
      std::lock_guard<std::mutex> lock(mu_);
      std::map<std::size_t, int> claimed;
      for (const Configuration& c : pending)
          claimed[config_hash(c)] += 1;
      if (claimed != outstanding_)
          stale_pending_.fetch_add(1);
      return record(inner_.suggest_with_pending(n, pending));
  }
  void
  observe(const std::vector<Configuration>& configs,
          const std::vector<EvalResult>& results) override
  {
      Guard g(this);
      std::lock_guard<std::mutex> lock(mu_);
      for (const Configuration& c : configs) {
          std::size_t h = config_hash(c);
          observed_[h] += 1;
          if (--outstanding_[h] <= 0)
              outstanding_.erase(h);
      }
      inner_.observe(configs, results);
  }
  int remaining() const override { return inner_.remaining(); }
  std::uint64_t run_seed() const override { return inner_.run_seed(); }
  const TuningHistory& history() const override { return inner_.history(); }
  TuningHistory& mutable_history() override
  {
      return inner_.mutable_history();
  }
  TuningHistory take_history() override { return inner_.take_history(); }

  const std::map<std::size_t, int>& suggested() const { return suggested_; }
  const std::map<std::size_t, int>& observed() const { return observed_; }
  int concurrent_entries() const { return concurrent_.load(); }
  int stale_pending_calls() const { return stale_pending_.load(); }

 private:
  struct Guard {
    explicit Guard(PendingAuditTuner* t) : t_(t)
    {
        if (t_->depth_.fetch_add(1) != 0)
            t_->concurrent_.fetch_add(1);
    }
    ~Guard() { t_->depth_.fetch_sub(1); }
    PendingAuditTuner* t_;
  };

  std::vector<Configuration>
  record(std::vector<Configuration> out)
  {
      for (const Configuration& c : out) {
          std::size_t h = config_hash(c);
          suggested_[h] += 1;
          outstanding_[h] += 1;
      }
      return out;
  }

  AskTellTuner& inner_;
  std::mutex mu_;
  std::map<std::size_t, int> suggested_;
  std::map<std::size_t, int> observed_;
  std::map<std::size_t, int> outstanding_;
  std::atomic<int> depth_{0};
  std::atomic<int> concurrent_{0};
  std::atomic<int> stale_pending_{0};
};

TEST(SuggestAhead, SingleSlotIsBitForBitIdenticalToSerial)
{
    // With one slot there is nothing to overlap: the knob must disable
    // itself and reproduce the non-pipelined (== serial) run exactly.
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 24;
    opt.doe_samples = 8;
    opt.seed = 42;

    Tuner reference(s, opt);
    TuningHistory serial = reference_serial_loop(reference, synthetic_eval);

    Tuner tuner(s, opt);
    DriveOptions dopt = drive_options(1, true);
    dopt.suggest_ahead = true;
    TuningHistory ahead = pool_drive(tuner, synthetic_eval, 3, dopt);

    ASSERT_EQ(serial.size(), ahead.size());
    EXPECT_TRUE(histories_equal(serial, ahead));
}

TEST(SuggestAhead, StressExactlyOnceUnderHeavyTailedDelays)
{
    // Heavy-tailed evaluation times (mostly sub-millisecond, a fat tail
    // of 20-60 ms stragglers) drive maximal overlap between speculation
    // and landing results. The audit wrapper must observe: zero
    // concurrent tuner entries, zero stale pending snapshots, and a
    // suggested multiset identical to the observed one (exactly-once
    // tells, nothing dropped).
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 28;
    opt.doe_samples = 8;
    opt.seed = 17;
    Tuner inner(s, opt);
    PendingAuditTuner tuner(inner);

    auto heavy_tailed = [](const Configuration& c, RngEngine& rng) {
        EvalResult r = synthetic_eval(c, rng);
        if (rng.uniform() < 0.2)
            std::this_thread::sleep_for(std::chrono::milliseconds(
                static_cast<int>(rng.uniform(20.0, 60.0))));
        else
            std::this_thread::sleep_for(std::chrono::microseconds(
                static_cast<int>(rng.uniform(100.0, 800.0))));
        return r;
    };

    obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
    DriveOptions dopt = drive_options(4, true);
    dopt.suggest_ahead = true;
    TuningHistory h = pool_drive(tuner, heavy_tailed, 4, dopt);
    obs::MetricsSnapshot delta =
        obs::MetricsRegistry::global().snapshot().delta_since(before);

    EXPECT_EQ(h.size(), 28u);
    EXPECT_EQ(tuner.concurrent_entries(), 0);
    EXPECT_EQ(tuner.stale_pending_calls(), 0);
    EXPECT_EQ(tuner.suggested(), tuner.observed());
    // The pipeline actually engaged: speculative suggests were launched
    // and at least one refilled a slot.
    EXPECT_GE(delta.value("engine.suggest_ahead_total"), 1.0);
    EXPECT_GE(delta.value("engine.suggest_ahead_used_total"), 1.0);
}

TEST(SuggestAhead, MaxEvalsSplitLosesNoSuggestions)
{
    // Stopping a pipelined drive mid-stream (max_evals) and continuing
    // with a second drive must not lose or re-tell the speculated
    // suggestion that was in the ready queue at the cut: the launch gate
    // only speculates when the result can still be dispatched within the
    // caps.
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 22;
    opt.doe_samples = 6;
    opt.seed = 31;
    Tuner inner(s, opt);
    PendingAuditTuner tuner(inner);

    auto jittered = [](const Configuration& c, RngEngine& rng) {
        EvalResult r = synthetic_eval(c, rng);
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<int>(rng.uniform(100.0, 3000.0))));
        return r;
    };

    ThreadPoolExecutor exec(jittered, tuner.run_seed(), 4);
    DriveOptions dopt = drive_options(4, true);
    dopt.suggest_ahead = true;
    DriveOptions capped = dopt;
    capped.max_evals = 9;
    drive(tuner, exec, capped);
    EXPECT_EQ(tuner.history().size(), 9u);
    drive(tuner, exec, dopt);

    TuningHistory h = tuner.take_history();
    ASSERT_EQ(h.size(), 22u);
    std::map<std::size_t, int> counts = config_multiset(h);
    EXPECT_EQ(counts.size(), 22u);  // tuner dedups; nothing told twice
    EXPECT_EQ(tuner.concurrent_entries(), 0);
    EXPECT_EQ(tuner.stale_pending_calls(), 0);
    EXPECT_EQ(tuner.suggested(), tuner.observed());
}

TEST(AsyncEngine, AsyncStudyCompletesBudgetAcrossMethods)
{
    const Benchmark& b = suite::find_benchmark("SDDMM/email-Enron");
    for (const char* m : {"Uniform", "ATF", "Ytopt"}) {
        TuningHistory h = StudyBuilder()
                              .benchmark(b)
                              .method(m)
                              .budget(14)
                              .seed(19)
                              .execution(ExecutionPolicy::Async(4, 4))
                              .build()
                              .run()
                              .history;
        EXPECT_EQ(h.size(), 14u) << m;
        EXPECT_TRUE(h.best_config.has_value()) << m;
    }
}

TEST(AsyncEngine, AsyncStudyAtSlot1MatchesSerialLoop)
{
    const Benchmark& b = suite::find_benchmark("SDDMM/email-Enron");
    TuningHistory serial = reference_run(b, "BaCO", 12, 31);
    TuningHistory async = StudyBuilder()
                              .benchmark(b)
                              .method("BaCO")
                              .budget(12)
                              .seed(31)
                              .execution(ExecutionPolicy::Async(1, 2))
                              .build()
                              .run()
                              .history;
    EXPECT_TRUE(histories_equal(serial, async));
}

}  // namespace
}  // namespace baco
