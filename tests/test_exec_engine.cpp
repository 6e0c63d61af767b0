// Barrier-round drives: thread pool, serial/batched determinism against
// the reference loop, batch diversity, and parallel suite repetitions.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "api/study.hpp"
#include "baselines/random_search.hpp"
#include "core/tuner.hpp"
#include "drive_reference.hpp"
#include "exec/drive.hpp"
#include "exec/thread_pool.hpp"
#include "suite/registry.hpp"
#include "suite/runner.hpp"

namespace baco {
namespace {

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

/** Noisy objective: exercises the per-evaluation RNG streams. */
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

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 100; ++i)
        tasks.push_back([&count] { count.fetch_add(1); });
    pool.run(std::move(tasks));
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int round = 0; round < 5; ++round) {
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 17; ++i)
            tasks.push_back([&count] { count.fetch_add(1); });
        pool.run(std::move(tasks));
    }
    EXPECT_EQ(count.load(), 5 * 17);
}

TEST(BatchedDrive, Batch1ReproducesSerialRunBitForBit)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 24;
    opt.doe_samples = 8;
    opt.seed = 42;

    Tuner reference(s, opt);
    TuningHistory serial = reference_serial_loop(reference, synthetic_eval);

    Tuner tuner(s, opt);
    TuningHistory batched =
        pool_drive(tuner, synthetic_eval, 4, drive_options(1));

    ASSERT_EQ(serial.size(), batched.size());
    EXPECT_TRUE(histories_equal(serial, batched));
    EXPECT_EQ(serial.best_value, batched.best_value);
}

TEST(BatchedDrive, Batch4ReproducibleAcrossRunsAndCompletesBudget)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 24;
    opt.doe_samples = 8;
    opt.seed = 7;

    Tuner t1(s, opt);
    TuningHistory h1 = pool_drive(t1, synthetic_eval, 4, drive_options(4));
    Tuner t2(s, opt);
    TuningHistory h2 = pool_drive(t2, synthetic_eval, 4, drive_options(4));

    EXPECT_EQ(h1.size(), 24u);
    EXPECT_TRUE(histories_equal(h1, h2));
}

TEST(BatchedDrive, ConstantLiarBatchIsDiverse)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 40;
    opt.doe_samples = 8;
    opt.seed = 3;
    Tuner tuner(s, opt);

    // Get past the DoE phase so suggest() uses the model + constant liar.
    ThreadPoolExecutor exec(synthetic_eval, tuner.run_seed(), 0);
    DriveOptions dopt = drive_options(4);
    dopt.max_evals = 12;
    drive(tuner, exec, dopt);

    std::vector<Configuration> batch = tuner.suggest(4);
    ASSERT_EQ(batch.size(), 4u);
    std::set<std::size_t> distinct;
    for (const Configuration& c : batch)
        distinct.insert(config_hash(c));
    EXPECT_EQ(distinct.size(), batch.size());
}

TEST(BatchedDrive, BaselinesRunBatchedToFullBudget)
{
    SearchSpace s = synthetic_space();
    for (const char* m : {"ATF", "Ytopt", "Uniform", "CoT"}) {
        std::unique_ptr<AskTellTuner> tuner =
            MethodRegistry::global().make(m, s, {20, 6, 11});
        TuningHistory h =
            pool_drive(*tuner, synthetic_eval, 2, drive_options(4));
        EXPECT_EQ(h.size(), 20u) << m;
        EXPECT_TRUE(h.best_config.has_value()) << m;
    }
}

TEST(BatchedDrive, BaselineBatch1MatchesSerialRun)
{
    SearchSpace s = synthetic_space();
    RandomSearchOptions opt;
    opt.budget = 15;
    opt.seed = 5;
    RandomSearchTuner reference(s, opt, /*biased_walk=*/false);
    TuningHistory serial = reference_serial_loop(reference, synthetic_eval);

    RandomSearchTuner tuner(s, opt, /*biased_walk=*/false);
    TuningHistory batched =
        pool_drive(tuner, synthetic_eval, 3, drive_options(1));
    EXPECT_TRUE(histories_equal(serial, batched));
}

TEST(BatchedDrive, SerialRunEntryPointsMatchReferenceLoop)
{
    // drive_serial() is drive() on a one-lane pool; for BaCO and the
    // samplers alike it must still be the plain serial loop.
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 16;
    opt.doe_samples = 6;
    opt.seed = 8;
    Tuner reference(s, opt);
    Tuner driven(s, opt);
    EXPECT_TRUE(histories_equal(reference_serial_loop(reference,
                                                      synthetic_eval),
                                drive_serial(driven, synthetic_eval)));

    RandomSearchOptions ropt;
    ropt.budget = 15;
    ropt.seed = 5;
    RandomSearchTuner uniform(s, ropt, /*biased_walk=*/false);
    RandomSearchTuner uniform_driven(s, ropt, /*biased_walk=*/false);
    EXPECT_TRUE(histories_equal(reference_serial_loop(uniform,
                                                      synthetic_eval),
                                drive_serial(uniform_driven,
                                             synthetic_eval)));
}

TEST(SuiteRunner, ParallelRepetitionsMatchSerialStatistics)
{
    const Benchmark& b = suite::find_benchmark("SDDMM/email-Enron");
    int budget = 12;
    suite::RepStats serial =
        suite::run_repetitions(b, "Uniform", budget, 4, 21);
    suite::RepStats parallel = suite::run_repetitions(
        b, "Uniform", budget, 4, 21, /*num_threads=*/4);

    ASSERT_EQ(serial.trajectories.size(), parallel.trajectories.size());
    for (std::size_t r = 0; r < serial.trajectories.size(); ++r)
        EXPECT_EQ(serial.trajectories[r], parallel.trajectories[r]);
}

TEST(SuiteRunner, BatchedStudyMatchesRunMethodAtBatch1)
{
    const Benchmark& b = suite::find_benchmark("SDDMM/email-Enron");
    TuningHistory serial = reference_run(b, "Uniform", 10, 31);
    EXPECT_TRUE(histories_equal(
        serial, suite::run_method(b, "Uniform", 10, 31)));
    TuningHistory batched = StudyBuilder()
                                .benchmark(b)
                                .method("Uniform")
                                .budget(10)
                                .seed(31)
                                .execution(ExecutionPolicy::Batched(1, 2))
                                .build()
                                .run()
                                .history;
    EXPECT_TRUE(histories_equal(serial, batched));
}

}  // namespace
}  // namespace baco
