// The BaCO tuner end-to-end on synthetic objectives.

#include <gtest/gtest.h>

#include <cmath>

#include "core/tuner.hpp"
#include "exec/drive.hpp"
#include "obs/metrics.hpp"

namespace baco {
namespace {

/** Mixed-type space with a known constraint and a known optimum. */
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

/** Smooth objective: optimum at tile=32, mode=b, unroll=4 -> value 1. */
EvalResult
synthetic_eval(const Configuration& c, RngEngine&)
{
    double tile = static_cast<double>(as_int(c[0]));
    bool mode_b = as_int(c[1]) == 1;
    double unroll = static_cast<double>(as_int(c[2]));
    double v = 1.0 + std::pow(std::log2(tile / 32.0), 2) +
               (mode_b ? 0.0 : 1.5) + 0.5 * std::pow(std::log2(unroll / 4.0), 2);
    return EvalResult{v, true};
}

/** One serial run of a fresh tuner. */
TuningHistory
run_serial(const SearchSpace& s, const TunerOptions& opt,
           const BlackBoxFn& objective)
{
    Tuner tuner(s, opt);
    return drive_serial(tuner, objective);
}

TEST(Tuner, FindsNearOptimumWithinBudget)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 30;
    opt.doe_samples = 8;
    opt.seed = 1;
    Tuner tuner(s, opt);
    TuningHistory h = drive_serial(tuner, synthetic_eval);
    EXPECT_EQ(h.size(), 30u);
    EXPECT_LE(h.best_value, 1.6);  // optimum is 1.0
    ASSERT_TRUE(h.best_config.has_value());
    EXPECT_TRUE(s.satisfies(*h.best_config));
}

TEST(Tuner, AllEvaluatedConfigsSatisfyKnownConstraints)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 25;
    opt.seed = 2;
    Tuner tuner(s, opt);
    TuningHistory h = drive_serial(tuner, synthetic_eval);
    for (const Observation& o : h.observations)
        EXPECT_TRUE(s.satisfies(o.config));
}

TEST(Tuner, AvoidsDuplicateEvaluations)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 40;
    opt.seed = 3;
    Tuner tuner(s, opt);
    TuningHistory h = drive_serial(tuner, synthetic_eval);
    std::set<std::size_t> hashes;
    for (const Observation& o : h.observations)
        hashes.insert(config_hash(o.config));
    // The feasible space (8*2*4 minus constraint violations) is larger than
    // the budget, so no duplicates should be needed.
    EXPECT_EQ(hashes.size(), h.size());
}

TEST(Tuner, DeterministicGivenSeed)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 20;
    opt.seed = 4;
    TuningHistory h1 = run_serial(s, opt, synthetic_eval);
    TuningHistory h2 = run_serial(s, opt, synthetic_eval);
    ASSERT_EQ(h1.size(), h2.size());
    for (std::size_t i = 0; i < h1.size(); ++i) {
        EXPECT_TRUE(configs_equal(h1.observations[i].config,
                                  h2.observations[i].config));
    }
}

TEST(Tuner, HandlesHiddenConstraints)
{
    SearchSpace s = synthetic_space();
    // Half the space fails at evaluation time (hidden): mode "a" crashes.
    BlackBoxFn eval = [](const Configuration& c, RngEngine& rng) {
        if (as_int(c[1]) == 0)
            return EvalResult::infeasible();
        return synthetic_eval(c, rng);
    };
    TunerOptions opt;
    opt.budget = 30;
    opt.seed = 5;
    Tuner tuner(s, opt);
    TuningHistory h = drive_serial(tuner, eval);
    ASSERT_TRUE(h.best_config.has_value());
    EXPECT_EQ(as_int((*h.best_config)[1]), 1);
    // The feasibility model should steer sampling: the late phase should
    // try mode b far more often than mode a.
    int late_feasible = 0, late_total = 0;
    for (std::size_t i = h.size() / 2; i < h.size(); ++i) {
        late_total += 1;
        late_feasible += h.observations[i].feasible ? 1 : 0;
    }
    EXPECT_GT(late_feasible, late_total / 2);
}

TEST(Tuner, SurvivesAllInfeasibleStart)
{
    SearchSpace s = synthetic_space();
    // Everything is infeasible: the tuner must not crash or loop forever.
    BlackBoxFn eval = [](const Configuration&, RngEngine&) {
        return EvalResult::infeasible();
    };
    TunerOptions opt;
    opt.budget = 15;
    opt.seed = 6;
    Tuner tuner(s, opt);
    TuningHistory h = drive_serial(tuner, eval);
    EXPECT_EQ(h.size(), 15u);
    EXPECT_FALSE(h.best_config.has_value());
    EXPECT_TRUE(std::isinf(h.best_value));
}

TEST(Tuner, BudgetSmallerThanDoe)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 4;
    opt.doe_samples = 10;
    opt.seed = 7;
    Tuner tuner(s, opt);
    TuningHistory h = drive_serial(tuner, synthetic_eval);
    EXPECT_EQ(h.size(), 4u);
}

TEST(Tuner, RfSurrogateVariantRuns)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 25;
    opt.seed = 8;
    opt.surrogate = TunerOptions::Surrogate::kRandomForest;
    Tuner tuner(s, opt);
    TuningHistory h = drive_serial(tuner, synthetic_eval);
    EXPECT_EQ(h.size(), 25u);
    EXPECT_TRUE(h.best_config.has_value());
}

TEST(Tuner, BacoMinusMinusRunsAndIsWorseOrEqualOnAverage)
{
    SearchSpace s = synthetic_space();
    double full = 0.0, reduced = 0.0;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        TunerOptions a = TunerOptions::baco_defaults();
        a.budget = 25;
        a.seed = seed;
        TunerOptions b = TunerOptions::baco_minus_minus();
        b.budget = 25;
        b.seed = seed;
        full += run_serial(s, a, synthetic_eval).best_value;
        reduced += run_serial(s, b, synthetic_eval).best_value;
    }
    EXPECT_LE(full, reduced + 0.5);  // full BaCO should not be clearly worse
}

// ---- Incremental surrogate refit policy ---------------------------------

TEST(TunerIncremental, DeterministicGivenSeedInBothModes)
{
    // Same-seed reproducibility must hold in each mode independently
    // (the default-on incremental path is already covered by
    // Tuner.DeterministicGivenSeed; this pins the escape hatch too).
    SearchSpace s = synthetic_space();
    for (bool incremental : {true, false}) {
        TunerOptions opt;
        opt.budget = 20;
        opt.seed = 11;
        opt.incremental_fit = incremental;
        TuningHistory h1 = run_serial(s, opt, synthetic_eval);
        TuningHistory h2 = run_serial(s, opt, synthetic_eval);
        ASSERT_EQ(h1.size(), h2.size());
        for (std::size_t i = 0; i < h1.size(); ++i) {
            EXPECT_TRUE(configs_equal(h1.observations[i].config,
                                      h2.observations[i].config))
                << "incremental=" << incremental << " step " << i;
        }
    }
}

TEST(TunerIncremental, QualityParityWithFullRefits)
{
    // Incremental mode cannot produce bit-identical suggestion sequences
    // to the always-refit mode: a full refit draws multistart
    // hyperparameter samples from the shared RNG while an append draws
    // nothing, so the modes' RNG streams diverge after the first skipped
    // refit by construction. The parity claim that IS testable — and the
    // one that matters — is search quality: both modes maintain the same
    // posterior to ~1e-9 between refits, so across seeds neither may
    // systematically out-search the other. 0.4 bounds the seed-averaged
    // best-value gap at ~1/3 of the objective's unit scale (optimum 1.0,
    // range ~4), far below any systematic-regression signal.
    SearchSpace s = synthetic_space();
    double inc_sum = 0.0, full_sum = 0.0;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        TunerOptions a;
        a.budget = 25;
        a.seed = seed;
        a.incremental_fit = true;
        TunerOptions b = a;
        b.incremental_fit = false;
        inc_sum += run_serial(s, a, synthetic_eval).best_value;
        full_sum += run_serial(s, b, synthetic_eval).best_value;
    }
    EXPECT_NEAR(inc_sum / 6.0, full_sum / 6.0, 0.4);
}

TEST(TunerIncremental, HiddenConstraintSteeringInBothModes)
{
    // The feasibility-model path (hidden constraints) must work
    // identically well with incremental refits: mode "a" crashes at
    // evaluation time, and in both modes the late phase must have learned
    // to steer toward mode "b".
    SearchSpace s = synthetic_space();
    BlackBoxFn eval = [](const Configuration& c, RngEngine& rng) {
        if (as_int(c[1]) == 0)
            return EvalResult::infeasible();
        return synthetic_eval(c, rng);
    };
    for (bool incremental : {true, false}) {
        TunerOptions opt;
        opt.budget = 30;
        opt.seed = 5;
        opt.incremental_fit = incremental;
        Tuner tuner(s, opt);
        TuningHistory h = drive_serial(tuner, eval);
        ASSERT_TRUE(h.best_config.has_value())
            << "incremental=" << incremental;
        EXPECT_EQ(as_int((*h.best_config)[1]), 1)
            << "incremental=" << incremental;
        int late_feasible = 0, late_total = 0;
        for (std::size_t i = h.size() / 2; i < h.size(); ++i) {
            late_total += 1;
            late_feasible += h.observations[i].feasible ? 1 : 0;
        }
        EXPECT_GT(late_feasible, late_total / 2)
            << "incremental=" << incremental;
    }
}

TEST(TunerIncremental, RefitCadenceKnobs)
{
    // refit_every=1 forces a full refit on (nearly) every tell; a huge
    // cadence with a huge drift threshold leans maximally on appends.
    // Both extremes must still find the optimum region and stay
    // deterministic.
    SearchSpace s = synthetic_space();
    for (int cadence : {1, 1000}) {
        TunerOptions opt;
        opt.budget = 25;
        opt.seed = 12;
        opt.incremental_fit = true;
        opt.refit_every = cadence;
        opt.refit_nll_drift = cadence == 1000 ? 1e9 : 1.0;
        TuningHistory h1 = run_serial(s, opt, synthetic_eval);
        TuningHistory h2 = run_serial(s, opt, synthetic_eval);
        EXPECT_EQ(h1.size(), 25u);
        EXPECT_LE(h1.best_value, 2.0) << "cadence " << cadence;
        ASSERT_EQ(h1.size(), h2.size());
        for (std::size_t i = 0; i < h1.size(); ++i)
            EXPECT_TRUE(configs_equal(h1.observations[i].config,
                                      h2.observations[i].config))
                << "cadence " << cadence << " step " << i;
    }
}

TEST(Tuner, ContinuousParameterSupport)
{
    SearchSpace s;
    s.add_real("x", 0.0, 1.0);
    s.add_real("y", 0.0, 1.0);
    BlackBoxFn eval = [](const Configuration& c, RngEngine&) {
        double x = as_real(c[0]), y = as_real(c[1]);
        return EvalResult{(x - 0.3) * (x - 0.3) + (y - 0.7) * (y - 0.7) + 0.1,
                          true};
    };
    TunerOptions opt;
    opt.budget = 30;
    opt.seed = 9;
    opt.log_objective = false;
    Tuner tuner(s, opt);
    TuningHistory h = drive_serial(tuner, eval);
    EXPECT_LT(h.best_value, 0.15);
}

TEST(Tuner, PublishesWorkCounts)
{
    // Candidates scored per acquisition and NLL evaluations per refit:
    // the units that acquisition and model-fit seconds divide into.
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 20;
    opt.doe_samples = 8;
    opt.seed = 4;
    obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
    TuningHistory h = run_serial(s, opt, synthetic_eval);
    obs::MetricsSnapshot delta =
        obs::MetricsRegistry::global().snapshot().delta_since(before);
    ASSERT_EQ(h.size(), 20u);
    // Every model-based suggestion scores at least the whole random pool.
    EXPECT_GE(delta.value("tuner.acquisition_candidates_total"),
              12.0 * opt.ls.random_samples);
    // Every refit screens multistart_samples draws, then runs L-BFGS.
    double refits = delta.value("tuner.model_refits_total");
    EXPECT_GE(refits, 1.0);
    EXPECT_GE(delta.value("tuner.model_nll_evals_total"),
              refits * (opt.gp.multistart_samples + 1));
    // Pruned candidates and failed factorizations are shares of those
    // totals; most of a pool cannot beat its fifth-best member.
    EXPECT_GT(delta.value("tuner.acquisition_pruned_total"), 0.0);
    EXPECT_LE(delta.value("tuner.acquisition_pruned_total"),
              delta.value("tuner.acquisition_candidates_total"));
    EXPECT_LE(delta.value("tuner.model_nll_failures_total"),
              delta.value("tuner.model_nll_evals_total"));
}

TEST(Tuner, TracksTimingBreakdown)
{
    SearchSpace s = synthetic_space();
    TunerOptions opt;
    opt.budget = 15;
    opt.seed = 10;
    Tuner tuner(s, opt);
    TuningHistory h = drive_serial(tuner, synthetic_eval);
    EXPECT_GE(h.tuner_seconds, 0.0);
    EXPECT_GE(h.eval_seconds, 0.0);
}

}  // namespace
}  // namespace baco
