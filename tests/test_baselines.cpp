// Baseline autotuners: constraint compliance, budgets, basic effectiveness.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "api/baco.hpp"
#include "baselines/opentuner_like.hpp"
#include "baselines/random_search.hpp"
#include "baselines/ytopt_like.hpp"
#include "exec/drive.hpp"

namespace baco {
namespace {

SearchSpace
space_with_constraints()
{
    SearchSpace s;
    s.add_ordinal("a", {1, 2, 4, 8, 16, 32}, true);
    s.add_ordinal("b", {1, 2, 4, 8, 16, 32}, true);
    s.add_categorical("c", {"x", "y", "z"});
    s.add_constraint("a >= b");
    return s;
}

EvalResult
smooth_eval(const Configuration& c, RngEngine&)
{
    double a = static_cast<double>(as_int(c[0]));
    double b = static_cast<double>(as_int(c[1]));
    double cat = as_int(c[2]) == 2 ? 0.0 : 0.7;
    double v = 1.0 + std::abs(std::log2(a) - 3.0) +
               std::abs(std::log2(b) - 1.0) + cat;
    return EvalResult{v, true};
}

/** One serial run of a fresh sampler (uniform, or ATF's biased walk). */
TuningHistory
sample_serial(const SearchSpace& s, const BlackBoxFn& objective,
              const RandomSearchOptions& opt, bool biased_walk = false)
{
    RandomSearchTuner tuner(s, opt, biased_walk);
    return drive_serial(tuner, objective);
}

TEST(UniformSampling, RespectsBudgetAndConstraints)
{
    SearchSpace s = space_with_constraints();
    RandomSearchOptions opt;
    opt.budget = 40;
    opt.seed = 1;
    TuningHistory h = sample_serial(s, smooth_eval, opt);
    EXPECT_EQ(h.size(), 40u);
    for (const Observation& o : h.observations)
        EXPECT_TRUE(s.satisfies(o.config));
}

TEST(UniformSampling, IsUniformOverFeasibleRegion)
{
    // a >= b over {1,2} x {1,2}: feasible = (1,1),(2,1),(2,2).
    SearchSpace s;
    s.add_ordinal("a", {1, 2});
    s.add_ordinal("b", {1, 2});
    s.add_constraint("a >= b");
    RandomSearchOptions opt;
    opt.budget = 6000;
    opt.seed = 2;
    int a1b1 = 0;
    sample_serial(
        s,
        [&](const Configuration& c, RngEngine&) {
            if (as_int(c[0]) == 1 && as_int(c[1]) == 1)
                ++a1b1;
            return EvalResult{1.0, true};
        },
        opt);
    EXPECT_NEAR(a1b1 / 6000.0, 1.0 / 3.0, 0.03);
}

TEST(CotSampling, BiasTowardSparseSubtrees)
{
    // Same space: under the biased root-to-leaf walk, a=1 (which owns one
    // leaf) is sampled with probability 1/2 instead of 1/3.
    SearchSpace s;
    s.add_ordinal("a", {1, 2});
    s.add_ordinal("b", {1, 2});
    s.add_constraint("a >= b");
    RandomSearchOptions opt;
    opt.budget = 6000;
    opt.seed = 3;
    int a1 = 0;
    sample_serial(
        s,
        [&](const Configuration& c, RngEngine&) {
            if (as_int(c[0]) == 1)
                ++a1;
            return EvalResult{1.0, true};
        },
        opt, /*biased_walk=*/true);
    EXPECT_NEAR(a1 / 6000.0, 0.5, 0.03);
}

TEST(OpenTunerLike, RespectsConstraintsAndImproves)
{
    SearchSpace s = space_with_constraints();
    OpenTunerLike::Options opt;
    opt.budget = 60;
    opt.seed = 4;
    OpenTunerLike tuner(s, opt);
    TuningHistory h = drive_serial(tuner, smooth_eval);
    EXPECT_EQ(h.size(), 60u);
    for (const Observation& o : h.observations)
        EXPECT_TRUE(s.satisfies(o.config));
    // Optimum value is 1.0; an ensemble search with 60 evals on a 108-point
    // dense space should land close.
    EXPECT_LE(h.best_value, 1.8);
}

TEST(OpenTunerLike, BeatsUniformOnAverage)
{
    SearchSpace s = space_with_constraints();
    double ot_sum = 0.0, uni_sum = 0.0;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        OpenTunerLike::Options oopt;
        oopt.budget = 25;
        oopt.seed = seed;
        OpenTunerLike tuner(s, oopt);
        ot_sum += drive_serial(tuner, smooth_eval).best_value;
        RandomSearchOptions ropt;
        ropt.budget = 25;
        ropt.seed = seed;
        uni_sum += sample_serial(s, smooth_eval, ropt).best_value;
    }
    EXPECT_LE(ot_sum, uni_sum + 1.0);
}

TEST(OpenTunerLike, HandlesHiddenConstraintsWithoutModel)
{
    SearchSpace s = space_with_constraints();
    BlackBoxFn eval = [](const Configuration& c, RngEngine& rng) {
        if (as_int(c[2]) == 0)
            return EvalResult::infeasible();
        return smooth_eval(c, rng);
    };
    OpenTunerLike::Options opt;
    opt.budget = 40;
    opt.seed = 5;
    OpenTunerLike tuner(s, opt);
    TuningHistory h = drive_serial(tuner, eval);
    ASSERT_TRUE(h.best_config.has_value());
    EXPECT_NE(as_int((*h.best_config)[2]), 0);
}

TEST(OpenTunerLike, CreditsTheTechniqueThatProposedEachResult)
{
    // Results land out of suggestion order in asynchronous drives; each
    // must credit the technique that proposed its own configuration.
    SearchSpace s = space_with_constraints();
    OpenTunerLike::Options opt;
    opt.budget = 20;
    opt.doe_samples = 2;
    opt.seed = 3;
    OpenTunerLike tuner(s, opt);
    RngEngine rng(0);
    auto tell = [&](const Configuration& c) {
        tuner.observe({c}, {smooth_eval(c, rng)});
    };
    auto uses = [&] {
        std::string state = tuner.sampler_state();
        std::size_t at = state.find(";uses=") + 6;
        return state.substr(at, state.find(';', at) - at);
    };
    for (const Configuration& c : tuner.suggest(2))
        tell(c);  // the seed phase earns no credit
    EXPECT_EQ(uses(), "0,0,0,0,0");

    // With no credit yet the bandit picks technique 0 for c0 and c1; once
    // c1's result is in, the unused technique 1 proposes c2.
    Configuration c0 = tuner.suggest(1).at(0);
    Configuration c1 = tuner.suggest(1).at(0);
    tell(c1);
    Configuration c2 = tuner.suggest(1).at(0);
    tell(c2);
    EXPECT_EQ(uses(), "1,1,0,0,0");
    tell(c0);
    EXPECT_EQ(uses(), "2,1,0,0,0");
}

TEST(YtoptLike, RfModeRespectsKnownConstraints)
{
    SearchSpace s = space_with_constraints();
    YtoptLike::Options opt;
    opt.budget = 40;
    opt.seed = 6;
    YtoptLike tuner(s, opt);
    TuningHistory h = drive_serial(tuner, smooth_eval);
    EXPECT_EQ(h.size(), 40u);
    for (const Observation& o : h.observations)
        EXPECT_TRUE(s.satisfies(o.config));
    EXPECT_LE(h.best_value, 2.2);
}

TEST(YtoptLike, PenalizesInfeasibleInsteadOfModelling)
{
    SearchSpace s = space_with_constraints();
    BlackBoxFn eval = [](const Configuration& c, RngEngine& rng) {
        if (as_int(c[2]) == 1)
            return EvalResult::infeasible();
        return smooth_eval(c, rng);
    };
    YtoptLike::Options opt;
    opt.budget = 40;
    opt.seed = 7;
    YtoptLike tuner(s, opt);
    TuningHistory h = drive_serial(tuner, eval);
    ASSERT_TRUE(h.best_config.has_value());
    EXPECT_NE(as_int((*h.best_config)[1]), -1);  // sanity
}

TEST(YtoptLike, GpModeIgnoresKnownConstraints)
{
    // Matching the real tool: the GP mode samples the dense space, so some
    // evaluated configurations may violate known constraints.
    SearchSpace s = space_with_constraints();
    YtoptLike::Options opt;
    opt.budget = 60;
    opt.seed = 8;
    opt.surrogate = YtoptLike::Surrogate::kGaussianProcess;
    YtoptLike tuner(s, opt);
    TuningHistory h = drive_serial(tuner, smooth_eval);
    EXPECT_EQ(h.size(), 60u);
    bool any_violation = false;
    for (const Observation& o : h.observations)
        any_violation |= !s.satisfies(o.config);
    EXPECT_TRUE(any_violation);
}

}  // namespace
}  // namespace baco
