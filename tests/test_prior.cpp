// The user-prior acquisition extension (paper Sec. 6): a good prior
// accelerates convergence, a misleading prior cannot prevent it.

#include <gtest/gtest.h>

#include <cmath>

#include "core/tuner.hpp"
#include "exec/drive.hpp"

namespace baco {
namespace {

SearchSpace
make_space()
{
    SearchSpace s;
    s.add_ordinal("tile", {2, 4, 8, 16, 32, 64, 128, 256}, true);
    s.add_ordinal("unroll", {1, 2, 4, 8}, true);
    return s;
}

/** Optimum at tile=64, unroll=2 with value 1. */
EvalResult
objective(const Configuration& c, RngEngine&)
{
    double tile = static_cast<double>(as_int(c[0]));
    double unroll = static_cast<double>(as_int(c[1]));
    double v = 1.0 + std::pow(std::log2(tile / 64.0), 2) +
               std::pow(std::log2(unroll / 2.0), 2);
    return EvalResult{v, true};
}

double
mean_best(const std::function<double(const Configuration&)>& prior,
          int budget, int reps)
{
    double acc = 0.0;
    for (int r = 0; r < reps; ++r) {
        TunerOptions opt;
        opt.budget = budget;
        opt.doe_samples = 4;
        opt.seed = static_cast<std::uint64_t>(100 + r);
        opt.user_prior = prior;
        SearchSpace s = make_space();
        Tuner tuner(s, opt);
        acc += drive_serial(tuner, objective).best_value;
    }
    return acc / reps;
}

TEST(UserPrior, GoodPriorAcceleratesEarlyConvergence)
{
    // Prior peaked at the true optimum.
    auto good = [](const Configuration& c) {
        double tile = static_cast<double>(as_int(c[0]));
        double unroll = static_cast<double>(as_int(c[1]));
        return std::exp(-std::pow(std::log2(tile / 64.0), 2) -
                        std::pow(std::log2(unroll / 2.0), 2));
    };
    double with_prior = mean_best(good, 10, 8);
    double without = mean_best(nullptr, 10, 8);
    EXPECT_LE(with_prior, without + 0.05);
}

TEST(UserPrior, MisleadingPriorDoesNotPreventConvergence)
{
    // Prior peaked at the *worst* corner.
    auto bad = [](const Configuration& c) {
        double tile = static_cast<double>(as_int(c[0]));
        return std::exp(-std::pow(std::log2(tile / 2.0), 2));
    };
    double with_bad_prior = mean_best(bad, 30, 6);
    // The 32-point space is nearly exhausted at budget 30: the optimum (1.0)
    // must still be found despite the misleading prior.
    EXPECT_LE(with_bad_prior, 1.2);
}

TEST(UserPrior, PriorInfluenceDecaysWithObservations)
{
    // Directly check the acquisition-weight schedule: the exponent
    // prior_strength/n shrinks the prior's effect as evidence accumulates.
    double prior_value = 0.1;
    double strength = 10.0;
    double early = std::pow(prior_value, strength / 5.0);    // n = 5
    double late = std::pow(prior_value, strength / 50.0);    // n = 50
    EXPECT_LT(early, late);   // stronger down-weighting early on
    EXPECT_GT(late, 0.5);     // nearly neutral once data dominates
}

TEST(UserPrior, ZeroPriorIsClamped)
{
    // A prior returning 0 must not produce NaN/-inf scores.
    auto zero = [](const Configuration&) { return 0.0; };
    double best = mean_best(zero, 12, 3);
    EXPECT_TRUE(std::isfinite(best));
    EXPECT_LE(best, 4.0);
}

}  // namespace
}  // namespace baco
