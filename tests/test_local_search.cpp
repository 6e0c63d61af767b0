// Multi-start local search: improvement, feasibility, ablation mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/local_search.hpp"

namespace baco {
namespace {

const double kNoFloor = -std::numeric_limits<double>::infinity();

SearchSpace
grid_space()
{
    SearchSpace s;
    s.add_ordinal("a", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
    s.add_ordinal("b", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
    return s;
}

TEST(LocalSearch, FindsGlobalOptimumOnSmoothGrid)
{
    SearchSpace s = grid_space();
    // Score peaks at (7, 3).
    ScoreFn score = [](const Configuration& c, double /*floor*/) {
        double a = static_cast<double>(as_int(c[0]));
        double b = static_cast<double>(as_int(c[1]));
        return -(a - 7) * (a - 7) - (b - 3) * (b - 3);
    };
    RngEngine rng(1);
    LocalSearchOptions opt;
    opt.random_samples = 20;
    opt.starts = 3;
    auto best = local_search_maximize(s, nullptr, score, rng, opt);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(as_int((*best)[0]), 7);
    EXPECT_EQ(as_int((*best)[1]), 3);
}

TEST(LocalSearch, BeatsPoolOnlyModeOnAverage)
{
    SearchSpace s = grid_space();
    ScoreFn score = [](const Configuration& c, double /*floor*/) {
        double a = static_cast<double>(as_int(c[0]));
        double b = static_cast<double>(as_int(c[1]));
        return -(a - 9) * (a - 9) - (b - 9) * (b - 9);
    };
    int climb_wins = 0;
    for (int trial = 0; trial < 20; ++trial) {
        RngEngine r1(static_cast<std::uint64_t>(trial));
        RngEngine r2(static_cast<std::uint64_t>(trial));
        LocalSearchOptions climb;
        climb.random_samples = 5;
        climb.starts = 2;
        LocalSearchOptions pool = climb;
        pool.hill_climb = false;
        double with = score(*local_search_maximize(s, nullptr, score, r1,
                                                   climb),
                            kNoFloor);
        double without = score(*local_search_maximize(s, nullptr, score, r2,
                                                      pool),
                               kNoFloor);
        climb_wins += (with >= without) ? 1 : 0;
    }
    EXPECT_GE(climb_wins, 18);  // hill climbing should (weakly) dominate
}

TEST(LocalSearch, RespectsKnownConstraintsViaCot)
{
    SearchSpace s;
    s.add_ordinal("a", {1, 2, 4, 8, 16});
    s.add_ordinal("b", {1, 2, 4, 8, 16});
    s.add_constraint("a >= b");
    ChainOfTrees cot = ChainOfTrees::build(s);
    // Push toward the infeasible corner (small a, large b): the search must
    // stay inside a >= b.
    ScoreFn score = [](const Configuration& c, double /*floor*/) {
        return static_cast<double>(as_int(c[1]) - as_int(c[0]));
    };
    RngEngine rng(3);
    auto best = local_search_maximize(s, &cot, score, rng);
    ASSERT_TRUE(best.has_value());
    EXPECT_GE(as_int((*best)[0]), as_int((*best)[1]));
    // The constrained optimum is a == b.
    EXPECT_EQ(as_int((*best)[0]), as_int((*best)[1]));
}

TEST(LocalSearch, TreeMovesEscapeCoupledLocalOptima)
{
    // Score depends jointly on two co-dependent parameters; single-
    // parameter moves often leave the feasible region, so whole-tree
    // resampling is needed to move at all.
    SearchSpace s;
    s.add_ordinal("a", {1, 2, 4, 8, 16, 32});
    s.add_ordinal("b", {1, 2, 4, 8, 16, 32});
    s.add_constraint("a == b");  // diagonal only
    ChainOfTrees cot = ChainOfTrees::build(s);
    ScoreFn score = [](const Configuration& c, double /*floor*/) {
        return static_cast<double>(as_int(c[0]));
    };
    RngEngine rng(4);
    LocalSearchOptions opt;
    opt.random_samples = 4;
    auto best = local_search_maximize(s, &cot, score, rng, opt);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(as_int((*best)[0]), 32);
}

TEST(LocalSearch, HandlesRejectingScore)
{
    SearchSpace s = grid_space();
    // All candidates rejected: the search still returns something (the
    // least-bad candidate) rather than crashing.
    ScoreFn score = [](const Configuration&, double /*floor*/) {
        return -1.0;
    };
    RngEngine rng(5);
    auto best = local_search_maximize(s, nullptr, score, rng);
    EXPECT_TRUE(best.has_value());
}

// ---- Floors. -------------------------------------------------------------

/** Tie-heavy score over configurations of small ordinals: by a hash of
 *  the configuration, a fifth of them sit on each of the -2 and -1
 *  plateaus, a fifth score 0, and the rest a smooth bump rounded to
 *  quarters, so pool ranks and climb steps are full of ties. */
double
tie_heavy_score(const Configuration& c, std::uint64_t salt)
{
    std::uint64_t h = (config_hash(c) ^ salt) * 0x9E3779B97F4A7C15ull;
    switch ((h >> 32) % 5) {
    case 0:
        return -2.0;
    case 1:
        return -1.0;
    case 2:
        return 0.0;
    default:
        break;
    }
    double bump = 3.0;
    for (std::size_t k = 0; k < c.size(); ++k) {
        double target = static_cast<double>((salt >> (4 * k)) % 8);
        bump -= 0.3 * std::abs(static_cast<double>(as_int(c[k])) - target);
    }
    return std::round(bump * 4.0) / 4.0;
}

/** The floor a pool member must beat: the starts-th largest score of the
 *  members before it, -inf while there are fewer. */
double
reference_pool_floor(std::vector<double> before, std::size_t starts)
{
    if (starts == 0 || before.size() < starts)
        return kNoFloor;
    std::nth_element(before.begin(), before.begin() + (starts - 1),
                     before.end(), std::greater<double>());
    return before[starts - 1];
}

TEST(LocalSearch, FloorNeverChangesTheResultOrTheRngStream)
{
    // A score that returns -inf for every candidate at or below its floor
    // must lead the search to the same configuration, through the same
    // random draws, as the same score ignoring the floor. Each pool
    // member's floor must also be exactly the starts-th largest score
    // before it (-inf until there are that many), so a floor taken too
    // early or from another order statistic fails here even when the
    // result happens to survive it.
    auto cube = [] {
        SearchSpace s;
        for (const char* name : {"a", "b", "c"})
            s.add_ordinal(name, {0, 1, 2, 3, 4, 5, 6, 7});
        return s;
    };
    SearchSpace open = cube();
    SearchSpace constrained = cube();
    constrained.add_constraint("a >= b");
    ChainOfTrees cot = ChainOfTrees::build(constrained);

    std::size_t pruned = 0;
    std::size_t calls = 0;
    for (bool with_cot : {false, true}) {
        const SearchSpace& s = with_cot ? constrained : open;
        for (std::uint64_t seed = 0; seed < 250; ++seed) {
            LocalSearchOptions opt;
            opt.random_samples = static_cast<int>(6 + seed % 5 * 7);
            opt.starts = static_cast<int>(1 + seed % 6);
            opt.hill_climb = seed % 7 != 0;
            std::uint64_t salt = seed * 0x5851F42D4C957F2Dull + 1;
            ScoreFn exact = [&](const Configuration& c, double /*floor*/) {
                return tie_heavy_score(c, salt);
            };
            std::vector<double> scores;
            std::vector<double> floors;
            ScoreFn floored = [&](const Configuration& c, double floor) {
                double v = tie_heavy_score(c, salt);
                scores.push_back(v);
                floors.push_back(floor);
                if (v > floor)
                    return v;
                ++pruned;
                return kNoFloor;
            };
            RngEngine r1(seed);
            RngEngine r2(seed);
            const ChainOfTrees* tree = with_cot ? &cot : nullptr;
            auto want = local_search_maximize(s, tree, exact, r1, opt);
            auto got = local_search_maximize(s, tree, floored, r2, opt);
            ASSERT_TRUE(want.has_value());
            ASSERT_TRUE(got.has_value());
            ASSERT_EQ(*got, *want) << "seed " << seed << " cot " << with_cot;
            ASSERT_TRUE(r1.engine() == r2.engine())
                << "seed " << seed << " cot " << with_cot;

            // Every pool draw succeeds here, so the first random_samples
            // calls score the pool, in order.
            std::size_t pool = static_cast<std::size_t>(opt.random_samples);
            ASSERT_GE(scores.size(), pool);
            std::size_t starts = static_cast<std::size_t>(opt.starts);
            for (std::size_t i = 0; i < pool; ++i) {
                double floor = reference_pool_floor(
                    {scores.begin(), scores.begin() + static_cast<long>(i)},
                    starts);
                ASSERT_EQ(floors[i], floor)
                    << "seed " << seed << " cot " << with_cot << " member "
                    << i;
            }
            calls += scores.size();
        }
    }
    // The floors did bite: a good share of all calls was skipped.
    EXPECT_GT(pruned, calls / 4);
}

}  // namespace
}  // namespace baco
