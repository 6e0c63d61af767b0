// Registry and Table 3 metadata consistency across the whole suite.

#include <gtest/gtest.h>

#include "api/method_registry.hpp"
#include "suite/registry.hpp"
#include "suite/runner.hpp"

namespace baco::suite {
namespace {

TEST(Registry, TwentyFiveInstances)
{
    EXPECT_EQ(all_benchmarks().size(), 25u);
    EXPECT_EQ(benchmarks_for("TACO").size(), 15u);
    EXPECT_EQ(benchmarks_for("RISE").size(), 7u);
    EXPECT_EQ(benchmarks_for("HPVM2FPGA").size(), 3u);
}

TEST(Registry, LookupByName)
{
    const Benchmark& b = find_benchmark("SpMM/scircuit");
    EXPECT_EQ(b.framework, "TACO");
    EXPECT_THROW(find_benchmark("nope"), std::runtime_error);
}

TEST(Registry, LookupMissSuggestsClosestNames)
{
    // A near-miss names the real benchmark instead of a bare not-found.
    try {
        find_benchmark("SpMM/scirciut");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown benchmark 'SpMM/scirciut'"),
                  std::string::npos);
        EXPECT_NE(msg.find("did you mean"), std::string::npos);
        EXPECT_NE(msg.find("'SpMM/scircuit'"), std::string::npos);
    }
    // A hopeless miss suggests nothing rather than a random name.
    try {
        find_benchmark("zzzzzz");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()).find("did you mean"),
                  std::string::npos);
    }
}

TEST(Registry, SpaceInfoMatchesTable3Structure)
{
    // Spot-check the Table 3 rows our substitution preserves exactly:
    // dimensions, parameter-type mix, constraint classes and budgets.
    struct Expect {
      const char* name;
      std::size_t dims;
      const char* types;
      const char* constraints;
      int budget;
    };
    const Expect expectations[] = {
        {"SpMV/cage12", 7, "O/C/P", "-", 70},
        {"SpMM/scircuit", 6, "O/C/P", "K", 60},
        {"SDDMM/email-Enron", 6, "O/C/P", "K", 60},
        {"TTV/facebook", 7, "O/C/P", "K/H", 70},
        {"MTTKRP/uber", 6, "O/C/P", "K", 60},
        {"MM_CPU", 5, "O/P", "K/H", 100},
        {"MM_GPU", 10, "O", "K/H", 120},
        {"Asum_GPU", 5, "O", "K", 60},
        {"Scal_GPU", 7, "O", "K/H", 60},
        {"K-means_GPU", 4, "O", "K/H", 60},
        {"Harris_GPU", 7, "O", "K", 100},
        {"Stencil_GPU", 4, "O", "K", 60},
        {"BFS", 4, "I/C", "H", 20},
        {"Audio", 15, "I/C", "H", 60},
        {"PreEuler", 7, "I/C", "H", 60},
    };
    for (const Expect& e : expectations) {
        SpaceInfo info = space_info(find_benchmark(e.name));
        EXPECT_EQ(info.dims, e.dims) << e.name;
        EXPECT_EQ(info.param_types, e.types) << e.name;
        EXPECT_EQ(info.constraint_types, e.constraints) << e.name;
        EXPECT_EQ(info.full_budget, e.budget) << e.name;
    }
}

TEST(Registry, FeasibleNeverExceedsDense)
{
    for (const Benchmark& b : all_benchmarks()) {
        SpaceInfo info = space_info(b);
        EXPECT_GT(info.feasible_size, 0.0) << b.name;
        EXPECT_LE(info.feasible_size, info.dense_size) << b.name;
        // Known constraints genuinely prune the space where declared.
        if (info.constraint_types.find('K') != std::string::npos) {
            EXPECT_LT(info.feasible_size, info.dense_size) << b.name;
        }
    }
}

TEST(Registry, BudgetTiers)
{
    const Benchmark& b = find_benchmark("MM_GPU");
    EXPECT_EQ(b.tiny_budget(), 40);
    EXPECT_EQ(b.small_budget(), 80);
    const Benchmark& bfs = find_benchmark("BFS");
    EXPECT_EQ(bfs.tiny_budget(), 6);  // the paper's footnote: BFS tiny = 6
}

TEST(Runner, MethodNames)
{
    const std::vector<std::string> expected = {"BaCO", "ATF", "Ytopt",
                                               "Uniform", "CoT"};
    EXPECT_EQ(headline_methods(), expected);
    for (const std::string& m : headline_methods())
        EXPECT_TRUE(MethodRegistry::global().contains(m)) << m;
}

TEST(Runner, EvalsToReach)
{
    std::vector<double> traj{5.0, 3.0, 3.0, 1.0};
    EXPECT_EQ(evals_to_reach(traj, 4.0), 2);
    EXPECT_EQ(evals_to_reach(traj, 1.0), 4);
    EXPECT_EQ(evals_to_reach(traj, 0.5), -1);
}

TEST(Runner, RepStatsAggregation)
{
    RepStats stats;
    stats.trajectories = {{4.0, 2.0}, {8.0, 6.0}};
    EXPECT_DOUBLE_EQ(stats.mean_best_at(1), 6.0);
    EXPECT_DOUBLE_EQ(stats.mean_best_at(2), 4.0);
    // rel-to-reference with ref 4: (4/2 + 4/6)/2.
    EXPECT_NEAR(stats.mean_rel_to_reference(4.0, 2), (2.0 + 4.0 / 6.0) / 2,
                1e-12);
    EXPECT_EQ(stats.count_reached(6.0), 2);
    EXPECT_EQ(stats.count_reached(2.0), 1);
    std::vector<double> mean = stats.mean_trajectory();
    ASSERT_EQ(mean.size(), 2u);
    EXPECT_DOUBLE_EQ(mean[0], 6.0);
    EXPECT_DOUBLE_EQ(mean[1], 4.0);
}

TEST(Runner, AllMethodsRunOnASmallBenchmark)
{
    const Benchmark& b = find_benchmark("BFS");
    for (const char* m : {"BaCO", "ATF", "Ytopt", "Uniform", "CoT"}) {
        TuningHistory h = run_method(b, m, 10, 42);
        EXPECT_EQ(h.size(), 10u) << m;
    }
}

}  // namespace
}  // namespace baco::suite
