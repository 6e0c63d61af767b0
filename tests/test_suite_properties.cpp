// Suite-wide parameterized property tests: invariants that must hold for
// every one of the 25 benchmark instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/chain_of_trees.hpp"
#include "rise/benchmarks.hpp"
#include "suite/registry.hpp"

namespace baco::suite {
namespace {

std::vector<std::string>
all_names()
{
    std::vector<std::string> names;
    for (const Benchmark& b : all_benchmarks())
        names.push_back(b.name);
    return names;
}

class BenchmarkProperty : public ::testing::TestWithParam<std::string> {
 protected:
  const Benchmark& bench() { return find_benchmark(GetParam()); }
};

TEST_P(BenchmarkProperty, EvaluatorIsDeterministicGivenRngState)
{
    const Benchmark& b = bench();
    auto space = b.make_space(SpaceVariant{});
    RngEngine sample_rng(1);
    Configuration c = space->sample_unconstrained(sample_rng);
    RngEngine r1(7), r2(7);
    EvalResult a = b.evaluate(c, r1);
    EvalResult d = b.evaluate(c, r2);
    EXPECT_EQ(a.feasible, d.feasible);
    if (a.feasible) {
        EXPECT_DOUBLE_EQ(a.value, d.value);
    }
}

TEST_P(BenchmarkProperty, TrueCostPositiveOnFeasibleSamples)
{
    const Benchmark& b = bench();
    auto space = b.make_space(SpaceVariant{});
    RngEngine rng(2);
    int checked = 0;
    for (int i = 0; i < 100 && checked < 30; ++i) {
        auto c = space->sample_feasible(rng, 500);
        if (!c || !b.hidden_feasible(*c))
            continue;
        ++checked;
        EXPECT_GT(b.true_cost(*c), 0.0);
        EXPECT_TRUE(std::isfinite(b.true_cost(*c)));
    }
    EXPECT_GT(checked, 0);
}

TEST_P(BenchmarkProperty, EvaluateAgreesWithHiddenCheck)
{
    const Benchmark& b = bench();
    auto space = b.make_space(SpaceVariant{});
    RngEngine rng(3), noise(4);
    for (int i = 0; i < 40; ++i) {
        auto c = space->sample_feasible(rng, 500);
        if (!c)
            continue;
        EvalResult r = b.evaluate(*c, noise);
        EXPECT_EQ(r.feasible, b.hidden_feasible(*c));
    }
}

TEST_P(BenchmarkProperty, SpaceVariantsPreserveShape)
{
    const Benchmark& b = bench();
    SpaceVariant no_log;
    no_log.log_transforms = false;
    no_log.permutation_metric = PermutationMetric::kNaive;
    auto a = b.make_space(SpaceVariant{});
    auto v = b.make_space(no_log);
    ASSERT_EQ(a->num_params(), v->num_params());
    for (std::size_t i = 0; i < a->num_params(); ++i) {
        EXPECT_EQ(a->param(i).name(), v->param(i).name());
        EXPECT_EQ(a->param(i).kind(), v->param(i).kind());
        if (a->param(i).is_discrete()) {
            EXPECT_EQ(a->param(i).num_values(), v->param(i).num_values());
        }
    }
}

TEST_P(BenchmarkProperty, CotMembershipMatchesConstraints)
{
    const Benchmark& b = bench();
    auto space = b.make_space(SpaceVariant{});
    if (!space->has_constraints() || !space->is_fully_discrete())
        GTEST_SKIP() << "no tree-compatible known constraints";
    ChainOfTrees cot = ChainOfTrees::build(*space);
    RngEngine rng(5);
    for (int i = 0; i < 100; ++i) {
        Configuration c = space->sample_unconstrained(rng);
        EXPECT_EQ(cot.contains(c), space->satisfies(c));
    }
}

TEST_P(BenchmarkProperty, ReferenceCostIsAchievable)
{
    const Benchmark& b = bench();
    EXPECT_GT(b.reference_cost, 0.0);
    if (b.expert) {
        auto space = b.make_space(SpaceVariant{});
        EXPECT_TRUE(space->satisfies(*b.expert));
        EXPECT_TRUE(b.hidden_feasible(*b.expert));
        EXPECT_DOUBLE_EQ(b.reference_cost, b.true_cost(*b.expert));
    }
}

TEST_P(BenchmarkProperty, BudgetsFollowTable3Rule)
{
    const Benchmark& b = bench();
    EXPECT_GE(b.full_budget, 20);
    EXPECT_EQ(b.tiny_budget(), std::max(1, b.full_budget / 3));
    EXPECT_EQ(b.small_budget(), std::max(1, 2 * b.full_budget / 3));
    EXPECT_LE(b.doe_samples, b.tiny_budget() * 2);
}

/**
 * Every benchmark's reference cost and expert configuration, as the
 * registry derived them when they became lazily derived. They are the
 * denominators of every "performance relative to expert" figure, so a
 * cost-model or search edit that moves one must update it here on
 * purpose. Experts are the values joined by ", "; HPVM2FPGA has none.
 */
struct PinnedReference {
  const char* name;
  double reference_cost;
  const char* expert;
};

const PinnedReference kPinned[] = {
    {"SpMM/scircuit", 14.638141548342254, "4096, 32, 1, 1, 64, [0,1,2,3,4]"},
    {"SpMM/cage12", 23.26520171874358, "2048, 32, 1, 1, 64, [0,1,2,3,4]"},
    {"SpMM/laminar_duct3D", 29.839588568591424,
     "1024, 32, 4, 1, 64, [0,1,2,3,4]"},
    {"SDDMM/email-Enron", 10.286732221719795,
     "1024, 32, 1, 1, 64, [0,1,2,3,4]"},
    {"SDDMM/ACTIVSg10K", 1.5076258453482758, "512, 32, 4, 1, 64, [0,1,2,3,4]"},
    {"SDDMM/Goodwin_040", 4.6201771174814326, "512, 32, 4, 1, 64, [0,1,2,3,4]"},
    {"MTTKRP/uber", 41.497026626523756, "8, 8, 1, 1, 64, [0,1,2,3]"},
    {"MTTKRP/nips", 24.531848768333759, "32, 8, 1, 1, 64, [0,1,2,3]"},
    {"MTTKRP/chicago", 27.835085562627185, "64, 8, 1, 1, 64, [0,1,2,3]"},
    {"TTV/facebook", 0.1809736725489535, "32, 2, 1, 1, 64, 32, [0,1,2,3,4]"},
    {"TTV/uber3", 0.2397514239315448, "16, 2, 1, 1, 64, 32, [0,1,2,3,4]"},
    {"TTV/random1", 1.5808402379869861, "16, 2, 1, 1, 64, 8, [0,1,2,3,4]"},
    {"SpMV/laminar_duct3D", 0.25449099218025301,
     "1024, 4, 4, 1, 64, 32, [0,1,2,3,4]"},
    {"SpMV/cage12", 0.20309141967768424, "2048, 2, 1, 1, 64, 32, [0,1,2,3,4]"},
    {"SpMV/filter3D", 0.1869781950223488, "2048, 4, 4, 1, 64, 32, [0,1,2,3,4]"},
    {"MM_CPU", 25.650728713340481, "8, 16, 16, 8, [0,2,1]"},
    {"MM_GPU", 0.78195844571428563, "32, 8, 64, 64, 8, 2, 8, 2, 1, 2"},
    {"Asum_GPU", 0.5612170410666667, "65536, 1024, 64, 8, 4"},
    {"Scal_GPU", 0.68116778096640007, "16384, 8, 256, 4, 4, 32, 4"},
    {"K-means_GPU", 1.2595643869090909, "32, 32, 1, 1"},
    {"Harris_GPU", 1.2940754742857143, "128, 32, 64, 16, 2, 4, 4"},
    {"Stencil_GPU", 0.60973920000000004, "64, 16, 4, 1"},
    {"BFS", 0.56430000000000002, ""},
    {"Audio", 0.79086000000000001, ""},
    {"PreEuler", 1.3095454545454546, ""},
};

std::string
render(const Configuration& c)
{
    std::string out;
    for (std::size_t i = 0; i < c.size(); ++i)
        out += (i ? ", " : "") + param_value_to_string(c[i]);
    return out;
}

/** Relative 1e-12: exact up to a last-bit libm difference. */
void
expect_pinned(const Benchmark& b, double reference_cost,
              const std::string& expert, const PinnedReference& pin)
{
    EXPECT_NEAR(reference_cost, pin.reference_cost,
                1e-12 * pin.reference_cost)
        << pin.name;
    EXPECT_EQ(expert, pin.expert) << pin.name;
    EXPECT_EQ(b.expert.has_value(), *pin.expert != '\0') << pin.name;
}

TEST(BenchmarkReferences, MatchThePinnedValues)
{
    ASSERT_EQ(all_benchmarks().size(), std::size(kPinned));
    for (const PinnedReference& pin : kPinned) {
        const Benchmark& b = find_benchmark(pin.name);
        expect_pinned(b, b.reference_cost, b.expert ? render(*b.expert) : "",
                      pin);
    }
}

TEST(BenchmarkReferences, ConcurrentFirstReadsSeeThePinnedValues)
{
    // A freshly built benchmark has derived nothing yet, so these
    // threads make its first reads, released together. Half read the
    // expert first, half the reference cost (which reads the expert).
    const Benchmark b = rise::make_rise_benchmark("MM_GPU");
    const PinnedReference& pin =
        *std::find_if(std::begin(kPinned), std::end(kPinned),
                      [](const PinnedReference& p) {
                          return std::string(p.name) == "MM_GPU";
                      });
    constexpr int kThreads = 8;
    std::atomic<int> waiting{kThreads};
    std::vector<double> costs(kThreads);
    std::vector<std::string> experts(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            waiting.fetch_sub(1);
            while (waiting.load() > 0)
                std::this_thread::yield();
            if (t % 2 == 0) {
                experts[t] = render(*b.expert);
                costs[t] = b.reference_cost;
            } else {
                costs[t] = b.reference_cost;
                experts[t] = render(*b.expert);
            }
        });
    }
    for (std::thread& t : threads)
        t.join();
    for (int t = 0; t < kThreads; ++t)
        expect_pinned(b, costs[t], experts[t], pin);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkProperty, ::testing::ValuesIn(all_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string name = info.param;
        for (char& c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

}  // namespace
}  // namespace baco::suite
