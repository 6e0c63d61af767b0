// Parameter type behaviour: sampling, neighbours, distances, encodings.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/parameter.hpp"

namespace baco {
namespace {

TEST(RealParameter, SampleWithinBoundsAndLogSampling)
{
    RngEngine rng(1);
    RealParameter lin("x", 0.0, 10.0);
    for (int i = 0; i < 200; ++i) {
        double v = as_real(lin.sample(rng));
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 10.0);
    }
    RealParameter lg("y", 1.0, 1024.0, /*log_scale=*/true);
    int below32 = 0;
    for (int i = 0; i < 2000; ++i)
        below32 += as_real(lg.sample(rng)) < 32.0 ? 1 : 0;
    // Log-uniform: half the mass below the geometric midpoint (32).
    EXPECT_NEAR(below32 / 2000.0, 0.5, 0.05);
}

TEST(RealParameter, LogDistanceMatchesPaperExample)
{
    // Sec. 4.1: tiles 2 vs 4 should be as similar as 512 vs 1024.
    RealParameter p("tile", 1.0, 4096.0, true);
    double d_small = p.distance(ParamValue{2.0}, ParamValue{4.0});
    double d_large = p.distance(ParamValue{512.0}, ParamValue{1024.0});
    EXPECT_NEAR(d_small, d_large, 1e-12);
    double d_close = p.distance(ParamValue{512.0}, ParamValue{514.0});
    EXPECT_LT(d_close, d_small / 10.0);
}

TEST(IntegerParameter, NeighborsStepByOne)
{
    RngEngine rng(2);
    IntegerParameter p("n", 0, 5);
    auto nb = p.neighbors(ParamValue{std::int64_t{3}}, rng);
    ASSERT_EQ(nb.size(), 2u);
    EXPECT_EQ(as_int(nb[0]), 2);
    EXPECT_EQ(as_int(nb[1]), 4);
    // Boundary values only have one neighbour.
    EXPECT_EQ(p.neighbors(ParamValue{std::int64_t{0}}, rng).size(), 1u);
    EXPECT_EQ(p.neighbors(ParamValue{std::int64_t{5}}, rng).size(), 1u);
}

TEST(IntegerParameter, EnumerationAndIndexOfRoundTrip)
{
    IntegerParameter p("n", -2, 2);
    ASSERT_EQ(p.num_values(), 5u);
    for (std::size_t i = 0; i < p.num_values(); ++i)
        EXPECT_EQ(p.index_of(p.value_at(i)), i);
    EXPECT_EQ(p.index_of(ParamValue{std::int64_t{99}}), p.num_values());
}

TEST(OrdinalParameter, LogDistanceOnExponentialValues)
{
    OrdinalParameter p("tile", {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
                       /*log_scale=*/true);
    double d1 = p.distance(ParamValue{std::int64_t{2}},
                           ParamValue{std::int64_t{4}});
    double d2 = p.distance(ParamValue{std::int64_t{512}},
                           ParamValue{std::int64_t{1024}});
    EXPECT_NEAR(d1, d2, 1e-12);
    EXPECT_NEAR(p.distance(ParamValue{std::int64_t{2}},
                           ParamValue{std::int64_t{1024}}),
                1.0, 1e-12);
}

TEST(OrdinalParameter, NeighborsAreAdjacentValues)
{
    RngEngine rng(3);
    OrdinalParameter p("tile", {1, 2, 4, 8});
    auto nb = p.neighbors(ParamValue{std::int64_t{2}}, rng);
    ASSERT_EQ(nb.size(), 2u);
    EXPECT_EQ(as_int(nb[0]), 1);
    EXPECT_EQ(as_int(nb[1]), 4);
}

TEST(CategoricalParameter, HammingDistanceAndOneHot)
{
    CategoricalParameter p("sched", {"static", "dynamic", "guided"});
    EXPECT_EQ(p.distance(p.value_at(0), p.value_at(0)), 0.0);
    EXPECT_EQ(p.distance(p.value_at(0), p.value_at(2)), 1.0);

    std::vector<double> feat;
    p.encode(p.value_at(1), feat);
    ASSERT_EQ(feat.size(), 3u);
    EXPECT_EQ(feat[0], 0.0);
    EXPECT_EQ(feat[1], 1.0);
    EXPECT_EQ(feat[2], 0.0);
    EXPECT_EQ(p.value_to_string(p.value_at(2)), "guided");
}

TEST(CategoricalParameter, NeighborsAreAllOtherCategories)
{
    RngEngine rng(4);
    CategoricalParameter p("c", {"a", "b", "c", "d"});
    auto nb = p.neighbors(p.value_at(1), rng);
    EXPECT_EQ(nb.size(), 3u);
}

TEST(PermutationParameter, EnumerationIsLexicographicAndBijective)
{
    PermutationParameter p("perm", 4);
    ASSERT_EQ(p.num_values(), 24u);
    EXPECT_EQ(as_permutation(p.value_at(0)), (Permutation{0, 1, 2, 3}));
    EXPECT_EQ(as_permutation(p.value_at(23)), (Permutation{3, 2, 1, 0}));
    std::set<Permutation> seen;
    for (std::size_t i = 0; i < 24; ++i) {
        ParamValue v = p.value_at(i);
        EXPECT_EQ(p.index_of(v), i);
        seen.insert(as_permutation(v));
    }
    EXPECT_EQ(seen.size(), 24u);
}

TEST(PermutationParameter, IndexOfRejectsNonPermutations)
{
    PermutationParameter p("perm", 4);
    std::size_t outside = p.num_values();
    EXPECT_EQ(p.index_of(Permutation{0, 0, 1, 2}), outside);  // repeat
    EXPECT_EQ(p.index_of(Permutation{0, 1, 2, 4}), outside);  // out of range
    EXPECT_EQ(p.index_of(Permutation{-1, 0, 1, 2}), outside);
    EXPECT_EQ(p.index_of(Permutation{0, 1, 2}), outside);     // too short
    EXPECT_EQ(p.index_of(Permutation{0, 1, 3, 2}), 1u);
}

TEST(PermutationParameter, NeighborsIncludeAdjacentTranspositions)
{
    RngEngine rng(5);
    PermutationParameter p("perm", 4);
    Permutation base{0, 1, 2, 3};
    auto nb = p.neighbors(ParamValue{base}, rng);
    // 3 adjacent transpositions + up to 2 random swaps.
    EXPECT_GE(nb.size(), 3u);
    EXPECT_EQ(as_permutation(nb[0]), (Permutation{1, 0, 2, 3}));
    EXPECT_EQ(as_permutation(nb[1]), (Permutation{0, 2, 1, 3}));
    EXPECT_EQ(as_permutation(nb[2]), (Permutation{0, 1, 3, 2}));
}

TEST(PermutationParameter, MetricSwitchChangesDistance)
{
    PermutationParameter p("perm", 4, PermutationMetric::kSpearman);
    Permutation a{0, 1, 2, 3}, b{1, 0, 2, 3};
    double spearman = p.distance(ParamValue{a}, ParamValue{b});
    p.set_metric(PermutationMetric::kNaive);
    double naive = p.distance(ParamValue{a}, ParamValue{b});
    EXPECT_LT(spearman, naive);  // one swap is "close" under Spearman
    EXPECT_EQ(naive, 1.0);
}

TEST(PermutationParameter, NumericValueThrows)
{
    PermutationParameter p("perm", 3);
    EXPECT_THROW(p.numeric_value(p.value_at(0)), std::runtime_error);
}

TEST(ParamValueHelpers, EqualityAndHash)
{
    Configuration a{ParamValue{1.5}, ParamValue{std::int64_t{3}},
                    ParamValue{Permutation{0, 2, 1}}};
    Configuration b = a;
    EXPECT_TRUE(configs_equal(a, b));
    EXPECT_EQ(config_hash(a), config_hash(b));
    b[1] = std::int64_t{4};
    EXPECT_FALSE(configs_equal(a, b));
    EXPECT_NE(config_hash(a), config_hash(b));
}

}  // namespace
}  // namespace baco
