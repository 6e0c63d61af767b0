// Permutation semimetrics (paper Fig. 3) against brute-force ground truth,
// and the triangle inequality of their two forms.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/distance.hpp"
#include "core/parameter.hpp"

namespace baco {
namespace {

std::vector<Permutation>
all_permutations_of_4()
{
    std::vector<Permutation> all;
    Permutation p{0, 1, 2, 3};
    do {
        all.push_back(p);
    } while (std::next_permutation(p.begin(), p.end()));
    return all;
}

/** Triples (a, b, c) of 4-permutations with d(a, c) > d(a, b) + d(b, c). */
int
triangle_violations(PermutationMetric metric, PermutationForm form)
{
    PermutationParameter param("p", 4, metric, form);
    std::vector<Permutation> all = all_permutations_of_4();
    int violations = 0;
    for (const Permutation& a : all)
        for (const Permutation& b : all)
            for (const Permutation& c : all) {
                double ac = param.distance(a, c);
                double via_b = param.distance(a, b) + param.distance(b, c);
                violations += ac > via_b + 1e-12 ? 1 : 0;
            }
    return violations;
}

TEST(PermutationDistance, PaperFig3Example)
{
    // pi = [1,2,3,4], pi' = [2,4,3,1] (0-based: [0,1,2,3] vs [1,3,2,0]).
    Permutation a{0, 1, 2, 3};
    Permutation b{1, 3, 2, 0};
    // Discordant pairs: (1,4),(2,3),(2,4),(3,4) -> 4.
    EXPECT_EQ(kendall_distance(a, b), 4);
    // Squared movements: 1 + 4 + 0 + 9 = 14.
    EXPECT_EQ(spearman_distance(a, b), 14);
    // Elements displaced: 1, 2 and 4 -> 3.
    EXPECT_EQ(hamming_distance(a, b), 3);
}

TEST(PermutationDistance, IdentityIsZero)
{
    Permutation p{2, 0, 3, 1};
    for (auto m : {PermutationMetric::kKendall, PermutationMetric::kSpearman,
                   PermutationMetric::kHamming, PermutationMetric::kNaive}) {
        EXPECT_DOUBLE_EQ(permutation_distance(p, p, m), 0.0);
    }
}

TEST(PermutationDistance, Symmetry)
{
    Permutation a{0, 2, 1, 3}, b{3, 1, 2, 0};
    EXPECT_EQ(kendall_distance(a, b), kendall_distance(b, a));
    EXPECT_EQ(spearman_distance(a, b), spearman_distance(b, a));
    EXPECT_EQ(hamming_distance(a, b), hamming_distance(b, a));
}

TEST(PermutationDistance, ReversalAchievesMaxima)
{
    for (int m = 2; m <= 6; ++m) {
        Permutation id(static_cast<std::size_t>(m));
        std::iota(id.begin(), id.end(), 0);
        Permutation rev(id.rbegin(), id.rend());
        EXPECT_EQ(kendall_distance(id, rev), max_kendall(m));
        EXPECT_EQ(spearman_distance(id, rev), max_spearman(m));
        // All normalized metrics hit exactly 1 at the reversal (the Hamming
        // distance of a reversal is m - (m odd ? 1 : 0)).
        EXPECT_DOUBLE_EQ(
            permutation_distance(id, rev, PermutationMetric::kKendall), 1.0);
        EXPECT_DOUBLE_EQ(
            permutation_distance(id, rev, PermutationMetric::kSpearman), 1.0);
    }
}

TEST(PermutationDistance, NormalizationBounds)
{
    // All pairs of 4-permutations stay in [0, 1] for all metrics.
    std::vector<Permutation> all = all_permutations_of_4();
    ASSERT_EQ(all.size(), 24u);
    for (const auto& a : all) {
        for (const auto& b : all) {
            for (auto m : {PermutationMetric::kKendall,
                           PermutationMetric::kSpearman,
                           PermutationMetric::kHamming,
                           PermutationMetric::kNaive}) {
                double d = permutation_distance(a, b, m);
                EXPECT_GE(d, 0.0);
                EXPECT_LE(d, 1.0);
            }
        }
    }
}

TEST(PermutationDistance, PaperSec41LoopExample)
{
    // Sec. 4.1: loop orders (l2,l3,l1,l4) vs (l4,l3,l1,l2): swapping the
    // first and last elements gives high Spearman but relatively smaller
    // Kendall and Hamming (after normalization).
    // As permutation vectors (element i -> position): first: l1->2,
    // l2->0, l3->1, l4->3; second: l1->2, l2->3, l3->1, l4->0.
    Permutation first{2, 0, 1, 3};
    Permutation second{2, 3, 1, 0};
    double spear = permutation_distance(first, second,
                                        PermutationMetric::kSpearman);
    double kendall = permutation_distance(first, second,
                                          PermutationMetric::kKendall);
    double hamming = permutation_distance(first, second,
                                          PermutationMetric::kHamming);
    EXPECT_GT(spear, kendall);
    EXPECT_GT(spear, hamming);
}

TEST(PermutationDistance, EuclideanFormsAreMetrics)
{
    for (auto m : {PermutationMetric::kSpearman, PermutationMetric::kKendall,
                   PermutationMetric::kHamming}) {
        EXPECT_EQ(triangle_violations(m, PermutationForm::kEuclidean), 0)
            << static_cast<int>(m);
    }
}

TEST(PermutationDistance, PaperSpearmanViolatesTriangleInequality)
{
    // [0,1,2,3] -> [1,0,2,3] -> [2,0,1,3] moves element 0 two ranks in
    // two steps of 2/20 each, but the composed move costs 6/20 > 4/20.
    EXPECT_GT(triangle_violations(PermutationMetric::kSpearman,
                                  PermutationForm::kSemimetric),
              0);
    PermutationParameter paper("p", 4, PermutationMetric::kSpearman,
                               PermutationForm::kSemimetric);
    Permutation a{0, 1, 2, 3}, b{1, 0, 2, 3}, c{2, 0, 1, 3};
    EXPECT_GT(paper.distance(a, c), paper.distance(a, b) + paper.distance(b, c));
}

TEST(PermutationDistance, EuclideanFormIsSqrtOfSemimetric)
{
    std::vector<Permutation> all = all_permutations_of_4();
    for (auto m : {PermutationMetric::kSpearman, PermutationMetric::kKendall,
                   PermutationMetric::kHamming, PermutationMetric::kNaive}) {
        PermutationParameter euclid("p", 4, m);  // the default form
        ASSERT_EQ(euclid.form(), PermutationForm::kEuclidean);
        for (const Permutation& b : all) {
            double d = permutation_distance(all.front(), b, m);
            EXPECT_DOUBLE_EQ(euclid.distance(all.front(), b), std::sqrt(d));
        }
    }
}

TEST(PermutationDistance, KendallBruteForceAgreement)
{
    // Kendall == number of pairwise order inversions, checked by brute
    // force over all pairs of 4-permutations.
    std::vector<Permutation> all = all_permutations_of_4();
    for (const auto& a : all) {
        for (const auto& b : all) {
            int brute = 0;
            for (int i = 0; i < 4; ++i)
                for (int j = i + 1; j < 4; ++j)
                    if ((a[static_cast<std::size_t>(i)] <
                         a[static_cast<std::size_t>(j)]) !=
                        (b[static_cast<std::size_t>(i)] <
                         b[static_cast<std::size_t>(j)]))
                        ++brute;
            EXPECT_EQ(kendall_distance(a, b), brute);
        }
    }
}

}  // namespace
}  // namespace baco
