// Positive-semidefiniteness properties of the Matérn-5/2 kernel over
// mixed spaces: proper metrics (real/integer/ordinal/categorical) and the
// Euclidean form of every permutation distance always produce
// factorizable kernel matrices, while the paper's permutation
// *semimetrics* may not — which is exactly why GpModel guards its
// posterior solve (see gp_model.cpp). These tests pin down both
// behaviours.

#include <gtest/gtest.h>

#include "gp/kernel.hpp"
#include "gp/gp_model.hpp"
#include "linalg/cholesky.hpp"

namespace baco {
namespace {

DistanceTensor
tensor_from_space(const SearchSpace& s, const std::vector<Configuration>& xs)
{
    DistanceTensor t;
    t.n = xs.size();
    t.dists.assign(s.num_params(), Matrix(t.n, t.n));
    for (std::size_t k = 0; k < s.num_params(); ++k)
        for (std::size_t i = 0; i < t.n; ++i)
            for (std::size_t j = i + 1; j < t.n; ++j) {
                double v = s.dim_distance(k, xs[i], xs[j]);
                t.dists[k](i, j) = v;
                t.dists[k](j, i) = v;
            }
    return t;
}

GpHyperparams
hp_for(std::size_t dims, double log_ls)
{
    GpHyperparams hp;
    hp.log_lengthscales.assign(dims, log_ls);
    hp.log_outputscale = 0.0;
    hp.log_noise = std::log(1e-8);  // essentially noiseless: strict test
    return hp;
}

/** Sweep lengthscales: metric spaces must stay (numerically) PSD. */
class MetricKernelPsd : public ::testing::TestWithParam<double> {};

TEST_P(MetricKernelPsd, MetricSpacesFactorizeAtAnyLengthscale)
{
    SearchSpace s;
    s.add_real("x", 0.0, 1.0);
    s.add_ordinal("o", {1, 2, 4, 8, 16}, true);
    s.add_integer("n", 0, 9);
    s.add_categorical("c", {"a", "b", "c"});
    RngEngine rng(11);
    std::vector<Configuration> xs;
    for (int i = 0; i < 40; ++i)
        xs.push_back(s.sample_unconstrained(rng));
    DistanceTensor t = tensor_from_space(s, xs);

    Matrix k = kernel_matrix(t, hp_for(s.num_params(), GetParam()));
    // A tiny jitter for floating-point slack must suffice.
    EXPECT_NO_THROW({
        CholeskyFactor f = cholesky_with_jitter(k, 1e-12, 6);
        (void)f;
    });
}

const auto kLengthscaleSweep =
    ::testing::Values(std::log(0.05), std::log(0.2), std::log(0.5),
                      std::log(1.0), std::log(3.0));

INSTANTIATE_TEST_SUITE_P(LengthscaleSweep, MetricKernelPsd, kLengthscaleSweep);

/** The Euclidean form of each permutation metric, over the same sweep. */
class EuclideanPermutationPsd
    : public ::testing::TestWithParam<std::tuple<PermutationMetric, double>> {
};

TEST_P(EuclideanPermutationPsd, FactorizesAloneAndMixed)
{
    auto [metric, log_ls] = GetParam();
    SearchSpace alone;
    alone.add_permutation("p", 5, metric, PermutationForm::kEuclidean);
    SearchSpace mixed;
    mixed.add_ordinal("o", {1, 2, 4, 8, 16}, true);
    mixed.add_permutation("p", 5, metric, PermutationForm::kEuclidean);
    mixed.add_categorical("c", {"a", "b", "c"});
    for (const SearchSpace* s : {&alone, &mixed}) {
        RngEngine rng(13);
        std::vector<Configuration> xs;
        for (int i = 0; i < 60; ++i)
            xs.push_back(s->sample_unconstrained(rng));
        DistanceTensor t = tensor_from_space(*s, xs);
        Matrix k = kernel_matrix(t, hp_for(s->num_params(), log_ls));
        EXPECT_NO_THROW({
            CholeskyFactor f = cholesky_with_jitter(k, 1e-12, 6);
            (void)f;
        }) << s->num_params() << " dims";
    }
}

INSTANTIATE_TEST_SUITE_P(
    MetricsTimesLengthscales, EuclideanPermutationPsd,
    ::testing::Combine(::testing::Values(PermutationMetric::kSpearman,
                                         PermutationMetric::kKendall,
                                         PermutationMetric::kHamming),
                       kLengthscaleSweep));

TEST(SemimetricKernel, SpearmanMayNeedLargeJitterButAlwaysFactorizes)
{
    // The Spearman semimetric violates the triangle inequality, so the
    // kernel matrix can be indefinite (the tiny jitter that suffices for
    // the Euclidean form does not here) — but the escalating jitter must
    // always rescue the factorization (diagonal dominance bound).
    SearchSpace s;
    s.add_permutation("p", 5, PermutationMetric::kSpearman,
                      PermutationForm::kSemimetric);
    RngEngine rng(13);
    std::vector<Configuration> xs;
    for (int i = 0; i < 60; ++i)
        xs.push_back(s.sample_unconstrained(rng));
    DistanceTensor t = tensor_from_space(s, xs);

    for (double log_ls : {std::log(0.05), std::log(0.3), std::log(1.0)}) {
        Matrix k = kernel_matrix(t, hp_for(1, log_ls));
        EXPECT_NO_THROW({
            CholeskyFactor f = cholesky_with_jitter(k);
            (void)f;
        });
    }
    Matrix k = kernel_matrix(t, hp_for(1, std::log(1.0)));
    EXPECT_THROW(cholesky_with_jitter(k, 1e-12, 6), std::runtime_error);
}

TEST(SemimetricKernel, GpPosteriorStaysBoundedOnPermutationSpaces)
{
    // End-to-end guard: even when the semimetric kernel is ill-conditioned,
    // GpModel's posterior must produce bounded predictions.
    SearchSpace s;
    s.add_permutation("p", 4, PermutationMetric::kSpearman,
                      PermutationForm::kSemimetric);
    s.add_ordinal("o", {1, 2, 4, 8}, true);
    RngEngine rng(17);
    std::vector<Configuration> xs;
    std::vector<double> ys;
    for (int i = 0; i < 22; ++i) {
        Configuration c = s.sample_unconstrained(rng);
        ys.push_back(1.0 + rng.uniform());
        xs.push_back(std::move(c));
    }
    GpModel gp(s);
    gp.fit(xs, ys, rng);
    for (int i = 0; i < 30; ++i) {
        GpPrediction p = gp.predict(s.sample_unconstrained(rng));
        EXPECT_TRUE(std::isfinite(p.mean));
        EXPECT_GE(p.var, 0.0);
        // Predictions must stay within a sane envelope of the data range.
        EXPECT_GT(p.mean, -10.0);
        EXPECT_LT(p.mean, 10.0);
    }
}

}  // namespace
}  // namespace baco
