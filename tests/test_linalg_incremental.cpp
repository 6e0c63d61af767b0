// Property tests for the incremental Cholesky append path: append-updated
// factors must agree with from-scratch factorization — including log_det
// and solves — on well-conditioned, near-singular and semimetric-induced
// slightly-indefinite matrices, across repeated append chains.

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/rng.hpp"

namespace baco {
namespace {

/** A = B B^T + ridge*I over [-1,1] uniform B: SPD with conditioning set
 *  by the ridge. */
Matrix
random_spd(std::size_t n, double ridge, RngEngine& rng)
{
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            b(i, j) = rng.uniform(-1, 1);
    Matrix a = mat_mat(b, b.transposed());
    for (std::size_t i = 0; i < n; ++i)
        a(i, i) += ridge;
    return a;
}

/** Leading k x k block of a. */
Matrix
leading_block(const Matrix& a, std::size_t k)
{
    Matrix b(k, k);
    for (std::size_t i = 0; i < k; ++i)
        for (std::size_t j = 0; j < k; ++j)
            b(i, j) = a(i, j);
    return b;
}

/** Row r of a, restricted to the first k columns. */
std::vector<double>
cross_row(const Matrix& a, std::size_t r, std::size_t k)
{
    std::vector<double> v(k);
    for (std::size_t j = 0; j < k; ++j)
        v[j] = a(r, j);
    return v;
}

void
expect_factors_match(const CholeskyFactor& got, const CholeskyFactor& want,
                     double tol)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        for (std::size_t j = 0; j <= i; ++j)
            EXPECT_NEAR(got.lower()(i, j), want.lower()(i, j), tol)
                << "entry (" << i << ", " << j << ")";
}

TEST(CholeskyAppend, SingleAppendMatchesScratch)
{
    RngEngine rng(7);
    Matrix a = random_spd(12, 12.0, rng);
    auto scratch = cholesky(a);
    ASSERT_TRUE(scratch.has_value());

    auto grown = cholesky(leading_block(a, 11));
    ASSERT_TRUE(grown.has_value());
    ASSERT_TRUE(grown->append(cross_row(a, 11, 11), a(11, 11)));

    // The appended row runs the same recurrence as the scratch
    // factorization's last row, so agreement is essentially exact.
    expect_factors_match(*grown, *scratch, 1e-12);
    EXPECT_NEAR(grown->log_det(), scratch->log_det(), 1e-10);
}

class CholeskyAppendChain : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyAppendChain, RepeatedAppendsMatchScratch)
{
    // Chains of 1..64 appended rows on top of a 2x2 base.
    std::size_t appends = static_cast<std::size_t>(GetParam());
    std::size_t n = 2 + appends;
    RngEngine rng(static_cast<std::uint64_t>(appends));
    Matrix a = random_spd(n, static_cast<double>(n), rng);

    auto grown = cholesky(leading_block(a, 2));
    ASSERT_TRUE(grown.has_value());
    for (std::size_t k = 2; k < n; ++k)
        ASSERT_TRUE(grown->append(cross_row(a, k, k), a(k, k)))
            << "append " << k;

    auto scratch = cholesky(a);
    ASSERT_TRUE(scratch.has_value());
    expect_factors_match(*grown, *scratch, 1e-10 * static_cast<double>(n));
    EXPECT_NEAR(grown->log_det(), scratch->log_det(),
                1e-9 * static_cast<double>(n));

    // Solves through the grown factor reconstruct A x = b.
    std::vector<double> rhs(n);
    for (double& v : rhs)
        v = rng.uniform(-10, 10);
    std::vector<double> x = grown->solve(rhs);
    std::vector<double> back = mat_vec(a, x);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(back[i], rhs[i], 1e-7 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Chains, CholeskyAppendChain,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64));

TEST(CholeskyAppend, BlockAppendMatchesScratch)
{
    RngEngine rng(11);
    for (std::size_t m : {1u, 2u, 4u, 7u}) {
        std::size_t base = 9;
        std::size_t n = base + m;
        Matrix a = random_spd(n, static_cast<double>(n), rng);

        Matrix cross(m, base);
        Matrix corner(m, m);
        for (std::size_t r = 0; r < m; ++r) {
            for (std::size_t j = 0; j < base; ++j)
                cross(r, j) = a(base + r, j);
            for (std::size_t c = 0; c < m; ++c)
                corner(r, c) = a(base + r, base + c);
        }

        auto grown = cholesky(leading_block(a, base));
        ASSERT_TRUE(grown.has_value());
        ASSERT_TRUE(grown->append_block(cross, corner)) << "m = " << m;

        auto scratch = cholesky(a);
        ASSERT_TRUE(scratch.has_value());
        // The Schur block is accumulated in a different order than the
        // scratch recurrence, so agreement is tight but not bitwise.
        expect_factors_match(*grown, *scratch, 1e-9);
        EXPECT_NEAR(grown->log_det(), scratch->log_det(), 1e-9);
    }
}

TEST(CholeskyAppend, ShrinkRestoresExactPrefix)
{
    RngEngine rng(3);
    Matrix a = random_spd(10, 10.0, rng);
    auto base = cholesky(leading_block(a, 6));
    ASSERT_TRUE(base.has_value());
    CholeskyFactor grown = *base;
    for (std::size_t k = 6; k < 10; ++k)
        ASSERT_TRUE(grown.append(cross_row(a, k, k), a(k, k)));
    grown.shrink(6);
    ASSERT_EQ(grown.size(), 6u);
    // Appends never touch the leading block, so shrink is exact — not
    // merely within tolerance.
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j <= i; ++j)
            EXPECT_EQ(grown.lower()(i, j), base->lower()(i, j));
}

TEST(CholeskyAppend, RejectsNonSpdBorderAndLeavesFactorIntact)
{
    RngEngine rng(5);
    Matrix a = random_spd(8, 8.0, rng);
    auto f = cholesky(a);
    ASSERT_TRUE(f.has_value());
    Matrix before = f->lower();

    // Duplicating an existing row makes the bordered matrix exactly
    // singular: the Schur complement is ~0 and the append must refuse.
    std::vector<double> dup = cross_row(a, 3, 8);
    EXPECT_FALSE(f->append(dup, a(3, 3)));
    ASSERT_EQ(f->size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        for (std::size_t j = 0; j <= i; ++j)
            EXPECT_EQ(f->lower()(i, j), before(i, j));

    // Same through the block path.
    Matrix cross(1, 8);
    Matrix corner(1, 1);
    for (std::size_t j = 0; j < 8; ++j)
        cross(0, j) = dup[j];
    corner(0, 0) = a(3, 3);
    EXPECT_FALSE(f->append_block(cross, corner));
    EXPECT_EQ(f->size(), 8u);
}

TEST(CholeskyAppend, NearSingularChainStaysAccurate)
{
    // Low-rank + tiny ridge: near-singular but factorizable. The append
    // chain must either track the scratch factor or refuse — silently
    // diverging is the failure mode this pins.
    RngEngine rng(13);
    std::size_t n = 10, r = 4;
    Matrix b(n, r);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < r; ++j)
            b(i, j) = rng.uniform(-1, 1);
    Matrix a = mat_mat(b, b.transposed());
    for (std::size_t i = 0; i < n; ++i)
        a(i, i) += 1e-6;

    auto scratch = cholesky(a);
    if (!scratch.has_value())
        GTEST_SKIP() << "matrix not factorizable at this seed";
    auto grown = cholesky(leading_block(a, r));
    ASSERT_TRUE(grown.has_value());
    bool all_ok = true;
    for (std::size_t k = r; k < n && all_ok; ++k)
        all_ok = grown->append(cross_row(a, k, k), a(k, k));
    if (!all_ok)
        SUCCEED();  // refusing a non-safely-positive pivot is correct
    else
        expect_factors_match(*grown, *scratch, 1e-6);
}

TEST(CholeskyAppend, JitteredFactorExtendsConsistently)
{
    // Semimetric-style slightly-indefinite matrix: a Matern kernel over
    // distances that violate the triangle inequality can have a small
    // negative eigenvalue. cholesky() must refuse, cholesky_with_jitter
    // must rescue it and report the applied shift — and appending a row
    // whose diagonal carries the *same* shift must agree with the
    // from-scratch jittered factorization (the GpModel::extend contract).
    // Three points with d(0,1) = d(1,2) = 0.1 but d(0,2) = 0.5: the
    // triangle inequality fails badly, and the Matern-5/2 Gram matrix
    // picks up a negative eigenvalue (det of the symmetric 2x2 block
    // (1 + k02) - 2*k01^2 < 0).
    std::size_t n = 3;
    Matrix d(n, n, 0.0);
    d(0, 1) = d(1, 0) = 0.1;
    d(1, 2) = d(2, 1) = 0.1;
    d(0, 2) = d(2, 0) = 0.5;
    auto matern = [](double r) {
        double a = std::sqrt(5.0) * r;
        return (1.0 + a + 5.0 * r * r / 3.0) * std::exp(-a);
    };
    Matrix kmat(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            kmat(i, j) = i == j ? 1.0 : matern(d(i, j));

    ASSERT_FALSE(cholesky(kmat).has_value())
        << "construction failed to produce an indefinite matrix";

    double jitter = 0.0;
    CholeskyFactor full = cholesky_with_jitter(kmat, 1e-10, 16, &jitter);
    EXPECT_GT(jitter, 0.0);

    // Factor the jittered leading block directly, then append the last
    // row with the reported shift on its diagonal.
    Matrix lead = leading_block(kmat, n - 1);
    for (std::size_t i = 0; i < n - 1; ++i)
        lead(i, i) += jitter;
    auto grown = cholesky(lead);
    ASSERT_TRUE(grown.has_value());
    ASSERT_TRUE(
        grown->append(cross_row(kmat, n - 1, n - 1), kmat(n - 1, n - 1) + jitter));
    expect_factors_match(*grown, full, 1e-10);
    EXPECT_NEAR(grown->log_det(), full.log_det(), 1e-10);
}

TEST(CholeskyWithJitter, ReportsZeroShiftWhenSpd)
{
    RngEngine rng(2);
    Matrix a = random_spd(5, 5.0, rng);
    double jitter = 123.0;
    CholeskyFactor f = cholesky_with_jitter(a, 1e-10, 16, &jitter);
    EXPECT_EQ(jitter, 0.0);
    EXPECT_EQ(f.size(), 5u);
}

}  // namespace
}  // namespace baco
