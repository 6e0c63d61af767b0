#include "linalg/cholesky.hpp"

#include <cmath>
#include <stdexcept>

namespace baco {

namespace {

// Schur-complement diagonal entries below this fraction of the factored
// matrix's scale are treated as "not safely positive": the math may still
// produce a finite sqrt, but the resulting factor is so ill-conditioned
// that solves amplify noise. Callers fall back to a jittered refit instead.
constexpr double kMinPivotRatio = 1e-12;

}  // namespace

std::vector<double>
CholeskyFactor::solve_lower(const std::vector<double>& b) const
{
    std::vector<double> z = b;
    solve_lower_in_place(z);
    return z;
}

void
CholeskyFactor::solve_lower_in_place(std::vector<double>& b) const
{
    std::size_t n = l_.rows();
    assert(b.size() == n);
    // Row-oriented forward substitution: row i of L is contiguous, so the
    // inner reduction is a streaming dot product. Entry i is read once,
    // after entries 0..i-1 already hold the solution.
    double* z = b.data();
    for (std::size_t i = 0; i < n; ++i) {
        const double* li = l_.row(i);
        z[i] = (z[i] - dot_n(li, z, i)) / li[i];
    }
}

std::vector<double>
CholeskyFactor::solve_upper(const std::vector<double>& b) const
{
    std::size_t n = l_.rows();
    assert(b.size() == n);
    // Backward substitution against L^T, restructured into saxpy form:
    // column i of L^T is row i of L, so once z[i] is known we subtract
    // z[i] * L(i, 0..i-1) from the running right-hand side. Every access
    // streams a contiguous row instead of striding down a column.
    std::vector<double> z = b;
    for (std::size_t ii = n; ii > 0; --ii) {
        std::size_t i = ii - 1;
        const double* li = l_.row(i);
        double zi = z[i] / li[i];
        z[i] = zi;
        for (std::size_t j = 0; j < i; ++j)
            z[j] -= li[j] * zi;
    }
    return z;
}

std::vector<double>
CholeskyFactor::solve(const std::vector<double>& b) const
{
    return solve_upper(solve_lower(b));
}

Matrix
CholeskyFactor::solve_matrix(const Matrix& b) const
{
    std::size_t n = l_.rows();
    assert(b.rows() == n);
    Matrix x(n, b.cols());
    std::vector<double> col(n);
    for (std::size_t j = 0; j < b.cols(); ++j) {
        for (std::size_t i = 0; i < n; ++i)
            col[i] = b(i, j);
        std::vector<double> sol = solve(col);
        for (std::size_t i = 0; i < n; ++i)
            x(i, j) = sol[i];
    }
    return x;
}

double
CholeskyFactor::log_det() const
{
    double acc = 0.0;
    for (std::size_t i = 0; i < l_.rows(); ++i)
        acc += std::log(l_(i, i));
    return 2.0 * acc;
}

Matrix
CholeskyFactor::inverse() const
{
    // solve_matrix(I) solves column j as z = L^{-1} e_j, then x = L^{-T} z.
    // Here every column runs through the same operations in the same order,
    // but all columns advance together, so the inner loops sweep rows of
    // the result (contiguous, vectorizable) instead of one column's entries.
    std::size_t n = l_.rows();
    Matrix x(n, n, 0.0);

    // Forward: row i of Z = L^{-1} is z_ij = (e_j[i] - dot_n(L_i, z_.j, i))
    // / L_ii. dot_n keeps four partial sums (k mod 4 for the unrolled
    // prefix, lane 0 for the tail) combined as (s0 + s1) + (s2 + s3); the
    // four lane rows below replay exactly that. Z is lower triangular:
    // column j's entries above row j are +0, so its terms for k < j are
    // +-0 added to lanes that still hold +0 — a no-op that is skipped.
    std::vector<double> lanes(4 * n);
    double* lane[4] = {lanes.data(), lanes.data() + n, lanes.data() + 2 * n,
                       lanes.data() + 3 * n};
    for (std::size_t i = 0; i < n; ++i) {
        const double* li = l_.row(i);
        std::fill(lanes.begin(), lanes.end(), 0.0);
        std::size_t unrolled = i - i % 4;
        for (std::size_t k = 0; k < i; ++k) {
            double* acc = lane[k < unrolled ? k % 4 : 0];
            const double* zk = x.row(k);
            double lik = li[k];
            for (std::size_t j = 0; j <= k; ++j)
                acc[j] += lik * zk[j];
        }
        double* zi = x.row(i);
        for (std::size_t j = 0; j <= i; ++j) {
            double s = (lane[0][j] + lane[1][j]) + (lane[2][j] + lane[3][j]);
            zi[j] = ((j == i ? 1.0 : 0.0) - s) / li[i];
        }
    }

    // Backward, solve_upper's saxpy form on all columns at once: pivot row
    // p is final once divided by L_pp, then every row k < p subtracts L_pk
    // times it, for p = n-1 down to 0. Pivots go in groups of four: the
    // group's own rows are finished one pivot at a time, then each row
    // above the group takes the four subtractions in one pass, still in
    // descending pivot order.
    for (std::size_t hi = n; hi > 0;) {
        std::size_t lo = hi >= 4 ? hi - 4 : 0;
        for (std::size_t p = hi; p-- > lo;) {
            const double* lp = l_.row(p);
            double* xp = x.row(p);
            for (std::size_t j = 0; j < n; ++j)
                xp[j] = xp[j] / lp[p];
            for (std::size_t k = lo; k < p; ++k) {
                double* xk = x.row(k);
                double lpk = lp[k];
                for (std::size_t j = 0; j < n; ++j)
                    xk[j] -= lpk * xp[j];
            }
        }
        // lo > 0 only for a full group of four.
        if (lo > 0) {
            const double* x3 = x.row(lo + 3);
            const double* x2 = x.row(lo + 2);
            const double* x1 = x.row(lo + 1);
            const double* x0 = x.row(lo);
            for (std::size_t k = 0; k < lo; ++k) {
                double* xk = x.row(k);
                double a3 = l_(lo + 3, k);
                double a2 = l_(lo + 2, k);
                double a1 = l_(lo + 1, k);
                double a0 = l_(lo, k);
                for (std::size_t j = 0; j < n; ++j)
                    xk[j] = (((xk[j] - a3 * x3[j]) - a2 * x2[j]) - a1 * x1[j]) -
                            a0 * x0[j];
            }
        }
        hi = lo;
    }
    return x;
}

bool
CholeskyFactor::append(const std::vector<double>& cross, double diag)
{
    std::size_t n = l_.rows();
    assert(cross.size() == n);
    // New bottom row: l21 solves L l21 = cross; the new pivot is the Schur
    // complement of the appended diagonal entry.
    std::vector<double> l21 = solve_lower(cross);
    double schur = diag - dot_n(l21.data(), l21.data(), n);
    double scale = diag;
    for (std::size_t i = 0; i < n; ++i)
        scale = std::max(scale, l_(i, i) * l_(i, i));
    if (!std::isfinite(schur) || schur <= kMinPivotRatio * std::max(scale, 1.0))
        return false;
    l_.resize_preserving(n + 1, n + 1);
    double* last = l_.row(n);
    for (std::size_t j = 0; j < n; ++j)
        last[j] = l21[j];
    last[n] = std::sqrt(schur);
    return true;
}

bool
CholeskyFactor::append_block(const Matrix& cross, const Matrix& corner)
{
    std::size_t n = l_.rows();
    std::size_t m = cross.rows();
    assert(cross.cols() == n);
    assert(corner.rows() == m && corner.cols() == m);
    if (m == 0)
        return true;
    // L21 row r solves L L21_r = cross_r.
    Matrix l21(m, n);
    std::vector<double> row(n);
    for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t j = 0; j < n; ++j)
            row[j] = cross(r, j);
        std::vector<double> sol = solve_lower(row);
        for (std::size_t j = 0; j < n; ++j)
            l21(r, j) = sol[j];
    }
    // Trailing block factors the Schur complement S = C - L21 L21^T. Plain
    // cholesky (no jitter) on purpose: if S is not SPD the caller must
    // refactorize the whole bordered matrix with a consistent jitter.
    Matrix s(m, m);
    for (std::size_t r = 0; r < m; ++r)
        for (std::size_t c = 0; c <= r; ++c) {
            double v = corner(r, c) - dot_n(l21.row(r), l21.row(c), n);
            s(r, c) = v;
            s(c, r) = v;
        }
    double scale = 1.0;
    for (std::size_t i = 0; i < n; ++i)
        scale = std::max(scale, l_(i, i) * l_(i, i));
    for (std::size_t r = 0; r < m; ++r)
        scale = std::max(scale, std::abs(corner(r, r)));
    for (std::size_t r = 0; r < m; ++r)
        if (!(s(r, r) > kMinPivotRatio * scale))
            return false;
    std::optional<CholeskyFactor> ls = cholesky(s);
    if (!ls)
        return false;
    l_.resize_preserving(n + m, n + m);
    for (std::size_t r = 0; r < m; ++r) {
        double* dst = l_.row(n + r);
        const double* src = l21.row(r);
        for (std::size_t j = 0; j < n; ++j)
            dst[j] = src[j];
        for (std::size_t c = 0; c <= r; ++c)
            dst[n + c] = ls->lower()(r, c);
    }
    return true;
}

void
CholeskyFactor::shrink(std::size_t k)
{
    assert(k <= l_.rows());
    if (k < l_.rows())
        l_.resize_preserving(k, k);
}

std::optional<CholeskyFactor>
cholesky(const Matrix& a)
{
    assert(a.rows() == a.cols());
    std::size_t n = a.rows();
    Matrix l(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double* li = l.row(i);
        for (std::size_t j = 0; j <= i; ++j) {
            // Rows i and j of L are both contiguous prefixes — the inner
            // reduction streams two rows, never a column.
            double acc = a(i, j) - dot_n(li, l.row(j), j);
            if (i == j) {
                if (acc <= 0.0 || !std::isfinite(acc))
                    return std::nullopt;
                l(i, i) = std::sqrt(acc);
            } else {
                l(i, j) = acc / l(j, j);
            }
        }
    }
    return CholeskyFactor(std::move(l));
}

CholeskyFactor
cholesky_with_jitter(const Matrix& a, double initial_jitter, int max_tries,
                     double* applied_jitter)
{
    if (auto f = cholesky(a)) {
        if (applied_jitter)
            *applied_jitter = 0.0;
        return *f;
    }
    // Scale the jitter to the matrix magnitude so very large kernels still
    // stabilize within max_tries.
    double scale = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i)
        scale = std::max(scale, std::abs(a(i, i)));
    if (scale == 0.0)
        scale = 1.0;
    double jitter = initial_jitter * scale;
    for (int t = 0; t < max_tries; ++t) {
        Matrix aj = a;
        for (std::size_t i = 0; i < aj.rows(); ++i)
            aj(i, i) += jitter;
        if (auto f = cholesky(aj)) {
            if (applied_jitter)
                *applied_jitter = jitter;
            return *f;
        }
        jitter *= 10.0;
    }
    throw std::runtime_error("cholesky_with_jitter: matrix is not SPD even "
                             "with maximum jitter");
}

}  // namespace baco
