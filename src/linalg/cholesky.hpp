#ifndef BACO_LINALG_CHOLESKY_HPP_
#define BACO_LINALG_CHOLESKY_HPP_

/**
 * @file
 * Cholesky factorization and SPD solves for Gaussian-process inference.
 *
 * Besides the classic from-scratch factorization this provides *incremental*
 * row/column appends: given the factor L of an n x n SPD matrix A and the
 * bordered matrix A' = [[A, B^T], [B, C]], the factor of A' reuses L verbatim
 * and only computes the new trailing rows — O(n^2) per appended row instead
 * of the O(n^3) refactorization. This is what makes GpModel::extend and the
 * constant-liar fantasy loop cheap (ROADMAP item 1).
 */

#include <cassert>
#include <cstddef>
#include <optional>
#include <vector>

#include "linalg/matrix.hpp"

namespace baco {

/**
 * Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
 *
 * Produced by cholesky() / cholesky_with_jitter(); provides the solves and
 * the log-determinant needed for GP marginal-likelihood computations.
 */
class CholeskyFactor {
 public:
  /** Dense copy of L (zeros above the diagonal), for inspection. */
  Matrix lower() const;

  /** Row i of L: entries L(i, 0..i), contiguous. */
  const double* row(std::size_t i) const {
    assert(i < n_);
    return packed_.data() + i * (i + 1) / 2;
  }

  /** Current dimension n of the factored matrix. */
  std::size_t size() const { return n_; }

  /** Solve L z = b (forward substitution). */
  std::vector<double> solve_lower(const std::vector<double>& b) const;

  /**
   * Rows [begin, end) of solve_lower(), overwriting b with z in place:
   * b[0..begin) must already hold the solution. Solving [0, n) in
   * consecutive pieces gives the same bits as one call, so a caller can
   * look at a prefix of z before paying for the rest.
   */
  void solve_lower_rows(std::vector<double>& b, std::size_t begin,
                        std::size_t end) const;

  /** Solve L^T z = b (backward substitution). */
  std::vector<double> solve_upper(const std::vector<double>& b) const;

  /** Solve A x = b where A = L L^T. */
  std::vector<double> solve(const std::vector<double>& b) const;

  /** Solve A X = B column-by-column; returns X. */
  Matrix solve_matrix(const Matrix& b) const;

  /** log |A| = 2 * sum_i log L_ii. */
  double log_det() const;

  /**
   * A^{-1}, bit-identical to solve_matrix(Matrix::identity(n)) but without
   * per-column temporaries: the identity's columns are solved together,
   * one row of the result at a time.
   */
  Matrix inverse() const;

  /**
   * Append one row/column to the factored matrix: updates this factor from
   * L(A) to L(A') where A' = [[A, b], [b^T, d]], with cross = b (length n)
   * and diag = d. Costs one forward solve, O(n^2); the new row goes after
   * the existing ones, which are not repacked.
   *
   * Returns false — leaving the factor untouched — when the Schur
   * complement d - ||L^{-1} b||^2 is not safely positive, i.e. the bordered
   * matrix is not numerically SPD; callers then fall back to a full
   * (jittered) refactorization.
   */
  bool append(const std::vector<double>& cross, double diag);

  /**
   * Append a block of m rows/columns at once: updates L(A) to L(A') where
   * A' = [[A, B^T], [B, C]], with cross = B (m x n) and corner = C (m x m,
   * symmetric). Used for suggest(n) fantasy batches. O(m n^2 + m^2 n).
   * Returns false (factor untouched) when the Schur complement
   * C - L21 L21^T is not numerically SPD.
   */
  bool append_block(const Matrix& cross, const Matrix& corner);

  /**
   * Shrink back to the leading k x k factor. Exact inverse of append /
   * append_block (the leading block of L never changes), so fantasy rows
   * can be discarded without refactorizing.
   */
  void shrink(std::size_t k);

 private:
  friend std::optional<CholeskyFactor> cholesky(const Matrix& a);

  CholeskyFactor(std::size_t n, std::vector<double> packed)
      : n_(n), packed_(std::move(packed)) {}

  double pivot(std::size_t i) const { return row(i)[i]; }

  // The rows of L stored back to back (row i at offset i(i+1)/2), so an
  // append only adds its own row at the end: no O(n^2) repack.
  std::size_t n_ = 0;
  std::vector<double> packed_;
};

/**
 * Attempt a Cholesky factorization of a. Returns nullopt when a is not
 * (numerically) positive definite.
 */
std::optional<CholeskyFactor> cholesky(const Matrix& a);

/**
 * Cholesky with escalating diagonal jitter. Starts from initial_jitter and
 * multiplies by 10 until the factorization succeeds (at most max_tries
 * attempts). Used to keep GP kernel matrices factorizable when points are
 * near-duplicates — and when permutation *semimetrics* (which are not
 * strict metrics, paper Sec. 4.1) produce a slightly indefinite matrix.
 * The ceiling exceeds any possible negative eigenvalue (bounded by the
 * largest row sum), so a finite symmetric input always factorizes.
 *
 * When applied_jitter is non-null it receives the diagonal shift that was
 * actually added (0.0 when the matrix factorized as-is). Incremental
 * appends must add the same shift to their new diagonal entries to stay
 * consistent with the factored matrix.
 *
 * @throws std::runtime_error when the matrix cannot be factorized even with
 *         the maximum jitter (e.g. non-finite entries).
 */
CholeskyFactor cholesky_with_jitter(const Matrix& a,
                                    double initial_jitter = 1e-10,
                                    int max_tries = 16,
                                    double* applied_jitter = nullptr);

}  // namespace baco

#endif  // BACO_LINALG_CHOLESKY_HPP_
