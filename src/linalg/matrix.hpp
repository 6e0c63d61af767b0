#ifndef BACO_LINALG_MATRIX_HPP_
#define BACO_LINALG_MATRIX_HPP_

/**
 * @file
 * Minimal dense linear algebra used by the Gaussian-process substrate.
 *
 * Row-major dense matrix plus the handful of BLAS-like operations the GP
 * needs. Sizes in this library are small (kernel matrices up to a few
 * hundred rows); the row-major layout is deliberate so the hot loops in
 * cholesky.cpp and kernel.cpp stream rows contiguously — a compiler can
 * vectorize the inner dot/saxpy kernels without any explicit intrinsics.
 */

#include <cassert>
#include <cstddef>
#include <vector>

namespace baco {

/** Dense row-major matrix of doubles. */
class Matrix {
 public:
  Matrix() = default;

  /** rows x cols matrix, all entries initialized to fill. */
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t i, std::size_t j) {
    assert(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    assert(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  /** Contiguous row i (row-major storage), for vectorizable inner loops. */
  double* row(std::size_t i) {
    assert(i < rows_);
    return data_.data() + i * cols_;
  }
  const double* row(std::size_t i) const {
    assert(i < rows_);
    return data_.data() + i * cols_;
  }

  /** Raw storage access (row-major). */
  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /** The n x n identity. */
  static Matrix identity(std::size_t n);

  /** Matrix transpose. */
  Matrix transposed() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/** y = A x. Requires x.size() == A.cols(). */
std::vector<double> mat_vec(const Matrix& a, const std::vector<double>& x);

/** C = A B. Requires a.cols() == b.rows(). */
Matrix mat_mat(const Matrix& a, const Matrix& b);

/** Dot product of two equal-length vectors. */
double dot(const std::vector<double>& a, const std::vector<double>& b);

/** Dot product over raw ranges (the inner kernel of the triangular
 *  solves; unrolled 4-wide so the compiler emits vector FMAs). Inline:
 *  the solves call it once per row, mostly on short rows. */
inline double
dot_n(const double* a, const double* b, std::size_t n)
{
    // Four independent accumulators: without -ffast-math a compiler may not
    // reorder a single-accumulator reduction, so the unroll is what lets it
    // keep multiple FMAs in flight (and auto-vectorize where available).
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
    }
    for (; i < n; ++i)
        s0 += a[i] * b[i];
    return (s0 + s1) + (s2 + s3);
}

/** Elementwise a + s*b. */
std::vector<double> axpy(const std::vector<double>& a, double s,
                         const std::vector<double>& b);

/** Euclidean norm. */
double norm2(const std::vector<double>& v);

}  // namespace baco

#endif  // BACO_LINALG_MATRIX_HPP_
