#include "linalg/matrix.hpp"

#include <cmath>

namespace baco {

void
Matrix::resize_preserving(std::size_t new_rows, std::size_t new_cols)
{
    if (new_rows == rows_ && new_cols == cols_)
        return;
    if (new_cols == cols_) {
        // Row count change with unchanged stride: no repack needed.
        data_.resize(new_rows * cols_, 0.0);
        rows_ = new_rows;
        return;
    }
    std::vector<double> fresh(new_rows * new_cols, 0.0);
    std::size_t copy_rows = std::min(rows_, new_rows);
    std::size_t copy_cols = std::min(cols_, new_cols);
    for (std::size_t i = 0; i < copy_rows; ++i) {
        const double* src = data_.data() + i * cols_;
        double* dst = fresh.data() + i * new_cols;
        for (std::size_t j = 0; j < copy_cols; ++j)
            dst[j] = src[j];
    }
    data_ = std::move(fresh);
    rows_ = new_rows;
    cols_ = new_cols;
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Matrix
Matrix::transposed() const
{
    Matrix t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            t(j, i) = (*this)(i, j);
    return t;
}

std::vector<double>
mat_vec(const Matrix& a, const std::vector<double>& x)
{
    assert(x.size() == a.cols());
    std::vector<double> y(a.rows(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i)
        y[i] = dot_n(a.row(i), x.data(), a.cols());
    return y;
}

Matrix
mat_mat(const Matrix& a, const Matrix& b)
{
    assert(a.cols() == b.rows());
    Matrix c(a.rows(), b.cols(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        double* ci = c.row(i);
        for (std::size_t k = 0; k < a.cols(); ++k) {
            double aik = a(i, k);
            if (aik == 0.0)
                continue;
            const double* bk = b.row(k);
            for (std::size_t j = 0; j < b.cols(); ++j)
                ci[j] += aik * bk[j];
        }
    }
    return c;
}

double
dot(const std::vector<double>& a, const std::vector<double>& b)
{
    assert(a.size() == b.size());
    return dot_n(a.data(), b.data(), a.size());
}

std::vector<double>
axpy(const std::vector<double>& a, double s, const std::vector<double>& b)
{
    assert(a.size() == b.size());
    std::vector<double> r(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        r[i] = a[i] + s * b[i];
    return r;
}

double
norm2(const std::vector<double>& v)
{
    return std::sqrt(dot(v, v));
}

}  // namespace baco
