#ifndef BACO_GP_KERNEL_HPP_
#define BACO_GP_KERNEL_HPP_

/**
 * @file
 * The 5/2-Matérn kernel over mixed-type distances (paper Eq. 1-2).
 *
 * k(x, x') = s2 * (1 + sqrt5*r + 5*r^2/3) * exp(-sqrt5*r),
 * r^2 = sum_d d_d(x_d, x'_d)^2 / l_d^2,
 *
 * where d_d is the parameter-type-specific normalized distance from
 * core/distance.hpp via Parameter::distance. (The paper's Eq. 1 prints
 * "5d^2"; the standard Matérn-5/2 term is 5r^2/3, which we use.)
 *
 * Hyperparameters are kept in log space: D lengthscales, the output scale
 * (signal variance) and the noise variance.
 */

#include <vector>

#include "linalg/matrix.hpp"

namespace baco {

/** GP hyperparameters in log space. */
struct GpHyperparams {
  std::vector<double> log_lengthscales;  ///< one per search-space dimension
  double log_outputscale = 0.0;          ///< log signal variance s2
  double log_noise = -9.0;               ///< log noise variance

  /** Flatten to the L-BFGS optimization vector [lengthscales..., s2, noise]. */
  std::vector<double> to_vector() const;
  /** Inverse of to_vector(). */
  static GpHyperparams from_vector(const std::vector<double>& v);
};

/** Matérn-5/2 correlation value at distance r >= 0 (unit variance). */
double matern52(double r);

/** The two Matérn-5/2 terms the marginal-likelihood gradient needs. */
struct Matern52Terms {
  double value;  ///< matern52(r), bit for bit
  /**
   * (5/3) * (1 + sqrt5 r) * exp(-sqrt5 r): d k / d r^2 expressed through
   * the identity dk/d(log l_d) = s2 * factor * d_d^2 / l_d^2.
   */
  double dlog_lengthscale_factor;
};

/** Both terms at distance r from one exp(-sqrt5 r), computed once per
 *  training pair by the gradient. */
Matern52Terms matern52_terms(double r);

/**
 * Per-dimension pairwise distances for a training set. dists[d] is the
 * symmetric N x N matrix of normalized distances along dimension d.
 */
struct DistanceTensor {
  std::vector<Matrix> dists;
  std::size_t n = 0;

  std::size_t dims() const { return dists.size(); }
};

/**
 * Kernel matrix K = s2 * matern52(R) + noise * I over the training tensor.
 */
Matrix kernel_matrix(const DistanceTensor& t, const GpHyperparams& hp);

}  // namespace baco

#endif  // BACO_GP_KERNEL_HPP_
