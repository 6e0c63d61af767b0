#ifndef BACO_GP_GP_MODEL_HPP_
#define BACO_GP_GP_MODEL_HPP_

/**
 * @file
 * Gaussian-process surrogate over a mixed-type compiler search space
 * (paper Sec. 3.2).
 *
 * The model is fit by MAP estimation: multistart L-BFGS on the negative log
 * marginal likelihood with gamma priors on the lengthscales (and weakly
 * informative priors on output scale and noise). Predictions return the
 * *latent* (noise-free) mean/variance used by the modified EI acquisition
 * (paper Sec. 3.3).
 *
 * Objective values are standardized internally; any log-transform of the
 * objective is applied by the caller (the tuner), so the ablation switches
 * compose cleanly.
 *
 * Hot path: for every discrete dimension with few values the model keeps
 * each training point's value index and, per fit, a table of squared
 * scaled distances between values, so that dimension's share of a kernel
 * row is one index_of() for the candidate and one lookup per training
 * point instead of n virtual distance() calls. The fast path reproduces
 * the straightforward arithmetic bit for bit — same operations, same
 * summation order — so suggestions do not depend on which path computed
 * them (tests/test_gp_hotpath.cpp pins this).
 *
 * A caller that only needs predictions able to beat some threshold (the
 * acquisition search) passes a test to predict_unless(): after the kernel
 * row and the mean, the prediction stops as soon as the test rejects the
 * exact mean with an upper bound on the variance. The bounds come from
 * the row itself (one training point's share of k^T K^{-1} k) and from the
 * forward solve's running sum of squares, so a prediction that is not
 * stopped is the one predict() returns, bit for bit.
 */

#include <functional>
#include <optional>
#include <vector>

#include "core/search_space.hpp"
#include "gp/kernel.hpp"
#include "gp/lbfgs.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/stats.hpp"

namespace baco {

/** Fitting options; the defaults are BaCO's. */
struct GpOptions {
  /** Gamma lengthscale priors (paper Sec. 3.2). Off in BaCO--. */
  bool use_priors = true;
  /** Multistart MAP fitting. Off in BaCO-- (single short descent). */
  bool advanced_fit = true;

  int multistart_samples = 10;  ///< random hyperparameter draws
  int multistart_keep = 2;      ///< best starts refined with L-BFGS
  int lbfgs_iters = 40;         ///< refinement iterations per start
  int naive_lbfgs_iters = 12;   ///< iterations when advanced_fit is false

  // Prior shapes/rates (on the natural-scale hyperparameters).
  double lengthscale_shape = 2.0;
  double lengthscale_rate = 3.0;
  double outputscale_shape = 2.0;
  double outputscale_rate = 1.0;
  double noise_shape = 1.1;
  double noise_rate = 20.0;
};

/** GP posterior summary at one point (standardized-output units undone). */
struct GpPrediction {
  double mean = 0.0;
  double var = 0.0;  ///< latent variance (no observation noise)
};

/** Gaussian-process regression model. */
class GpModel {
 public:
  /**
   * A caller's test on a prediction bound: the exact mean and a variance
   * at least the exact one. True means no variance up to bound.var could
   * make the candidate useful, so the prediction may stop. It must not
   * call back into predict().
   */
  using Hopeless = std::function<bool(const GpPrediction& bound)>;

  /** @param space the search space providing per-dimension distances;
   *  it must outlive the model and keep its parameters unchanged (the
   *  model caches distances between the values of small discrete
   *  parameters here). */
  explicit GpModel(const SearchSpace& space, GpOptions opt = GpOptions{});

  /**
   * Fit hyperparameters and the posterior to (xs, ys).
   * Requires xs.size() == ys.size() >= 2.
   */
  void fit(const std::vector<Configuration>& xs,
           const std::vector<double>& ys, RngEngine& rng);

  /**
   * Rebuild the posterior for (xs, ys) under fixed hyperparameters —
   * no multistart, no RNG. Used by parity tests to isolate the posterior
   * math from hyperparameter optimization, and available as a cheap
   * "refresh without refit" primitive.
   */
  void fit_with_hyperparams(const std::vector<Configuration>& xs,
                            const std::vector<double>& ys,
                            const GpHyperparams& hp);

  /**
   * Append one observation to the fitted model *without* re-optimizing
   * hyperparameters or re-standardizing: the existing Cholesky factor is
   * grown in place (O(n^2), see CholeskyFactor::append). y must be in the
   * same space as the ys of the last fit() (i.e. the caller applies any
   * log-objective transform); standardization is internal and frozen from
   * the last full fit.
   *
   * Returns false — model untouched — when the bordered kernel matrix is
   * not numerically SPD even after escalating extra jitter on the new
   * diagonal entry; the caller should fall back to a full fit().
   */
  bool extend(const Configuration& x, double y);

  /**
   * Drop training points k..n-1, restoring the model to its state before
   * the corresponding extend() calls (hyperparameters, standardizer and
   * the leading factor block are unchanged by extend). Requires k >= 2
   * and k <= size(). Used to roll back constant-liar fantasy points.
   */
  void truncate(std::size_t k);

  /**
   * Negative log marginal likelihood per training point of the *current*
   * posterior state (frozen hyperparameters, standardized outputs).
   * Cheap — reuses the stored factor and weights. The tuner compares this
   * against its value right after the last full fit to detect drift that
   * warrants re-optimizing hyperparameters.
   */
  double data_nll_per_point() const;

  /** Diagonal shift (posterior boost + jitter) baked into the factor by
   *  the last fit; extend() adds the same shift to appended diagonals. */
  double diag_shift() const { return diag_shift_; }

  /** Whether fit() has succeeded at least once. */
  bool fitted() const { return fitted_; }

  /** Posterior latent mean/variance at x (requires a prior fit()). */
  GpPrediction predict(const Configuration& x) const;

  /**
   * predict(), except that it returns nullopt once `hopeless` accepts a
   * bound: first right after the mean, with the variance bounded through
   * the training point that explains most of it, then at two points in
   * the forward solve, with the variance bounded through the part solved
   * so far. An empty `hopeless` never stops; predict() is this routine
   * without one.
   */
  std::optional<GpPrediction> predict_unless(const Configuration& x,
                                             const Hopeless& hopeless) const;

  /** Negative log posterior (NLL + priors) at hp, for tests/diagnostics. */
  double objective(const GpHyperparams& hp) const;

  /** objective() plus its analytic gradient w.r.t. the log-hyperparameter
   *  vector [lengthscales..., outputscale, noise], for tests/diagnostics. */
  double objective_with_gradient(const GpHyperparams& hp,
                                 std::vector<double>* grad) const;

  /** Hyperparameters from the last fit. */
  const GpHyperparams& hyperparams() const { return hp_; }

  /** The hyperparameters fit() starts one descent from: the last fit's
   *  (none before the first). A checkpoint saves them so that a resumed
   *  model fits exactly as the uninterrupted one. */
  const std::optional<GpHyperparams>& warm_start() const
  {
      return warm_start_;
  }
  void set_warm_start(const GpHyperparams& hp) { warm_start_ = hp; }

  /** Number of training points. */
  std::size_t size() const { return xs_.size(); }

  /** Marginal-likelihood evaluations (with or without gradient) the last
   *  fit() spent on hyperparameter optimization. */
  std::size_t last_fit_nll_evals() const { return last_fit_nll_evals_; }

  /** Those of last_fit_nll_evals() whose kernel matrix did not factorize
   *  (the evaluation returned +inf). */
  std::size_t last_fit_nll_failures() const { return last_fit_nll_failures_; }

  // Read-only posterior state, for parity tests and diagnostics
  // (factor() requires fitted()).
  const std::vector<Configuration>& inputs() const { return xs_; }
  const std::vector<double>& weights() const { return alpha_; }
  const CholeskyFactor& factor() const { return *chol_; }
  const Standardizer& standardizer() const { return standardizer_; }

 private:
  /** What nll_gradient() needs from the nll_value() call at one theta. */
  struct NllPoint {
    std::vector<double> theta;
    GpHyperparams hpc;                   ///< theta clamped to the soft box
    std::optional<CholeskyFactor> chol;  ///< empty when K did not factorize
    std::vector<double> alpha;           ///< K^{-1} y
  };

  /** NLL + negative log priors at theta (log space); *pt keeps what the
   *  gradient at theta needs. */
  double nll_value(const std::vector<double>& theta, NllPoint* pt) const;

  /** Gradient of nll_value() at pt->theta, into *grad. */
  void nll_gradient(const NllPoint& pt, std::vector<double>* grad) const;

  /** nll_value(), plus nll_gradient() into *grad when grad is non-null. */
  double nll(const std::vector<double>& theta,
             std::vector<double>* grad) const;

  GpHyperparams default_hyperparams() const;

  /** Store (xs, ys) as the training set: inputs, their value indices in
   *  the tabulated dimensions, the standardized outputs and the pairwise distance
   *  tensor; shared head of the fit paths. */
  void set_training_data(const std::vector<Configuration>& xs,
                         const std::vector<double>& ys);

  /** Rebuild chol_, alpha_, the distance tables (and diag_shift_) from
   *  tensor_/ys_std_ under the current hp_; shared tail of the fit
   *  paths. */
  void refresh_posterior();

  /** Append x's value index to every tabulated dimension. */
  void push_kernel_inputs(const Configuration& x);

  /** Recompute inv_factor_diag_ for the factor's rows from..size()-1. */
  void note_factor_rows(std::size_t from);

  /** Kernel cross-covariances k(x, xs_[i]) under the fitted scales,
   *  written to out (resized to size()). */
  void cross_covariances(const Configuration& x,
                         std::vector<double>& out) const;

  const SearchSpace* space_;
  GpOptions opt_;

  /**
   * A discrete dimension with few values, tabulated for kernel rows: each
   * training point's value index and, under the fitted lengthscale l, the
   * table of (distance(a, b) / l)^2 over every pair of values, so the
   * dimension's share of a kernel row is one lookup per training point.
   * Other dimensions (values == 0) call distance() per training point.
   */
  struct KernelDim {
    std::size_t values = 0;      ///< m when tabulated, else 0
    /** Value index per training point; m for a value outside the domain,
     *  which sends the whole dimension down the distance() path. */
    std::vector<std::size_t> index;
    std::size_t outside = 0;     ///< training points with index m
    /** m x m distance(value_at(a), value_at(b)), built at construction. */
    std::vector<double> distances;
    std::vector<double> table;   ///< m x m, row = candidate's value
  };

  std::vector<Configuration> xs_;
  std::vector<KernelDim> dims_;
  std::vector<double> ys_std_;
  Standardizer standardizer_;
  DistanceTensor tensor_;

  GpHyperparams hp_;
  std::optional<GpHyperparams> warm_start_;
  std::optional<CholeskyFactor> chol_;
  /** L^{-1} ys_std_, kept so extend() forward-solves only its new row. */
  std::vector<double> forward_;
  std::vector<double> alpha_;
  /** 1 / (L L^T)_jj per row of the factor: what the one-point variance
   *  bound in predict_unless() divides by. */
  std::vector<double> inv_factor_diag_;
  std::vector<double> lengthscales_;  // exp of fitted log lengthscales
  double outputscale_ = 1.0;          // exp of fitted log output scale
  double diag_shift_ = 0.0;           // boost + jitter baked into chol_
  bool fitted_ = false;
  std::size_t last_fit_nll_evals_ = 0;
  std::size_t last_fit_nll_failures_ = 0;
};

}  // namespace baco

#endif  // BACO_GP_GP_MODEL_HPP_
