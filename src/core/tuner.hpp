#ifndef BACO_CORE_TUNER_HPP_
#define BACO_CORE_TUNER_HPP_

/**
 * @file
 * The BaCO autotuner (paper Fig. 2): a configuration
 * recommendation-evaluation loop around a GP value model, an RF feasibility
 * model, EI acquisition and multi-start local search, seeded by a uniform
 * DoE phase.
 *
 * The tuner exposes the ask-tell interface (exec/ask_tell.hpp): suggest(n)
 * proposes the next batch — using the constant-liar fantasy heuristic to
 * keep batch members diverse — and observe() feeds results back. Any drive
 * (exec/drive.hpp) runs it: drive_serial() is the plain serial loop, and
 * the batched and asynchronous drives run the same object. AskTellBase
 * draws the DoE phase, leaf-uniform over the Chain-of-Trees; the tuner
 * proposes every configuration after it.
 *
 * The model and search choices of the paper's ablations (Figs. 8-10) are
 * switches in TunerOptions, so BaCO-- and those variants are
 * configurations of this one class.
 */

#include "core/evaluator.hpp"
#include "core/local_search.hpp"
#include "core/search_space.hpp"
#include "exec/ask_tell.hpp"
#include "gp/gp_model.hpp"

namespace baco {

/** All tuner knobs; defaults are the paper's BaCO configuration. */
struct TunerOptions {
  int budget = 60;          ///< total evaluations (DoE included)
  int doe_samples = 10;     ///< initial uniform samples
  std::uint64_t seed = 0;

  /** Log-transform the objective before modelling (Fig. 9 ablation). */
  bool log_objective = true;
  /** RF feasibility model for hidden constraints (Fig. 10 ablation). */
  bool use_feasibility_model = true;
  /** Random minimum-feasibility threshold eps_f (Fig. 10 ablation). */
  bool use_feasibility_limit = true;
  /** Hill-climbing acquisition optimization; false = best-of-random-pool
   *  (part of BaCO--). */
  bool local_search = true;

  /** Value-model surrogate (Fig. 8 compares GP vs RF). */
  enum class Surrogate { kGaussianProcess, kRandomForest };
  Surrogate surrogate = Surrogate::kGaussianProcess;

  /**
   * Incremental surrogate refresh: append new observations and
   * constant-liar fantasies to the existing GP Cholesky factor in O(n^2)
   * (GpModel::extend) instead of refitting from scratch on every proposal.
   * Full hyperparameter refits still happen on a cadence (refit_every) or
   * when the per-point negative log likelihood drifts by more than
   * refit_nll_drift nats since the last refit. Disable for the legacy
   * always-refit path (debugging escape hatch; suggestions then match the
   * pre-incremental behavior exactly). Only affects the GP surrogate.
   */
  bool incremental_fit = true;
  /** Full hyperparameter refit cadence: refit after this many new
   *  observations reach the model via the incremental path. */
  int refit_every = 8;
  /** Extra full-refit trigger: per-point NLL drift (nats) since the last
   *  full refit that suggests the frozen hyperparameters have gone stale. */
  double refit_nll_drift = 1.0;

  /**
   * Optional expert prior over the optimum's location (the paper's Sec. 6
   * extension, after Souza et al.): a nonnegative weight pi(x). The
   * acquisition is multiplied by pi(x)^(prior_strength / #observations),
   * so the prior steers early iterations and washes out as evidence
   * accumulates — a misleading prior cannot prevent convergence.
   */
  std::function<double(const Configuration&)> user_prior;
  double prior_strength = 10.0;

  GpOptions gp;            ///< priors / advanced-fit switches live here
  LocalSearchOptions ls;   ///< acquisition-optimizer budgets

  /** The paper's default configuration. */
  static TunerOptions baco_defaults() { return TunerOptions{}; }

  /**
   * BaCO-- (Fig. 8): no output transform, no lengthscale priors, no local
   * search, no advanced multistart GP fitting. (The naive permutation
   * distance and disabled input log-transforms are properties of the
   * search space; benchmark definitions expose variants for those.)
   */
  static TunerOptions
  baco_minus_minus()
  {
      TunerOptions o;
      o.log_objective = false;
      o.local_search = false;
      o.gp.use_priors = false;
      o.gp.advanced_fit = false;
      return o;
  }
};

/** The BaCO autotuner. */
class Tuner : public AskTellBase {
 public:
  /**
   * @param space must outlive the tuner.
   */
  Tuner(const SearchSpace& space, TunerOptions opt = TunerOptions{});

 private:
  struct State;  ///< value and feasibility models, refresh bookkeeping

  /**
   * Propose the next batch with the constant-liar heuristic: the
   * in-flight configurations and each batch member proposed so far join
   * the model's training set with the incumbent value, so later members
   * explore elsewhere.
   */
  std::vector<Configuration> propose(
      int n, const std::vector<Configuration>& pending) override;
  std::unique_ptr<MethodState> new_state() const override;
  /**
   * ";gp=" (incremental GP mode, once fitted): the surrogate bookkeeping
   * restore_gp() needs to rebuild the model bit-for-bit.
   */
  void write_segments(std::string& out) const override;
  bool read_segment(const std::string& key,
                    const std::string& value) override;

  /** Model-based proposal with constant-liar fantasies mixed in; an
   *  unseen random draw while fewer than two observations are feasible. */
  Configuration propose_with_model(
      State& st, const std::vector<Configuration>& fantasy_configs,
      double fantasy_value);
  /**
   * Bring the GP in line with (xs, ys) = [reals..., fantasies...] on the
   * incremental path: extend the factor with new rows where possible, full
   * hyperparameter refit on the cadence/drift/escape conditions. n_real is
   * the number of leading real observations; log_ok records whether ys are
   * log-transformed (a flip forces a full refit).
   */
  void sync_gp(State& st, const std::vector<Configuration>& xs,
               const std::vector<double>& ys, std::size_t n_real,
               bool log_ok);
  /**
   * Rebuild the incremental GP from a "gp=" segment: refit the saved base
   * prefix under the saved hyperparameters, then replay the appends —
   * reproducing the checkpointed model bit-for-bit so a resumed run keeps
   * the refit cadence (and hence the RNG stream) of the uninterrupted
   * one. False on a malformed or inconsistent segment.
   */
  bool restore_gp(State& st, const std::string& seg);

  TunerOptions opt_;
};

}  // namespace baco

#endif  // BACO_CORE_TUNER_HPP_
