#ifndef BACO_BASELINES_YTOPT_LIKE_HPP_
#define BACO_BASELINES_YTOPT_LIKE_HPP_

/**
 * @file
 * Ytopt-like baseline (paper Sec. 5.1): skopt-style Bayesian optimization
 * with a random-forest surrogate (Wu et al. 2021).
 *
 * Differences from BaCO that this baseline deliberately keeps:
 *  - infeasible (hidden-constraint) evaluations are *not* modelled
 *    separately; they are added to the training set with a large penalty
 *    objective value;
 *  - the acquisition function is optimized by scoring a random candidate
 *    pool (no local search);
 *  - no output/input log transforms, priors, or permutation structure.
 *
 * A GP-surrogate variant exists for the Fig. 8 comparison ("Ytopt (GP)"):
 * a plain GP without BaCO's customizations. Like the real Ytopt GP mode, it
 * does not support known constraints, so its DoE and candidates are drawn
 * from the dense space (the Fig. 8 benchmark uses a manually pruned space,
 * matching the paper's setup). The RF mode draws them leaf-uniform over the
 * Chain-of-Trees.
 *
 * Exposed through the ask-tell interface. AskTellBase draws the DoE phase;
 * after it, suggest(n > 1) returns the top-n distinct pool candidates by
 * acquisition value. Each GP fit starts one descent from the previous
 * fit's hyperparameters, so the sampler state carries them and a resumed
 * run fits exactly as the uninterrupted one.
 */

#include <memory>

#include "core/evaluator.hpp"
#include "core/search_space.hpp"
#include "exec/ask_tell.hpp"

namespace baco {

/** Ytopt-like BO baseline. */
class YtoptLike : public AskTellBase {
 public:
  enum class Surrogate { kRandomForest, kGaussianProcess };

  struct Options {
    int budget = 60;
    int doe_samples = 10;
    std::uint64_t seed = 0;
    Surrogate surrogate = Surrogate::kRandomForest;
    /** Penalty multiple of the worst feasible value for failed configs. */
    double penalty_factor = 10.0;
    /** Acquisition candidate pool size. */
    int pool_size = 800;
  };

  YtoptLike(const SearchSpace& space, Options opt);

 private:
  struct State;  ///< the surrogates

  std::vector<Configuration> propose(
      int n, const std::vector<Configuration>& pending) override;
  std::unique_ptr<MethodState> new_state() const override;
  /** ";hp=": the last GP fit's hyperparameters, the next fit's warm
   *  start (GP mode, once fitted). */
  void write_segments(std::string& out) const override;
  bool read_segment(const std::string& key,
                    const std::string& value) override;

  Options opt_;
};

}  // namespace baco

#endif  // BACO_BASELINES_YTOPT_LIKE_HPP_
