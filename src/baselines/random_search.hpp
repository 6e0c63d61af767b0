#ifndef BACO_BASELINES_RANDOM_SEARCH_HPP_
#define BACO_BASELINES_RANDOM_SEARCH_HPP_

/**
 * @file
 * The two random-sampling baselines (paper Sec. 5.1).
 *
 * - Uniform sampling: uniform over the *feasible* region (rejection
 *   sampling, falling back to leaf-uniform CoT sampling — the same
 *   distribution — when rejection keeps failing in sparse spaces).
 * - CoT sampling: ATF's biased root-to-leaf random walk over the
 *   Chain-of-Trees, used to study the bias discussed in Sec. 4.2.
 *
 * Both are exposed through the ask-tell interface (RandomSearchTuner), so
 * any drive (exec/drive.hpp) can run them; the run_* free functions keep
 * the original one-call API.
 */

#include <memory>

#include "core/evaluator.hpp"
#include "core/search_space.hpp"
#include "exec/ask_tell.hpp"

namespace baco {

class ChainOfTrees;

/** Shared options for the sampling baselines. */
struct RandomSearchOptions {
  int budget = 60;
  std::uint64_t seed = 0;
};

/** Ask-tell random sampler (uniform or biased CoT walk). */
class RandomSearchTuner : public AskTellBase {
 public:
  /** @param biased_walk true = ATF's biased CoT walk, false = uniform. */
  RandomSearchTuner(const SearchSpace& space, RandomSearchOptions opt,
                    bool biased_walk);
  ~RandomSearchTuner() override;

  std::vector<Configuration> suggest(int n) override;
  void observe(const std::vector<Configuration>& configs,
               const std::vector<EvalResult>& results) override;
  std::string sampler_state() const override;
  bool restore(const TuningHistory& history,
               const std::string& sampler_state) override;

 protected:
  void reset_sampler() override;

 private:
  struct State;
  State& state();

  const SearchSpace* space_;
  RandomSearchOptions opt_;
  bool biased_walk_;
  std::unique_ptr<State> state_;
};

/** Uniform (bias-free) sampling over the feasible region. */
TuningHistory run_uniform_sampling(const SearchSpace& space,
                                   const BlackBoxFn& objective,
                                   const RandomSearchOptions& opt);

/** Biased CoT root-to-leaf walk sampling. Falls back to rejection sampling
 *  when the space has no (tree-compatible) known constraints. */
TuningHistory run_cot_sampling(const SearchSpace& space,
                               const BlackBoxFn& objective,
                               const RandomSearchOptions& opt);

}  // namespace baco

#endif  // BACO_BASELINES_RANDOM_SEARCH_HPP_
