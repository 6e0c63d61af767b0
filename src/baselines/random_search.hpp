#ifndef BACO_BASELINES_RANDOM_SEARCH_HPP_
#define BACO_BASELINES_RANDOM_SEARCH_HPP_

/**
 * @file
 * The two random-sampling baselines (paper Sec. 5.1).
 *
 * - Uniform sampling: uniform over the *feasible* region, by leaf-uniform
 *   Chain-of-Trees sampling whenever the space has a CoT, and by rejection
 *   sampling against the known constraints only when it has none.
 * - CoT sampling: ATF's biased root-to-leaf random walk over the
 *   Chain-of-Trees, used to study the bias discussed in Sec. 4.2.
 *
 * Both are one ask-tell tuner (RandomSearchTuner) whose every suggestion is
 * one AskTellBase::draw(), duplicates allowed. Any drive (exec/drive.hpp)
 * runs it: drive_serial() for the plain serial loop.
 */

#include "core/evaluator.hpp"
#include "core/search_space.hpp"
#include "exec/ask_tell.hpp"

namespace baco {

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

 private:
  std::vector<Configuration> propose(
      int n, const std::vector<Configuration>& pending) override;
};

}  // namespace baco

#endif  // BACO_BASELINES_RANDOM_SEARCH_HPP_
