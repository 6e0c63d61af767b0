#ifndef BACO_BASELINES_OPENTUNER_LIKE_HPP_
#define BACO_BASELINES_OPENTUNER_LIKE_HPP_

/**
 * @file
 * "ATF with OpenTuner" baseline (paper Sec. 5.1): a C++ re-implementation
 * of OpenTuner's ensemble search (Ansel et al., PACT 2014) extended with
 * ATF's known-constraint handling (Rasch et al., TACO 2021).
 *
 * OpenTuner runs a pool of search techniques — greedy mutation at two
 * scales, a differential-evolution style recombiner, pattern-style hill
 * climbing and pure random sampling — and allocates trials among them with
 * an AUC-credit multi-armed bandit. ATF contributes the Chain-of-Trees so
 * every proposal respects the known constraints.
 *
 * Hidden-constraint failures are handled the OpenTuner way: the
 * configuration is kept in the history with an effectively infinite
 * objective (no feasibility model — this is exactly the behaviour BaCO
 * improves on).
 *
 * The search is exposed through the ask-tell interface. AskTellBase draws
 * the seed population, deduplicated, by ATF's biased walk over the
 * Chain-of-Trees; after it, suggest() picks a technique per batch member,
 * and each observed result credits the technique that proposed that
 * configuration, in whatever order the results land.
 */

#include <memory>

#include "core/evaluator.hpp"
#include "core/search_space.hpp"
#include "exec/ask_tell.hpp"

namespace baco {

/** OpenTuner-like ensemble search. */
class OpenTunerLike : public AskTellBase {
 public:
  struct Options {
    int budget = 60;
    int doe_samples = 10;     ///< seed population size
    std::uint64_t seed = 0;
    int elite_size = 5;       ///< parents are drawn from the best k
    double bandit_c = 0.05;   ///< AUC bandit exploration constant
    int bandit_window = 50;   ///< sliding credit window
  };

  OpenTunerLike(const SearchSpace& space, Options opt);

 private:
  struct State;  ///< the bandit credit

  std::vector<Configuration> propose(
      int n, const std::vector<Configuration>& pending) override;
  std::unique_ptr<MethodState> new_state() const override;
  /** Credit the technique that proposed config. */
  void after_observe(const Configuration& config, bool improved) override;
  /** ";uses=" (per-technique use counts) and ";win=" (the sliding
   *  credit window), once the run has started. */
  void write_segments(std::string& out) const override;
  bool read_segment(const std::string& key,
                    const std::string& value) override;

  Options opt_;
};

}  // namespace baco

#endif  // BACO_BASELINES_OPENTUNER_LIKE_HPP_
