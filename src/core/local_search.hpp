#ifndef BACO_CORE_LOCAL_SEARCH_HPP_
#define BACO_CORE_LOCAL_SEARCH_HPP_

/**
 * @file
 * Multi-start local search for acquisition-function optimization
 * (paper Sec. 3.3).
 *
 * A large uniform candidate pool is scored; the best few become start
 * points for hill climbing over single-parameter neighbourhoods, with
 * whole-tree resampling "macro moves" for co-dependent parameter groups.
 * All proposals stay inside the feasible region (CoT membership when
 * available, otherwise explicit constraint checks).
 */

#include <functional>
#include <optional>

#include "core/chain_of_trees.hpp"
#include "core/search_space.hpp"

namespace baco {

/** Local-search budget knobs. */
struct LocalSearchOptions {
  int random_samples = 600;  ///< candidate pool size
  int starts = 5;            ///< hill-climbing start points
  int max_steps = 40;        ///< steps per climb
  int tree_moves = 2;        ///< macro moves per co-dependent tree per step
  /** When false, skip hill climbing: pick the pool's best (BaCO--). */
  bool hill_climb = true;
};

/**
 * Score to maximize. Return -inf/negative to reject a candidate.
 *
 * The second argument is the candidate's floor: the score it must beat to
 * change the search's result. For a pool member it is the `starts`-th
 * largest pool score so far (-inf while the pool holds fewer), which is
 * what std::partial_sort compares against when it picks the start points;
 * for a climb move it is the best score of the current step. A score at
 * or below its floor is never used, so a ScoreFn may return -inf instead
 * of computing it; one that ignores the floor gets the same result and
 * leaves the RNG in the same state.
 */
using ScoreFn = std::function<double(const Configuration&, double floor)>;

/**
 * Maximize score over the feasible region. Returns nullopt when no feasible
 * candidate could be produced (pathologically sparse rejection sampling).
 */
std::optional<Configuration> local_search_maximize(
    const SearchSpace& space, const ChainOfTrees* cot, const ScoreFn& score,
    RngEngine& rng, const LocalSearchOptions& opt = LocalSearchOptions{});

}  // namespace baco

#endif  // BACO_CORE_LOCAL_SEARCH_HPP_
