#ifndef BACO_SUITE_RUNNER_HPP_
#define BACO_SUITE_RUNNER_HPP_

/**
 * @file
 * Experiment runner: execute any autotuner against any benchmark for a
 * budget, repeat with independent seeds, and aggregate the statistics the
 * paper's figures report (mean best-so-far trajectories, performance
 * relative to expert, expert-success counts, evaluations-to-reach factors).
 *
 * Methods are MethodRegistry names: the paper's display names ("BaCO",
 * "ATF", "Uniform", ...) resolve as registry aliases, so the figure
 * harnesses, Study and the serve protocol construct tuners through the
 * same registry. run_repetitions fans seed repetitions out over a thread
 * pool (one lane runs them inline). Batched, asynchronous and
 * distributed runs go through the baco::Study front door
 * (api/study.hpp) with an ExecutionPolicy.
 */

#include <string>
#include <vector>

#include "core/tuner.hpp"
#include "suite/benchmark.hpp"

namespace baco::suite {

/** The paper's five headline competitors (Fig. 5-7, Tables 5-9), by
 *  display name: "BaCO", "ATF", "Ytopt", "Uniform", "CoT". */
const std::vector<std::string>& headline_methods();

/**
 * Run the MethodRegistry method `method` once, serially, with the
 * benchmark's DoE size. The SpaceVariant feeds the Fig. 8/9 ablations.
 * @throws std::runtime_error on an unknown method name.
 */
TuningHistory run_method(const Benchmark& b, const std::string& method,
                         int budget, std::uint64_t seed,
                         const SpaceVariant& variant = SpaceVariant{});

/** Run BaCO with fully custom options (ablation studies). */
TuningHistory run_baco_custom(const Benchmark& b, TunerOptions opt,
                              const SpaceVariant& variant = SpaceVariant{});

/** Aggregated repetitions of one (benchmark, method) cell. */
struct RepStats {
  /** Best-so-far trajectories, one per repetition (+inf until feasible). */
  std::vector<std::vector<double>> trajectories;
  double mean_tuner_seconds = 0.0;
  double mean_eval_seconds = 0.0;

  /** Mean best value after `evals` evaluations (inf-aware). */
  double mean_best_at(int evals) const;

  /** Mean performance relative to a reference cost after `evals`
   *  evaluations: mean over reps of ref / best (0 when no feasible). */
  double mean_rel_to_reference(double ref, int evals) const;

  /** Number of repetitions whose final best reached ref (Table 5). */
  int count_reached(double ref) const;

  /** Mean trajectory across repetitions (inf-aware element-wise). */
  std::vector<double> mean_trajectory() const;
};

/**
 * Run `reps` repetitions with seeds seed0, seed0+1, ... on a
 * work-stealing pool of num_threads lanes (0 = hardware concurrency;
 * 1 runs them inline, one after another). Results are assembled in seed
 * order, so the statistics do not depend on num_threads.
 */
RepStats run_repetitions(const Benchmark& b, const std::string& method,
                         int budget, int reps, std::uint64_t seed0,
                         int num_threads = 1,
                         const SpaceVariant& variant = SpaceVariant{});

/**
 * Performance of one best-so-far trajectory relative to a reference cost
 * after `evals` evaluations: ref / best, 0 while none is feasible.
 */
double rel_to_reference(const std::vector<double>& trajectory, double ref,
                        int evals);

/**
 * First evaluation count at which trajectory reaches target (<=), or -1.
 */
int evals_to_reach(const std::vector<double>& trajectory, double target);

}  // namespace baco::suite

#endif  // BACO_SUITE_RUNNER_HPP_
