#ifndef BACO_SUITE_RUNNER_HPP_
#define BACO_SUITE_RUNNER_HPP_

/**
 * @file
 * Experiment runner: execute any autotuner against any benchmark for a
 * budget, repeat with independent seeds, and aggregate the statistics the
 * paper's figures report (mean best-so-far trajectories, performance
 * relative to expert, expert-success counts, evaluations-to-reach factors).
 *
 * Every method is constructed through the MethodRegistry (the enum here
 * resolves by display name), so the same code path serves the serial
 * loop, the thread-pool fan-out of seed repetitions
 * (run_repetitions_parallel), and the serve protocol. Batched,
 * asynchronous and distributed runs go through the baco::Study front
 * door (api/study.hpp) with an ExecutionPolicy.
 */

#include <memory>
#include <string>
#include <vector>

#include "core/tuner.hpp"
#include "suite/benchmark.hpp"

namespace baco::suite {

/** The five competing methods of Sec. 5.1, plus the Fig. 8 variants. */
enum class Method {
  kBaco,
  kBacoMinusMinus,
  kAtfOpenTuner,
  kYtopt,
  kYtoptGp,
  kUniform,
  kCotSampling,
};

/** Display name ("BaCO", "ATF", "Ytopt", ...). */
std::string method_name(Method m);

/** The paper's five headline competitors (Fig. 5-7, Tables 5-9). */
const std::vector<Method>& headline_methods();

/**
 * Build the ask-tell tuner for a method through the MethodRegistry. The
 * space reference must outlive the returned tuner. doe_samples is
 * clamped to the budget.
 */
std::unique_ptr<AskTellTuner> make_ask_tell(const SearchSpace& space,
                                            Method m, int budget,
                                            int doe_samples,
                                            std::uint64_t seed);

/** Run one method once. The SpaceVariant feeds the Fig. 8/9 ablations. */
TuningHistory run_method(const Benchmark& b, Method m, int budget,
                         std::uint64_t seed,
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

/** Run `reps` repetitions with seeds seed0, seed0+1, ... */
RepStats run_repetitions(const Benchmark& b, Method m, int budget, int reps,
                         std::uint64_t seed0,
                         const SpaceVariant& variant = SpaceVariant{});

/**
 * run_repetitions with the repetitions fanned out across a work-stealing
 * thread pool (num_threads lanes; 0 = hardware concurrency). Results are
 * assembled in seed order, so the statistics are identical to the serial
 * sweep regardless of scheduling.
 */
RepStats run_repetitions_parallel(const Benchmark& b, Method m, int budget,
                                  int reps, std::uint64_t seed0,
                                  int num_threads = 0,
                                  const SpaceVariant& variant = SpaceVariant{});

/**
 * First evaluation count at which trajectory reaches target (<=), or -1.
 */
int evals_to_reach(const std::vector<double>& trajectory, double target);

}  // namespace baco::suite

#endif  // BACO_SUITE_RUNNER_HPP_
