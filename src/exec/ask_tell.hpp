#ifndef BACO_EXEC_ASK_TELL_HPP_
#define BACO_EXEC_ASK_TELL_HPP_

/**
 * @file
 * The ask-tell tuner interface: the recommend/observe split that decouples
 * the optimization loop from black-box execution.
 *
 * A tuner no longer owns the evaluation loop. Instead it answers
 * suggest(n) with up to n configurations to try next and is told the
 * results through observe(). Any driver — drive() (exec/drive.hpp) on a
 * thread pool or a worker fleet, or an external system — can run the
 * exchange, which is what makes batching, caching and checkpoint/resume
 * orthogonal to the search method itself.
 *
 * Determinism contract: a tuner draws only from its own sampler RNG, and
 * every black-box evaluation gets an independent RNG stream derived from
 * (run seed, evaluation index) via eval_rng_for(). Serial and parallel
 * drivers therefore produce bit-identical histories at batch size 1, and
 * reproducible histories at any batch size.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/evaluator.hpp"

namespace baco {

/**
 * The independent measurement-noise stream for evaluation `index` of a run
 * seeded with `run_seed` (splitmix64 over the pair). Workers evaluating a
 * batch concurrently use disjoint streams, so the schedule cannot leak
 * into the results.
 */
RngEngine eval_rng_for(std::uint64_t run_seed, std::uint64_t index);

/**
 * Ask-tell optimization interface.
 *
 * Protocol: call suggest(n), evaluate the returned configurations, then
 * report every result through observe() before the next suggest(). The
 * configurations must be observed in the order suggest() returned them.
 */
class AskTellTuner {
 public:
  virtual ~AskTellTuner() = default;

  /**
   * Propose up to n configurations to evaluate next. Returns fewer than n
   * only when the remaining budget is smaller (and an empty vector once
   * the budget is exhausted).
   */
  virtual std::vector<Configuration> suggest(int n) = 0;

  /**
   * Propose up to n more configurations while `pending` — suggested
   * earlier, still being evaluated — are in flight (the asynchronous
   * drivers' ask). Implementations must count pending against the budget
   * so suggested-plus-observed never exceeds it; model-based tuners
   * additionally treat pending as constant-liar fantasies so new
   * proposals explore away from the in-flight ones. The base
   * implementation only does the budget accounting and forwards to
   * suggest(). With pending empty this is exactly suggest(n).
   */
  virtual std::vector<Configuration> suggest_with_pending(
      int n, const std::vector<Configuration>& pending);

  /** Report evaluation results, in suggest() order. */
  virtual void observe(const std::vector<Configuration>& configs,
                       const std::vector<EvalResult>& results) = 0;

  /** Single-result convenience wrapper over observe(). */
  void observe_one(const Configuration& c, const EvalResult& r);

  /** Evaluations left before the budget is exhausted. */
  virtual int remaining() const = 0;

  /** The run seed (roots the per-evaluation RNG streams). */
  virtual std::uint64_t run_seed() const = 0;

  /** The history accumulated so far. */
  virtual const TuningHistory& history() const = 0;

  /** Mutable history access, for drivers charging eval_seconds. */
  virtual TuningHistory& mutable_history() = 0;

  /** Finalize timing bookkeeping and move the history out. */
  virtual TuningHistory take_history() = 0;

  /**
   * Opaque serialized sampler state (RNG stream position) for
   * checkpointing. Empty when the tuner does not support resume.
   */
  virtual std::string sampler_state() const { return {}; }

  /**
   * Restore a checkpointed run: replace the history and sampler state so
   * the next suggest() continues exactly where the interrupted run left
   * off. Returns false when the tuner does not support resume.
   */
  virtual bool restore(const TuningHistory& history,
                       const std::string& sampler_state);
};

/**
 * Shared scaffolding for concrete ask-tell tuners: history/budget
 * bookkeeping, run-seed plumbing, and sampler-RNG (de)serialization.
 * Derived classes implement suggest()/observe()/restore() and
 * reset_sampler() (drop lazily-built models/RNG/dedup state).
 */
class AskTellBase : public AskTellTuner {
 public:
  int remaining() const override
  {
      return budget_ - static_cast<int>(history_.size());
  }
  std::uint64_t run_seed() const override { return seed_; }
  const TuningHistory& history() const override { return history_; }
  TuningHistory& mutable_history() override { return history_; }
  TuningHistory take_history() override;

 protected:
  AskTellBase(int budget, std::uint64_t seed)
      : budget_(budget), seed_(seed)
  {
  }

  /** Drop lazily-built sampler state; next suggest() re-seeds. */
  virtual void reset_sampler() = 0;

  /** Serialize rng's stream position (seed-fresh stream when null). */
  std::string rng_state_string(const RngEngine* rng) const;

  /**
   * Restore rng from rng_state_string() output (empty = leave at seed).
   * Returns false on a parse error.
   */
  static bool restore_rng(RngEngine& rng, const std::string& state);

  int budget_;
  std::uint64_t seed_;
  TuningHistory history_;
};

/**
 * One told result of a drive (exec/drive.hpp), reported right after the
 * tuner was told and the checkpoint written.
 */
struct AsyncEvent {
  std::uint64_t index = 0;  ///< evaluation index (noise-stream key)
  Configuration config;
  EvalResult result;
  std::size_t evals = 0;    ///< history size after this tell
  double best = 0.0;        ///< incumbent after this tell (+inf when none)
  double eval_seconds = 0.0;  ///< black-box wall-clock of this evaluation
  bool from_cache = false;
};

/** Per-result callback of a drive (may be empty). */
using AsyncResultFn = std::function<void(const AsyncEvent&)>;

}  // namespace baco

#endif  // BACO_EXEC_ASK_TELL_HPP_
