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
 *
 * Every built-in method (BaCO, the OpenTuner-like and Ytopt-like
 * baselines, the two samplers) derives from AskTellBase, which owns the
 * budget, the sampler RNG, the dedup set, the Chain-of-Trees, the random
 * draw and the initial phase, the tuner metrics, observe() and the
 * checkpointed sampler state. A method implements its search step and,
 * where it keeps one, its own state: how it is built, credited after each
 * observation and saved as ";key=value" segments of the sampler state.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/evaluator.hpp"

namespace baco {

class ChainOfTrees;
class SearchSpace;

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
 * report every result through observe(). Barrier rounds observe a batch
 * in suggestion order before the next suggest(); asynchronous drivers
 * observe results as they land and ask through suggest_with_pending().
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
   * proposals explore away from the in-flight ones. With pending empty
   * this is exactly suggest(n).
   */
  virtual std::vector<Configuration> suggest_with_pending(
      int n, const std::vector<Configuration>& pending) = 0;

  /** Report evaluation results: results[i] is configs[i]'s outcome. */
  virtual void observe(const std::vector<Configuration>& configs,
                       const std::vector<EvalResult>& results) = 0;

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
 * The scaffold every built-in search method stands on. The base owns
 * what a method would otherwise repeat:
 *  - the budget, with pending work counted against it;
 *  - the sampler RNG, seeded from the run seed;
 *  - the dedup set of suggested and observed configurations;
 *  - the space's Chain-of-Trees, built on first use;
 *  - the random draw, in the method's Draw scheme, and one dedup rule
 *    for it (draw_unseen());
 *  - for a model-based method, the initial phase (paper Sec. 3): its
 *    first configurations are unseen random draws, each one a tuner.doe
 *    sample, with in-flight work counted toward the phase so an
 *    asynchronous drive draws it exactly once; and, while fewer than two
 *    observations have landed, an unseen random draw for every slot
 *    after it (untimed), since a model has nothing to learn from yet;
 *  - the tuner.suggest / tuner.observe timers and counters, and the
 *    history's tuner_seconds;
 *  - observe(), and the sampler state: sampler_state() writes the RNG
 *    position followed by the method's ";key=value" segments, and
 *    restore() installs a checkpointed run completely or changes
 *    nothing.
 *
 * A method implements propose(), its search; where it needs them, it
 * also keeps a MethodState (its models, its bandit credit), credits
 * results in after_observe(), and saves that state through
 * write_segments() and read_segment().
 */
class AskTellBase : public AskTellTuner {
 public:
  ~AskTellBase() override;

  std::vector<Configuration> suggest(int n) final;
  std::vector<Configuration> suggest_with_pending(
      int n, const std::vector<Configuration>& pending) final;
  void observe(const std::vector<Configuration>& configs,
               const std::vector<EvalResult>& results) final;
  int remaining() const final
  {
      return budget_ - static_cast<int>(history_.size());
  }
  std::uint64_t run_seed() const final { return seed_; }
  const TuningHistory& history() const final { return history_; }
  TuningHistory& mutable_history() final { return history_; }
  /** Also releases all the run built; a next run starts from the seed. */
  TuningHistory take_history() final;
  std::string sampler_state() const final;
  bool restore(const TuningHistory& history,
               const std::string& sampler_state) final;

 protected:
  /**
   * What a method carries between calls besides the base's state. The
   * base builds it with new_state() at the run's first suggest, observe
   * or restore, and drops it in take_history() and restore() along with
   * the RNG, the dedup set and the Chain-of-Trees.
   */
  struct MethodState {
    virtual ~MethodState() = default;
  };

  /**
   * How draw() picks a configuration at random. Where the space has
   * known constraints but no Chain-of-Trees, the two CoT schemes
   * rejection-sample against the constraints instead, and take an
   * unconstrained configuration when that keeps failing.
   */
  enum class Draw {
    kLeafUniform,    ///< uniform over the feasible region (CoT leaves)
    kBiasedWalk,     ///< ATF's root-to-leaf walk over the CoT (Sec. 4.2)
    kUnconstrained,  ///< the dense space; known constraints ignored
  };

  /**
   * A sampler: propose() gets every slot.
   * @param space must outlive the tuner.
   */
  AskTellBase(const SearchSpace& space, int budget, std::uint64_t seed,
              Draw draw);
  /**
   * A model-based method with an initial phase of `initial` draws,
   * clamped to the budget; propose() gets the slots after it once two
   * observations have landed.
   * @param space must outlive the tuner.
   */
  AskTellBase(const SearchSpace& space, int budget, std::uint64_t seed,
              Draw draw, int initial);

  /**
   * Propose n >= 1 configurations (n fits the budget, pending counted).
   * `pending` were suggested earlier and are still in flight: the
   * driver's in-flight work, then this batch's initial-phase draws. The
   * base has already marked them seen, and marks the returned ones. A
   * method that avoids duplicates within a batch marks each proposal
   * with mark_seen() as it goes.
   */
  virtual std::vector<Configuration> propose(
      int n, const std::vector<Configuration>& pending) = 0;

  /** A fresh MethodState; nullptr for a method that keeps none. */
  virtual std::unique_ptr<MethodState> new_state() const { return nullptr; }

  /** Called by observe() for each result once it is in the history;
   *  improved: it lowered the best feasible value. */
  virtual void after_observe(const Configuration& config, bool improved);

  /** Append the method's state segments, each ";key=value", where value
   *  holds none of ';', '"' and '\\'. */
  virtual void write_segments(std::string& out) const;

  /**
   * Apply one segment of a restored state: the history is installed and
   * the method's state freshly built. False when the key is unknown or
   * the value malformed; restore() then changes nothing.
   */
  virtual bool read_segment(const std::string& key, const std::string& value);

  /** The sampler RNG, seeded from the run seed. Like everything the run
   *  builds, it exists from the run's first suggest, observe or restore
   *  on. */
  RngEngine& rng() { return sampler_->rng; }

  /** The method's state as S (its new_state() type); nullptr before the
   *  run's first suggest, observe or restore. */
  template <class S>
  S* state()
  {
      return sampler_ ? static_cast<S*>(sampler_->method.get()) : nullptr;
  }
  template <class S>
  const S* state() const
  {
      return sampler_ ? static_cast<const S*>(sampler_->method.get())
                      : nullptr;
  }

  /** The space's Chain-of-Trees, built on the first call; nullptr when
   *  the space has no known constraints, is not fully discrete, or its
   *  constraints have no tree form. */
  const ChainOfTrees* cot();

  /** One random configuration in the method's Draw scheme. */
  Configuration draw();
  /** The first of up to 100 draws that is not seen(), else the last:
   *  a space that is (nearly) exhausted yields a duplicate. */
  Configuration draw_unseen();

  /** Whether c was suggested or observed in this run. */
  bool seen(const Configuration& c) const;
  void mark_seen(const Configuration& c);

  /** Append v as comma-separated hexfloats (exact round trip). */
  static void append_hexfloats(std::string& out, const std::vector<double>& v);
  /** Parse a non-empty comma-separated list of finite numbers. */
  static bool parse_hexfloats(const std::string& s, std::vector<double>& v);

  const SearchSpace& space_;
  TuningHistory history_;

 private:
  /** What a run builds at its first suggest, observe or restore, and
   *  take_history() releases. */
  struct Sampler {
    explicit Sampler(std::uint64_t seed);

    RngEngine rng;
    std::unordered_set<std::size_t> seen;
    std::unique_ptr<MethodState> method;
    std::unique_ptr<ChainOfTrees> cot;
    bool cot_built = false;
  };

  /** Build the run's sampler if it is not built yet. */
  void start();
  /** Parse sampler_state() output into the freshly started run. */
  bool read_sampler_state(const std::string& state);

  const int budget_;
  const std::uint64_t seed_;
  const Draw draw_;
  /** Initial-phase size (0 for a sampler). */
  const int initial_;
  /** False for a sampler: no initial phase and no early draws. */
  const bool model_based_;
  std::unique_ptr<Sampler> sampler_;
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
