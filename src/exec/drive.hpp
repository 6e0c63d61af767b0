#ifndef BACO_EXEC_DRIVE_HPP_
#define BACO_EXEC_DRIVE_HPP_

/**
 * @file
 * The one tuning loop: ask a tuner for configurations, evaluate them on
 * an Executor, tell the results back. Serial, batched, asynchronous and
 * distributed runs all go through drive(); they differ only in the
 * Executor (a thread pool or a worker fleet) and in two DriveOptions.
 *
 * Barrier rounds (the default) call suggest(batch_size), wait for the
 * whole round and observe it in suggestion order. The history is then a
 * pure function of the seed at any batch size, and batch size 1 on a
 * one-lane pool is the plain serial loop.
 *
 * Tell-as-results-land (async_mode) never barriers: batch_size
 * evaluations stay in flight, each result is told the moment it lands,
 * and the freed slot is refilled via suggest_with_pending(), which
 * treats the in-flight work as constant-liar fantasies. Compile-and-run
 * times vary by orders of magnitude across configurations, so no slot
 * idles on the slowest one. The history order then follows completion
 * order; each result stays reproducible, and one slot degenerates to
 * the serial loop exactly.
 *
 * Evaluation indices are dealt in suggestion order over the whole run,
 * and evaluation i draws its noise from eval_rng_for(run_seed, i), so
 * where an evaluation runs never changes its result.
 *
 * Every result passes through one tell step (tell_results): cache,
 * observe, charge the black-box time, checkpoint with the work still in
 * flight, then one on_event per result. An exception from anywhere in
 * the exchange (a failed checkpoint write included) stops suggesting;
 * drive() drains what is in flight, then rethrows.
 */

#include <cstdint>
#include <deque>
#include <exception>
#include <string>
#include <vector>

#include "core/thread_annotations.hpp"
#include "exec/ask_tell.hpp"
#include "exec/checkpoint.hpp"
#include "exec/thread_pool.hpp"

namespace baco {

class EvalCache;

/** One evaluation handed back by an Executor. */
struct Landed {
  std::uint64_t index = 0;   ///< the index it was submitted under
  EvalResult result;
  double eval_seconds = 0.0;  ///< black-box wall-clock
  std::exception_ptr error;   ///< set when the evaluation failed
};

/**
 * Where a drive's evaluations run. Only the driving thread calls it, and
 * it calls wait_any() only while some submitted evaluation has not been
 * handed back yet.
 */
class Executor {
 public:
  Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  virtual ~Executor() = default;

  /** Start evaluating config under evaluation index `index`. */
  virtual void submit(std::uint64_t index, const Configuration& config) = 0;

  /** Block until a submitted evaluation lands and hand it over. A
   *  failed evaluation lands with Landed::error set. */
  virtual Landed wait_any() = 0;
};

/**
 * Evaluates an in-process objective on a work-stealing thread pool.
 * num_threads evaluations run at once (0 = hardware concurrency); with
 * one, submit() evaluates inline on the calling thread, so a serial
 * drive never leaves it.
 */
class ThreadPoolExecutor final : public Executor {
 public:
  ThreadPoolExecutor(BlackBoxFn objective, std::uint64_t run_seed,
                     int num_threads = 1);

  void submit(std::uint64_t index, const Configuration& config) override;
  Landed wait_any() override;

 private:
  void push(Landed l) BACO_EXCLUDES(mutex_);

  BlackBoxFn objective_;
  std::uint64_t run_seed_;
  Mutex mutex_;
  CondVar cv_;
  std::deque<Landed> landed_ BACO_GUARDED_BY(mutex_);
  /** Declared last, so destroyed first: its destructor runs every task
   *  still queued while the landing queue above is alive. */
  ThreadPool pool_;
};

/** How drive() runs the exchange. */
struct DriveOptions {
  /**
   * Barrier rounds: configurations per suggest() round. Async mode: the
   * number of evaluations kept in flight.
   */
  int batch_size = 1;
  /** Tell results as they land instead of barriering on rounds. */
  bool async_mode = false;
  /**
   * Async mode with batch_size >= 2: once every slot is busy, compute the
   * next suggestion ahead on the driving thread, so the slot that frees
   * next refills without waiting for the tuner. The prefetched
   * suggestion sees the in-flight set as fantasies exactly like a refill
   * would; it just runs one observation early.
   */
  bool suggest_ahead = false;
  /** Stop after telling this many results; -1 = until the tuner stops
   *  suggesting. Re-dispatched resume_pending work counts too. */
  int max_evals = -1;
  /** Optional shared cache (not owned); a hit skips the executor. */
  EvalCache* cache = nullptr;
  /** Cache namespace (EvalCache::namespace_key); empty = anonymous. */
  std::string cache_namespace;
  /** When nonempty, rewrite a resume checkpoint after every tell. */
  std::string checkpoint_path;
  /** Fires once per told result, after the checkpoint. */
  AsyncResultFn on_event;
  /**
   * The in-flight evaluations of a resumed checkpoint: dispatched under
   * their original indices before anything new is suggested, and always
   * drained, so each is told exactly once.
   */
  std::vector<PendingEval> resume_pending;
};

/**
 * Drive `tuner` on `exec` until the tuner stops suggesting (its budget is
 * spent) or max_evals results were told. Returns with nothing in flight.
 */
void drive(AskTellTuner& tuner, Executor& exec, DriveOptions opt = {});

/** drive() on a one-lane pool to budget exhaustion, then take the
 *  finalized history: the plain serial loop. */
TuningHistory drive_serial(AskTellTuner& tuner, const BlackBoxFn& objective);

/**
 * drive()'s tell step, also used by callers that evaluate on their own:
 * Study::tell and Study::tell_pending, and the serve layer's
 * SessionManager for an observe frame. Each event arrives with index,
 * config, result, eval_seconds and from_cache set. The step caches every
 * result not from the cache, observes them in order in one call, charges
 * their black-box time, checkpoints with still_pending, then fires
 * on_event once per result with evals and best stamped as if told one by
 * one.
 * @throws std::runtime_error naming the path when the checkpoint write
 * fails; the results are observed by then, and on_event does not fire.
 */
void tell_results(AskTellTuner& tuner, std::vector<AsyncEvent> events,
                  const DriveOptions& opt,
                  const std::vector<PendingEval>& still_pending);

}  // namespace baco

#endif  // BACO_EXEC_DRIVE_HPP_
