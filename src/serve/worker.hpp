#ifndef BACO_SERVE_WORKER_HPP_
#define BACO_SERVE_WORKER_HPP_

/**
 * @file
 * The evaluation worker client: the remote half of a drive's
 * CoordinatorExecutor.
 *
 * A worker registers over its transport with a hello frame (role=worker,
 * capacity), then answers evaluate frames: it looks the benchmark up in
 * the suite registry, derives the measurement-noise stream from the
 * frame's (seed, index) pair via eval_rng_for(), runs the black box and
 * replies with a result frame. Because the noise stream is a pure
 * function of (seed, index), any worker — local thread, child process or
 * remote host — produces the exact same result for the same evaluation,
 * which is what makes sharded runs reproduce thread-pool histories.
 */

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"

namespace baco {
struct Benchmark;
}

namespace baco::serve {

class Coordinator;
class Transport;

/** Worker knobs. */
struct WorkerOptions {
  /** Advertised concurrent evaluation slots (coordinator backpressure). */
  int capacity = 1;
  /**
   * Heartbeat interval: when > 0 the worker advertises it in the hello
   * frame and a dedicated beacon thread sends a heartbeat frame every
   * interval — including while an evaluation is running, so a worker
   * busy on a slow black box never looks wedged to the coordinator's
   * missed-heartbeat dead-worker detection (only a genuinely silent
   * worker does). 0 disables.
   */
  int heartbeat_ms = 0;
};

/**
 * Evaluate one configuration of a benchmark exactly as a thread-pool
 * drive would:
 * under eval_rng_for(run_seed, index), timing the black box into
 * *eval_seconds (optional).
 */
EvalResult evaluate_on(const Benchmark& b, const Configuration& c,
                       std::uint64_t run_seed, std::uint64_t index,
                       double* eval_seconds = nullptr);

/**
 * Run the worker loop: register, answer evaluate frames until a shutdown
 * frame or transport close. Unknown benchmarks are answered with error
 * frames (the worker keeps serving). Evaluate frames carrying a trace
 * context get their evaluation wrapped in a child span shipped back on
 * the result frame; a clean shutdown ends with a goodbye frame carrying
 * the final eval count and any unshipped spans. Returns the number of
 * evaluations performed.
 */
std::uint64_t run_worker_loop(Transport& transport,
                              const WorkerOptions& opt = WorkerOptions{});

/**
 * Spawn n in-process loopback workers (each a run_worker_loop thread)
 * and register them with the coordinator. Join the returned threads
 * after Coordinator::shutdown().
 */
std::vector<std::thread> attach_loopback_workers(Coordinator& coordinator,
                                                 int n, int capacity = 1);

}  // namespace baco::serve

#endif  // BACO_SERVE_WORKER_HPP_
