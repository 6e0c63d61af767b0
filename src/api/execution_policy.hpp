#ifndef BACO_API_EXECUTION_POLICY_HPP_
#define BACO_API_EXECUTION_POLICY_HPP_

/**
 * @file
 * ExecutionPolicy: the one declarative value that selects how a study's
 * evaluations run — serially, batched over a thread pool, fully
 * asynchronously (tell-as-results-land), or sharded across a worker
 * fleet — without changing a single other line of tuning code.
 *
 * Determinism contract (inherited from the exec/serve layers): Serial,
 * Batched and Distributed(async=false) histories are bit-for-bit
 * reproducible from the seed; Async and Distributed(async=true) keep
 * per-result reproducibility but order the history by completion.
 * Batched at batch_size 1, Async with 1 slot and Distributed with
 * batch_size 1 all reproduce the Serial history exactly.
 *
 * Distributed runs come in three fleet flavours, all sharing the
 * determinism contract (workers derive every noise stream from
 * (seed, index), so worker placement never changes a history):
 *  - Distributed(n): spawn n in-process loopback worker threads;
 *  - Remote({"tcp:HOST:PORT", "unix:PATH", "cmd:ARGV..."}): connect (or
 *    spawn) each named worker — cross-host deployment from the front
 *    door;
 *  - Attached(&coordinator): drive an externally owned, already
 *    registered fleet (e.g. workers that joined a baco_serve --listen
 *    acceptor over the network).
 */

#include <string>
#include <vector>

namespace baco {

namespace serve {
class Coordinator;
}

/** How a Study executes its evaluations. */
struct ExecutionPolicy {
  enum class Mode {
    kSerial,       ///< one evaluation at a time (Tuner::run semantics)
    kBatched,      ///< constant-liar batches on a thread pool
    kAsync,        ///< tell-as-results-land, bounded in-flight, on a pool
    kDistributed,  ///< sharded across serve workers (Coordinator)
  };

  Mode mode = Mode::kSerial;

  /**
   * Batched: configurations per suggest() round. Async: the in-flight
   * cap. Distributed: shard size per round (async=false) or the
   * fleet-wide in-flight cap (async=true).
   */
  int batch_size = 1;

  /** Evaluation threads (0 = hardware concurrency); in-process modes. */
  int num_threads = 0;

  /** Distributed: in-process loopback workers to spawn. */
  int workers = 2;

  /**
   * Distributed: connect these workers instead of spawning loopback
   * threads. "unix:PATH" / "tcp:HOST:PORT" attach over sockets;
   * "cmd:ARGV..." forks the command (whitespace-split) wired through
   * pipes. Non-empty overrides `workers`.
   */
  std::vector<std::string> worker_addresses;

  /**
   * Distributed: drive this already-attached fleet (not owned, not shut
   * down by the study). Non-null overrides both `workers` and
   * `worker_addresses`.
   */
  serve::Coordinator* fleet = nullptr;

  /** Distributed: drive tell-as-results-land across the fleet. */
  bool async = false;

  /** Distributed: per-worker in-flight cap (coordinator backpressure). */
  int max_inflight_per_worker = 2;

  /** Distributed: straggler re-dispatch deadline in ms; <= 0 disables. */
  int straggler_ms = -1;

  /**
   * Async / Distributed(async=true), owned or attached fleet:
   * suggest-ahead — once every slot is busy, the next suggestion
   * (surrogate refresh + acquisition search) is computed ahead on the
   * driving thread, so the slot that frees next refills without waiting
   * for the tuner. The prefetched suggestion treats the in-flight set as
   * constant-liar fantasies exactly like a refill; it just runs one
   * observation early. Ignored with fewer than two slots (the run stays
   * bit-for-bit identical to the serial loop).
   */
  bool suggest_ahead = false;

  static ExecutionPolicy
  Serial()
  {
      return ExecutionPolicy{};
  }

  static ExecutionPolicy
  Batched(int batch_size, int num_threads = 0)
  {
      ExecutionPolicy p;
      p.mode = Mode::kBatched;
      p.batch_size = batch_size;
      p.num_threads = num_threads;
      return p;
  }

  /** slots = concurrent in-flight evaluations. */
  static ExecutionPolicy
  Async(int slots, int num_threads = 0, bool suggest_ahead = false)
  {
      ExecutionPolicy p;
      p.mode = Mode::kAsync;
      p.batch_size = slots;
      p.num_threads = num_threads;
      p.suggest_ahead = suggest_ahead;
      return p;
  }

  static ExecutionPolicy
  Distributed(int workers, int batch_size = 4, bool async = false)
  {
      ExecutionPolicy p;
      p.mode = Mode::kDistributed;
      p.workers = workers;
      p.batch_size = batch_size;
      p.async = async;
      return p;
  }

  /** Sharded over connected/spawned workers named by address. */
  static ExecutionPolicy
  Remote(std::vector<std::string> workers, int batch_size = 4,
         bool async = false)
  {
      ExecutionPolicy p;
      p.mode = Mode::kDistributed;
      p.worker_addresses = std::move(workers);
      p.batch_size = batch_size;
      p.async = async;
      return p;
  }

  /** Sharded over an externally owned, pre-registered fleet. The
   *  Coordinator schedules concurrent tenants fairly on its own, and
   *  the whole study is one of its runs. */
  static ExecutionPolicy
  Attached(serve::Coordinator* fleet, int batch_size = 4,
           bool async = false)
  {
      ExecutionPolicy p;
      p.mode = Mode::kDistributed;
      p.fleet = fleet;
      p.batch_size = batch_size;
      p.async = async;
      return p;
  }
};

/** "serial", "batched", "async", or "distributed". */
inline const char*
execution_mode_name(ExecutionPolicy::Mode m)
{
    switch (m) {
      case ExecutionPolicy::Mode::kSerial: return "serial";
      case ExecutionPolicy::Mode::kBatched: return "batched";
      case ExecutionPolicy::Mode::kAsync: return "async";
      case ExecutionPolicy::Mode::kDistributed: return "distributed";
    }
    return "?";
}

}  // namespace baco

#endif  // BACO_API_EXECUTION_POLICY_HPP_
