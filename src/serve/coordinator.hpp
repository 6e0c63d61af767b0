#ifndef BACO_SERVE_COORDINATOR_HPP_
#define BACO_SERVE_COORDINATOR_HPP_

/**
 * @file
 * The run-multiplexed multi-worker evaluation coordinator.
 *
 * A Coordinator owns transports to registered workers and shards
 * evaluations across them. A drive reaches the fleet through a
 * CoordinatorExecutor (the exec layer's Executor interface), so the same
 * drive() loop that runs a tuner on a thread pool runs it across
 * process and host boundaries.
 *
 * Concurrency model: the coordinator multiplexes any number of
 * concurrent *runs* over one shared fleet. A run is opened with
 * begin_run() (an RAII RunLease), its evaluate frames are tagged with
 * the run id on the wire, and one reader thread per worker demultiplexes
 * landed results into per-run completion queues. A small scheduler
 * leases worker slots to runs fairly — round-robin over active runs,
 * one dispatch per run per pass, honoring per-worker capacity and each
 * run's own in-flight cap — so a slow tenant can no longer starve the
 * rest (the old design serialized whole runs behind a fleet mutex).
 * Admission control (max_active_runs) refuses runs past the cap with a
 * CoordinatorBusy error after an optional bounded wait.
 *
 * Scheduling stays shard-deterministic per run: each evaluation's noise
 * stream is derived worker-side from (run seed, evaluation index), so a
 * result is independent of which worker ran it, in which order, and of
 * whatever other runs shared the fleet — a fleet drive reproduces the
 * same-seed thread-pool drive bit-for-bit, concurrent or not.
 *
 * Robustness: per-worker backpressure (at most `capacity` frames in
 * flight per worker), straggler re-dispatch (a task outstanding longer
 * than straggler_ms is duplicated onto a free worker; first result
 * wins — duplicates are harmless because evaluation is deterministic),
 * dead-worker recovery (tasks whose only live dispatch was on a closed
 * transport are re-queued), and worker re-registration (a worker killed
 * by heartbeat loss can reconnect through add_worker_registered — the
 * late-hello path — and is immediately re-leased to active runs, which
 * is how their re-queued shards drain).
 *
 * Fleet health: each worker has one record under the scheduler mutex,
 * and every received frame refreshes its last-seen time. Workers
 * advertising a heartbeat interval in their hello send heartbeat frames
 * when idle between requests; a worker holding outstanding work that
 * goes silent for heartbeat_grace intervals is declared dead by the
 * executors' sweep — its shards re-queue through the same path as a
 * closed transport, instead of the run wedging on a blocked read.
 *
 * Metrics: events (dispatches, results, deaths, admissions) update
 * counters and gauges in obs::MetricsRegistry::global(). The live runs
 * and workers are a registry source, so every snapshot lists
 * coord.run.<id>.{inflight,queued,landed} for each active run,
 * coord.worker.<id>.{state,inflight,completed,heartbeats,ewma_latency_s,
 * last_seen_s} for each attached worker (state 2 alive, 1 slow, 0 dead;
 * a dead worker stays listed) and coord.fleet.slow. A run drops out of
 * the snapshot when it ends. Ids are per coordinator: a process with
 * several coordinators lists each one's entries.
 */

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/thread_annotations.hpp"
#include "exec/drive.hpp"
#include "obs/metrics.hpp"

namespace baco::serve {

struct Message;
class Transport;

/** Coordinator knobs. */
struct CoordinatorOptions {
  /**
   * In-flight cap per worker when the worker's hello does not advertise
   * a capacity (and an upper bound when it does).
   */
  int max_inflight_per_worker = 2;
  /** Re-dispatch tasks outstanding longer than this; <= 0 disables. */
  int straggler_ms = -1;
  /** Poll granularity while waiting for results. */
  int poll_ms = 20;
  /** Handshake timeout for add_worker(). */
  int handshake_ms = 10000;
  /**
   * Missed heartbeat intervals before a silent worker with outstanding
   * work is declared dead (only workers advertising heartbeat_ms).
   */
  int heartbeat_grace = 2;
  /**
   * Admission control: maximum concurrently active runs; a begin_run()
   * past the cap throws CoordinatorBusy. 0 = unlimited.
   */
  int max_active_runs = 0;
  /**
   * How long begin_run() may wait for a slot before throwing
   * CoordinatorBusy when the run cap is reached; <= 0 rejects
   * immediately.
   */
  int admission_wait_ms = 0;
};

/** Point-in-time view of one worker's health (see Coordinator::health). */
struct WorkerHealthSnapshot {
  int worker = 0;
  std::string state;  ///< "alive", "slow" (>1 missed interval), "dead"
  int inflight = 0;
  std::uint64_t completed = 0;   ///< result frames received
  std::uint64_t heartbeats = 0;  ///< heartbeat frames received
  double ewma_latency_s = 0.0;   ///< smoothed result round-trip
  double last_seen_s = 0.0;      ///< seconds since the last frame
  int heartbeat_ms = 0;          ///< advertised interval (0 = none)
};

/** begin_run() refusal: the run cap (max_active_runs) is reached. */
class CoordinatorBusy : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/** Shards the evaluations of concurrent runs across a worker fleet. */
class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions opt = CoordinatorOptions{});
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /**
   * RAII lease on one multiplexed run: holds the run's admission slot
   * and per-run completion queue; destruction (or reset()) ends the run
   * and wakes admission waiters. Movable, not copyable. A
   * default-constructed lease is empty (operator bool is false).
   */
  class RunLease {
   public:
    RunLease() = default;
    RunLease(RunLease&& o) noexcept : coordinator_(o.coordinator_),
                                      id_(o.id_)
    {
        o.coordinator_ = nullptr;
        o.id_ = 0;
    }
    RunLease&
    operator=(RunLease&& o) noexcept
    {
        if (this != &o) {
            reset();
            coordinator_ = o.coordinator_;
            id_ = o.id_;
            o.coordinator_ = nullptr;
            o.id_ = 0;
        }
        return *this;
    }
    ~RunLease() { reset(); }

    /** The run id stamped on this run's wire frames. */
    std::uint64_t id() const { return id_; }
    explicit operator bool() const { return coordinator_ != nullptr; }
    /** End the run now (idempotent). */
    void
    reset()
    {
        if (coordinator_ != nullptr)
            coordinator_->end_run(id_);
        coordinator_ = nullptr;
        id_ = 0;
    }

   private:
    friend class Coordinator;
    RunLease(Coordinator* coordinator, std::uint64_t id)
        : coordinator_(coordinator), id_(id)
    {
    }
    Coordinator* coordinator_ = nullptr;
    std::uint64_t id_ = 0;
  };

  /**
   * Register a worker: waits for its hello frame (capacity handshake).
   * Returns the worker's id, or -1 when the handshake fails.
   */
  int add_worker(std::unique_ptr<Transport> transport);

  /**
   * Register a worker whose hello frame was already consumed and
   * validated by the caller (the Acceptor routes worker connections
   * here after reading their first frame). capacity is the hello's
   * advertised slot count (<= 0 falls back to 1); heartbeat_ms its
   * advertised beacon interval (0 = none). This is also the
   * re-registration path: a worker killed by heartbeat loss or a broken
   * transport reconnects here under a fresh worker id and is
   * immediately leased to active runs.
   */
  int add_worker_registered(std::unique_ptr<Transport> transport,
                            int capacity, int heartbeat_ms = 0);

  /** Workers still believed alive. */
  std::size_t num_workers() const;

  /**
   * Health of every registered worker, alive or dead (the registry
   * source reports the same records). Staleness ("slow") is only judged
   * while the worker holds outstanding work — an idle worker's frames
   * sit undrained in the socket buffer, which is not silence.
   */
  std::vector<WorkerHealthSnapshot> health() const BACO_EXCLUDES(mu_);

  /**
   * Open a multiplexed run. max_inflight caps how many of this run's
   * tasks may be live on the fleet at once (0 = bounded only by fleet
   * capacity). Thread-safe: any number of threads can hold leases and
   * drive their runs concurrently over the shared fleet.
   * @throws CoordinatorBusy when max_active_runs is reached and no slot
   * frees within admission_wait_ms.
   */
  RunLease begin_run(int max_inflight = 0) BACO_EXCLUDES(mu_);

  /** Number of currently active (leased) runs. */
  std::size_t active_runs() const BACO_EXCLUDES(mu_);

  /**
   * Send shutdown to every live worker, wait briefly for their goodbye
   * frames (final eval counts + trace spans), close the transports and
   * join the reader threads. Idempotent.
   */
  void shutdown();

 private:
  friend class CoordinatorExecutor;
  struct Worker;
  struct RunState;

  /** One landed evaluation, demultiplexed into its run's queue. */
  struct LandedEval {
    std::uint64_t key = 0;  ///< wire evaluation index
    EvalResult result;
    double eval_seconds = 0.0;
    bool failed = false;  ///< kMaxTaskErrors exceeded; see error
    std::string error;
  };

  /** Maps an outstanding dispatch id to its run and task key. */
  struct DispatchRec {
    std::uint64_t run = 0;
    std::uint64_t key = 0;
  };

  /** begin_run() body; returns the new run id. */
  std::uint64_t begin_run_id(int max_inflight) BACO_EXCLUDES(mu_);

  /** Close a run: drop its state, wake admission waiters (RunLease). */
  void end_run(std::uint64_t run) BACO_EXCLUDES(mu_);

  /** Add one task to a run's queue and kick the scheduler. */
  void submit_task(std::uint64_t run, const std::string& benchmark,
                   std::uint64_t run_seed, std::uint64_t key,
                   const Configuration& config) BACO_EXCLUDES(mu_);

  /**
   * Move the run's landed results out, waiting up to timeout_ms for the
   * first one. Returns empty on timeout or when the run has no tasks
   * left. @throws std::runtime_error when tasks remain but no live
   * worker does.
   */
  std::vector<LandedEval> wait_landed(std::uint64_t run, int timeout_ms)
      BACO_EXCLUDES(mu_);

  /**
   * Driver-side maintenance: kill heartbeat-stale workers (re-queueing
   * their shards) and duplicate straggling tasks onto free workers.
   */
  void sweep() BACO_EXCLUDES(mu_);

  /** Per-worker reader: demultiplexes frames until the transport dies. */
  void reader_loop(Worker* wk, std::size_t w) BACO_EXCLUDES(mu_);

  /**
   * Fair scheduler: round-robin over active runs (one dispatch per run
   * per pass) until no run has both a queued task and a free worker
   * slot. Runs with inflight >= their cap are skipped.
   */
  void dispatch_ready() BACO_REQUIRES(mu_);

  /** Send task `key` of `run` to worker w; false when the send fails. */
  bool dispatch_one(RunState& run, std::uint64_t key, std::size_t w,
                    bool duplicate) BACO_REQUIRES(mu_);

  /**
   * Transport-level death: close, clear in-flight accounting, re-queue
   * every task whose only live dispatch was on this worker, bump the
   * coord.workers_lost_total counter, log the event, wake run waiters.
   */
  void kill_worker(std::size_t w, const char* reason) BACO_REQUIRES(mu_);

  /** Workers currently able to take dispatches. */
  std::size_t alive_workers() const BACO_REQUIRES(mu_);

  /** Mark a worker dead, dropping its in-flight accounting, and
   *  publish the alive count. */
  void retire_worker(Worker& wk) BACO_REQUIRES(mu_);

  /**
   * True when a live worker holds outstanding work and advertised a
   * heartbeat, but has been silent for more than `intervals` of it
   * ("slow" at one interval, dead at heartbeat_grace).
   */
  static bool silent(const Worker& wk,
                     std::chrono::steady_clock::time_point now,
                     int intervals);

  /** The registry source: live runs, workers and the slow count. */
  void report(std::vector<obs::MetricValue>& out) const BACO_EXCLUDES(mu_);

  /** Wake every run's completion waiters (fleet topology changed). */
  void notify_runs() BACO_REQUIRES(mu_);

  /** Stamp the trace context onto an outgoing evaluate frame. */
  static void stamp_trace(Message& m);

  /** Merge a reply's shipped spans into the trace as worker-w's track. */
  static void import_spans(std::size_t w, const Message& reply);

  CoordinatorOptions opt_;
  /** This coordinator's registry source (see report()). */
  std::uint64_t metrics_source_ = 0;

  /**
   * The scheduler mutex: guards the worker records (dispatch state and
   * health), the run table and the dispatch-id map. Reader threads and
   * driver threads meet here; per-run condition variables (inside
   * RunState) and the admission/shutdown CVs all wait on it.
   */
  mutable Mutex mu_;
  std::vector<std::unique_ptr<Worker>> workers_ BACO_GUARDED_BY(mu_);
  /** Active runs by id (ordered: the scheduler round-robins over it). */
  std::map<std::uint64_t, std::unique_ptr<RunState>> runs_
      BACO_GUARDED_BY(mu_);
  /** Outstanding dispatch ids -> (run, task key). */
  std::unordered_map<std::uint64_t, DispatchRec> dispatches_
      BACO_GUARDED_BY(mu_);
  std::uint64_t next_msg_id_ BACO_GUARDED_BY(mu_) = 1;
  std::uint64_t next_run_id_ BACO_GUARDED_BY(mu_) = 1;
  /** Last run id served by the scheduler (fairness cursor). */
  std::uint64_t rr_cursor_ BACO_GUARDED_BY(mu_) = 0;
  bool shutting_down_ BACO_GUARDED_BY(mu_) = false;
  /** Signaled when a run ends (admission waiters re-check the cap). */
  CondVar admission_cv_;
  /** Signaled on goodbye frames and reader exits during shutdown(). */
  CondVar shutdown_cv_;
};

/**
 * Executor over a Coordinator's fleet. The whole drive is one run: the
 * constructor takes its RunLease — so admission control happens once, up
 * front — and destruction ends it. max_inflight caps the run's live
 * tasks (0 = bounded only by fleet capacity).
 * @throws CoordinatorBusy from the constructor when the run cap is
 * reached.
 */
class CoordinatorExecutor final : public Executor {
 public:
  CoordinatorExecutor(Coordinator& coordinator, std::string benchmark,
                      std::uint64_t run_seed, int max_inflight = 0);

  void submit(std::uint64_t index, const Configuration& config) override;
  /** A task that kept failing lands with an error. @throws
   *  std::runtime_error when tasks remain but no live worker does. */
  Landed wait_any() override;

 private:
  Coordinator& coordinator_;
  Coordinator::RunLease lease_;
  std::string benchmark_;  ///< registry name the workers resolve
  std::uint64_t run_seed_;
  std::deque<Landed> landed_;  ///< landed, not yet handed over
};

}  // namespace baco::serve

#endif  // BACO_SERVE_COORDINATOR_HPP_
