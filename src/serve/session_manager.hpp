#ifndef BACO_SERVE_SESSION_MANAGER_HPP_
#define BACO_SERVE_SESSION_MANAGER_HPP_

/**
 * @file
 * Multiplexes many named tuning sessions behind the wire protocol.
 *
 * Each session holds one Study, built by StudyBuilder from the open
 * request (benchmark, method, budget, doe, seed, the session's checkpoint
 * and the shared cache): the same registry, construction and resume path
 * as a local study, so the two cannot drift. The session adds only what
 * the wire needs: the outstanding suggest() batch, per-session latency
 * histograms and the last-touch time. The manager maps protocol requests
 * onto the study's ask()/tell() while enforcing the exchange's contract
 * (every suggested batch is observed, in order, before the next one).
 *
 * Concurrency: one mutex guards the name maps (live and spilled) and is
 * held only for lookups and moves between them; each session has its own
 * mutex, so requests for different sessions proceed in parallel and
 * requests for one session serialize. suggest() is idempotent: re-asking
 * with a batch outstanding returns the same batch, so a client that lost
 * a response can simply retry.
 *
 * An observe frame is checked against the outstanding batch (sizes,
 * configs in order, finite feasible values, a finite non-negative
 * eval_seconds) and then told through Study::tell, drive()'s tell step,
 * so cache, observe, black-box time and checkpoint happen exactly as in
 * a local drive.
 *
 * Durability: with a checkpoint directory configured every observed
 * batch atomically rewrites <dir>/<session>.ckpt.jsonl, and one session
 * is the only writer of its file; a session opened without resume first
 * removes the file an earlier session of its name left. A crashed server
 * (or an evicted idle session) resumes by re-opening the session with
 * resume=true: the study restores history + sampler state and — because
 * suggest() draws only from the restored sampler stream — finishes with
 * the history the uninterrupted run would have produced. An unobserved
 * in-flight batch is deliberately NOT checkpointed: the on-disk state
 * then corresponds to the moment before that suggest(), so the resumed
 * study re-suggests the identical batch. A server-side async run does
 * list its in-flight evaluations in the checkpoint, and opening or
 * reloading a session tells them (with the registry objective, under
 * their original indices) before any request sees it, as Study::run does
 * first.
 *
 * Aborted runs: a server-side run that throws (its client gone, its
 * fleet lost) drains its in-flight work untold. With a checkpoint
 * directory the manager then drops the live study as a spill that writes
 * nothing, since the drive's last checkpoint is the resume point, and the
 * next request reloads the session and tells that work first (a run that
 * stopped on a failed checkpoint write resumes from the last write that
 * succeeded). Without a checkpoint directory the live session continues
 * as it is, and the work the run had in flight is never told.
 *
 * A shared EvalCache (optional) is namespaced per session by benchmark
 * identity, so one cache file serves every session safely. Without a
 * cache no namespace is computed.
 *
 * Bounded live registry: with max_live_sessions > 0 (and a checkpoint
 * directory), opening a session beyond the cap spills the least-
 * recently-touched idle session to disk — Study::save() writes its
 * checkpoint, the study is dropped and a small metadata record (what to
 * rebuild it from, plus its evals and best) remains — so a long-lived
 * multi-client server holds at most the cap's worth of tuner state in
 * memory. A spilled session is still "open" to the protocol: the next
 * request that names it transparently rebuilds the study with resume=true
 * (the open path, in-flight work included), possibly spilling another
 * session to make room, and closing it reads no checkpoint. A session's
 * suggest/observe latency histograms move with it into the spilled
 * record and back, so its stats frame counts every request of its life.
 *
 * Metrics (obs::MetricsRegistry::global()): the sessions.live and
 * sessions.spilled gauges (process-wide totals), the sessions.spill_total
 * and sessions.reload_total counters and the serve.spill_seconds and
 * serve.reload_seconds histograms. A spill or reload is counted once,
 * when it completes: every move of a live study to disk-only state is a
 * spill (a failed checkpoint write is not), and a reload completes once
 * its in-flight work is told.
 *
 * Closing a session waits for the request or run holding it, saves it,
 * and only then unpublishes its name, so a re-open of the name is
 * refused until the close is done.
 */

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/method_registry.hpp"
#include "core/thread_annotations.hpp"
#include "serve/protocol.hpp"

namespace baco {
class EvalCache;
class Study;
}

namespace baco::serve {

/** Manager knobs. */
struct SessionManagerOptions {
  /** Checkpoint directory; empty disables durability. */
  std::string checkpoint_dir;
  /** evict_idle() closes sessions untouched for longer; <= 0 never. */
  double idle_timeout_seconds = 0.0;
  /** Optional shared evaluation cache (not owned). */
  EvalCache* cache = nullptr;
  /**
   * Cap on in-memory sessions; 0 = unbounded. Requires a checkpoint
   * directory (spilling drops the tuner, so without a checkpoint to
   * reload from the cap is ignored). Excess sessions are spilled
   * least-recently-touched first; busy or mid-batch sessions are never
   * spilled, so the live count can transiently exceed the cap.
   */
  std::size_t max_live_sessions = 0;
};

/** A read-only snapshot of one session, for drivers and introspection. */
struct SessionInfo {
  std::string name;
  std::string benchmark;
  std::string cache_namespace;  ///< empty when the manager has no cache
  std::uint64_t seed = 0;
  std::uint64_t evals = 0;
  int budget = 0;
  double best = 0.0;
};

/** The session registry behind the serve loop. */
class SessionManager {
 public:
  explicit SessionManager(SessionManagerOptions opt = SessionManagerOptions{});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /**
   * Handle one protocol request (open_session / suggest / observe /
   * checkpoint / close) and produce its response frame. Never throws:
   * failures become error frames.
   */
  Message handle(const Message& request);

  /** Snapshot of an open session (reloading it when spilled); nullopt
   *  when absent. */
  std::optional<SessionInfo> info(const std::string& name);

  /**
   * Lock session `name` and run fn against its Study: the server's run
   * request drives it with Study::advance here, sync and async alike. The
   * session stays locked for fn's whole duration, so concurrent requests
   * for it queue up behind the drive. Returns false — without invoking
   * fn — when the session is absent or has a suggested-but-unobserved
   * protocol batch (a drive may not interleave with a frame-level
   * exchange). Exceptions from fn propagate with the session unlocked;
   * with a checkpoint directory the session is first spilled without a
   * write (see the file comment).
   */
  bool with_study(const std::string& name,
                  const std::function<void(Study&)>& fn);

  /** Number of live (in-memory) sessions. */
  std::size_t size() const;

  /** Sessions currently spilled to disk-only state. */
  std::size_t spilled_sessions() const;

  /**
   * Evict sessions idle longer than idle_timeout_seconds. Sessions that
   * are mid-request or have a suggested-but-unobserved batch are never
   * evicted, and sessions are NOT re-checkpointed on eviction: the last
   * per-observe checkpoint is already the correct resume point (see
   * file comment). Returns the number evicted.
   */
  std::size_t evict_idle();

  /** Checkpoint every session with no batch in flight. */
  void checkpoint_all();

  /** The checkpoint file of a session name (empty when disabled). */
  std::string checkpoint_path(const std::string& name) const;

 private:
  struct Session;
  struct Latency;

  /** Everything needed to rebuild a spilled session's study. */
  struct SpilledSession {
    std::string benchmark;
    std::string method;  ///< canonical MethodRegistry name
    MethodSpec spec;     ///< budget, doe and seed as built
    /** Progress at the spill, reported when the session is closed. */
    std::uint64_t evals = 0;
    double best = 0.0;
    /**
     * Stamped per spill event: a reloader that read the metadata (and
     * the checkpoint) before an intervening reload + re-spill must not
     * install its now-stale study — it re-reads when the generation
     * under the insert lock differs.
     */
    std::uint64_t generation = 0;
    std::chrono::steady_clock::time_point spilled_at;
    /** The session's latency histograms, handed back on reload. */
    std::shared_ptr<Latency> latency;
  };

  std::shared_ptr<Session> find(const std::string& name) const
      BACO_EXCLUDES(mutex_);
  /** find(), reloading a spilled session from its checkpoint on miss. */
  std::shared_ptr<Session> find_or_reload(const std::string& name);
  /**
   * find_or_reload + lock, re-verifying registry membership under the
   * session mutex (a concurrent spill between lookup and lock retries
   * the reload). lock_out holds the session mutex on success.
   */
  std::shared_ptr<Session> acquire(const std::string& name,
                                   std::unique_lock<std::mutex>& lock_out);
  /** A session around a StudyBuilder-built Study: the registry's
   *  benchmark and method, the session's checkpoint (restored when
   *  `resume`) and the shared cache. */
  std::shared_ptr<Session> build_session(const std::string& name,
                                         const std::string& benchmark,
                                         const std::string& method,
                                         const MethodSpec& spec,
                                         bool resume) const;
  /**
   * The drain open and reload share: with the session published and
   * locked, tell its resumed checkpoint's in-flight evaluations before
   * any request sees it. If that throws, the open is undone (unpublish)
   * or the reload re-spilled (park) before the error propagates.
   */
  void tell_in_flight(const std::shared_ptr<Session>& session,
                      bool reloaded);
  /** Drop a session from the live map (when still the registered one). */
  void unpublish(const std::shared_ptr<Session>& session)
      BACO_EXCLUDES(mutex_);
  /**
   * Move a locked live session to the spilled map without writing (its
   * checkpoint must already hold its resume point), counting a spill
   * that began at `started`. False when it was no longer registered.
   */
  bool park(const std::shared_ptr<Session>& session,
            std::chrono::steady_clock::time_point started)
      BACO_EXCLUDES(mutex_);
  /** Spill least-recently-touched idle sessions down to the cap. */
  void enforce_live_cap();
  /** Save an idle session through its study, then park it. */
  bool spill_one(const std::string& name);

  Message open_session(const Message& req);
  Message suggest(const Message& req);
  Message observe(const Message& req);
  Message checkpoint(const Message& req);
  Message close_session(const Message& req);
  Message session_stats(const Message& req);

  SessionManagerOptions opt_;

  // Lock order: a Session's mutex may be held while taking mutex_;
  // mutex_ holders only ever try_lock sessions, so the inverse never
  // blocks. A name moves between the two maps with mutex_ held, so one
  // lock gives an atomic view of both.
  mutable Mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_
      BACO_GUARDED_BY(mutex_);
  std::unordered_map<std::string, SpilledSession> spilled_
      BACO_GUARDED_BY(mutex_);
  std::uint64_t spill_generation_ BACO_GUARDED_BY(mutex_) = 0;
};

/** True when name is a valid session name ([A-Za-z0-9_.-]+, <= 128). */
bool valid_session_name(const std::string& name);

}  // namespace baco::serve

#endif  // BACO_SERVE_SESSION_MANAGER_HPP_
