#ifndef BACO_SERVE_SESSION_MANAGER_HPP_
#define BACO_SERVE_SESSION_MANAGER_HPP_

/**
 * @file
 * Multiplexes many named tuning sessions behind the wire protocol.
 *
 * Each session owns one ask-tell tuner (any MethodRegistry method —
 * open_session resolves the request's method string through the same
 * registry local Study construction uses), its search space, and its
 * pending suggest() batch; the manager maps protocol requests onto the
 * ask-tell exchange while enforcing its contract (every suggested batch
 * is observed, in order, before the next one).
 *
 * Concurrency: sessions live in a lock-striped registry — requests for
 * different sessions proceed in parallel, requests for one session
 * serialize on its own mutex. suggest() is idempotent: re-asking with a
 * batch outstanding returns the same batch, so a client that lost a
 * response can simply retry.
 *
 * An observe frame is checked against the outstanding batch (sizes,
 * configs in order, finite feasible values, a finite non-negative
 * eval_seconds) and then told through drive()'s tell step
 * (tell_results), so cache, observe, black-box time and checkpoint
 * happen exactly as in a local drive.
 *
 * Durability: with a checkpoint directory configured every observed
 * batch atomically rewrites <dir>/<session>.ckpt.jsonl. A crashed
 * server (or an evicted idle session) resumes by re-opening the session
 * with resume=true: the tuner restores history + sampler state and —
 * because suggest() draws only from the restored sampler stream —
 * finishes with the history the uninterrupted run would have produced.
 * An unobserved in-flight batch is deliberately NOT checkpointed: the
 * on-disk state then corresponds to the moment before that suggest(),
 * so the resumed tuner re-suggests the identical batch. A server-side
 * async run does list its in-flight evaluations in the checkpoint; a
 * resumed open evaluates them with the registry objective and tells them
 * under their original indices before it replies, as Study::run does.
 *
 * A shared EvalCache (optional) is namespaced per session by benchmark
 * identity, so one cache file serves every session safely. Without a
 * cache no namespace is computed.
 *
 * Bounded live registry: with max_live_sessions > 0 (and a checkpoint
 * directory), opening a session beyond the cap spills the least-
 * recently-touched idle session to disk — its tuner is dropped, its
 * checkpoint and a small metadata record remain — so a long-lived
 * multi-client server holds at most the cap's worth of tuner state in
 * memory. A spilled session is still "open" to the protocol: the next
 * request that names it transparently reloads the tuner from its
 * checkpoint (the same bit-for-bit resume path open_session(resume)
 * uses), possibly spilling another session to make room.
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

#include "core/thread_annotations.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"

namespace baco {
class AskTellTuner;
class EvalCache;
class SearchSpace;
struct Benchmark;
}

namespace baco::serve {

/** Manager knobs. */
struct SessionManagerOptions {
  /** Checkpoint directory; empty disables durability. */
  std::string checkpoint_dir;
  /** evict_idle() closes sessions untouched for longer; <= 0 never. */
  double idle_timeout_seconds = 0.0;
  /** Lock stripes (bounded mutex contention across sessions). */
  int stripes = 8;
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

/** The lock-striped session registry behind the serve loop. */
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
   * Lock session `name` and run fn(tuner, info, checkpoint_path) against
   * its ask-tell tuner directly: the server's run request drives the
   * tuner with execute() here, sync and async alike. The session stays
   * locked for fn's whole duration, so concurrent requests for it queue
   * up behind the drive. Returns false — without invoking fn — when the
   * session is absent or has a suggested-but-unobserved protocol batch (a
   * drive may not interleave with a frame-level exchange). Exceptions
   * from fn propagate with the session unlocked.
   */
  bool with_tuner(
      const std::string& name,
      const std::function<void(AskTellTuner&, const SessionInfo&,
                               const std::string&)>& fn);

  /** Number of live (in-memory) sessions. */
  std::size_t size() const;

  /** Sessions currently spilled to disk-only state. */
  std::size_t spilled_sessions() const;

  /** Total spill / reload events (monotonic, for logs and tests). */
  std::uint64_t spill_count() const;
  std::uint64_t reload_count() const;

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

  /** The shared evaluation cache (may be null). */
  EvalCache* cache() const { return opt_.cache; }

 private:
  struct Session;
  struct Stripe;

  /** Everything needed to rebuild a spilled session's tuner. */
  struct SpilledSession {
    std::string benchmark;
    std::string method;  ///< canonical MethodRegistry name
    int budget = 0;
    int doe = 0;
    std::uint64_t seed = 0;
    /**
     * Stamped per spill event: a reloader that read the metadata (and
     * the checkpoint) before an intervening reload + re-spill must not
     * install its now-stale tuner — it re-reads when the generation
     * under the insert lock differs.
     */
    std::uint64_t generation = 0;
    std::chrono::steady_clock::time_point spilled_at;
    /**
     * Lifetime request-latency totals, folded in at every spill (the
     * live per-session histograms reset with the tuner). A reload
     * re-attaches these as the session's base, so stats on a reloaded
     * session reports counts across all its incarnations.
     */
    obs::HistogramSnapshot suggest_hist;
    obs::HistogramSnapshot observe_hist;
  };

  Stripe& stripe_for(const std::string& name) const;
  std::shared_ptr<Session> find(const std::string& name) const;
  /** find(), reloading a spilled session from its checkpoint on miss. */
  std::shared_ptr<Session> find_or_reload(const std::string& name);
  /**
   * find_or_reload + lock, re-verifying registry membership under the
   * session mutex (a concurrent spill between lookup and lock retries
   * the reload). lock_out holds the session mutex on success.
   */
  std::shared_ptr<Session> acquire(const std::string& name,
                                   std::unique_lock<std::mutex>& lock_out);
  /** EvalCache::namespace_key with a cache attached, else empty. */
  std::string cache_namespace(const Benchmark& bench,
                              const SearchSpace& space) const;
  /** Spill least-recently-touched idle sessions down to the cap. */
  void enforce_live_cap();
  bool spill_one(const std::string& name);

  Message open_session(const Message& req);
  Message suggest(const Message& req);
  Message observe(const Message& req);
  Message checkpoint(const Message& req);
  Message close_session(const Message& req);
  Message session_stats(const Message& req);

  SessionManagerOptions opt_;
  std::unique_ptr<Stripe[]> stripes_;

  // Lock order: a Session's mutex may be held while taking a Stripe's
  // mutex and then spill_mutex_ (spill_one); stripe holders only ever
  // try_lock sessions, so the inverse never blocks.
  mutable Mutex spill_mutex_;
  std::unordered_map<std::string, SpilledSession> spilled_
      BACO_GUARDED_BY(spill_mutex_);
  std::uint64_t spill_count_ BACO_GUARDED_BY(spill_mutex_) = 0;
  std::uint64_t reload_count_ BACO_GUARDED_BY(spill_mutex_) = 0;
  std::uint64_t spill_generation_ BACO_GUARDED_BY(spill_mutex_) = 0;
};

/** True when name is a valid session name ([A-Za-z0-9_.-]+, <= 128). */
bool valid_session_name(const std::string& name);

}  // namespace baco::serve

#endif  // BACO_SERVE_SESSION_MANAGER_HPP_
