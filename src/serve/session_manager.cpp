#include "serve/session_manager.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include <sys/stat.h>

#include "api/study.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "serve/stats_util.hpp"

namespace baco::serve {

namespace {
using Clock = std::chrono::steady_clock;

/** Serve-layer instrumentation handles, registered once per process. */
struct ServeMetrics {
  obs::Histogram& suggest = hist("serve.suggest_seconds");
  obs::Histogram& observe = hist("serve.observe_seconds");
  obs::Histogram& spill = hist("serve.spill_seconds");
  obs::Histogram& reload = hist("serve.reload_seconds");

  static ServeMetrics& get()
  {
      static ServeMetrics m;
      return m;
  }

 private:
  static obs::Histogram& hist(const char* name)
  {
      return obs::MetricsRegistry::global().histogram(name);
  }
};

/** The ok frame reporting a session's progress. */
Message
ok_reply(std::uint64_t id, std::uint64_t evals, double best)
{
    Message reply;
    reply.type = MsgType::kOk;
    reply.id = id;
    reply.evals = evals;
    reply.best = best;
    return reply;
}

}  // namespace

struct SessionManager::Session {
  Session(std::string session_name, Study s)
      : name(std::move(session_name)), study(std::move(s))
  {
  }

  // Deliberately a raw std::mutex, not baco::Mutex: acquire() hands the
  // held lock to its caller through a std::unique_lock out-parameter — a
  // dynamic ownership transfer the static analysis cannot express. The
  // session-level discipline stays TSAN's job; everything registry-level
  // (stripes, spill state) is statically checked. Whoever removes a
  // session from the registry holds this mutex, so its holder sees stable
  // membership.
  std::mutex mutex;
  std::string name;
  Study study;

  /** The suggested-but-unobserved batch (at most one per session). It
   *  starts at the history's size: nothing is told while it is out. */
  std::vector<Configuration> pending;

  /**
   * Per-session request latencies, served back over the stats frame.
   * The live histograms die with the study on spill, so each spill
   * folds their snapshot into the *_base totals (carried through the
   * spill metadata); session_stats reports base merged with current,
   * i.e. lifetime counts across every incarnation.
   */
  obs::Histogram suggest_hist;
  obs::Histogram observe_hist;
  obs::HistogramSnapshot suggest_base;
  obs::HistogramSnapshot observe_base;

  Clock::time_point last_touch = Clock::now();
};

struct SessionManager::Stripe {
  mutable Mutex mutex;
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions
      BACO_GUARDED_BY(mutex);
};

bool
valid_session_name(const std::string& name)
{
    if (name.empty() || name.size() > 128)
        return false;
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

SessionManager::SessionManager(SessionManagerOptions opt) : opt_(opt)
{
    if (opt_.stripes < 1)
        opt_.stripes = 1;
    stripes_ = std::make_unique<Stripe[]>(
        static_cast<std::size_t>(opt_.stripes));
    // Best-effort creation of the (single-level) checkpoint directory;
    // a still-unwritable path surfaces as an error on the first observe.
    if (!opt_.checkpoint_dir.empty())
        ::mkdir(opt_.checkpoint_dir.c_str(), 0777);
}

SessionManager::~SessionManager() = default;

SessionManager::Stripe&
SessionManager::stripe_for(const std::string& name) const
{
    std::size_t h = std::hash<std::string>{}(name);
    return stripes_[h % static_cast<std::size_t>(opt_.stripes)];
}

std::shared_ptr<SessionManager::Session>
SessionManager::find(const std::string& name) const
{
    Stripe& s = stripe_for(name);
    MutexLock lock(s.mutex);
    auto it = s.sessions.find(name);
    return it == s.sessions.end() ? nullptr : it->second;
}

std::shared_ptr<SessionManager::Session>
SessionManager::build_session(const std::string& name,
                              const std::string& benchmark,
                              const std::string& method,
                              const MethodSpec& spec, bool resume) const
{
    // Local Study construction: unknown names throw with the closest
    // registered ones, and an unusable checkpoint throws naming a seed
    // mismatch or a failed restore (handle() makes them error frames).
    return std::make_shared<Session>(
        name, StudyBuilder()
                  .benchmark(benchmark)
                  .method(method)
                  .budget(spec.budget)
                  .doe(spec.doe_samples)
                  .seed(spec.seed)
                  .checkpoint(checkpoint_path(name), resume)
                  .cache(opt_.cache)
                  .build());
}

void
SessionManager::tell_in_flight(const std::shared_ptr<Session>& session,
                               bool reloaded)
{
    Study& study = session->study;
    if (study.resume_pending().empty())
        return;
    try {
        study.advance(ExecutionPolicy::Serial(),
                      static_cast<int>(study.resume_pending().size()));
    } catch (...) {
        // The checkpoint on disk still holds the work in flight, so the
        // retried open or the next request tells it again.
        if (reloaded)
            park(session);
        else
            unpublish(session);
        throw;
    }
}

std::shared_ptr<SessionManager::Session>
SessionManager::find_or_reload(const std::string& name)
{
    for (;;) {
        if (std::shared_ptr<Session> session = find(name))
            return session;

        SpilledSession meta;
        {
            MutexLock lock(spill_mutex_);
            auto it = spilled_.find(name);
            if (it == spilled_.end())
                return nullptr;
            meta = it->second;
        }

        // Rebuild outside all locks (registry + restore can be slow),
        // through the path open_session(resume) takes, so a reloaded
        // session continues bit-for-bit. A missing checkpoint file means
        // the session was spilled before it ever observed anything: the
        // fresh study IS the correct state.
        obs::ScopedTimer reload_timer(ServeMetrics::get().reload,
                                      "serve.reload", "serve");
        std::shared_ptr<Session> session = build_session(
            name, meta.benchmark, meta.method, meta.spec, /*resume=*/true);
        std::unique_lock<std::mutex> session_lock(session->mutex);
        Stripe& stripe = stripe_for(name);
        {
            MutexLock lock(stripe.mutex);
            auto it = stripe.sessions.find(name);
            if (it != stripe.sessions.end())
                return it->second;  // a concurrent reload won the race
            MutexLock spill_lock(spill_mutex_);
            auto sit = spilled_.find(name);
            if (sit == spilled_.end())
                return nullptr;  // closed while we were rebuilding
            if (sit->second.generation != meta.generation)
                continue;  // reloaded AND re-spilled since we read the
                           // checkpoint: ours is stale — rebuild from
                           // the newer one
            spilled_.erase(sit);
            ++reload_count_;
            session->suggest_base = meta.suggest_hist;
            session->observe_base = meta.observe_hist;
            stripe.sessions.emplace(name, session);
        }
        tell_in_flight(session, /*reloaded=*/true);
        obs::log_info("serve", "session_reloaded",
                      obs::LogFields().str("session", name).num(
                          "evals", session->study.tuner().history().size()));
        session_lock.unlock();
        enforce_live_cap();
        return session;
    }
}

std::shared_ptr<SessionManager::Session>
SessionManager::acquire(const std::string& name,
                        std::unique_lock<std::mutex>& lock_out)
{
    for (;;) {
        std::shared_ptr<Session> session = find_or_reload(name);
        if (!session)
            return nullptr;
        std::unique_lock<std::mutex> lock(session->mutex);
        // A concurrent cap enforcement may have spilled this session
        // between the lookup and the lock. Its checkpoint then captures
        // exactly this moment's state, so retrying the lookup reloads
        // an identical study — mutating the orphaned object instead
        // would record the request on state the registry no longer has.
        if (find(name) == session) {
            lock_out = std::move(lock);
            return session;
        }
    }
}

void
SessionManager::unpublish(const std::shared_ptr<Session>& session)
{
    Stripe& stripe = stripe_for(session->name);
    MutexLock lock(stripe.mutex);
    auto it = stripe.sessions.find(session->name);
    if (it != stripe.sessions.end() && it->second == session)
        stripe.sessions.erase(it);
}

bool
SessionManager::park(const std::shared_ptr<Session>& session)
{
    Stripe& stripe = stripe_for(session->name);
    MutexLock lock(stripe.mutex);
    auto it = stripe.sessions.find(session->name);
    if (it == stripe.sessions.end() || it->second != session)
        return false;  // closed meanwhile
    Study& study = session->study;
    const TuningHistory& history = study.tuner().history();
    SpilledSession meta;
    meta.benchmark = study.benchmark()->name;
    meta.method = study.method();
    meta.spec = study.spec();
    meta.evals = history.size();
    meta.best = history.best_value;
    meta.spilled_at = Clock::now();
    // Fold this incarnation's request latencies into the lifetime
    // totals before the histograms die with the session object.
    meta.suggest_hist = session->suggest_base;
    meta.suggest_hist.merge(session->suggest_hist.snapshot());
    meta.observe_hist = session->observe_base;
    meta.observe_hist.merge(session->observe_hist.snapshot());
    {
        MutexLock spill_lock(spill_mutex_);
        meta.generation = ++spill_generation_;
        spilled_.emplace(session->name, std::move(meta));
        ++spill_count_;
    }
    stripe.sessions.erase(it);
    obs::log_info("serve", "session_spilled",
                  obs::LogFields().str("session", session->name).num(
                      "evals", history.size()));
    return true;
}

bool
SessionManager::spill_one(const std::string& name)
{
    std::shared_ptr<Session> session = find(name);
    if (!session)
        return false;
    std::unique_lock<std::mutex> guard(session->mutex, std::try_to_lock);
    // Mid-request or mid-batch sessions are not spillable (exactly the
    // evict_idle rule), nor is one closed since the lookup; and a spill
    // without a durable checkpoint would silently discard history.
    if (!guard.owns_lock() || !session->pending.empty() ||
        find(name) != session)
        return false;
    obs::ScopedTimer spill_timer(ServeMetrics::get().spill, "serve.spill",
                                 "serve");
    // The session mutex already excludes concurrent mutation, so the
    // checkpoint I/O runs without the stripe lock — the stripe's other
    // sessions keep serving during the disk write. (Holding a session
    // mutex while taking a stripe mutex is the established order:
    // acquire() does the same; stripe holders only ever try_lock
    // sessions, so the inverse never blocks.)
    return session->study.save() && park(session);
}

void
SessionManager::enforce_live_cap()
{
    if (opt_.max_live_sessions == 0 || opt_.checkpoint_dir.empty())
        return;
    std::size_t live = size();
    if (live <= opt_.max_live_sessions)
        return;

    // Snapshot (last_touch, name) of every spillable session, oldest
    // first, then spill until the cap holds. Best-effort: candidates
    // that became busy since the snapshot are skipped — the next open
    // or reload enforces again.
    std::vector<std::pair<Clock::time_point, std::string>> candidates;
    for (int s = 0; s < opt_.stripes; ++s) {
        Stripe& stripe = stripes_[s];
        MutexLock lock(stripe.mutex);
        for (auto& [name, session] : stripe.sessions) {
            std::unique_lock<std::mutex> guard(session->mutex,
                                               std::try_to_lock);
            if (guard.owns_lock() && session->pending.empty())
                candidates.emplace_back(session->last_touch, name);
        }
    }
    std::sort(candidates.begin(), candidates.end());
    std::size_t excess = live - opt_.max_live_sessions;
    for (const auto& [touch, name] : candidates) {
        if (excess == 0)
            break;
        if (spill_one(name))
            --excess;
    }
}

std::string
SessionManager::checkpoint_path(const std::string& name) const
{
    if (opt_.checkpoint_dir.empty())
        return {};
    return opt_.checkpoint_dir + "/" + name + ".ckpt.jsonl";
}

Message
SessionManager::handle(const Message& request)
{
    try {
        switch (request.type) {
          case MsgType::kOpenSession: return open_session(request);
          case MsgType::kSuggest: return suggest(request);
          case MsgType::kObserve: return observe(request);
          case MsgType::kCheckpoint: return checkpoint(request);
          case MsgType::kClose: return close_session(request);
          case MsgType::kStats: return session_stats(request);
          default:
            return make_error(request.id,
                              std::string("unsupported request type ") +
                                  msg_type_name(request.type));
        }
    } catch (const std::exception& e) {
        return make_error(request.id, e.what());
    }
}

Message
SessionManager::open_session(const Message& req)
{
    if (!valid_session_name(req.session))
        return make_error(req.id, "invalid session name");
    std::shared_ptr<Session> session =
        build_session(req.session, req.benchmark, req.method,
                      MethodSpec{req.budget, req.doe, req.seed}, req.resume);

    // Locked before it is published, so no other request reaches the
    // session before its in-flight evaluations are told. (Session before
    // stripe is the established lock order; see spill_one.)
    std::unique_lock<std::mutex> session_lock(session->mutex);
    Stripe& stripe = stripe_for(req.session);
    {
        MutexLock lock(stripe.mutex);
        if (stripe.sessions.count(req.session))
            return make_error(req.id,
                              "session already open: " + req.session);
        {
            // A spilled session is still open — only disk-resident.
            MutexLock spill_lock(spill_mutex_);
            if (spilled_.count(req.session))
                return make_error(req.id, "session already open "
                                          "(spilled to disk): " +
                                              req.session);
        }
        stripe.sessions.emplace(req.session, session);
    }
    // A fresh session owns its name's checkpoint from here on. A file an
    // earlier session of that name left must not become its resume point
    // before its first write: a run that throws drops the live study, and
    // the reload reads whatever file is there.
    if (!req.resume && !opt_.checkpoint_dir.empty())
        std::remove(checkpoint_path(req.session).c_str());
    tell_in_flight(session, /*reloaded=*/false);

    Study& study = session->study;
    Message reply;
    reply.type = MsgType::kOpened;
    reply.id = req.id;
    reply.session = req.session;
    reply.evals = study.tuner().history().size();
    reply.budget = study.spec().budget;
    reply.resumed = study.resumed();
    session_lock.unlock();
    enforce_live_cap();
    return reply;
}

Message
SessionManager::suggest(const Message& req)
{
    std::unique_lock<std::mutex> lock;
    std::shared_ptr<Session> session = acquire(req.session, lock);
    if (!session)
        return make_error(req.id, "no such session: " + req.session);
    session->last_touch = Clock::now();

    obs::ScopedTimer session_timer(session->suggest_hist);
    obs::ScopedTimer serve_timer(ServeMetrics::get().suggest,
                                 "serve.suggest", "serve");
    if (session->pending.empty())
        session->pending = session->study.ask(std::max(1, req.n));
    // else: idempotent retry — re-send the outstanding batch.

    Message reply;
    reply.type = MsgType::kConfigs;
    reply.id = req.id;
    reply.index = session->study.tuner().history().size();
    reply.configs = session->pending;
    return reply;
}

Message
SessionManager::observe(const Message& req)
{
    std::unique_lock<std::mutex> lock;
    std::shared_ptr<Session> session = acquire(req.session, lock);
    if (!session)
        return make_error(req.id, "no such session: " + req.session);
    session->last_touch = Clock::now();

    obs::ScopedTimer session_timer(session->observe_hist);
    obs::ScopedTimer serve_timer(ServeMetrics::get().observe,
                                 "serve.observe", "serve");
    if (session->pending.empty())
        return make_error(req.id, "observe with no batch outstanding");
    if (req.results.size() != session->pending.size())
        return make_error(req.id, "observe size does not match batch");
    std::vector<EvalResult> results;
    for (std::size_t i = 0; i < req.results.size(); ++i) {
        if (!configs_equal(req.results[i].config, session->pending[i]))
            return make_error(req.id,
                              "observe configs do not match the "
                              "outstanding batch (order matters)");
        // A feasible value becomes a surrogate training target; an
        // infeasible one is never modelled, so it may carry anything.
        if (req.results[i].feasible && !std::isfinite(req.results[i].value))
            return make_error(req.id,
                              "observe result " + std::to_string(i) +
                                  " is feasible with a non-finite value");
        results.push_back(
            EvalResult{req.results[i].value, req.results[i].feasible});
    }
    if (!std::isfinite(req.eval_seconds) || req.eval_seconds < 0.0)
        return make_error(req.id, "observe eval_seconds must be finite "
                                  "and non-negative");

    const TuningHistory& history = session->study.tuner().history();
    const std::size_t before = history.size();
    try {
        // The frame reports one black-box time for the whole batch.
        session->study.tell(session->pending, results, req.eval_seconds);
    } catch (...) {
        // A failed checkpoint write throws after the tell: the batch is
        // observed, so a retry must not observe it twice. handle() turns
        // the error into the reply frame.
        if (history.size() != before)
            session->pending.clear();
        throw;
    }
    session->pending.clear();
    return ok_reply(req.id, history.size(), history.best_value);
}

Message
SessionManager::checkpoint(const Message& req)
{
    std::unique_lock<std::mutex> lock;
    std::shared_ptr<Session> session = acquire(req.session, lock);
    if (!session)
        return make_error(req.id, "no such session: " + req.session);
    session->last_touch = Clock::now();

    if (opt_.checkpoint_dir.empty())
        return make_error(req.id, "checkpointing disabled (no directory)");
    if (!session->pending.empty()) {
        // A checkpoint taken mid-batch would capture the sampler stream
        // after the pending suggest() without its observations — resuming
        // from it could not reproduce the uninterrupted run.
        return make_error(req.id, "cannot checkpoint with a batch in "
                                  "flight; observe it first");
    }
    std::string ckpt = checkpoint_path(session->name);
    if (!session->study.save())
        return make_error(req.id, "checkpoint write failed: " + ckpt);

    const TuningHistory& history = session->study.tuner().history();
    Message reply = ok_reply(req.id, history.size(), history.best_value);
    reply.text = ckpt;
    return reply;
}

Message
SessionManager::close_session(const Message& req)
{
    Stripe& stripe = stripe_for(req.session);
    for (;;) {
        std::shared_ptr<Session> session;
        {
            // Spills and reloads move a name between the two maps with
            // the stripe mutex held, so holding it here gives an atomic
            // view of both.
            MutexLock lock(stripe.mutex);
            auto it = stripe.sessions.find(req.session);
            if (it != stripe.sessions.end()) {
                session = it->second;
            } else {
                MutexLock spill_lock(spill_mutex_);
                auto sit = spilled_.find(req.session);
                if (sit == spilled_.end())
                    return make_error(req.id,
                                      "no such session: " + req.session);
                // A spilled session's checkpoint is already its durable
                // resume point, and its metadata holds the progress.
                Message reply =
                    ok_reply(req.id, sit->second.evals, sit->second.best);
                spilled_.erase(sit);
                return reply;
            }
        }
        // Locked before it is unpublished (session → stripe, as spill_one
        // does): a request or run holding the session finishes first, and
        // the name stays taken until the final save is written, so no
        // re-opened session can share the checkpoint file with this one.
        std::lock_guard<std::mutex> guard(session->mutex);
        if (find(req.session) != session)
            continue;  // spilled or closed while we waited
        const bool saved = opt_.checkpoint_dir.empty() ||
                           !session->pending.empty() ||
                           session->study.save();
        unpublish(session);
        if (!saved) {
            // The session is closed either way; surface the lost
            // durability.
            return make_error(req.id,
                              "session closed but checkpoint write failed: " +
                                  checkpoint_path(req.session));
        }
        const TuningHistory& history = session->study.tuner().history();
        return ok_reply(req.id, history.size(), history.best_value);
    }
}

Message
SessionManager::session_stats(const Message& req)
{
    std::unique_lock<std::mutex> lock;
    std::shared_ptr<Session> session = acquire(req.session, lock);
    if (!session)
        return make_error(req.id, "no such session: " + req.session);
    // Deliberately not touching last_touch: polling stats must not keep
    // an otherwise idle session from being evicted or spilled.

    Message reply;
    reply.type = MsgType::kStatsReport;
    reply.id = req.id;
    reply.session = session->name;
    reply.stats_version = kStatsVersion;
    const TuningHistory& history = session->study.tuner().history();
    reply.stats.push_back(
        stat_counter("session.evals", static_cast<double>(history.size())));
    reply.stats.push_back(stat_gauge("session.best", history.best_value));
    reply.stats.push_back(stat_gauge(
        "session.budget",
        static_cast<double>(session->study.spec().budget)));
    reply.stats.push_back(stat_gauge(
        "session.pending", static_cast<double>(session->pending.size())));
    // Lifetime latencies: spill folds the live histograms into the
    // *_base totals, so base + current spans every incarnation.
    obs::HistogramSnapshot suggest_all = session->suggest_base;
    suggest_all.merge(session->suggest_hist.snapshot());
    obs::HistogramSnapshot observe_all = session->observe_base;
    observe_all.merge(session->observe_hist.snapshot());
    reply.stats.push_back(
        stat_histogram("session.suggest_seconds", suggest_all));
    reply.stats.push_back(
        stat_histogram("session.observe_seconds", observe_all));
    return reply;
}

std::optional<SessionInfo>
SessionManager::info(const std::string& name)
{
    std::unique_lock<std::mutex> lock;
    std::shared_ptr<Session> session = acquire(name, lock);
    if (!session)
        return std::nullopt;
    Study& study = session->study;
    SessionInfo out;
    out.name = session->name;
    out.benchmark = study.benchmark()->name;
    out.cache_namespace = study.cache_namespace();
    out.seed = study.spec().seed;
    out.evals = study.tuner().history().size();
    out.budget = study.spec().budget;
    out.best = study.tuner().history().best_value;
    return out;
}

bool
SessionManager::with_study(const std::string& name,
                           const std::function<void(Study&)>& fn)
{
    // Declared before the lock: once park() drops the registry's
    // reference, this one keeps the session's mutex alive until the lock
    // releases it.
    std::shared_ptr<Session> session;
    std::unique_lock<std::mutex> lock;
    session = acquire(name, lock);
    if (!session || !session->pending.empty())
        return false;
    session->last_touch = Clock::now();
    try {
        fn(session->study);
    } catch (...) {
        // A drive that throws drains its in-flight work untold, and its
        // last checkpoint lists that work as pending: drop the live study
        // there, so the next request reloads the session and tells it.
        if (!opt_.checkpoint_dir.empty())
            park(session);
        throw;
    }
    session->last_touch = Clock::now();
    return true;
}

std::size_t
SessionManager::size() const
{
    std::size_t n = 0;
    for (int s = 0; s < opt_.stripes; ++s) {
        Stripe& stripe = stripes_[s];
        MutexLock lock(stripe.mutex);
        n += stripe.sessions.size();
    }
    return n;
}

std::size_t
SessionManager::spilled_sessions() const
{
    MutexLock lock(spill_mutex_);
    return spilled_.size();
}

std::uint64_t
SessionManager::spill_count() const
{
    MutexLock lock(spill_mutex_);
    return spill_count_;
}

std::uint64_t
SessionManager::reload_count() const
{
    MutexLock lock(spill_mutex_);
    return reload_count_;
}

std::size_t
SessionManager::evict_idle()
{
    if (opt_.idle_timeout_seconds <= 0.0)
        return 0;
    auto now = Clock::now();
    std::size_t evicted = 0;
    {
        // Spilled sessions are idle by construction (no live tuner);
        // once past the timeout they are closed outright — checkpoint
        // stays on disk, clients re-open with resume=true.
        MutexLock lock(spill_mutex_);
        for (auto it = spilled_.begin(); it != spilled_.end();) {
            if (std::chrono::duration<double>(now - it->second.spilled_at)
                    .count() > opt_.idle_timeout_seconds) {
                it = spilled_.erase(it);
                ++evicted;
            } else {
                ++it;
            }
        }
    }
    for (int s = 0; s < opt_.stripes; ++s) {
        Stripe& stripe = stripes_[s];
        MutexLock lock(stripe.mutex);
        for (auto it = stripe.sessions.begin();
             it != stripe.sessions.end();) {
            // last_touch is written under the session mutex; a session
            // whose mutex is held is mid-request — by definition not
            // idle — so skipping on try_lock failure is both the race
            // fix and the right policy. A session with a suggested-but-
            // unobserved batch is mid-exchange (the client is off
            // evaluating), not idle, no matter how stale last_touch is.
            std::shared_ptr<Session> session = it->second;
            std::unique_lock<std::mutex> guard(session->mutex,
                                               std::try_to_lock);
            if (guard.owns_lock() && session->pending.empty() &&
                std::chrono::duration<double>(now - session->last_touch)
                        .count() > opt_.idle_timeout_seconds) {
                it = stripe.sessions.erase(it);
                ++evicted;
            } else {
                ++it;
            }
        }
    }
    return evicted;
}

void
SessionManager::checkpoint_all()
{
    if (opt_.checkpoint_dir.empty())
        return;
    for (int s = 0; s < opt_.stripes; ++s) {
        std::vector<std::shared_ptr<Session>> sessions;
        {
            Stripe& stripe = stripes_[s];
            MutexLock lock(stripe.mutex);
            for (auto& [name, session] : stripe.sessions)
                sessions.push_back(session);
        }
        for (auto& session : sessions) {
            // Only a session still published may write its file: a closed
            // one's name may belong to a re-opened session by now.
            std::lock_guard<std::mutex> lock(session->mutex);
            if (session->pending.empty() && find(session->name) == session)
                session->study.save();
        }
    }
}

}  // namespace baco::serve
