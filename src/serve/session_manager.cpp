#include "serve/session_manager.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include <sys/stat.h>

#include "api/method_registry.hpp"
#include "exec/checkpoint.hpp"
#include "exec/drive.hpp"
#include "exec/eval_cache.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "serve/stats_util.hpp"
#include "suite/registry.hpp"

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

}  // namespace

struct SessionManager::Session {
  // Deliberately a raw std::mutex, not baco::Mutex: acquire() hands the
  // held lock to its caller through a std::unique_lock out-parameter — a
  // dynamic ownership transfer the static analysis cannot express. The
  // session-level discipline stays TSAN's job; everything registry-level
  // (stripes, spill state) is statically checked.
  std::mutex mutex;
  std::string name;
  const Benchmark* benchmark = nullptr;
  std::shared_ptr<SearchSpace> space;
  std::unique_ptr<AskTellTuner> tuner;
  std::string cache_namespace;
  std::string method;  ///< canonical registry name (for spill/reload)
  int budget = 0;
  int doe = 0;         ///< DoE samples the tuner was built with

  /** The suggested-but-unobserved batch (at most one per session). */
  std::vector<Configuration> pending;
  std::uint64_t pending_first = 0;

  /**
   * Per-session request latencies, served back over the stats frame.
   * The live histograms die with the tuner on spill, so each spill
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

        // Rebuild the tuner outside all locks (registry + restore can
        // be slow). This is the same resume path open_session(resume)
        // takes, so a reloaded session continues bit-for-bit.
        obs::ScopedTimer reload_timer(ServeMetrics::get().reload,
                                      "serve.reload", "serve");
        const Benchmark& bench = suite::find_benchmark(meta.benchmark);
        auto session = std::make_shared<Session>();
        session->name = name;
        session->benchmark = &bench;
        session->space = bench.make_space(SpaceVariant{});
        session->budget = meta.budget;
        session->doe = meta.doe;
        session->method = meta.method;
        MethodSpec spec;
        spec.budget = meta.budget;
        spec.doe_samples = meta.doe;
        spec.seed = meta.seed;
        session->tuner = MethodRegistry::global().make(meta.method,
                                                       *session->space,
                                                       spec);
        session->cache_namespace = cache_namespace(bench, *session->space);
        if (std::optional<CheckpointData> data =
                load_checkpoint(checkpoint_path(name))) {
            if (data->seed != session->tuner->run_seed())
                throw std::runtime_error(
                    "spilled checkpoint seed mismatch for session " +
                    name);
            if (!session->tuner->restore(data->history,
                                         data->sampler_state)) {
                throw std::runtime_error(
                    "spilled checkpoint could not be restored for "
                    "session " + name);
            }
        }
        // A missing checkpoint file means the session was spilled
        // before it ever observed anything: the fresh tuner IS the
        // correct state.

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
        obs::log_info("serve", "session_reloaded",
                      obs::LogFields().str("session", name).num(
                          "evals", session->tuner->history().size()));
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
        // an identical tuner — mutating the orphaned object instead
        // would record the request on state the registry no longer has.
        if (find(name) == session) {
            lock_out = std::move(lock);
            return session;
        }
    }
}

bool
SessionManager::spill_one(const std::string& name)
{
    std::shared_ptr<Session> session = find(name);
    if (!session)
        return false;
    std::unique_lock<std::mutex> guard(session->mutex, std::try_to_lock);
    // Mid-request or mid-batch sessions are not spillable (exactly the
    // evict_idle rule); and a spill without a durable checkpoint would
    // silently discard history.
    if (!guard.owns_lock() || !session->pending.empty())
        return false;
    obs::ScopedTimer spill_timer(ServeMetrics::get().spill, "serve.spill",
                                 "serve");
    // The session mutex already excludes concurrent mutation, so the
    // checkpoint I/O runs without the stripe lock — the stripe's other
    // sessions keep serving during the disk write. (Holding a session
    // mutex while taking a stripe mutex is the established order:
    // acquire() does the same; stripe holders only ever try_lock
    // sessions, so the inverse never blocks.)
    if (!save_checkpoint(checkpoint_path(name), *session->tuner))
        return false;
    Stripe& stripe = stripe_for(name);
    MutexLock lock(stripe.mutex);
    auto it = stripe.sessions.find(name);
    if (it == stripe.sessions.end() || it->second != session)
        return false;  // closed while we were checkpointing
    {
        MutexLock spill_lock(spill_mutex_);
        SpilledSession meta;
        meta.benchmark = session->benchmark->name;
        meta.method = session->method;
        meta.budget = session->budget;
        meta.doe = session->doe;
        meta.seed = session->tuner->run_seed();
        meta.generation = ++spill_generation_;
        meta.spilled_at = Clock::now();
        // Fold this incarnation's request latencies into the lifetime
        // totals before the histograms die with the session object.
        meta.suggest_hist = session->suggest_base;
        meta.suggest_hist.merge(session->suggest_hist.snapshot());
        meta.observe_hist = session->observe_base;
        meta.observe_hist.merge(session->observe_hist.snapshot());
        spilled_.emplace(name, std::move(meta));
        ++spill_count_;
    }
    stripe.sessions.erase(it);
    obs::log_info("serve", "session_spilled",
                  obs::LogFields().str("session", name).num(
                      "evals", session->tuner->history().size()));
    return true;
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
SessionManager::cache_namespace(const Benchmark& bench,
                                const SearchSpace& space) const
{
    // The fingerprint hashes every value of every parameter; only a
    // cache reads it.
    return opt_.cache ? EvalCache::namespace_key(bench.name, space)
                      : std::string{};
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
    const Benchmark& bench = suite::find_benchmark(req.benchmark);

    auto session = std::make_shared<Session>();
    session->name = req.session;
    session->benchmark = &bench;
    session->space = bench.make_space(SpaceVariant{});
    session->budget = req.budget > 0 ? req.budget : bench.full_budget;
    session->doe = req.doe > 0 ? req.doe : bench.doe_samples;
    // Remote construction goes through the same MethodRegistry as local
    // Study construction, so the two can never drift; unknown names
    // throw with the closest registered methods (caught into an error
    // frame by handle()).
    MethodSpec spec;
    spec.budget = session->budget;
    spec.doe_samples = session->doe;
    spec.seed = req.seed;
    session->tuner = MethodRegistry::global().make(
        req.method, *session->space, spec);
    // The canonical name, so a spilled session reloads the exact same
    // method even if the client opened it through an alias.
    session->method = *MethodRegistry::global().resolve(req.method);
    session->cache_namespace = cache_namespace(bench, *session->space);

    bool resumed = false;
    std::vector<PendingEval> in_flight;
    std::string ckpt = checkpoint_path(req.session);
    if (req.resume && !ckpt.empty()) {
        // A missing checkpoint means a fresh session; a present-but-
        // unusable one is an error rather than a silent cold start.
        if (std::optional<CheckpointData> data = load_checkpoint(ckpt)) {
            if (data->seed != session->tuner->run_seed())
                return make_error(req.id,
                                  "checkpoint seed does not match the "
                                  "requested session seed");
            if (!session->tuner->restore(data->history,
                                         data->sampler_state)) {
                return make_error(req.id,
                                  "checkpoint could not be restored");
            }
            in_flight = std::move(data->pending);
            resumed = true;
        }
    }

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
    if (!in_flight.empty()) {
        // The work a killed server-side async run left in flight: told
        // once, under its original indices, as Study::run does first.
        DriveOptions opt;
        opt.max_evals = static_cast<int>(in_flight.size());
        opt.cache = opt_.cache;
        opt.cache_namespace = session->cache_namespace;
        opt.checkpoint_path = ckpt;
        opt.resume_pending = std::move(in_flight);
        try {
            ThreadPoolExecutor exec(bench.evaluate,
                                    session->tuner->run_seed());
            drive(*session->tuner, exec, std::move(opt));
        } catch (...) {
            // Not opened: the checkpoint on disk still holds the work in
            // flight, so a retried open tells it again.
            MutexLock lock(stripe.mutex);
            auto it = stripe.sessions.find(req.session);
            if (it != stripe.sessions.end() && it->second == session)
                stripe.sessions.erase(it);
            throw;
        }
    }

    Message reply;
    reply.type = MsgType::kOpened;
    reply.id = req.id;
    reply.session = req.session;
    reply.evals = session->tuner->history().size();
    reply.budget = session->budget;
    reply.resumed = resumed;
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
    if (session->pending.empty()) {
        int n = std::max(1, req.n);
        session->pending_first = session->tuner->history().size();
        session->pending = session->tuner->suggest(n);
    }
    // else: idempotent retry — re-send the outstanding batch.

    Message reply;
    reply.type = MsgType::kConfigs;
    reply.id = req.id;
    reply.index = session->pending_first;
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
    }
    if (!std::isfinite(req.eval_seconds) || req.eval_seconds < 0.0)
        return make_error(req.id, "observe eval_seconds must be finite "
                                  "and non-negative");

    std::vector<AsyncEvent> events(req.results.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        events[i].index = session->pending_first + i;
        events[i].config = session->pending[i];
        events[i].result = EvalResult{req.results[i].value,
                                      req.results[i].feasible};
    }
    // The frame reports one black-box time for the whole batch.
    events.front().eval_seconds = req.eval_seconds;
    DriveOptions opt;
    opt.cache = opt_.cache;
    opt.cache_namespace = session->cache_namespace;
    opt.checkpoint_path = checkpoint_path(session->name);
    const std::size_t before = session->tuner->history().size();
    try {
        tell_results(*session->tuner, std::move(events), opt, {});
    } catch (...) {
        // A failed checkpoint write throws after the tell: the batch is
        // observed, so a retry must not observe it twice. handle() turns
        // the error into the reply frame.
        if (session->tuner->history().size() != before)
            session->pending.clear();
        throw;
    }
    session->pending.clear();

    Message reply;
    reply.type = MsgType::kOk;
    reply.id = req.id;
    reply.evals = session->tuner->history().size();
    reply.best = session->tuner->history().best_value;
    return reply;
}

Message
SessionManager::checkpoint(const Message& req)
{
    std::unique_lock<std::mutex> lock;
    std::shared_ptr<Session> session = acquire(req.session, lock);
    if (!session)
        return make_error(req.id, "no such session: " + req.session);
    session->last_touch = Clock::now();

    std::string ckpt = checkpoint_path(session->name);
    if (ckpt.empty())
        return make_error(req.id, "checkpointing disabled (no directory)");
    if (!session->pending.empty()) {
        // A checkpoint taken mid-batch would capture the sampler stream
        // after the pending suggest() without its observations — resuming
        // from it could not reproduce the uninterrupted run.
        return make_error(req.id, "cannot checkpoint with a batch in "
                                  "flight; observe it first");
    }
    if (!save_checkpoint(ckpt, *session->tuner))
        return make_error(req.id, "checkpoint write failed: " + ckpt);

    Message reply;
    reply.type = MsgType::kOk;
    reply.id = req.id;
    reply.evals = session->tuner->history().size();
    reply.best = session->tuner->history().best_value;
    reply.text = ckpt;
    return reply;
}

Message
SessionManager::close_session(const Message& req)
{
    Stripe& stripe = stripe_for(req.session);
    std::shared_ptr<Session> session;
    {
        // spill_one moves a name from the stripe map to the spill map
        // with the stripe mutex held, so holding it here gives an
        // atomic view of both.
        MutexLock lock(stripe.mutex);
        auto it = stripe.sessions.find(req.session);
        if (it == stripe.sessions.end()) {
            MutexLock spill_lock(spill_mutex_);
            auto sit = spilled_.find(req.session);
            if (sit == spilled_.end())
                return make_error(req.id,
                                  "no such session: " + req.session);
            // Closing a spilled session: its per-observe checkpoint is
            // already the durable resume point — just drop the metadata
            // and report the checkpointed progress.
            spilled_.erase(sit);
            Message reply;
            reply.type = MsgType::kOk;
            reply.id = req.id;
            if (std::optional<CheckpointData> data =
                    load_checkpoint(checkpoint_path(req.session))) {
                reply.evals = data->history.size();
                reply.best = data->history.best_value;
            }
            return reply;
        }
        session = it->second;
        stripe.sessions.erase(it);
    }
    std::lock_guard<std::mutex> lock(session->mutex);
    std::string ckpt = checkpoint_path(session->name);
    if (!ckpt.empty() && session->pending.empty() &&
        !save_checkpoint(ckpt, *session->tuner)) {
        // The session is closed either way; surface the lost durability.
        return make_error(req.id,
                          "session closed but checkpoint write failed: " +
                              ckpt);
    }

    Message reply;
    reply.type = MsgType::kOk;
    reply.id = req.id;
    reply.evals = session->tuner->history().size();
    reply.best = session->tuner->history().best_value;
    return reply;
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
    reply.stats.push_back(stat_counter(
        "session.evals",
        static_cast<double>(session->tuner->history().size())));
    reply.stats.push_back(
        stat_gauge("session.best", session->tuner->history().best_value));
    reply.stats.push_back(stat_gauge(
        "session.budget", static_cast<double>(session->budget)));
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
    SessionInfo out;
    out.name = session->name;
    out.benchmark = session->benchmark->name;
    out.cache_namespace = session->cache_namespace;
    out.seed = session->tuner->run_seed();
    out.evals = session->tuner->history().size();
    out.budget = session->budget;
    out.best = session->tuner->history().best_value;
    return out;
}

bool
SessionManager::with_tuner(
    const std::string& name,
    const std::function<void(AskTellTuner&, const SessionInfo&,
                             const std::string&)>& fn)
{
    std::unique_lock<std::mutex> lock;
    std::shared_ptr<Session> session = acquire(name, lock);
    if (!session)
        return false;
    if (!session->pending.empty())
        return false;
    session->last_touch = Clock::now();
    SessionInfo info;
    info.name = session->name;
    info.benchmark = session->benchmark->name;
    info.cache_namespace = session->cache_namespace;
    info.seed = session->tuner->run_seed();
    info.evals = session->tuner->history().size();
    info.budget = session->budget;
    info.best = session->tuner->history().best_value;
    fn(*session->tuner, info, checkpoint_path(name));
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
            std::lock_guard<std::mutex> lock(session->mutex);
            if (session->pending.empty())
                save_checkpoint(checkpoint_path(session->name),
                                *session->tuner);
        }
    }
}

}  // namespace baco::serve
