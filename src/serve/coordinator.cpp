#include "serve/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"

namespace baco::serve {

namespace {
using Clock = std::chrono::steady_clock;

/** Give up on a task after this many worker error frames. */
constexpr int kMaxTaskErrors = 3;

/** How long shutdown() waits for the fleet's goodbye frames. */
constexpr int kGoodbyeWaitMs = 1000;

/** Fleet-dispatch instrumentation handles, registered once per process. */
struct CoordMetrics {
  obs::Counter& dispatched = counter("coord.dispatched_total");
  obs::Counter& results = counter("coord.results_total");
  obs::Counter& worker_errors = counter("coord.worker_errors_total");
  obs::Counter& workers_lost = counter("coord.workers_lost_total");
  obs::Counter& redispatched = counter("coord.straggler_redispatch_total");
  obs::Histogram& roundtrip = hist("coord.roundtrip_seconds");
  obs::Gauge& inflight_peak = gauge("coord.inflight_peak");
  // Run-multiplexing surface (admission control + scheduler).
  obs::Counter& runs_admitted = counter("coord.runs.admitted_total");
  obs::Counter& runs_rejected = counter("coord.runs.rejected_total");
  obs::Counter& runs_completed = counter("coord.runs.completed_total");
  obs::Gauge& runs_active = gauge("coord.runs.active");
  obs::Histogram& run_seconds = hist("coord.run.seconds");
  // Fleet-health surface.
  obs::Counter& heartbeats = counter("coord.worker.heartbeats_total");
  obs::Gauge& workers_alive = gauge("coord.worker.alive");

  static CoordMetrics& get()
  {
      static CoordMetrics m;
      return m;
  }

 private:
  static obs::Counter& counter(const char* name)
  {
      return obs::MetricsRegistry::global().counter(name);
  }
  static obs::Histogram& hist(const char* name)
  {
      return obs::MetricsRegistry::global().histogram(name);
  }
  static obs::Gauge& gauge(const char* name)
  {
      return obs::MetricsRegistry::global().gauge(name);
  }
};

void
drop_worker(std::vector<std::size_t>& live_on, std::size_t w)
{
    live_on.erase(std::remove(live_on.begin(), live_on.end(), w),
                  live_on.end());
}

}  // namespace

/**
 * One registered worker. The transport itself is internally synchronized
 * (send is thread-safe; the reader thread is its single receiver); the
 * dispatch accounting and health fields are guarded by Coordinator::mu_.
 */
struct Coordinator::Worker {
  std::unique_ptr<Transport> transport;
  std::thread reader;
  int capacity = 1;
  int inflight = 0;
  bool alive = true;
  bool goodbye = false;  ///< clean-exit frame received (shutdown wait)
  /**
   * Dispatch ids awaiting a reply from this worker. Persists across
   * batches: a run can complete with a straggler's duplicated dispatch
   * still in flight, and its late reply must be recognized as benign —
   * only a reply whose id was never dispatched marks the worker dead.
   */
  std::unordered_set<std::uint64_t> outstanding;
  std::uint64_t completed = 0;   ///< result frames received
  std::uint64_t heartbeats = 0;  ///< heartbeat frames received
  double ewma_latency_s = 0.0;   ///< smoothed result round-trip
  Clock::time_point last_seen = Clock::now();  ///< last frame received
  int heartbeat_ms = 0;  ///< advertised interval (0 = none)
};

/** One in-flight or queued evaluation of a run, keyed by wire index. */
struct Coordinator::RunState {
  /** Bookkeeping for one evaluation task. */
  struct TaskRec {
    Configuration config;
    bool queued = true;  ///< in the ready queue, not on a worker
    int errors = 0;
    std::vector<std::size_t> live_on;  ///< workers with a dispatch out
    Clock::time_point last_sent;
  };

  std::uint64_t id = 0;
  std::string benchmark;
  std::uint64_t run_seed = 0;
  int max_inflight = 0;  ///< per-run live-task cap; 0 = fleet-bound only
  int inflight = 0;      ///< live tasks (duplicates count once)
  std::uint64_t landed_total = 0;
  std::map<std::uint64_t, TaskRec> tasks;
  std::deque<std::uint64_t> ready;  ///< task keys awaiting a worker slot
  std::deque<LandedEval> landed;    ///< completed, not yet collected
  /** Signaled on every landing, kill and fleet change (waits on mu_). */
  CondVar cv;
  Clock::time_point started;
};

Coordinator::Coordinator(CoordinatorOptions opt) : opt_(opt)
{
    if (opt_.max_inflight_per_worker < 1)
        opt_.max_inflight_per_worker = 1;
    if (opt_.poll_ms < 1)
        opt_.poll_ms = 1;
    metrics_source_ = obs::MetricsRegistry::global().add_source(
        [this](std::vector<obs::MetricValue>& out) { report(out); });
}

Coordinator::~Coordinator()
{
    obs::MetricsRegistry::global().remove_source(metrics_source_);
    shutdown();
}

int
Coordinator::add_worker(std::unique_ptr<Transport> transport)
{
    if (!transport)
        return -1;
    std::string line;
    if (transport->recv(line, opt_.handshake_ms) != RecvStatus::kOk)
        return -1;
    Message hello;
    if (!decode(line, hello) || hello.type != MsgType::kHello ||
        hello.version != kProtocolVersion || hello.text != "worker") {
        return -1;
    }
    return add_worker_registered(std::move(transport), hello.capacity,
                                 hello.heartbeat_ms);
}

int
Coordinator::add_worker_registered(std::unique_ptr<Transport> transport,
                                   int capacity, int heartbeat_ms)
{
    if (!transport)
        return -1;
    int id = -1;
    int clamped = 1;
    std::size_t active = 0;
    {
        MutexLock lock(mu_);
        if (shutting_down_) {
            transport->close();
            return -1;
        }
        auto w = std::make_unique<Worker>();
        w->transport = std::move(transport);
        w->capacity = std::clamp(capacity > 0 ? capacity : 1, 1,
                                 opt_.max_inflight_per_worker);
        w->heartbeat_ms = std::max(0, heartbeat_ms);
        clamped = w->capacity;
        Worker* raw = w.get();
        workers_.push_back(std::move(w));
        id = static_cast<int>(workers_.size()) - 1;
        CoordMetrics::get().workers_alive.set(
            static_cast<double>(alive_workers()));
        raw->reader = std::thread(
            [this, raw, idx = static_cast<std::size_t>(id)] {
                reader_loop(raw, idx);
            });
        active = runs_.size();
        // Re-registration redispatch: a worker re-attaching after a
        // heartbeat death is leased to active runs right away, so their
        // re-queued shards drain onto it without waiting for a reply.
        dispatch_ready();
    }
    obs::log_info("coord", "worker_attached",
                  obs::LogFields()
                      .num("worker", id)
                      .num("capacity", clamped)
                      .num("heartbeat_ms", heartbeat_ms)
                      .num("active_runs", static_cast<int>(active)));
    return id;
}

std::size_t
Coordinator::num_workers() const
{
    MutexLock lock(mu_);
    return alive_workers();
}

std::size_t
Coordinator::active_runs() const
{
    MutexLock lock(mu_);
    return runs_.size();
}

void
Coordinator::shutdown()
{
    std::vector<std::thread> readers;
    {
        MutexLock lock(mu_);
        if (!shutting_down_) {
            shutting_down_ = true;
            Message bye;
            bye.type = MsgType::kShutdown;
            std::string frame = encode(bye);
            for (auto& w : workers_)
                if (w->alive)
                    w->transport->send(frame);
        }
        // Wait (bounded) for the fleet's goodbye frames — final eval
        // counts plus any unshipped trace spans, absorbed by the reader
        // threads — so a wedged worker cannot hang shutdown.
        auto deadline =
            Clock::now() + std::chrono::milliseconds(kGoodbyeWaitMs);
        for (;;) {
            bool waiting = false;
            for (auto& w : workers_)
                if (w->alive && !w->goodbye)
                    waiting = true;
            if (!waiting || Clock::now() >= deadline)
                break;
            shutdown_cv_.wait_until(mu_, deadline);
        }
        for (auto& w : workers_) {
            if (!w->alive)
                continue;
            retire_worker(*w);
            w->transport->close();
        }
        dispatches_.clear();
        notify_runs();
        admission_cv_.notify_all();
        // Collect the reader handles for joining outside the lock (the
        // readers need mu_ for their final bookkeeping before exiting).
        for (auto& w : workers_)
            if (w->reader.joinable())
                readers.push_back(std::move(w->reader));
    }
    for (std::thread& t : readers)
        t.join();
}

std::vector<WorkerHealthSnapshot>
Coordinator::health() const
{
    std::vector<WorkerHealthSnapshot> out;
    auto now = Clock::now();
    MutexLock lock(mu_);
    out.reserve(workers_.size());
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        const Worker& wk = *workers_[i];
        WorkerHealthSnapshot s;
        s.worker = static_cast<int>(i);
        s.inflight = wk.inflight;
        s.completed = wk.completed;
        s.heartbeats = wk.heartbeats;
        s.ewma_latency_s = wk.ewma_latency_s;
        s.last_seen_s =
            std::chrono::duration<double>(now - wk.last_seen).count();
        s.heartbeat_ms = wk.heartbeat_ms;
        s.state = !wk.alive            ? "dead"
                  : silent(wk, now, 1) ? "slow"
                                       : "alive";
        out.push_back(std::move(s));
    }
    return out;
}

void
Coordinator::report(std::vector<obs::MetricValue>& out) const
{
    using obs::MetricValue;
    auto now = Clock::now();
    MutexLock lock(mu_);
    for (const auto& [id, run] : runs_) {
        std::string prefix = "coord.run." + std::to_string(id) + ".";
        out.push_back(MetricValue::gauge(prefix + "inflight", run->inflight));
        out.push_back(MetricValue::gauge(
            prefix + "queued", static_cast<double>(run->ready.size())));
        out.push_back(MetricValue::counter(
            prefix + "landed", static_cast<double>(run->landed_total)));
    }
    double slow = 0.0;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
        const Worker& wk = *workers_[w];
        const bool is_slow = silent(wk, now, 1);
        slow += is_slow ? 1.0 : 0.0;
        std::string prefix = "coord.worker." + std::to_string(w) + ".";
        out.push_back(MetricValue::gauge(
            prefix + "state", !wk.alive ? 0.0 : is_slow ? 1.0 : 2.0));
        out.push_back(MetricValue::gauge(prefix + "inflight", wk.inflight));
        out.push_back(MetricValue::counter(
            prefix + "completed", static_cast<double>(wk.completed)));
        out.push_back(MetricValue::counter(
            prefix + "heartbeats", static_cast<double>(wk.heartbeats)));
        out.push_back(
            MetricValue::gauge(prefix + "ewma_latency_s", wk.ewma_latency_s));
        out.push_back(MetricValue::gauge(
            prefix + "last_seen_s",
            std::chrono::duration<double>(now - wk.last_seen).count()));
    }
    out.push_back(MetricValue::gauge("coord.fleet.slow", slow));
}

// ---------------------------------------------------------------------
// Run lifecycle: admission, landing queues, completion.
// ---------------------------------------------------------------------

Coordinator::RunLease
Coordinator::begin_run(int max_inflight)
{
    return RunLease(this, begin_run_id(max_inflight));
}

std::uint64_t
Coordinator::begin_run_id(int max_inflight)
{
    MutexLock lock(mu_);
    if (opt_.max_active_runs > 0) {
        auto cap = static_cast<std::size_t>(opt_.max_active_runs);
        if (runs_.size() >= cap && opt_.admission_wait_ms > 0) {
            auto deadline =
                Clock::now() +
                std::chrono::milliseconds(opt_.admission_wait_ms);
            while (runs_.size() >= cap && !shutting_down_ &&
                   Clock::now() < deadline) {
                admission_cv_.wait_until(mu_, deadline);
            }
        }
        if (runs_.size() >= cap) {
            CoordMetrics::get().runs_rejected.add();
            obs::log_warn("coord", "run_rejected",
                          obs::LogFields()
                              .num("active", static_cast<int>(runs_.size()))
                              .num("max_active_runs", opt_.max_active_runs));
            throw CoordinatorBusy(
                "coordinator busy: " + std::to_string(runs_.size()) +
                " active runs (cap " +
                std::to_string(opt_.max_active_runs) + ")");
        }
    }
    std::uint64_t id = next_run_id_++;
    auto run = std::make_unique<RunState>();
    run->id = id;
    run->max_inflight = max_inflight > 0 ? max_inflight : 0;
    run->started = Clock::now();
    runs_.emplace(id, std::move(run));
    CoordMetrics::get().runs_admitted.add();
    CoordMetrics::get().runs_active.set(static_cast<double>(runs_.size()));
    obs::log_info("coord", "run_admitted",
                  obs::LogFields()
                      .num("run", id)
                      .num("active", static_cast<int>(runs_.size()))
                      .num("max_inflight", max_inflight));
    return id;
}

void
Coordinator::end_run(std::uint64_t run_id)
{
    double seconds = 0.0;
    std::size_t active = 0;
    {
        MutexLock lock(mu_);
        auto it = runs_.find(run_id);
        if (it == runs_.end())
            return;
        // Unlink the run's outstanding dispatch ids: the worker-side
        // outstanding sets keep them, so late replies drain as benign
        // slot-frees instead of protocol violations.
        for (auto d = dispatches_.begin(); d != dispatches_.end();) {
            if (d->second.run == run_id)
                d = dispatches_.erase(d);
            else
                ++d;
        }
        seconds = std::chrono::duration<double>(Clock::now() -
                                                it->second->started)
                      .count();
        runs_.erase(it);
        active = runs_.size();
        CoordMetrics::get().runs_active.set(static_cast<double>(active));
        admission_cv_.notify_all();
    }
    CoordMetrics::get().runs_completed.add();
    CoordMetrics::get().run_seconds.record(seconds);
    obs::log_info("coord", "run_completed",
                  obs::LogFields()
                      .num("run", run_id)
                      .num("seconds", seconds)
                      .num("active", static_cast<int>(active)));
}

void
Coordinator::submit_task(std::uint64_t run_id, const std::string& benchmark,
                         std::uint64_t run_seed, std::uint64_t key,
                         const Configuration& config)
{
    MutexLock lock(mu_);
    auto it = runs_.find(run_id);
    if (it == runs_.end())
        throw std::logic_error("coordinator: submit on an ended run");
    RunState& run = *it->second;
    run.benchmark = benchmark;
    run.run_seed = run_seed;
    RunState::TaskRec t;
    t.config = config;
    run.tasks.emplace(key, std::move(t));
    run.ready.push_back(key);
    dispatch_ready();
}

std::vector<Coordinator::LandedEval>
Coordinator::wait_landed(std::uint64_t run_id, int timeout_ms)
{
    auto deadline =
        Clock::now() + std::chrono::milliseconds(std::max(1, timeout_ms));
    MutexLock lock(mu_);
    auto it = runs_.find(run_id);
    if (it == runs_.end())
        return {};
    RunState& run = *it->second;
    for (;;) {
        if (!run.landed.empty()) {
            std::vector<LandedEval> out(
                std::make_move_iterator(run.landed.begin()),
                std::make_move_iterator(run.landed.end()));
            run.landed.clear();
            return out;
        }
        if (run.tasks.empty())
            return {};
        if (alive_workers() == 0)
            throw std::runtime_error("coordinator: no live workers remain");
        if (!run.cv.wait_until(mu_, deadline))
            return {};  // timeout: the driver sweeps and re-waits
    }
}

void
Coordinator::sweep()
{
    MutexLock lock(mu_);
    const auto swept = Clock::now();
    for (std::size_t w = 0; w < workers_.size(); ++w)
        if (silent(*workers_[w], swept, std::max(1, opt_.heartbeat_grace)))
            kill_worker(w, "heartbeat");

    // Straggler re-dispatch: duplicate an old outstanding task onto a
    // free worker outside its live set; first result wins (harmless —
    // evaluation is deterministic).
    if (opt_.straggler_ms > 0) {
        auto now = Clock::now();
        for (auto& [run_id, runp] : runs_) {
            RunState& run = *runp;
            for (auto& [key, t] : run.tasks) {
                if (t.queued || t.live_on.empty())
                    continue;
                auto age = std::chrono::duration_cast<
                               std::chrono::milliseconds>(now - t.last_sent)
                               .count();
                if (age < opt_.straggler_ms)
                    continue;
                for (std::size_t w = 0; w < workers_.size(); ++w) {
                    Worker& wk = *workers_[w];
                    bool already =
                        std::find(t.live_on.begin(), t.live_on.end(), w) !=
                        t.live_on.end();
                    if (!wk.alive || already ||
                        wk.inflight >= wk.capacity) {
                        continue;
                    }
                    CoordMetrics::get().redispatched.add();
                    dispatch_one(run, key, w, /*duplicate=*/true);
                    break;
                }
            }
        }
    }
    dispatch_ready();
}

// ---------------------------------------------------------------------
// Scheduler: fair worker leasing across active runs.
// ---------------------------------------------------------------------

std::size_t
Coordinator::alive_workers() const
{
    std::size_t n = 0;
    for (const auto& w : workers_)
        if (w->alive)
            ++n;
    return n;
}

void
Coordinator::retire_worker(Worker& wk)
{
    wk.alive = false;
    wk.inflight = 0;
    wk.outstanding.clear();
    CoordMetrics::get().workers_alive.set(
        static_cast<double>(alive_workers()));
}

bool
Coordinator::silent(const Worker& wk, Clock::time_point now, int intervals)
{
    return wk.alive && wk.heartbeat_ms > 0 && wk.inflight > 0 &&
           now - wk.last_seen >
               std::chrono::milliseconds(wk.heartbeat_ms) * intervals;
}

void
Coordinator::notify_runs()
{
    for (auto& [id, run] : runs_)
        run->cv.notify_all();
}

void
Coordinator::dispatch_ready()
{
    if (runs_.empty())
        return;
    bool progress = true;
    while (progress) {
        progress = false;
        // One dispatch per eligible run per pass, visiting runs in id
        // order starting after the fairness cursor — a run with a deep
        // queue cannot monopolize freed slots.
        std::vector<RunState*> order;
        order.reserve(runs_.size());
        for (auto it = runs_.upper_bound(rr_cursor_); it != runs_.end();
             ++it)
            order.push_back(it->second.get());
        for (auto it = runs_.begin();
             it != runs_.end() && it->first <= rr_cursor_; ++it)
            order.push_back(it->second.get());
        for (RunState* runp : order) {
            RunState& run = *runp;
            if (run.ready.empty())
                continue;
            if (run.max_inflight > 0 && run.inflight >= run.max_inflight)
                continue;
            std::size_t w = workers_.size();
            for (std::size_t cand = 0; cand < workers_.size(); ++cand) {
                Worker& wk = *workers_[cand];
                if (wk.alive && wk.inflight < wk.capacity) {
                    w = cand;
                    break;
                }
            }
            if (w == workers_.size())
                return;  // fleet saturated (or empty)
            std::uint64_t key = run.ready.front();
            run.ready.pop_front();
            rr_cursor_ = run.id;
            dispatch_one(run, key, w, /*duplicate=*/false);
            progress = true;
        }
    }
}

bool
Coordinator::dispatch_one(RunState& run, std::uint64_t key, std::size_t w,
                          bool duplicate)
{
    auto task_it = run.tasks.find(key);
    if (task_it == run.tasks.end())
        return false;
    RunState::TaskRec& t = task_it->second;
    Message m;
    m.type = MsgType::kEvaluate;
    m.id = next_msg_id_++;
    m.run = run.id;
    m.benchmark = run.benchmark;
    m.seed = run.run_seed;
    m.index = key;
    m.config = t.config;
    stamp_trace(m);
    Worker& wk = *workers_[w];
    if (!wk.transport->send(encode(m))) {
        // The transport died under the send: kill the worker (re-queueing
        // its other tasks) and put this task back in line.
        kill_worker(w, "send_failed");
        if (!duplicate && t.queued)
            run.ready.push_back(key);
        return false;
    }
    wk.inflight += 1;
    wk.outstanding.insert(m.id);
    dispatches_[m.id] = DispatchRec{run.id, key};
    if (!duplicate) {
        t.queued = false;
        run.inflight += 1;
    }
    t.live_on.push_back(w);
    t.last_sent = Clock::now();
    CoordMetrics& cm = CoordMetrics::get();
    cm.dispatched.add();
    int inflight = 0;
    for (const auto& each : workers_)
        inflight += each->inflight;
    cm.inflight_peak.set_max(static_cast<double>(inflight));
    return true;
}

void
Coordinator::kill_worker(std::size_t w, const char* reason)
{
    Worker& wk = *workers_[w];
    if (!wk.alive)
        return;
    CoordMetrics::get().workers_lost.add();
    wk.transport->close();
    // Re-queue every task whose only live dispatch was on this worker.
    for (std::uint64_t id : wk.outstanding) {
        auto d_it = dispatches_.find(id);
        if (d_it == dispatches_.end())
            continue;
        DispatchRec d = d_it->second;
        dispatches_.erase(d_it);
        auto run_it = runs_.find(d.run);
        if (run_it == runs_.end())
            continue;
        RunState& run = *run_it->second;
        auto task_it = run.tasks.find(d.key);
        if (task_it == run.tasks.end())
            continue;
        RunState::TaskRec& t = task_it->second;
        drop_worker(t.live_on, w);
        if (!t.queued && t.live_on.empty()) {
            t.queued = true;
            run.ready.push_back(d.key);
        }
    }
    retire_worker(wk);
    obs::log_warn("coord", "worker_dead",
                  obs::LogFields()
                      .num("worker", static_cast<int>(w))
                      .str("reason", reason));
    // Waiters re-check fleet liveness; the scheduler re-leases the
    // re-queued shards (possibly to a later re-registered worker).
    notify_runs();
}

// ---------------------------------------------------------------------
// Per-worker reader: demultiplexes the fleet's frames into run queues.
// ---------------------------------------------------------------------

void
Coordinator::reader_loop(Worker* wk, std::size_t w)
{
    std::string line;
    for (;;) {
        RecvStatus rs = wk->transport->recv(line, -1);
        if (rs != RecvStatus::kOk) {
            MutexLock lock(mu_);
            if (wk->alive) {
                if (shutting_down_) {
                    // Clean teardown: not a death worth alarming about.
                    retire_worker(*wk);
                } else {
                    kill_worker(w, "closed");
                    dispatch_ready();
                }
            }
            notify_runs();
            shutdown_cv_.notify_all();
            return;
        }
        Message reply;
        if (!decode(line, reply)) {
            // A worker emitting undecodable frames is unreliable; killing
            // it re-queues its tasks instead of leaving them in flight
            // forever (which would wedge its runs).
            MutexLock lock(mu_);
            if (wk->alive && !shutting_down_) {
                kill_worker(w, "bad_frame");
                dispatch_ready();
            }
            shutdown_cv_.notify_all();
            return;
        }
        if (reply.type == MsgType::kHeartbeat)
            CoordMetrics::get().heartbeats.add();
        if (reply.type == MsgType::kGoodbye) {
            import_spans(w, reply);
            obs::log_info("coord", "worker_goodbye",
                          obs::LogFields()
                              .num("worker", static_cast<int>(w))
                              .num("evals", reply.evals));
        }

        MutexLock lock(mu_);
        wk->last_seen = Clock::now();
        if (reply.type == MsgType::kHeartbeat) {
            wk->heartbeats += 1;
            continue;
        }
        if (reply.type == MsgType::kGoodbye) {
            wk->goodbye = true;
            shutdown_cv_.notify_all();
            continue;  // the close (ours or the worker's) ends the loop
        }
        if (!wk->alive)
            continue;  // killed concurrently; the close ends the loop
        auto out_it = wk->outstanding.find(reply.id);
        if (out_it == wk->outstanding.end()) {
            // Reply to an id this worker was never sent: the worker
            // failed to decode a dispatch (its error frames carry id 0)
            // or has a protocol bug. Same treatment as garbage.
            if (!shutting_down_) {
                kill_worker(w, "protocol");
                dispatch_ready();
            }
            return;
        }
        wk->outstanding.erase(out_it);
        wk->inflight = std::max(0, wk->inflight - 1);
        auto d_it = dispatches_.find(reply.id);
        if (d_it == dispatches_.end()) {
            // A late reply to a dispatch of an already-ended run (or a
            // straggler duplicate that lost): benign, frees the slot.
            dispatch_ready();
            continue;
        }
        DispatchRec d = d_it->second;
        dispatches_.erase(d_it);
        auto run_it = runs_.find(d.run);
        if (run_it == runs_.end()) {
            dispatch_ready();
            continue;
        }
        RunState& run = *run_it->second;
        if (reply.run != 0 && reply.run != run.id) {
            // The worker echoed a different run's tag on this dispatch
            // id: cross-run state corruption, not recoverable.
            kill_worker(w, "protocol");
            dispatch_ready();
            return;
        }
        auto task_it = run.tasks.find(d.key);
        if (task_it == run.tasks.end()) {
            dispatch_ready();
            continue;  // straggler duplicate; first result won
        }
        RunState::TaskRec& t = task_it->second;
        drop_worker(t.live_on, w);
        if (reply.type == MsgType::kResult) {
            double latency =
                std::chrono::duration<double>(Clock::now() - t.last_sent)
                    .count();
            CoordMetrics::get().results.add();
            CoordMetrics::get().roundtrip.record(latency);
            wk->completed += 1;
            wk->ewma_latency_s =
                wk->completed == 1
                    ? latency
                    : 0.3 * latency + 0.7 * wk->ewma_latency_s;
            import_spans(w, reply);
            LandedEval landed;
            landed.key = d.key;
            landed.result = EvalResult{reply.value, reply.feasible};
            landed.eval_seconds = reply.eval_seconds;
            run.tasks.erase(task_it);
            run.inflight = std::max(0, run.inflight - 1);
            run.landed_total += 1;
            run.landed.push_back(std::move(landed));
            run.cv.notify_all();
        } else if (reply.type == MsgType::kError) {
            CoordMetrics::get().worker_errors.add();
            t.errors += 1;
            if (t.errors >= kMaxTaskErrors) {
                LandedEval landed;
                landed.key = d.key;
                landed.failed = true;
                landed.error = reply.text;
                run.tasks.erase(task_it);
                run.inflight = std::max(0, run.inflight - 1);
                run.landed.push_back(std::move(landed));
                run.cv.notify_all();
            } else if (!t.queued && t.live_on.empty()) {
                t.queued = true;
                run.ready.push_back(d.key);
            }
        }
        dispatch_ready();
    }
}

void
Coordinator::stamp_trace(Message& m)
{
    if (!obs::Trace::enabled())
        return;
    m.trace_version = kTraceVersion;
    m.trace_run = obs::Trace::run_id();
    m.span_id = m.id;
}

void
Coordinator::import_spans(std::size_t w, const Message& reply)
{
    if (reply.spans.empty())
        return;
    std::vector<obs::RemoteSpan> spans;
    spans.reserve(reply.spans.size());
    for (const WireSpan& s : reply.spans) {
        obs::RemoteSpan r;
        r.name = s.name;
        r.category = s.category;
        r.run = reply.trace_run;
        r.thread_id = s.thread_id;
        r.start_us = s.start_us;
        r.duration_us = s.duration_us;
        spans.push_back(std::move(r));
    }
    obs::Trace::add_remote("worker-" + std::to_string(w), std::move(spans));
}

// ---------------------------------------------------------------------
// CoordinatorExecutor: one drive's evaluations as one fleet run.
// ---------------------------------------------------------------------

CoordinatorExecutor::CoordinatorExecutor(Coordinator& coordinator,
                                         std::string benchmark,
                                         std::uint64_t run_seed,
                                         int max_inflight)
    : coordinator_(coordinator),
      lease_(coordinator.begin_run(max_inflight)),
      benchmark_(std::move(benchmark)),
      run_seed_(run_seed)
{
}

void
CoordinatorExecutor::submit(std::uint64_t index, const Configuration& config)
{
    coordinator_.submit_task(lease_.id(), benchmark_, run_seed_, index,
                             config);
}

Landed
CoordinatorExecutor::wait_any()
{
    while (landed_.empty()) {
        std::vector<Coordinator::LandedEval> got = coordinator_.wait_landed(
            lease_.id(), coordinator_.opt_.poll_ms);
        if (got.empty())
            coordinator_.sweep();
        for (Coordinator::LandedEval& e : got) {
            Landed l;
            l.index = e.key;
            l.result = e.result;
            l.eval_seconds = e.eval_seconds;
            if (e.failed) {
                l.error = std::make_exception_ptr(std::runtime_error(
                    "coordinator: evaluation failed: " + e.error));
            }
            landed_.push_back(std::move(l));
        }
    }
    Landed l = std::move(landed_.front());
    landed_.pop_front();
    return l;
}

}  // namespace baco::serve
