#include "exec/drive.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exec/eval_cache.hpp"
#include "obs/trace.hpp"

namespace baco {

namespace {
using Clock = std::chrono::steady_clock;

/** Drive instrumentation handles, registered once per process. */
struct EngineMetrics {
  obs::Histogram& objective = hist("engine.objective_seconds");
  obs::Histogram& queue_wait = hist("engine.queue_wait_seconds");
  obs::Histogram& tell = hist("engine.tell_seconds");
  obs::Counter& dispatched = counter("engine.dispatched_total");
  obs::Counter& cache_hits = counter("engine.cache_hits_total");
  obs::Counter& cache_misses = counter("engine.cache_misses_total");
  obs::Gauge& inflight_peak = gauge("engine.inflight_peak");
  obs::Gauge& queue_depth = gauge("engine.pool_queue_depth");
  /** Suggestions computed ahead, and slots refilled from one. */
  obs::Counter& ahead_launched = counter("engine.suggest_ahead_total");
  obs::Counter& ahead_used = counter("engine.suggest_ahead_used_total");

  static EngineMetrics& get()
  {
      static EngineMetrics m;
      return m;
  }

 private:
  static obs::Histogram& hist(const char* name)
  {
      return obs::MetricsRegistry::global().histogram(name);
  }
  static obs::Counter& counter(const char* name)
  {
      return obs::MetricsRegistry::global().counter(name);
  }
  static obs::Gauge& gauge(const char* name)
  {
      return obs::MetricsRegistry::global().gauge(name);
  }
};

/**
 * Pool lanes for num_threads concurrent evaluations. submit() never
 * runs work on the caller's lane, so a pool of n + 1 lanes has n worker
 * threads; one evaluation needs no worker at all and runs inline.
 */
int
pool_lanes(int num_threads)
{
    int n = num_threads > 0
                ? num_threads
                : static_cast<int>(
                      std::max(1u, std::thread::hardware_concurrency()));
    return n == 1 ? 1 : n + 1;
}

}  // namespace

ThreadPoolExecutor::ThreadPoolExecutor(BlackBoxFn objective,
                                       std::uint64_t run_seed,
                                       int num_threads)
    : objective_(std::move(objective)),
      run_seed_(run_seed),
      pool_(pool_lanes(num_threads))
{
}

void
ThreadPoolExecutor::submit(std::uint64_t index, const Configuration& config)
{
    EngineMetrics& em = EngineMetrics::get();
    em.dispatched.add();
    auto submitted = Clock::now();
    pool_.submit([this, &em, index, config, submitted] {
        Landed l;
        l.index = index;
        RngEngine rng = eval_rng_for(run_seed_, index);
        auto t0 = Clock::now();
        em.queue_wait.record(
            std::chrono::duration<double>(t0 - submitted).count());
        em.queue_depth.set_max(static_cast<double>(pool_.queue_depth()));
        try {
            obs::ScopedTimer timer(em.objective, "engine.objective",
                                   "engine");
            l.result = objective_(config, rng);
        } catch (...) {
            l.error = std::current_exception();
        }
        l.eval_seconds =
            std::chrono::duration<double>(Clock::now() - t0).count();
        push(std::move(l));
    });
}

void
ThreadPoolExecutor::push(Landed l)
{
    // Notify under the lock: the executor may be destroyed as soon as
    // the driver has popped the last result.
    MutexLock lock(mutex_);
    landed_.push_back(std::move(l));
    cv_.notify_one();
}

Landed
ThreadPoolExecutor::wait_any()
{
    MutexLock lock(mutex_);
    while (landed_.empty())
        cv_.wait(mutex_);
    Landed l = std::move(landed_.front());
    landed_.pop_front();
    return l;
}

void
tell_results(AskTellTuner& tuner, std::vector<AsyncEvent> events,
             const DriveOptions& opt,
             const std::vector<PendingEval>& still_pending)
{
    std::vector<Configuration> configs;
    std::vector<EvalResult> results;
    configs.reserve(events.size());
    results.reserve(events.size());
    double eval_seconds = 0.0;
    for (const AsyncEvent& ev : events) {
        if (opt.cache && !ev.from_cache)
            opt.cache->insert(opt.cache_namespace, ev.config, ev.result);
        configs.push_back(ev.config);
        results.push_back(ev.result);
        eval_seconds += ev.eval_seconds;
    }
    std::size_t evals = tuner.history().size();
    double best = tuner.history().best_value;
    tuner.observe(configs, results);
    // Charged apart from the observe, so tuner_seconds stays pure search
    // overhead.
    tuner.mutable_history().eval_seconds += eval_seconds;
    // Thrown after the tell: the results stay observed, but the exchange
    // stops rather than run on without durability.
    if (!opt.checkpoint_path.empty() &&
        !save_checkpoint(opt.checkpoint_path, tuner, still_pending)) {
        throw std::runtime_error(
            "results recorded but checkpoint write failed: " +
            opt.checkpoint_path);
    }
    if (!opt.on_event)
        return;
    for (AsyncEvent& ev : events) {
        if (ev.result.feasible && ev.result.value < best)
            best = ev.result.value;
        ev.evals = ++evals;
        ev.best = best;
        opt.on_event(ev);
    }
}

void
drive(AskTellTuner& tuner, Executor& exec, DriveOptions opt)
{
    EngineMetrics& em = EngineMetrics::get();
    const int slots = std::max(1, opt.batch_size);

    // Dispatched and not yet told, by index: the checkpoint's pending
    // set, and (with `ahead`) the fantasies of every async suggest.
    std::map<std::uint64_t, Configuration> inflight;
    // Cache hits land at dispatch, without the executor.
    std::deque<AsyncEvent> hits;
    std::deque<Configuration> ahead;  // suggested ahead, not dispatched
    std::exception_ptr error;
    int told = 0;

    // Observed plus in-flight always cover a prefix of the index space,
    // so the next free index is past both.
    std::uint64_t next_index =
        tuner.history().size() + opt.resume_pending.size();
    for (const PendingEval& p : opt.resume_pending)
        next_index = std::max(next_index, p.index + 1);

    // Evaluations the caps still allow beyond those in flight.
    auto room = [&] {
        return opt.max_evals < 0
                   ? slots
                   : opt.max_evals - told - static_cast<int>(inflight.size());
    };
    auto dispatch = [&](std::uint64_t index, Configuration config) {
        if (opt.cache) {
            if (auto hit = opt.cache->lookup(opt.cache_namespace, config)) {
                em.cache_hits.add();
                AsyncEvent ev;
                ev.index = index;
                ev.result = *hit;
                ev.from_cache = true;
                hits.push_back(std::move(ev));
                inflight.emplace(index, std::move(config));
                return;
            }
            em.cache_misses.add();
        }
        exec.submit(index, config);
        inflight.emplace(index, std::move(config));
        em.inflight_peak.set_max(static_cast<double>(inflight.size()));
    };
    // The next landed evaluation, as the event its tell fires. A failed
    // evaluation still leaves the in-flight set; its error goes to
    // `error`. Throws only when the executor cannot hand anything back.
    auto land = [&] {
        AsyncEvent ev;
        if (!hits.empty()) {
            ev = std::move(hits.front());
            hits.pop_front();
        } else {
            Landed l = exec.wait_any();
            if (l.error && !error)
                error = l.error;
            ev.index = l.index;
            ev.result = l.result;
            ev.eval_seconds = l.eval_seconds;
        }
        auto it = inflight.find(ev.index);
        ev.config = std::move(it->second);
        inflight.erase(it);
        return ev;
    };
    auto tell = [&](std::vector<AsyncEvent> events) {
        std::vector<PendingEval> still_pending;
        if (!opt.checkpoint_path.empty()) {
            for (const auto& [index, config] : inflight)
                still_pending.push_back(PendingEval{index, config});
        }
        told += static_cast<int>(events.size());
        obs::ScopedTimer timer(em.tell, "engine.tell", "engine");
        tell_results(tuner, std::move(events), opt, still_pending);
    };
    // Barrier: land everything dispatched, then tell it in index order.
    auto finish_round = [&] {
        std::vector<AsyncEvent> round;
        while (!inflight.empty())
            round.push_back(land());
        if (error || round.empty())
            return;
        std::sort(round.begin(), round.end(),
                  [](const AsyncEvent& a, const AsyncEvent& b) {
                      return a.index < b.index;
                  });
        tell(std::move(round));
    };
    // Fantasies for an async suggest: everything suggested, not told.
    auto pending = [&] {
        std::vector<Configuration> out;
        out.reserve(inflight.size() + ahead.size());
        for (const auto& [index, config] : inflight)
            out.push_back(config);
        out.insert(out.end(), ahead.begin(), ahead.end());
        return out;
    };

    try {
        for (PendingEval& p : opt.resume_pending)
            dispatch(p.index, std::move(p.config));
        if (!opt.async_mode) {
            finish_round();
            while (!error && tuner.remaining() > 0 && room() > 0) {
                std::vector<Configuration> batch =
                    tuner.suggest(std::min(slots, room()));
                if (batch.empty())
                    break;
                for (Configuration& c : batch)
                    dispatch(next_index++, std::move(c));
                finish_round();
            }
        } else {
            // Speculating with one slot would only reorder the serial
            // loop's calls, so one slot never does.
            const bool use_ahead = opt.suggest_ahead && slots >= 2;
            for (;;) {
                while (!error && static_cast<int>(inflight.size()) < slots &&
                       room() > 0) {
                    Configuration next;
                    if (!ahead.empty()) {
                        next = std::move(ahead.front());
                        ahead.pop_front();
                        em.ahead_used.add();
                    } else {
                        std::vector<Configuration> got =
                            tuner.suggest_with_pending(1, pending());
                        if (got.empty())
                            break;
                        next = std::move(got.front());
                    }
                    dispatch(next_index++, std::move(next));
                }
                // A suggestion draws from the tuner's RNG and dedup
                // state, so one is computed ahead only when the caps
                // leave room to dispatch it.
                if (use_ahead && !error && ahead.empty() &&
                    !inflight.empty() && room() > 0 &&
                    tuner.remaining() > static_cast<int>(inflight.size())) {
                    em.ahead_launched.add();
                    for (Configuration& c :
                         tuner.suggest_with_pending(1, pending()))
                        ahead.push_back(std::move(c));
                }
                if (inflight.empty())
                    break;
                AsyncEvent ev = land();
                if (error)
                    break;
                std::vector<AsyncEvent> one;
                one.push_back(std::move(ev));
                tell(std::move(one));
            }
        }
    } catch (...) {
        if (!error)
            error = std::current_exception();
    }
    // Stop suggesting and drain: the executor must hold nothing of this
    // drive when it returns, or a later drive on it would be handed
    // this one's results.
    try {
        while (!inflight.empty())
            land();
    } catch (...) {
        // The executor cannot hand back the rest (a fleet with no live
        // worker); its own teardown reclaims them.
    }
    if (error)
        std::rethrow_exception(error);
}

TuningHistory
drive_serial(AskTellTuner& tuner, const BlackBoxFn& objective)
{
    ThreadPoolExecutor exec(objective, tuner.run_seed());
    drive(tuner, exec);
    return tuner.take_history();
}

}  // namespace baco
