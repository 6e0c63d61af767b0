#include "api/study.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "api/method_registry.hpp"
#include "exec/drive.hpp"
#include "exec/eval_cache.hpp"
#include "obs/trace.hpp"
#include "serve/coordinator.hpp"
#include "serve/transport.hpp"
#include "serve/worker.hpp"
#include "suite/registry.hpp"

namespace baco {

namespace {

/**
 * Attach one ExecutionPolicy::Remote worker: "cmd:ARGV..." forks the
 * (whitespace-split) command over pipes; anything else is a socket
 * address a baco_worker --connect is listening behind. Throws on an
 * unreachable or mis-handshaking worker — a remote study must not
 * silently fall back to a smaller fleet.
 */
void
attach_remote_worker(serve::Coordinator& coordinator,
                     const std::string& addr, std::vector<int>& pids)
{
    std::unique_ptr<serve::Transport> transport;
    if (addr.rfind("cmd:", 0) == 0) {
        std::vector<std::string> argv;
        std::string word;
        for (char c : addr.substr(4)) {
            if (c == ' ' || c == '\t') {
                if (!word.empty())
                    argv.push_back(std::move(word));
                word.clear();
            } else {
                word += c;
            }
        }
        if (!word.empty())
            argv.push_back(std::move(word));
        serve::ChildProcess child = serve::spawn_process(argv);
        if (!child.transport)
            throw std::runtime_error("cannot spawn worker: " + addr);
        pids.push_back(child.pid);
        transport = std::move(child.transport);
    } else {
        std::string error;
        transport = serve::connect_socket(addr, &error);
        if (!transport)
            throw std::runtime_error("cannot attach worker: " + error);
    }
    if (coordinator.add_worker(std::move(transport)) < 0)
        throw std::runtime_error("worker handshake failed: " + addr);
}

}  // namespace

void
execute(AskTellTuner& tuner, const ExecRequest& req)
{
    const ExecutionPolicy& p = req.policy;
    DriveOptions opt;
    opt.batch_size = p.mode == ExecutionPolicy::Mode::kSerial
                         ? 1
                         : std::max(1, p.batch_size);
    opt.async_mode = p.mode == ExecutionPolicy::Mode::kAsync ||
                     (p.mode == ExecutionPolicy::Mode::kDistributed &&
                      p.async);
    opt.suggest_ahead = p.suggest_ahead;
    opt.max_evals = req.max_evals;
    opt.cache = req.cache;
    opt.cache_namespace = req.cache_namespace;
    opt.checkpoint_path = req.checkpoint_path;
    opt.on_event = req.on_event;
    opt.resume_pending = req.resume_pending;

    if (p.mode == ExecutionPolicy::Mode::kDistributed) {
        if (!req.coordinator)
            throw std::invalid_argument(
                "distributed execution requires a coordinator with "
                "attached workers");
        serve::CoordinatorExecutor exec(*req.coordinator, req.benchmark,
                                        tuner.run_seed(), opt.batch_size);
        drive(tuner, exec, std::move(opt));
        return;
    }
    if (!req.objective)
        throw std::invalid_argument(
            "in-process execution requires an objective");
    // Serial never has more than one evaluation in flight: one lane
    // evaluates inline instead of spawning idle workers.
    ThreadPoolExecutor exec(
        req.objective, tuner.run_seed(),
        p.mode == ExecutionPolicy::Mode::kSerial ? 1 : p.num_threads);
    drive(tuner, exec, std::move(opt));
}

// ---------------------------------------------------------------------------
// Study
// ---------------------------------------------------------------------------

StudyResult
Study::run()
{
    ensure_not_finalized();
    ExecRequest req;
    req.policy = policy_;
    req.cache = cache_;
    req.cache_namespace = cache_namespace_;
    req.checkpoint_path = checkpoint_path_;
    req.on_event = on_event_;
    req.resume_pending = std::move(resume_pending_);
    resume_pending_.clear();

    if (policy_.mode == ExecutionPolicy::Mode::kDistributed) {
        req.benchmark = benchmark_ ? benchmark_->name : std::string{};
        if (policy_.fleet) {
            // Attached fleet: externally owned — drive it, don't shut
            // it down (other studies/clients may share it). The
            // Coordinator multiplexes concurrent tenants itself.
            req.coordinator = policy_.fleet;
            execute(*tuner_, req);
            return finalize(tuner_->take_history());
        }
        serve::CoordinatorOptions copt;
        copt.max_inflight_per_worker = policy_.max_inflight_per_worker;
        copt.straggler_ms = policy_.straggler_ms;
        serve::Coordinator coordinator(copt);
        std::vector<std::thread> worker_threads;
        std::vector<int> worker_pids;
        req.coordinator = &coordinator;
        auto wind_down = [&] {
            coordinator.shutdown();
            for (std::thread& t : worker_threads)
                t.join();
            for (int pid : worker_pids)
                serve::wait_process(pid);
        };
        // Attachment happens inside the guarded region: a fleet that
        // fails to assemble halfway (one worker spawned, the next
        // unreachable) must still shut down and reap what it spawned,
        // or every failed Remote study leaks a zombie child.
        try {
            if (!policy_.worker_addresses.empty()) {
                for (const std::string& addr : policy_.worker_addresses)
                    attach_remote_worker(coordinator, addr, worker_pids);
            } else {
                worker_threads = serve::attach_loopback_workers(
                    coordinator, std::max(1, policy_.workers),
                    policy_.max_inflight_per_worker);
            }
            execute(*tuner_, req);
        } catch (...) {
            wind_down();
            throw;
        }
        wind_down();
    } else {
        req.objective = objective_;
        execute(*tuner_, req);
    }
    return finalize(tuner_->take_history());
}

std::vector<Configuration>
Study::ask(int n)
{
    ensure_not_finalized();
    if (!resume_pending_.empty())
        throw std::logic_error(
            "resumed checkpoint has in-flight evaluations: evaluate "
            "resume_pending() and tell_pending() each before ask() — "
            "or drive with run(), which drains them automatically");
    return tuner_->suggest(n);
}

void
Study::tell(const std::vector<Configuration>& configs,
            const std::vector<EvalResult>& results)
{
    ensure_not_finalized();
    if (!resume_pending_.empty())
        throw std::logic_error(
            "resumed checkpoint has in-flight evaluations: report them "
            "through tell_pending() (under their original indices) "
            "before telling new results, or a later resume would "
            "re-dispatch and double-tell them");
    if (configs.size() != results.size())
        throw std::invalid_argument("tell: configs/results size mismatch");
    std::vector<AsyncEvent> events(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        events[i].index = tuner_->history().size() + i;
        events[i].config = configs[i];
        events[i].result = results[i];
    }
    tell_results(*tuner_, std::move(events), tell_options(),
                 resume_pending_);
}

void
Study::tell_pending(const PendingEval& p, const EvalResult& result,
                    double eval_seconds)
{
    ensure_not_finalized();
    auto it = std::find_if(resume_pending_.begin(), resume_pending_.end(),
                           [&](const PendingEval& q) {
                               return q.index == p.index;
                           });
    if (it == resume_pending_.end())
        throw std::invalid_argument(
            "tell_pending: evaluation index is not pending");
    std::vector<AsyncEvent> events(1);
    events[0].index = it->index;
    events[0].config = std::move(it->config);
    events[0].result = result;
    events[0].eval_seconds = eval_seconds;
    resume_pending_.erase(it);
    tell_results(*tuner_, std::move(events), tell_options(),
                 resume_pending_);
}

DriveOptions
Study::tell_options() const
{
    DriveOptions opt;
    opt.cache = cache_;
    opt.cache_namespace = cache_namespace_;
    opt.checkpoint_path = checkpoint_path_;
    opt.on_event = on_event_;
    return opt;
}

void
Study::tell(const Configuration& config, const EvalResult& result)
{
    tell(std::vector<Configuration>{config},
         std::vector<EvalResult>{result});
}

StudyResult
Study::result()
{
    ensure_not_finalized();
    return finalize(tuner_->take_history());
}

void
Study::ensure_not_finalized() const
{
    // take_history() empties the tuner, so after finalization a second
    // run() would re-drive the whole budget from scratch (overwriting
    // checkpoints), result() would report a zero-eval study, and
    // ask()/tell() would corrupt the checkpoint and cache against a
    // truncated history; make every such misuse loud instead.
    if (finalized_)
        throw std::logic_error(
            "study already finalized: no further run()/result()/"
            "ask()/tell() calls are possible");
}

StudyResult
Study::finalize(TuningHistory history)
{
    finalized_ = true;
    if (!trace_path_.empty()) {
        obs::Trace::disable();
        obs::Trace::export_chrome(trace_path_);
    }
    StudyResult r;
    r.metrics =
        obs::MetricsRegistry::global().snapshot().delta_since(metrics0_);
    r.history = std::move(history);
    r.method = method_;
    r.benchmark = benchmark_ ? benchmark_->name : std::string{};
    r.mode = policy_.mode;
    r.seed = seed_;
    r.resumed = resumed_;
    r.resumed_evals = resumed_evals_;
    r.checkpoint_path = checkpoint_path_;
    if (cache_) {
        r.cache_namespace = cache_namespace_;
        r.cache_hits = cache_->hits() - cache_hits0_;
        r.cache_misses = cache_->misses() - cache_misses0_;
    }
    return r;
}

// ---------------------------------------------------------------------------
// StudyBuilder
// ---------------------------------------------------------------------------

StudyBuilder&
StudyBuilder::benchmark(const std::string& name)
{
    benchmark_ = suite::find_benchmark(name);
    benchmark_is_registry_ = true;
    return *this;
}

StudyBuilder&
StudyBuilder::benchmark(const Benchmark& b)
{
    benchmark_ = b;
    // Distributed workers resolve benchmarks in *their* registry, so
    // remember whether this object IS the registry's instance — a
    // caller-modified copy must not silently stand in for it there.
    benchmark_is_registry_ = false;
    for (const Benchmark& r : suite::all_benchmarks()) {
        if (&r == &b) {
            benchmark_is_registry_ = true;
            break;
        }
    }
    return *this;
}

StudyBuilder&
StudyBuilder::variant(const SpaceVariant& v)
{
    variant_ = v;
    return *this;
}

StudyBuilder&
StudyBuilder::space(std::shared_ptr<SearchSpace> s)
{
    space_ = std::move(s);
    return *this;
}

SearchSpace&
StudyBuilder::inline_space()
{
    if (!inline_space_)
        inline_space_ = std::make_shared<SearchSpace>();
    return *inline_space_;
}

StudyBuilder&
StudyBuilder::real(const std::string& name, double lo, double hi,
                   bool log_scale)
{
    inline_space().add_real(name, lo, hi, log_scale);
    return *this;
}

StudyBuilder&
StudyBuilder::integer(const std::string& name, std::int64_t lo,
                      std::int64_t hi, bool log_scale)
{
    inline_space().add_integer(name, lo, hi, log_scale);
    return *this;
}

StudyBuilder&
StudyBuilder::ordinal(const std::string& name,
                      std::vector<std::int64_t> values, bool log_scale)
{
    inline_space().add_ordinal(name, std::move(values), log_scale);
    return *this;
}

StudyBuilder&
StudyBuilder::categorical(const std::string& name,
                          std::vector<std::string> values)
{
    inline_space().add_categorical(name, std::move(values));
    return *this;
}

StudyBuilder&
StudyBuilder::permutation(const std::string& name, std::size_t n)
{
    inline_space().add_permutation(name, static_cast<int>(n));
    return *this;
}

StudyBuilder&
StudyBuilder::constraint(const std::string& expr)
{
    inline_space().add_constraint(expr);
    return *this;
}

StudyBuilder&
StudyBuilder::objective(BlackBoxFn fn)
{
    objective_ = std::move(fn);
    return *this;
}

StudyBuilder&
StudyBuilder::method(std::string name)
{
    method_ = std::move(name);
    return *this;
}

StudyBuilder&
StudyBuilder::budget(int evaluations)
{
    budget_ = evaluations;
    return *this;
}

StudyBuilder&
StudyBuilder::doe(int samples)
{
    doe_ = samples;
    return *this;
}

StudyBuilder&
StudyBuilder::seed(std::uint64_t run_seed)
{
    seed_ = run_seed;
    return *this;
}

StudyBuilder&
StudyBuilder::execution(ExecutionPolicy policy)
{
    policy_ = policy;
    return *this;
}

StudyBuilder&
StudyBuilder::cache(EvalCache* cache, std::size_t max_entries)
{
    cache_ = cache;
    cache_max_entries_ = max_entries;
    return *this;
}

StudyBuilder&
StudyBuilder::cache_namespace(std::string ns)
{
    cache_namespace_ = std::move(ns);
    return *this;
}

StudyBuilder&
StudyBuilder::checkpoint(std::string path, bool resume)
{
    checkpoint_path_ = std::move(path);
    resume_ = resume;
    return *this;
}

StudyBuilder&
StudyBuilder::on_event(StudyEventFn fn)
{
    on_event_ = std::move(fn);
    return *this;
}

StudyBuilder&
StudyBuilder::trace(std::string path)
{
    trace_path_ = std::move(path);
    return *this;
}

Study
StudyBuilder::build()
{
    int sources = (benchmark_ ? 1 : 0) + (space_ ? 1 : 0) +
                  (inline_space_ ? 1 : 0);
    if (sources == 0) {
        if (inline_space_consumed_)
            throw std::invalid_argument(
                "the builder's inline space was consumed by a previous "
                "build() (the study's tuner owns it now); re-declare "
                "the parameters — or use benchmark()/space(), which "
                "rebuild freely");
        throw std::invalid_argument(
            "study needs a search space: benchmark(), space() or the "
            "inline parameter DSL");
    }
    if (sources > 1)
        throw std::invalid_argument(
            "give exactly one space source: benchmark(), space() or the "
            "inline parameter DSL");

    Study study;
    study.benchmark_ = benchmark_;
    if (benchmark_) {
        study.space_ = benchmark_->make_space(variant_);
    } else if (space_) {
        study.space_ = space_;
    } else {
        // The study's tuner holds a reference to this space, so the
        // builder must give it up: DSL calls after build() start a new
        // space instead of mutating the live study's.
        study.space_ = std::move(inline_space_);
        inline_space_.reset();
        inline_space_consumed_ = true;
    }

    // An explicit objective overrides the benchmark's black box (e.g. a
    // stubbed evaluator in tests); inline studies require one for run().
    study.objective_ =
        objective_ ? objective_
                   : (benchmark_ ? benchmark_->evaluate : BlackBoxFn{});

    if (policy_.mode == ExecutionPolicy::Mode::kDistributed) {
        // Workers resolve the benchmark by name in *their* registry,
        // so anything that diverges from the registry entry — a
        // modified Benchmark copy, or a custom objective the workers
        // would silently ignore — must fail here, not as opaque
        // worker error frames (or silently wrong results) mid-run.
        if (!benchmark_ || !benchmark_is_registry_)
            throw std::invalid_argument(
                "distributed execution requires the registry's own "
                "benchmark (workers resolve it by name); use "
                "benchmark(\"<registry name>\")");
        if (objective_)
            throw std::invalid_argument(
                "distributed execution evaluates the registry "
                "benchmark's own objective on the workers; a custom "
                "objective() cannot be shipped to them");
    }

    MethodSpec spec;
    spec.budget = budget_ > 0
                      ? budget_
                      : (benchmark_ ? benchmark_->full_budget : 0);
    if (spec.budget <= 0)
        throw std::invalid_argument(
            "budget() is required for non-benchmark studies");
    spec.doe_samples =
        doe_ > 0 ? doe_ : (benchmark_ ? benchmark_->doe_samples : 10);
    spec.seed = seed_;

    MethodRegistry& registry = MethodRegistry::global();
    study.tuner_ = registry.make(method_, *study.space_, spec);
    study.method_ = *registry.resolve(method_);
    study.policy_ = policy_;
    study.seed_ = seed_;

    study.cache_ = cache_;
    if (cache_) {
        if (cache_max_entries_ > 0)
            cache_->set_max_entries(cache_max_entries_);
        // The benchmark-identity namespace is only claimed when the
        // study actually evaluates that benchmark's own black box: a
        // custom objective() produces results the benchmark's cached
        // entries must never answer (pin a namespace to opt in).
        bool bench_objective = benchmark_ && !objective_;
        study.cache_namespace_ =
            !cache_namespace_.empty()
                ? cache_namespace_
                : (bench_objective
                       ? EvalCache::namespace_key(benchmark_->name,
                                                  *study.space_)
                       : std::string{});
        study.cache_hits0_ = cache_->hits();
        study.cache_misses0_ = cache_->misses();
    }

    study.checkpoint_path_ = checkpoint_path_;
    if (resume_ && !checkpoint_path_.empty()) {
        // A missing (or unreadable) checkpoint means a fresh start; a
        // present one must match the study's seed and method exactly.
        if (std::optional<CheckpointData> data =
                load_checkpoint(checkpoint_path_)) {
            if (data->seed != study.tuner_->run_seed())
                throw std::runtime_error(
                    "checkpoint seed does not match the study seed");
            if (!study.tuner_->restore(data->history,
                                       data->sampler_state))
                throw std::runtime_error(
                    "checkpoint could not be restored by method '" +
                    study.method_ + "'");
            study.resume_pending_ = std::move(data->pending);
            study.resumed_ = true;
            study.resumed_evals_ = study.tuner_->history().size();
        }
    }

    study.on_event_ = on_event_;
    study.trace_path_ = trace_path_;
    // The metrics baseline is taken at build, not run: the delta then
    // also covers ask/tell embedding, where the tuner works between
    // build() and result() without a run() bracket.
    study.metrics0_ = obs::MetricsRegistry::global().snapshot();
    if (!trace_path_.empty())
        obs::Trace::enable();
    return study;
}

}  // namespace baco
