// baco_history_digest: print the complete tuning histories of every
// built-in search method in a form that compares bit for bit across
// builds.
//
// Runs each method of the built-in MethodRegistry at the full (Table 3)
// budget on every registry benchmark: serially with two fixed seeds, then
// at seed 1 in barrier rounds of 4 on a thread pool (Batched(4)), across
// 2 loopback workers (Distributed(2, 4)), and over the serve protocol
// (session(4)). The session leg drives a SessionManager session,
// checkpointing into a temporary directory, with suggest and observe
// frames in rounds of 4, evaluating client-side with serve::evaluate_on.
// Its manager is destroyed at half budget (a server crash), a new one
// re-opens the session with resume=true to finish, and the leg prints the
// final checkpoint's history. Prints one line per observation:
//
//   <method> <benchmark> seed=<seed>[,<policy>] #<index> <value as hexfloat> <feasible 0|1> <config JSON>
//
// Two builds that print identical output made identical suggestions and
// saw identical values, so a performance change that claims to leave the
// search untouched can be checked by diffing the output of the two
// builds (scripts/history_parity.sh does exactly that). The batched,
// distributed and session histories cover the pool and fleet barrier
// rounds and the session's open, observe, checkpoint and resume path too.
//
// --work prints, instead of histories, the work each serial BaCO study
// did: the deltas of the tuner's work counters over the study, one line
// each,
//
//   <benchmark> seed=<seed> nll_evals=N nll_failures=N refits=N extends=N candidates=N pruned=N nll_gradients=N refits_warm=N refit_fallbacks=N
//
// then one "total" line with their sums over the serial legs. Serial runs
// are deterministic, so the counts are exact functions of code, benchmark
// and seed: a change that moves them does different work.
//
// Usage: baco_history_digest [--work]   (output on stdout)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/baco.hpp"
#include "exec/jsonl.hpp"
#include "exec/temp_dir.hpp"
#include "serve/session_manager.hpp"
#include "serve/worker.hpp"

using namespace baco;

namespace {

void
print_history(const std::string& method, const std::string& benchmark,
              unsigned seed, const char* label, const TuningHistory& h)
{
    for (std::size_t i = 0; i < h.observations.size(); ++i) {
        const Observation& o = h.observations[i];
        std::printf("%s %s seed=%u%s #%zu %a %d %s\n", method.c_str(),
                    benchmark.c_str(), seed, label, i, o.value,
                    o.feasible ? 1 : 0, jsonl::config_json(o.config).c_str());
    }
}

/** The --work counters: printed label, registry name. */
const std::pair<const char*, const char*> kWorkCounters[] = {
    {"nll_evals", "tuner.model_nll_evals_total"},
    {"nll_failures", "tuner.model_nll_failures_total"},
    {"refits", "tuner.model_refits_total"},
    {"extends", "tuner.model_extends_total"},
    {"candidates", "tuner.acquisition_candidates_total"},
    {"pruned", "tuner.acquisition_pruned_total"},
    {"nll_gradients", "tuner.model_nll_gradients_total"},
    {"refits_warm", "tuner.model_refits_warm_total"},
    {"refit_fallbacks", "tuner.model_refit_fallbacks_total"},
};

void
print_work(const std::string& benchmark, unsigned seed,
           const obs::MetricsSnapshot& delta, double* totals)
{
    std::printf("%s seed=%u", benchmark.c_str(), seed);
    for (std::size_t i = 0; i < std::size(kWorkCounters); ++i) {
        double v = delta.value(kWorkCounters[i].second);
        totals[i] += v;
        std::printf(" %s=%.0f", kWorkCounters[i].first, v);
    }
    std::printf("\n");
}

[[noreturn]] void
fail(const std::string& method, const Benchmark& b, const std::string& what)
{
    throw std::runtime_error(method + " " + b.name + " session: " + what);
}

/** The session(4) leg of one method on one benchmark: see the file
 *  comment. */
TuningHistory
session_history(const std::string& method, const Benchmark& b,
                const std::string& dir, unsigned seed)
{
    using namespace baco::serve;
    Message open;
    open.type = MsgType::kOpenSession;
    open.session = "digest";
    open.benchmark = b.name;
    open.method = method;
    open.seed = seed;  // budget and doe 0: the benchmark's own
    const std::uint64_t half = static_cast<std::uint64_t>(b.full_budget / 2);
    SessionManagerOptions opt;
    opt.checkpoint_dir = dir;
    for (bool resume : {false, true}) {
        SessionManager sm(opt);
        open.resume = resume;
        Message opened = sm.handle(open);
        if (opened.type != MsgType::kOpened)
            fail(method, b, opened.text);
        for (std::uint64_t evals = opened.evals; resume || evals < half;) {
            Message ask;
            ask.type = MsgType::kSuggest;
            ask.session = open.session;
            ask.n = resume ? 4 : static_cast<int>(
                                     std::min<std::uint64_t>(4, half - evals));
            Message batch = sm.handle(ask);
            if (batch.type != MsgType::kConfigs)
                fail(method, b, batch.text);
            if (batch.configs.empty())
                break;
            Message tell;
            tell.type = MsgType::kObserve;
            tell.session = open.session;
            for (std::size_t i = 0; i < batch.configs.size(); ++i) {
                ObservedResult r;
                r.config = batch.configs[i];
                EvalResult e = evaluate_on(b, r.config, seed, batch.index + i);
                r.value = e.value;
                r.feasible = e.feasible;
                tell.results.push_back(std::move(r));
            }
            Message ok = sm.handle(tell);
            if (ok.type != MsgType::kOk)
                fail(method, b, ok.text);
            evals = ok.evals;
        }
    }
    const std::string path = dir + "/digest.ckpt.jsonl";
    std::optional<CheckpointData> data = load_checkpoint(path);
    std::filesystem::remove(path);
    if (!data)
        fail(method, b, "no final checkpoint at " + path);
    return data->history;
}

}  // namespace

int
main(int argc, char** argv)
{
    const bool work = argc == 2 && std::strcmp(argv[1], "--work") == 0;
    if (argc > 1 && !work) {
        std::fprintf(stderr, "usage: baco_history_digest [--work]\n");
        return 2;
    }
    struct Leg {
      unsigned seed;
      const char* label;  // appended to the seed field; empty for Serial
      ExecutionPolicy policy;
    };
    const Leg kLegs[] = {
        {1, "", ExecutionPolicy::Serial()},
        {2, "", ExecutionPolicy::Serial()},
        {1, ",batched(4)", ExecutionPolicy::Batched(4)},
        {1, ",distributed(2,4)", ExecutionPolicy::Distributed(2, 4)},
    };
    auto run = [](const std::string& method, const Benchmark& b,
                  const Leg& leg) {
        return StudyBuilder()
            .benchmark(b.name)
            .method(method)
            .seed(leg.seed)
            .execution(leg.policy)
            .build()
            .run();
    };
    if (work) {
        double totals[std::size(kWorkCounters)] = {};
        for (const Leg& leg : kLegs) {
            if (leg.policy.mode != ExecutionPolicy::Mode::kSerial)
                continue;
            for (const Benchmark& b : suite::all_benchmarks())
                print_work(b.name, leg.seed, run("baco", b, leg).metrics,
                           totals);
        }
        std::printf("total");
        for (std::size_t i = 0; i < std::size(kWorkCounters); ++i)
            std::printf(" %s=%.0f", kWorkCounters[i].first, totals[i]);
        std::printf("\n");
        return 0;
    }

    // A failure unwinds through the sessions' checkpoint directory, which
    // removes itself.
    try {
        ScopedTempDir dir("baco_digest_");
        for (const std::string& method : MethodRegistry().names()) {
            for (const Leg& leg : kLegs) {
                for (const Benchmark& b : suite::all_benchmarks())
                    print_history(method, b.name, leg.seed, leg.label,
                                  run(method, b, leg).history);
            }
            for (const Benchmark& b : suite::all_benchmarks())
                print_history(method, b.name, 1, ",session(4)",
                              session_history(method, b, dir.path(), 1));
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "baco_history_digest: %s\n", e.what());
        return 2;
    }
    return 0;
}
