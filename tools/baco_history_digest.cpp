// baco_history_digest: print BaCO's complete tuning histories in a form
// that compares bit for bit across builds.
//
// Runs BaCO at the full (Table 3) budget on every registry benchmark:
// serially with two fixed seeds, then at seed 1 in barrier rounds of 4 on
// a thread pool (Batched(4)), across 2 loopback workers
// (Distributed(2, 4)), and over the serve protocol (session(4)). The
// session leg drives a SessionManager session, checkpointing into a
// temporary directory, with suggest and observe frames in rounds of 4,
// evaluating client-side with serve::evaluate_on. Its manager is
// destroyed at half budget (a server crash), a new one re-opens the
// session with resume=true to finish, and the leg prints the final
// checkpoint's history. Prints one line per observation:
//
//   <benchmark> seed=<seed>[,<policy>] #<index> <value as hexfloat> <feasible 0|1> <config JSON>
//
// Two builds that print identical output made identical suggestions and
// saw identical values, so a performance change that claims to leave the
// search untouched can be checked by diffing the output of the two
// builds (scripts/history_parity.sh does exactly that). The batched,
// distributed and session histories cover the pool and fleet barrier
// rounds and the session's open, observe, checkpoint and resume path too.
//
// Usage: baco_history_digest   (no options; output on stdout)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "api/baco.hpp"
#include "exec/jsonl.hpp"
#include "serve/session_manager.hpp"
#include "serve/worker.hpp"

using namespace baco;

namespace {

void
print_history(const std::string& benchmark, unsigned seed, const char* label,
              const TuningHistory& h)
{
    for (std::size_t i = 0; i < h.observations.size(); ++i) {
        const Observation& o = h.observations[i];
        std::printf("%s seed=%u%s #%zu %a %d %s\n", benchmark.c_str(), seed,
                    label, i, o.value, o.feasible ? 1 : 0,
                    jsonl::config_json(o.config).c_str());
    }
}

[[noreturn]] void
fail(const Benchmark& b, const std::string& what)
{
    std::fprintf(stderr, "baco_history_digest: %s session: %s\n",
                 b.name.c_str(), what.c_str());
    std::exit(2);
}

/** The session(4) leg on one benchmark: see the file comment. */
TuningHistory
session_history(const Benchmark& b, const std::string& dir, unsigned seed)
{
    using namespace baco::serve;
    Message open;
    open.type = MsgType::kOpenSession;
    open.session = "digest";
    open.benchmark = b.name;
    open.method = "BaCO";
    open.seed = seed;  // budget and doe 0: the benchmark's own
    const std::uint64_t half = static_cast<std::uint64_t>(b.full_budget / 2);
    SessionManagerOptions opt;
    opt.checkpoint_dir = dir;
    for (bool resume : {false, true}) {
        SessionManager sm(opt);
        open.resume = resume;
        Message opened = sm.handle(open);
        if (opened.type != MsgType::kOpened)
            fail(b, opened.text);
        for (std::uint64_t evals = opened.evals; resume || evals < half;) {
            Message ask;
            ask.type = MsgType::kSuggest;
            ask.session = open.session;
            ask.n = resume ? 4 : static_cast<int>(
                                     std::min<std::uint64_t>(4, half - evals));
            Message batch = sm.handle(ask);
            if (batch.type != MsgType::kConfigs)
                fail(b, batch.text);
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
                fail(b, ok.text);
            evals = ok.evals;
        }
    }
    const std::string path = dir + "/digest.ckpt.jsonl";
    std::optional<CheckpointData> data = load_checkpoint(path);
    std::filesystem::remove(path);
    if (!data)
        fail(b, "no final checkpoint at " + path);
    return data->history;
}

}  // namespace

int
main()
{
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
    for (const Leg& leg : kLegs) {
        for (const Benchmark& b : suite::all_benchmarks()) {
            Study study = StudyBuilder()
                              .benchmark(b.name)
                              .method("baco")
                              .seed(leg.seed)
                              .execution(leg.policy)
                              .build();
            print_history(b.name, leg.seed, leg.label, study.run().history);
        }
    }

    std::string dir =
        (std::filesystem::temp_directory_path() / "baco_digest_XXXXXX")
            .string();
    if (!::mkdtemp(dir.data())) {
        std::perror("baco_history_digest: mkdtemp");
        return 2;
    }
    for (const Benchmark& b : suite::all_benchmarks())
        print_history(b.name, 1, ",session(4)", session_history(b, dir, 1));
    std::filesystem::remove_all(dir);
    return 0;
}
