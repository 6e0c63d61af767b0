// baco_history_digest: print BaCO's complete tuning histories in a form
// that compares bit for bit across builds.
//
// Runs BaCO at the full (Table 3) budget on every registry benchmark:
// serially with two fixed seeds, then at seed 1 in barrier rounds of 4 on
// a thread pool (Batched(4)) and across 2 loopback workers
// (Distributed(2, 4)). Prints one line per observation:
//
//   <benchmark> seed=<seed>[,<policy>] #<index> <value as hexfloat> <feasible 0|1> <config JSON>
//
// Two builds that print identical output made identical suggestions and
// saw identical values, so a performance change that claims to leave the
// search untouched can be checked by diffing the output of the two
// builds (scripts/history_parity.sh does exactly that). The batched and
// distributed histories cover the pool and fleet barrier rounds too.
//
// Usage: baco_history_digest   (no options; output on stdout)

#include <cstdio>
#include <string>

#include "api/baco.hpp"
#include "exec/jsonl.hpp"

int
main()
{
    using namespace baco;
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
            TuningHistory h = study.run().history;
            for (std::size_t i = 0; i < h.observations.size(); ++i) {
                const Observation& o = h.observations[i];
                std::printf("%s seed=%u%s #%zu %a %d %s\n", b.name.c_str(),
                            leg.seed, leg.label, i, o.value,
                            o.feasible ? 1 : 0,
                            jsonl::config_json(o.config).c_str());
            }
        }
    }
    return 0;
}
