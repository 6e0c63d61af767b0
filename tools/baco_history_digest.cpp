// baco_history_digest: print BaCO's complete tuning histories in a form
// that compares bit for bit across builds.
//
// Runs BaCO serially at the full (Table 3) budget on every registry
// benchmark with two fixed seeds and prints one line per observation:
//
//   <benchmark> seed=<seed> #<index> <value as hexfloat> <feasible 0|1> <config JSON>
//
// Two builds that print identical output made identical suggestions and
// saw identical values, so a performance change that claims to leave the
// search untouched can be checked by diffing the output of the two
// builds (scripts/history_parity.sh does exactly that).
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
    const unsigned kSeeds[] = {1, 2};
    for (const Benchmark& b : suite::all_benchmarks()) {
        for (unsigned seed : kSeeds) {
            Study study = StudyBuilder()
                              .benchmark(b.name)
                              .method("baco")
                              .seed(seed)
                              .execution(ExecutionPolicy::Serial())
                              .build();
            TuningHistory h = study.run().history;
            for (std::size_t i = 0; i < h.observations.size(); ++i) {
                const Observation& o = h.observations[i];
                std::printf("%s seed=%u #%zu %a %d %s\n", b.name.c_str(), seed,
                            i, o.value, o.feasible ? 1 : 0,
                            jsonl::config_json(o.config).c_str());
            }
        }
    }
    return 0;
}
