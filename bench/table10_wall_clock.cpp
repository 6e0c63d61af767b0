// Regenerates Table 10: average wall-clock time of each autotuner on the
// TACO SpMM and SDDMM benchmarks, split into search overhead (measured) and
// modelled kernel evaluation time (the sum of simulated runtimes, which is
// what dominates on the paper's real testbed).
//
// A second section tracks the exec-layer speedup: the same repetition
// sweep run sequentially vs fanned out over the work-stealing thread pool
// (and BaCO itself as a Batched(4) study), so the batched drive's
// wall-clock win is part of the bench trajectory.
//
// Usage: table10_wall_clock [--reps N] [--seed S] [--json [PATH]]
//
// --json writes BENCH_table10_wall_clock.json (or PATH): the per-
// (kernel, method) overhead/modelled-time rows plus the exec-engine
// speedup section, so the wall-clock trajectory is machine-tracked
// across PRs alongside BENCH_async_utilization.json.

#include <chrono>
#include <iostream>
#include <map>
#include <thread>

#include "api/study.hpp"
#include "harness_util.hpp"
#include "suite/registry.hpp"
#include "suite/report.hpp"
#include "suite/runner.hpp"

using namespace baco;
using namespace baco::suite;
using baco::bench::HarnessArgs;

int
main(int argc, char** argv)
{
    HarnessArgs args = HarnessArgs::parse(argc, argv, /*default_reps=*/3,
                                          "BENCH_table10_wall_clock.json");
    const std::vector<std::string>& methods = headline_methods();
    std::vector<std::string> json_rows;
    std::vector<std::string> json_engine_rows;

    print_banner(std::cout,
                 "Table 10: average wall-clock seconds per autotuning run "
                 "(TACO SpMM and SDDMM)");

    struct Group {
      const char* kernel;
      std::vector<const char*> names;
    };
    const Group groups[] = {
        {"SpMM", {"SpMM/scircuit", "SpMM/cage12", "SpMM/laminar_duct3D"}},
        {"SDDMM",
         {"SDDMM/email-Enron", "SDDMM/ACTIVSg10K", "SDDMM/Goodwin_040"}},
    };

    TextTable table({"Kernel", "Method", "search overhead [s]",
                     "modelled kernel time [s]", "total [s]"});
    for (const Group& g : groups) {
        for (const std::string& m : methods) {
            double overhead = 0.0, modelled = 0.0;
            int n = 0;
            for (const char* name : g.names) {
                const Benchmark& b = find_benchmark(name);
                for (int r = 0; r < args.reps; ++r) {
                    TuningHistory h = run_method(
                        b, m, b.full_budget,
                        args.seed + static_cast<std::uint64_t>(r));
                    overhead += h.tuner_seconds;
                    for (const Observation& o : h.observations) {
                        if (o.feasible)
                            modelled += o.value / 1e3;  // ms -> s
                    }
                    ++n;
                }
            }
            overhead /= n;
            modelled /= n;
            table.add_row({g.kernel, m, fmt(overhead, 3),
                           fmt(modelled, 2), fmt(overhead + modelled, 2)});
            baco::bench::JsonWriter row;
            row.field("kernel", std::string(g.kernel))
                .field("method", m)
                .field("search_overhead_seconds", overhead)
                .field("modelled_kernel_seconds", modelled)
                .field("total_seconds", overhead + modelled);
            json_rows.push_back(row.str());
        }
    }
    table.print(std::cout);
    std::cout << "\nPaper shape: heuristic search (ATF) has the smallest "
                 "overhead; model-based methods pay more per iteration but "
                 "choose faster-to-evaluate configurations, so their total "
                 "wall clock stays competitive (Table 10: BaCO second "
                 "fastest after ATF).\n";

    // ---- Sequential vs batched exec engine on the same budget. ----
    using Clock = std::chrono::steady_clock;
    auto wall = [](auto&& fn) {
        auto t0 = Clock::now();
        fn();
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };
    unsigned lanes = std::max(1u, std::thread::hardware_concurrency());

    print_banner(std::cout,
                 "Exec engine: sequential vs batched wall-clock "
                 "(same seeds, same budget; " +
                     std::to_string(lanes) + " hardware threads)");
    TextTable engine_table({"Benchmark", "Mode", "sequential [s]",
                            "parallel/batched [s]", "speedup"});
    const char* engine_benchmarks[] = {"SpMM/scircuit", "SDDMM/email-Enron"};
    for (const char* name : engine_benchmarks) {
        const Benchmark& b = find_benchmark(name);
        int reps = std::max(args.reps, 2 * static_cast<int>(lanes));

        // Suite fan-out: independent seed repetitions across the pool.
        double seq = wall([&] {
            run_repetitions(b, "BaCO", b.full_budget, reps, args.seed);
        });
        double par = wall([&] {
            run_repetitions(b, "BaCO", b.full_budget, reps, args.seed,
                            /*num_threads=*/0);
        });
        engine_table.add_row({name, "suite reps x" + std::to_string(reps),
                              fmt(seq, 2), fmt(par, 2),
                              fmt(seq / std::max(par, 1e-9), 2) + "x"});
        {
            baco::bench::JsonWriter row;
            row.field("benchmark", std::string(name))
                .field("mode", "suite_reps_x" + std::to_string(reps))
                .field("sequential_seconds", seq)
                .field("parallel_seconds", par)
                .field("speedup", seq / std::max(par, 1e-9));
            json_engine_rows.push_back(row.str());
        }

        // Single run: serial loop vs batch-4 constant-liar engine.
        double run_seq = wall([&] {
            run_method(b, "BaCO", b.full_budget, args.seed);
        });
        double run_batch = wall([&] {
            StudyBuilder()
                .benchmark(b)
                .method("BaCO")
                .budget(b.full_budget)
                .seed(args.seed)
                .execution(ExecutionPolicy::Batched(4))
                .build()
                .run();
        });
        engine_table.add_row({name, "single run, batch=4", fmt(run_seq, 2),
                              fmt(run_batch, 2),
                              fmt(run_seq / std::max(run_batch, 1e-9), 2) +
                                  "x"});
        {
            baco::bench::JsonWriter row;
            row.field("benchmark", std::string(name))
                .field("mode", std::string("single_run_batch4"))
                .field("sequential_seconds", run_seq)
                .field("parallel_seconds", run_batch)
                .field("speedup", run_seq / std::max(run_batch, 1e-9));
            json_engine_rows.push_back(row.str());
        }
    }
    engine_table.print(std::cout);
    std::cout << "\nSuite fan-out speedup approaches the core count (the "
                 "evaluations here are cheap simulations, so search "
                 "overhead dominates; with real compiler toolchains the "
                 "batched engine additionally overlaps compile+run "
                 "latency). Batch-4 trades per-iteration model refits for "
                 "fewer acquisition rounds.\n";

    if (!args.json_path.empty()) {
        baco::bench::JsonWriter json;
        json.field("bench", std::string("table10_wall_clock"))
            .field("reps", args.reps)
            .raw_field("rows", baco::bench::JsonWriter::array(json_rows))
            .raw_field("engine_rows",
                       baco::bench::JsonWriter::array(json_engine_rows));
        if (!baco::bench::write_json(args.json_path, json)) {
            std::cout << "cannot write " << args.json_path << "\n";
            return 1;
        }
        std::cout << "wrote " << args.json_path << "\n";
    }
    return 0;
}
