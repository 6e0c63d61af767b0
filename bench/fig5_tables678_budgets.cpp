// Regenerates Fig. 5 and Tables 5/6/7/8: performance relative to expert at
// tiny (1/3), small (2/3) and full budgets for every benchmark and method,
// plus the count of runs reaching expert level (Table 5).
//
// One full-budget run per (benchmark, method, repetition) provides all
// three tiers by slicing the best-so-far trajectory.
//
// Usage: fig5_tables678_budgets [--reps N] [--seed S]

#include <iostream>
#include <map>

#include "harness_util.hpp"
#include "suite/registry.hpp"
#include "suite/report.hpp"
#include "suite/runner.hpp"

using namespace baco;
using namespace baco::suite;
using baco::bench::HarnessArgs;
using baco::bench::safe_geomean;

int
main(int argc, char** argv)
{
    HarnessArgs args = HarnessArgs::parse(argc, argv, /*default_reps=*/5);
    const std::vector<std::string>& methods = headline_methods();

    std::cout << "Running all benchmarks x " << methods.size()
              << " methods x " << args.reps
              << " repetitions (paper: 30; use --reps 30 to match)...\n";

    // benchmark name -> method -> stats.
    std::map<std::string, std::map<std::string, RepStats>> results;
    for (const Benchmark& b : all_benchmarks()) {
        for (const std::string& m : methods) {
            results[b.name][m] = run_repetitions(b, m, b.full_budget,
                                                 args.reps, args.seed);
        }
        std::cout << "  done: " << b.name << "\n" << std::flush;
    }

    // ---- Tables 6/7/8: relative performance per budget tier. ----
    struct Tier {
      const char* title;
      int (*budget)(const Benchmark&);
    };
    const Tier tiers[] = {
        {"Table 6: performance relative to expert, TINY budget (1/3)",
         [](const Benchmark& b) { return b.tiny_budget(); }},
        {"Table 7: performance relative to expert, SMALL budget (2/3)",
         [](const Benchmark& b) { return b.small_budget(); }},
        {"Table 8: performance relative to expert, FULL budget",
         [](const Benchmark& b) { return b.full_budget; }},
    };

    // Collect per-framework means for the Fig. 5 summary.
    // tier -> framework -> method -> mean relative performance.
    std::map<int, std::map<std::string, std::map<std::string, double>>> fig5;

    for (int t = 0; t < 3; ++t) {
        print_banner(std::cout, tiers[t].title);
        std::vector<std::string> headers{"Framework", "Benchmark"};
        for (const std::string& m : methods)
            headers.push_back(m);
        TextTable table(headers);

        std::map<std::string, std::map<std::string, std::vector<double>>>
            by_fw;
        std::map<std::string, std::vector<double>> overall;

        for (const Benchmark& b : all_benchmarks()) {
            std::vector<std::string> row{b.framework, b.name};
            int at = tiers[t].budget(b);
            for (const std::string& m : methods) {
                double rel = results[b.name][m].mean_rel_to_reference(
                    b.reference_cost, at);
                row.push_back(fmt(rel, 2));
                by_fw[b.framework][m].push_back(rel);
                overall[m].push_back(rel);
            }
            table.add_row(row);
        }
        for (const char* fw : {"TACO", "RISE", "HPVM2FPGA"}) {
            std::vector<std::string> row{fw, "(mean)"};
            for (const std::string& m : methods) {
                double mean_rel = mean(by_fw[fw][m]);
                row.push_back(fmt(mean_rel, 2));
                fig5[t][fw][m] = mean_rel;
            }
            table.add_row(row);
        }
        std::vector<std::string> row{"All", "(mean)"};
        for (const std::string& m : methods)
            row.push_back(fmt(mean(overall[m]), 2));
        table.add_row(row);
        table.print(std::cout);
    }

    // ---- Fig. 5 summary. ----
    print_banner(std::cout,
                 "Fig. 5: average performance relative to expert per "
                 "framework and budget");
    TextTable fig5_table({"Framework", "Budget", "BaCO", "ATF", "Ytopt",
                          "Uniform", "CoT"});
    const char* tier_names[] = {"tiny", "small", "full"};
    for (const char* fw : {"TACO", "RISE", "HPVM2FPGA"}) {
        for (int t = 0; t < 3; ++t) {
            std::vector<std::string> row{fw, tier_names[t]};
            for (const std::string& m : methods)
                row.push_back(fmt(fig5[t][fw][m], 2) + "x");
            fig5_table.add_row(row);
        }
    }
    fig5_table.print(std::cout);

    // ---- Table 5: runs reaching expert-level performance. ----
    print_banner(std::cout, "Table 5: runs (of " + std::to_string(args.reps) +
                                ") reaching expert-level performance with "
                                "the full budget");
    std::vector<std::string> headers{"Framework", "Benchmark"};
    for (const std::string& m : methods)
        headers.push_back(m);
    TextTable t5(headers);
    std::map<std::string, std::map<std::string, int>> fw_counts;
    for (const Benchmark& b : all_benchmarks()) {
        std::vector<std::string> row{b.framework, b.name};
        for (const std::string& m : methods) {
            int reached = results[b.name][m].count_reached(b.reference_cost);
            row.push_back(std::to_string(reached));
            fw_counts[b.framework][m] += reached;
        }
        t5.add_row(row);
    }
    for (const char* fw : {"TACO", "RISE", "HPVM2FPGA"}) {
        std::vector<std::string> row{fw, "(total)"};
        for (const std::string& m : methods)
            row.push_back(std::to_string(fw_counts[fw][m]));
        t5.add_row(row);
    }
    t5.print(std::cout);

    return 0;
}
