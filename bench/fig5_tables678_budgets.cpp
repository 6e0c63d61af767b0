// Regenerates Fig. 5 and Tables 5/6/7/8: performance relative to expert at
// tiny (1/3), small (2/3) and full budgets for every benchmark and method,
// plus the count of runs reaching expert level (Table 5).
//
// One full-budget run per (benchmark, method, repetition) provides all
// three tiers by slicing the best-so-far trajectory.
//
// --json PATH also writes every repetition's numbers, one cell per
// (framework, benchmark, method, seed): performance relative to expert at
// the tiny, small and full budgets, and the evaluations needed to reach
// expert (-1 if never). scripts/quality_gate.py pairs two such files seed
// by seed. --threads N runs each cell's repetitions on N lanes; the
// output does not depend on N.
//
// Usage: fig5_tables678_budgets [--reps N] [--seed S] [--threads N]
//                               [--json PATH]

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>

#include "harness_util.hpp"
#include "suite/registry.hpp"
#include "suite/report.hpp"
#include "suite/runner.hpp"

using namespace baco;
using namespace baco::suite;
using baco::bench::HarnessArgs;
using baco::bench::JsonWriter;
using baco::bench::safe_geomean;

namespace {

/** --threads N: the lanes run_repetitions fans each cell's repetitions
 *  out to (1, the default, runs them inline; 0 uses every core). */
int
parse_threads(int argc, char** argv)
{
    int threads = 1;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--threads") == 0)
            threads = std::atoi(argv[++i]);
    return threads;
}

/** A double with every digit, so equal cells compare equal as text. */
std::string
exact(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/** One JSON cell per repetition of (benchmark, method). */
void
add_cells(const Benchmark& b, const std::string& method, const RepStats& s,
          std::uint64_t seed0, std::vector<std::string>* cells)
{
    for (std::size_t r = 0; r < s.trajectories.size(); ++r) {
        const std::vector<double>& t = s.trajectories[r];
        JsonWriter cell;
        cell.field("framework", b.framework)
            .field("benchmark", b.name)
            .field("method", method)
            .field("seed", seed0 + r)
            .raw_field("tiny", exact(rel_to_reference(t, b.reference_cost,
                                                      b.tiny_budget())))
            .raw_field("small", exact(rel_to_reference(t, b.reference_cost,
                                                       b.small_budget())))
            .raw_field("full", exact(rel_to_reference(t, b.reference_cost,
                                                      b.full_budget)))
            .field("evals_to_expert", evals_to_reach(t, b.reference_cost));
        cells->push_back(cell.str());
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    HarnessArgs args = HarnessArgs::parse(argc, argv, /*default_reps=*/5);
    int threads = parse_threads(argc, argv);
    const std::vector<std::string>& methods = headline_methods();

    std::cout << "Running all benchmarks x " << methods.size()
              << " methods x " << args.reps
              << " repetitions (paper: 30; use --reps 30 to match)...\n";

    // benchmark name -> method -> stats.
    std::map<std::string, std::map<std::string, RepStats>> results;
    std::vector<std::string> cells;
    for (const Benchmark& b : all_benchmarks()) {
        for (const std::string& m : methods) {
            RepStats& s = results[b.name][m];
            s = run_repetitions(b, m, b.full_budget, args.reps, args.seed,
                                threads);
            add_cells(b, m, s, args.seed, &cells);
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

    if (!args.json_path.empty()) {
        JsonWriter json;
        json.field("bench", std::string("fig5_tables678_budgets"))
            .field("reps", args.reps)
            .field("seed", args.seed)
            .raw_field("cells", JsonWriter::array(cells));
        if (!baco::bench::write_json(args.json_path, json)) {
            std::cerr << "cannot write " << args.json_path << "\n";
            return 1;
        }
    }
    return 0;
}
