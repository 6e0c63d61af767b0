// Regenerates Fig. 6 (evolution of average best runtime for one kernel per
// framework) and Table 9 (how much faster BaCO reaches the baselines' final
// performance, across all benchmarks).
//
// Usage: fig6_table9_evolution [--reps N] [--seed S]

#include <iostream>
#include <map>

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
    HarnessArgs args = HarnessArgs::parse(argc, argv, /*default_reps=*/3);
    const std::vector<std::string>& methods = headline_methods();

    // ---- Fig. 6: one representative kernel per framework. ----
    const char* representatives[] = {"SpMM/scircuit", "MM_GPU", "Audio"};
    for (const char* name : representatives) {
        const Benchmark& b = find_benchmark(name);
        print_banner(std::cout, std::string("Fig. 6: evolution of average "
                                            "best runtime [ms] - ") +
                                    b.framework + " " + b.name);
        std::map<std::string, std::vector<double>> curves;
        for (const std::string& m : methods) {
            curves[m] = run_repetitions(b, m, b.full_budget, args.reps,
                                        args.seed)
                            .mean_trajectory();
        }
        std::vector<std::string> headers{"evals"};
        for (const std::string& m : methods)
            headers.push_back(m);
        headers.push_back("Expert");
        headers.push_back("Default");
        TextTable table(headers);
        for (int e = 5; e <= b.full_budget; e += 5) {
            std::vector<std::string> row{std::to_string(e)};
            for (const std::string& m : methods) {
                const auto& c = curves[m];
                std::size_t at = std::min<std::size_t>(
                    c.size() - 1, static_cast<std::size_t>(e - 1));
                row.push_back(fmt(c[at], 3));
            }
            row.push_back(fmt(b.reference_cost, 3));
            row.push_back(b.default_config
                              ? fmt(b.true_cost(*b.default_config), 3)
                              : "-");
            table.add_row(row);
        }
        table.print(std::cout);
    }

    // ---- Table 9: evaluations-to-reach factors. ----
    print_banner(std::cout,
                 "Table 9: factor by which BaCO needs fewer evaluations to "
                 "reach each baseline's final performance ('-' = BaCO never "
                 "reaches it)");
    const std::vector<std::string> baselines{"ATF", "Ytopt", "Uniform",
                                             "CoT"};
    std::vector<std::string> headers{"Framework", "Benchmark"};
    for (const std::string& m : baselines)
        headers.push_back(m);
    TextTable table(headers);

    std::map<std::string, std::map<std::string, std::vector<double>>>
        fw_factors;
    std::map<std::string, std::vector<double>> all_factors;

    for (const Benchmark& b : all_benchmarks()) {
        std::vector<double> baco_curve =
            run_repetitions(b, "BaCO", b.full_budget, args.reps, args.seed)
                .mean_trajectory();
        std::vector<std::string> row{b.framework, b.name};
        for (const std::string& m : baselines) {
            std::vector<double> other =
                run_repetitions(b, m, b.full_budget, args.reps, args.seed)
                    .mean_trajectory();
            double final_best = other.back();
            int e_other = evals_to_reach(other, final_best);
            int e_baco = evals_to_reach(baco_curve, final_best);
            if (e_baco < 0 || e_other < 0) {
                row.push_back("-");
            } else {
                double factor = static_cast<double>(e_other) / e_baco;
                row.push_back(fmt_factor(factor, 2));
                fw_factors[b.framework][m].push_back(factor);
                all_factors[m].push_back(factor);
            }
        }
        table.add_row(row);
    }
    for (const char* fw : {"TACO", "RISE", "HPVM2FPGA"}) {
        std::vector<std::string> row{fw, "(mean)"};
        for (const std::string& m : baselines)
            row.push_back(fw_factors[fw][m].empty()
                              ? "-"
                              : fmt_factor(mean(fw_factors[fw][m]), 2));
        table.add_row(row);
    }
    std::vector<std::string> row{"All", "(mean)"};
    for (const std::string& m : baselines)
        row.push_back(all_factors[m].empty()
                          ? "-"
                          : fmt_factor(mean(all_factors[m]), 2));
    table.add_row(row);
    table.print(std::cout);

    return 0;
}
