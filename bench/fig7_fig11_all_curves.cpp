// Regenerates Fig. 7 and Fig. 11: evolution of the average best runtime for
// every benchmark and method, plus the iteration at which each method first
// beats the expert configuration (the figures' star markers).
//
// Usage: fig7_fig11_all_curves [--reps N] [--seed S]

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
    HarnessArgs args = HarnessArgs::parse(argc, argv, /*default_reps=*/2);
    const std::vector<std::string>& methods = headline_methods();

    print_banner(std::cout,
                 "Fig. 7 + Fig. 11: evolution of average best runtime "
                 "[ms] for all benchmarks (" +
                     std::to_string(args.reps) + " repetitions)");

    for (const Benchmark& b : all_benchmarks()) {
        std::cout << "\n--- " << b.framework << " " << b.name
                  << " (budget " << b.full_budget
                  << ", DoE " << b.doe_samples << ")"
                  << "  expert=" << fmt(b.reference_cost, 3) << " ms"
                  << "  default="
                  << (b.default_config
                          ? fmt(b.true_cost(*b.default_config), 3)
                          : std::string("-"))
                  << " ms ---\n";

        std::map<std::string, std::vector<double>> curves;
        for (const std::string& m : methods) {
            curves[m] = run_repetitions(b, m, b.full_budget, args.reps,
                                        args.seed)
                            .mean_trajectory();
        }

        std::vector<std::string> headers{"evals"};
        for (const std::string& m : methods)
            headers.push_back(m);
        TextTable table(headers);
        int step = std::max(1, b.full_budget / 12);
        for (int e = step; e <= b.full_budget; e += step) {
            std::vector<std::string> row{std::to_string(e)};
            for (const std::string& m : methods) {
                const auto& c = curves[m];
                std::size_t at = std::min<std::size_t>(
                    c.size() - 1, static_cast<std::size_t>(e - 1));
                row.push_back(fmt(c[at], 3));
            }
            table.add_row(row);
        }
        table.print(std::cout);

        // Star markers: first iteration beating the expert reference.
        std::cout << "beats-expert at eval:";
        for (const std::string& m : methods) {
            int at = evals_to_reach(curves[m], b.reference_cost);
            std::cout << "  " << m << "="
                      << (at < 0 ? std::string("-") : std::to_string(at));
        }
        std::cout << "\n";
    }
    return 0;
}
