// Head-to-head comparison of all five autotuners on one benchmark,
// printing the Fig. 7-style evolution table — a minimal version of the
// bench/ harnesses for interactive use.
//
// Usage: compare_tuners [benchmark-name] (default: SDDMM/email-Enron)

#include <iostream>
#include <map>

#include "suite/registry.hpp"
#include "suite/report.hpp"
#include "suite/runner.hpp"

using namespace baco;
using namespace baco::suite;

int
main(int argc, char** argv)
{
    std::string name = argc > 1 ? argv[1] : "SDDMM/email-Enron";
    const Benchmark& b = find_benchmark(name);

    std::cout << "benchmark: " << b.framework << " " << b.name
              << " (budget " << b.full_budget << ")\n";
    std::cout << "expert reference: " << fmt(b.reference_cost, 3)
              << " ms\n\n";

    const int reps = 3;
    std::map<std::string, RepStats> stats;
    for (const std::string& m : headline_methods())
        stats[m] = run_repetitions(b, m, b.full_budget, reps, 17);

    std::vector<std::string> headers{"evals"};
    for (const std::string& m : headline_methods())
        headers.push_back(m);
    TextTable table(headers);
    int step = std::max(1, b.full_budget / 10);
    for (int e = step; e <= b.full_budget; e += step) {
        std::vector<std::string> row{std::to_string(e)};
        for (const std::string& m : headline_methods())
            row.push_back(fmt(stats[m].mean_best_at(e), 3));
        table.add_row(row);
    }
    table.print(std::cout);

    std::cout << "\nperformance relative to expert at full budget:\n";
    for (const std::string& m : headline_methods()) {
        std::cout << "  " << m << ": "
                  << fmt(stats[m].mean_rel_to_reference(b.reference_cost,
                                                        b.full_budget),
                         2)
                  << "x\n";
    }
    return 0;
}
