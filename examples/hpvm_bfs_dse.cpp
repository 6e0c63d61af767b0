// FPGA design-space exploration on the HPVM2FPGA BFS benchmark: a tiny
// 256-design space that can be enumerated exhaustively, so we can show how
// close BaCO gets to the true optimum with the paper's tiny budget of 20
// (and tiny = 6) estimator invocations.

#include <iostream>
#include <limits>

#include "hpvm/benchmarks.hpp"
#include "suite/runner.hpp"

using namespace baco;
using namespace baco::suite;

int
main()
{
    Benchmark b = hpvm::make_hpvm_benchmark("BFS");
    auto space = b.make_space(SpaceVariant{});

    // Exhaustive ground truth over all 8*8*2*2 = 256 designs.
    double best_true = std::numeric_limits<double>::infinity();
    Configuration best_cfg;
    int feasible_count = 0;
    for (std::int64_t u0 = 0; u0 <= 7; ++u0) {
        for (std::int64_t u1 = 0; u1 <= 7; ++u1) {
            for (std::int64_t f = 0; f <= 1; ++f) {
                for (std::int64_t p = 0; p <= 1; ++p) {
                    Configuration c{u0, u1, f, p};
                    if (!b.hidden_feasible(c))
                        continue;
                    ++feasible_count;
                    double ms = b.true_cost(c);
                    if (ms < best_true) {
                        best_true = ms;
                        best_cfg = c;
                    }
                }
            }
        }
    }
    std::cout << "BFS design space: 256 designs, " << feasible_count
              << " fit on the modelled Arria 10 (hidden constraints)\n";
    std::cout << "exhaustive optimum: " << best_true << " ms at "
              << space->config_to_string(best_cfg) << "\n\n";

    for (int budget : {6, 13, 20}) {  // tiny / small / full (Table 3)
        TuningHistory h = run_method(b, "BaCO", budget, 5);
        std::cout << "BaCO with budget " << budget << ": best "
                  << h.best_value << " ms ("
                  << 100.0 * best_true / h.best_value
                  << "% of the exhaustive optimum)\n";
    }
    std::cout << "\ndefault design: " << b.true_cost(*b.default_config)
              << " ms\n";
    return 0;
}
