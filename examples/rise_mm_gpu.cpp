// Tune the RISE MM_GPU benchmark: a 10-dimensional ordinal space with
// known divisibility constraints *and* hidden resource constraints (work-
// group limits, local memory, registers). Shows how BaCO's feasibility
// model learns to avoid crashing configurations.

#include <iostream>

#include "rise/benchmarks.hpp"
#include "suite/report.hpp"
#include "suite/runner.hpp"

using namespace baco;
using namespace baco::suite;

namespace {
std::string
fmt_ms(double v)
{
    return fmt(v, 3) + " ms";
}
}  // namespace

int
main()
{
    Benchmark b = rise::make_rise_benchmark("MM_GPU");
    auto space = b.make_space(SpaceVariant{});
    std::cout << "MM_GPU: " << space->num_params()
              << " ordinal parameters, known constraints:";
    for (const Constraint& k : space->constraints())
        std::cout << "  [" << k.source() << "]";
    std::cout << "\nexpert (semi-automated search): "
              << fmt_ms(b.reference_cost) << "\n\n";

    TuningHistory h = run_method(b, "BaCO", b.full_budget, 3);

    int crashes = 0;
    for (const Observation& o : h.observations)
        crashes += o.feasible ? 0 : 1;

    std::cout << "evaluations: " << h.size() << " (" << crashes
              << " hit hidden constraints and failed to launch)\n";
    std::cout << "best found: " << fmt_ms(h.best_value) << " with\n  "
              << space->config_to_string(*h.best_config) << "\n";
    std::cout << "relative to expert: " << b.reference_cost / h.best_value
              << "x\n";

    std::cout << "\nfailure pattern over time (x = infeasible):\n  ";
    for (const Observation& o : h.observations)
        std::cout << (o.feasible ? '.' : 'x');
    std::cout << "\n(the feasibility model pushes failures toward the "
                 "start of the run)\n";
    return 0;
}
