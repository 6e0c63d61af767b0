// Regenerates Fig. 8: comparison between BO implementations on TACO SpMM
// (filter3D, email-Enron, amazon0312) — BaCO, BaCO--, Ytopt's plain GP, and
// BaCO with a random-forest surrogate. Geometric mean of performance
// relative to expert after 20/40/60 evaluations.
//
// Usage: fig8_bo_variants [--reps N] [--seed S]

#include <iostream>

#include "harness_util.hpp"
#include "suite/report.hpp"
#include "suite/runner.hpp"
#include "taco/benchmarks.hpp"

using namespace baco;
using namespace baco::suite;
using baco::bench::HarnessArgs;
using baco::bench::safe_geomean;

namespace {

/** Best-so-far trajectories over repetitions of a custom runner. */
std::vector<std::vector<double>>
run_reps(const std::function<TuningHistory(std::uint64_t)>& run, int reps,
         std::uint64_t seed0)
{
    std::vector<std::vector<double>> out;
    for (int r = 0; r < reps; ++r)
        out.push_back(run(seed0 + static_cast<std::uint64_t>(r))
                          .best_trajectory());
    return out;
}

double
rel_at(const std::vector<std::vector<double>>& trajs, double ref, int at)
{
    std::vector<double> rels;
    for (const auto& t : trajs) {
        std::size_t i = std::min<std::size_t>(
            t.size() - 1, static_cast<std::size_t>(at - 1));
        rels.push_back(std::isfinite(t[i]) ? ref / t[i] : 0.0);
    }
    return mean(rels);
}

}  // namespace

int
main(int argc, char** argv)
{
    HarnessArgs args = HarnessArgs::parse(argc, argv, /*default_reps=*/3);
    const int budget = 60;
    const char* matrices[] = {"filter3D", "email-Enron", "amazon0312"};

    print_banner(std::cout,
                 "Fig. 8: BO implementations on TACO SpMM (geomean of "
                 "perf. relative to expert over filter3D, email-Enron, "
                 "amazon0312)");

    struct Variant {
      const char* name;
      std::function<TuningHistory(const Benchmark&, std::uint64_t)> run;
    };

    SpaceVariant plain;  // BaCO's space: log transforms + Spearman
    SpaceVariant degraded;  // BaCO--'s space: no transforms, naive perms
    degraded.log_transforms = false;
    degraded.permutation_metric = PermutationMetric::kNaive;

    std::vector<Variant> variants;
    variants.push_back({"BaCO", [&](const Benchmark& b, std::uint64_t s) {
        return run_method(b, "BaCO", budget, s, plain);
    }});
    variants.push_back({"BaCO--", [&](const Benchmark& b, std::uint64_t s) {
        TunerOptions opt = TunerOptions::baco_minus_minus();
        opt.budget = budget;
        opt.doe_samples = b.doe_samples;
        opt.seed = s;
        return run_baco_custom(b, opt, degraded);
    }});
    variants.push_back({"Ytopt (GP)", [&](const Benchmark& b, std::uint64_t s) {
        return run_method(b, "Ytopt(GP)", budget, s, degraded);
    }});
    variants.push_back({"RFs", [&](const Benchmark& b, std::uint64_t s) {
        TunerOptions opt = TunerOptions::baco_defaults();
        opt.surrogate = TunerOptions::Surrogate::kRandomForest;
        opt.budget = budget;
        opt.doe_samples = b.doe_samples;
        opt.seed = s;
        return run_baco_custom(b, opt, plain);
    }});

    TextTable table({"Variant", "20 evals", "40 evals", "60 evals"});
    for (const Variant& v : variants) {
        std::vector<double> at20, at40, at60;
        for (const char* matrix : matrices) {
            Benchmark b =
                taco::make_taco_benchmark(taco::TacoKernel::kSpMM, matrix);
            auto trajs = run_reps(
                [&](std::uint64_t s) { return v.run(b, s); }, args.reps,
                args.seed);
            at20.push_back(rel_at(trajs, b.reference_cost, 20));
            at40.push_back(rel_at(trajs, b.reference_cost, 40));
            at60.push_back(rel_at(trajs, b.reference_cost, 60));
        }
        table.add_row({v.name, fmt(safe_geomean(at20), 2) + "x",
                       fmt(safe_geomean(at40), 2) + "x",
                       fmt(safe_geomean(at60), 2) + "x"});
    }
    table.print(std::cout);
    std::cout << "\nPaper shape: BaCO > BaCO-- > Ytopt(GP); RFs below the "
                 "well-implemented GP, especially at small budgets.\n";
    return 0;
}
