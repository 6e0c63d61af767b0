// Regenerates Fig. 9: ablation of BaCO's design choices on TACO SpMM
// (filter3D, email-Enron, amazon0312) — permutation metric choice
// (Spearman default vs Kendall vs Hamming vs naive-categorical), input/
// output log transforms, and lengthscale priors. Each of Spearman, Kendall
// and Hamming appears in both forms: the Euclidean form BaCO uses by
// default, and the paper's semimetric (the rows that reproduce Fig. 9).
//
// Usage: fig9_ablation [--reps N] [--seed S]

#include <iostream>

#include "harness_util.hpp"
#include "suite/report.hpp"
#include "suite/runner.hpp"
#include "taco/benchmarks.hpp"

using namespace baco;
using namespace baco::suite;
using baco::bench::HarnessArgs;
using baco::bench::safe_geomean;

int
main(int argc, char** argv)
{
    HarnessArgs args = HarnessArgs::parse(argc, argv, /*default_reps=*/3);
    const int budget = 60;
    const char* matrices[] = {"filter3D", "email-Enron", "amazon0312"};

    print_banner(std::cout,
                 "Fig. 9: ablation of BaCO design choices on TACO SpMM "
                 "(geomean perf. relative to expert)");

    struct Variant {
      const char* name;
      SpaceVariant space;
      bool log_objective;
      bool use_priors;
    };
    const auto perm = [](PermutationMetric metric, PermutationForm form) {
        SpaceVariant v;
        v.permutation_metric = metric;
        v.permutation_form = form;
        return v;
    };
    const PermutationForm euclid = PermutationForm::kEuclidean;
    const PermutationForm paper = PermutationForm::kSemimetric;
    const SpaceVariant spearman;
    SpaceVariant no_logs;
    no_logs.log_transforms = false;

    const Variant variants[] = {
        {"BaCO (Spearman, Euclidean)", spearman, true, true},
        {"Spearman, paper semimetric",
         perm(PermutationMetric::kSpearman, paper), true, true},
        {"Kendall, Euclidean", perm(PermutationMetric::kKendall, euclid),
         true, true},
        {"Kendall, paper semimetric",
         perm(PermutationMetric::kKendall, paper), true, true},
        {"Hamming, Euclidean", perm(PermutationMetric::kHamming, euclid),
         true, true},
        {"Hamming, paper semimetric",
         perm(PermutationMetric::kHamming, paper), true, true},
        {"Naive (categorical)", perm(PermutationMetric::kNaive, euclid), true,
         true},
        {"No transformations", no_logs, false, true},
        {"No priors", spearman, true, false},
    };

    TextTable table({"Variant", "20 evals", "40 evals", "60 evals"});
    for (const Variant& v : variants) {
        std::vector<double> at[3];
        for (const char* matrix : matrices) {
            Benchmark b =
                taco::make_taco_benchmark(taco::TacoKernel::kSpMM, matrix);
            std::vector<std::vector<double>> trajs;
            for (int r = 0; r < args.reps; ++r) {
                TunerOptions opt = TunerOptions::baco_defaults();
                opt.budget = budget;
                opt.doe_samples = b.doe_samples;
                opt.seed = args.seed + static_cast<std::uint64_t>(r);
                opt.log_objective = v.log_objective;
                opt.gp.use_priors = v.use_priors;
                trajs.push_back(
                    run_baco_custom(b, opt, v.space).best_trajectory());
            }
            for (int t = 0; t < 3; ++t) {
                int evals = 20 * (t + 1);
                std::vector<double> rels;
                for (const auto& traj : trajs) {
                    std::size_t i = std::min<std::size_t>(
                        traj.size() - 1,
                        static_cast<std::size_t>(evals - 1));
                    rels.push_back(std::isfinite(traj[i])
                                       ? b.reference_cost / traj[i]
                                       : 0.0);
                }
                at[t].push_back(mean(rels));
            }
        }
        table.add_row({v.name, fmt(safe_geomean(at[0]), 2) + "x",
                       fmt(safe_geomean(at[1]), 2) + "x",
                       fmt(safe_geomean(at[2]), 2) + "x"});
    }
    table.print(std::cout);
    std::cout << "\nPaper shape (its rows use the semimetric form): Spearman "
                 "best (especially early); removing log transforms hurts at "
                 "all budgets; priors matter most early on.\n";
    return 0;
}
