// Microbenchmarks of the GP substrate: fitting, prediction, one
// marginal-likelihood evaluation with its gradient (the unit of work a
// hyperparameter refit repeats), and the incremental append path as a
// function of the training-set size (the dominant per-iteration cost
// inside BaCO's loop, cf. Appendix B).
//
// The headline row is incremental-vs-scratch: growing an existing
// posterior by one observation via GpModel::extend (O(n^2) border
// append) against rebuilding it with fit_with_hyperparams (distance
// tensor + full refactorization) — the exact pair of code paths the
// tuner chooses between on every tell. The gated quantity is their
// dimensionless runtime ratio, so a regression in the append path
// fails scripts/bench_diff.py even across machines.
//
// Usage: micro_gp [--reps N] [--seed S] [--json [PATH]]
//
// --json writes BENCH_micro_gp.json (or PATH) in the same shape as the
// other harnesses: a "rows" array whose gated rows bench_diff.py
// compares against bench/baselines/.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "harness_util.hpp"
#include "gp/gp_model.hpp"
#include "suite/report.hpp"

using namespace baco;
using baco::bench::HarnessArgs;
using baco::bench::JsonWriter;
using baco::suite::TextTable;
using baco::suite::fmt;
using baco::suite::print_banner;

namespace {

SearchSpace
make_space()
{
    SearchSpace s;
    s.add_ordinal("tile", {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}, true);
    s.add_ordinal("unroll", {1, 2, 4, 8, 16}, true);
    s.add_categorical("sched", {"static", "dynamic"});
    s.add_permutation("perm", 5);
    return s;
}

void
make_data(const SearchSpace& s, int n, std::vector<Configuration>* xs,
          std::vector<double>* ys, std::uint64_t seed)
{
    RngEngine rng(seed);
    for (int i = 0; i < n; ++i) {
        Configuration c = s.sample_unconstrained(rng);
        ys->push_back(1.0 + rng.uniform());
        xs->push_back(std::move(c));
    }
}

/** Median wall-clock (ms) of `reps` runs of `body`. */
template <typename Fn>
double
median_ms(int reps, Fn&& body)
{
    using Clock = std::chrono::steady_clock;
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        body();
        samples.push_back(std::chrono::duration<double, std::milli>(
                              Clock::now() - t0)
                              .count());
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

}  // namespace

int
main(int argc, char** argv)
{
    HarnessArgs args = HarnessArgs::parse(argc, argv, /*default_reps=*/5,
                                          "BENCH_micro_gp.json");
    SearchSpace space = make_space();
    print_banner(std::cout, "GP substrate micro-costs (" +
                                std::to_string(args.reps) + " reps, median)");

    TextTable table({"Row", "n", "time [ms]"});
    std::vector<std::string> json_rows;

    // Full fit (hyperparameter optimization included) across sizes.
    for (int n : {20, 40, 80}) {
        std::vector<Configuration> xs;
        std::vector<double> ys;
        make_data(space, n, &xs, &ys, args.seed);
        double ms = median_ms(args.reps, [&] {
            RngEngine rng(7);
            GpModel gp(space);
            gp.fit(xs, ys, rng);
        });
        table.add_row({"fit", std::to_string(n), fmt(ms, 3)});
        JsonWriter row;
        row.field("key", "fit/n" + std::to_string(n))
            .field("gated", false)
            .field("n", n)
            .field("ms", ms);
        json_rows.push_back(row.str());
    }

    // Posterior prediction.
    for (int n : {20, 80}) {
        std::vector<Configuration> xs;
        std::vector<double> ys;
        make_data(space, n, &xs, &ys, args.seed);
        RngEngine rng(7);
        GpModel gp(space);
        gp.fit(xs, ys, rng);
        Configuration probe = space.sample_unconstrained(rng);
        double ms = median_ms(args.reps, [&] {
            for (int i = 0; i < 100; ++i) {
                GpPrediction p = gp.predict(probe);
                (void)p;
            }
        });
        table.add_row({"predict x100", std::to_string(n), fmt(ms, 3)});
        JsonWriter row;
        row.field("key", "predict/n" + std::to_string(n))
            .field("gated", false)
            .field("n", n)
            .field("ms", ms);
        json_rows.push_back(row.str());
    }

    // Negative log marginal likelihood plus its analytic gradient at the
    // fitted hyperparameters.
    {
        std::vector<Configuration> xs;
        std::vector<double> ys;
        make_data(space, 80, &xs, &ys, args.seed);
        RngEngine rng(7);
        GpModel gp(space);
        gp.fit(xs, ys, rng);
        std::vector<double> grad;
        double ms = median_ms(args.reps, [&] {
            for (int i = 0; i < 10; ++i)
                gp.objective_with_gradient(gp.hyperparams(), &grad);
        });
        table.add_row({"nll_grad x10", "80", fmt(ms, 3)});
        JsonWriter row;
        row.field("key", std::string("nll_grad/n80"))
            .field("gated", false)
            .field("n", 80)
            .field("ms", ms);
        json_rows.push_back(row.str());
    }

    // Incremental append vs scratch refresh: grow a fitted model by 32
    // observations one at a time. Both arms hold hyperparameters fixed
    // — the comparison isolates the factor update itself.
    const int kBase = 64;
    const int kGrow = 32;
    std::vector<Configuration> xs;
    std::vector<double> ys;
    make_data(space, kBase + kGrow, &xs, &ys, args.seed);
    std::vector<Configuration> base_x(xs.begin(), xs.begin() + kBase);
    std::vector<double> base_y(ys.begin(), ys.begin() + kBase);
    RngEngine rng(7);
    GpModel seed_model(space);
    seed_model.fit(base_x, base_y, rng);
    GpHyperparams hp = seed_model.hyperparams();

    double extend_ms = median_ms(args.reps, [&] {
        GpModel gp(space);
        gp.fit_with_hyperparams(base_x, base_y, hp);
        for (int i = kBase; i < kBase + kGrow; ++i)
            gp.extend(xs[static_cast<std::size_t>(i)],
                      ys[static_cast<std::size_t>(i)]);
    });
    double warm_ms = median_ms(args.reps, [&] {
        GpModel gp(space);
        gp.fit_with_hyperparams(base_x, base_y, hp);
    });
    extend_ms = std::max(extend_ms - warm_ms, 1e-6);
    double scratch_ms = median_ms(args.reps, [&] {
        GpModel gp(space);
        for (int i = kBase; i < kBase + kGrow; ++i) {
            std::vector<Configuration> px(xs.begin(), xs.begin() + i + 1);
            std::vector<double> py(ys.begin(), ys.begin() + i + 1);
            gp.fit_with_hyperparams(px, py, hp);
        }
    });
    double speedup = scratch_ms / std::max(extend_ms, 1e-6);
    table.add_row({"extend x" + std::to_string(kGrow),
                   std::to_string(kBase), fmt(extend_ms, 3)});
    table.add_row({"scratch x" + std::to_string(kGrow),
                   std::to_string(kBase), fmt(scratch_ms, 3)});
    table.print(std::cout);
    std::cout << "incremental speedup (scratch/extend, " << kGrow
              << " appends from n=" << kBase << "): " << fmt(speedup, 2)
              << "x\n";

    JsonWriter gated;
    gated.field("key", std::string("incremental/extend"))
        .field("gated", true)
        .field("gate_metric", std::string("extend_speedup"))
        .field("gate_direction", std::string("higher_better"))
        .field("tolerance", 0.35)
        .field("extend_ms", extend_ms)
        .field("scratch_ms", scratch_ms)
        .field("extend_speedup", speedup);
    json_rows.push_back(gated.str());

    if (!args.json_path.empty()) {
        JsonWriter json;
        json.field("bench", std::string("micro_gp"))
            .field("reps", args.reps)
            .field("extend_speedup", speedup)
            .raw_field("rows", JsonWriter::array(json_rows));
        if (!baco::bench::write_json(args.json_path, json)) {
            std::cout << "cannot write " << args.json_path << "\n";
            return 1;
        }
        std::cout << "wrote " << args.json_path << "\n";
    }
    return 0;
}
