// Gaussian process: kernel math, fitting, prediction quality, priors.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "gp/gp_model.hpp"
#include "suite/registry.hpp"

namespace baco {
namespace {

SearchSpace
one_d_space()
{
    SearchSpace s;
    s.add_real("x", 0.0, 1.0);
    return s;
}

Configuration
cfg1(double x)
{
    return {ParamValue{x}};
}

TEST(Matern52, KnownValues)
{
    EXPECT_DOUBLE_EQ(matern52(0.0), 1.0);
    // Monotone decreasing.
    double prev = 1.0;
    for (double r = 0.1; r < 3.0; r += 0.1) {
        double v = matern52(r);
        EXPECT_LT(v, prev);
        EXPECT_GT(v, 0.0);
        prev = v;
    }
}

TEST(GpHyperparams, VectorRoundTrip)
{
    GpHyperparams hp;
    hp.log_lengthscales = {0.1, -0.2, 0.3};
    hp.log_outputscale = 0.5;
    hp.log_noise = -5.0;
    GpHyperparams back = GpHyperparams::from_vector(hp.to_vector());
    EXPECT_EQ(back.log_lengthscales, hp.log_lengthscales);
    EXPECT_DOUBLE_EQ(back.log_outputscale, hp.log_outputscale);
    EXPECT_DOUBLE_EQ(back.log_noise, hp.log_noise);
}

TEST(GpModel, InterpolatesTrainingPoints)
{
    SearchSpace s = one_d_space();
    GpModel gp(s);
    RngEngine rng(1);
    std::vector<Configuration> xs;
    std::vector<double> ys;
    for (double x : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        xs.push_back(cfg1(x));
        ys.push_back(std::sin(6.0 * x));
    }
    gp.fit(xs, ys, rng);
    // MAP fitting with a noise prior smooths slightly; allow 0.1.
    for (std::size_t i = 0; i < xs.size(); ++i) {
        GpPrediction p = gp.predict(xs[i]);
        EXPECT_NEAR(p.mean, ys[i], 0.1);
    }
}

TEST(GpModel, UncertaintyGrowsAwayFromData)
{
    SearchSpace s = one_d_space();
    GpModel gp(s);
    RngEngine rng(2);
    std::vector<Configuration> xs{cfg1(0.0), cfg1(0.1), cfg1(0.2)};
    std::vector<double> ys{1.0, 1.2, 0.9};
    gp.fit(xs, ys, rng);
    double var_near = gp.predict(cfg1(0.1)).var;
    double var_far = gp.predict(cfg1(0.9)).var;
    EXPECT_LT(var_near, var_far);
    EXPECT_GE(var_near, 0.0);
}

TEST(GpModel, PredictionAccuracyOnSmoothFunction)
{
    SearchSpace s = one_d_space();
    GpModel gp(s);
    RngEngine rng(3);
    std::vector<Configuration> xs;
    std::vector<double> ys;
    for (int i = 0; i <= 20; ++i) {
        double x = i / 20.0;
        xs.push_back(cfg1(x));
        ys.push_back(x * x + 0.3 * std::sin(8 * x));
    }
    gp.fit(xs, ys, rng);
    // Held-out points.
    for (double x : {0.13, 0.37, 0.61, 0.83}) {
        double truth = x * x + 0.3 * std::sin(8 * x);
        EXPECT_NEAR(gp.predict(cfg1(x)).mean, truth, 0.08);
    }
}

TEST(GpModel, AnalyticGradientMatchesFiniteDifferences)
{
    SearchSpace s;
    s.add_real("x", 0.0, 1.0);
    s.add_ordinal("o", {1, 2, 4, 8}, true);
    s.add_permutation("p", 3);
    GpModel gp(s);
    RngEngine rng(4);
    std::vector<Configuration> xs;
    std::vector<double> ys;
    for (int i = 0; i < 12; ++i) {
        Configuration c = s.sample_unconstrained(rng);
        ys.push_back(as_real(c[0]) + 0.1 * static_cast<double>(as_int(c[1])) +
                     rng.normal(0, 0.01));
        xs.push_back(std::move(c));
    }
    gp.fit(xs, ys, rng);

    GpHyperparams hp;
    hp.log_lengthscales = {std::log(0.4), std::log(0.7), std::log(0.9)};
    hp.log_outputscale = std::log(1.3);
    hp.log_noise = std::log(1e-3);

    std::vector<double> grad;
    double f0 = gp.objective_with_gradient(hp, &grad);
    ASSERT_TRUE(std::isfinite(f0));
    ASSERT_EQ(grad.size(), 5u);

    // Central finite differences on every log-hyperparameter.
    const double eps = 1e-6;
    std::vector<double> theta = hp.to_vector();
    for (std::size_t k = 0; k < theta.size(); ++k) {
        std::vector<double> up = theta, dn = theta;
        up[k] += eps;
        dn[k] -= eps;
        double fd = (gp.objective(GpHyperparams::from_vector(up)) -
                     gp.objective(GpHyperparams::from_vector(dn))) /
                    (2 * eps);
        EXPECT_NEAR(grad[k], fd,
                    1e-4 * std::max(1.0, std::abs(fd)))
            << "hyperparameter " << k;
    }
}

TEST(GpModel, FitLowersObjectiveVersusDefault)
{
    SearchSpace s = one_d_space();
    GpOptions opt;
    GpModel gp(s, opt);
    RngEngine rng(5);
    std::vector<Configuration> xs;
    std::vector<double> ys;
    for (int i = 0; i <= 15; ++i) {
        double x = i / 15.0;
        xs.push_back(cfg1(x));
        ys.push_back(std::cos(5 * x));
    }
    gp.fit(xs, ys, rng);
    GpHyperparams def;
    def.log_lengthscales = {std::log(0.5)};
    def.log_outputscale = 0.0;
    def.log_noise = std::log(1e-4);
    EXPECT_LE(gp.objective(gp.hyperparams()), gp.objective(def) + 1e-6);
}

TEST(GpModel, PriorsShrinkExtremeLengthscales)
{
    // With a single informative dimension and an irrelevant one, the
    // no-prior fit can drive the irrelevant lengthscale to extremes; the
    // gamma prior keeps it moderate (paper Sec. 3.2).
    SearchSpace s;
    s.add_real("x", 0.0, 1.0);
    s.add_real("noise_dim", 0.0, 1.0);
    RngEngine rng(6);
    std::vector<Configuration> xs;
    std::vector<double> ys;
    for (int i = 0; i < 14; ++i) {
        double x = rng.uniform(), z = rng.uniform();
        xs.push_back({ParamValue{x}, ParamValue{z}});
        ys.push_back(std::sin(5 * x));
    }
    GpOptions with;
    with.use_priors = true;
    GpModel gp_with(s, with);
    RngEngine r1(7);
    gp_with.fit(xs, ys, r1);
    for (double ll : gp_with.hyperparams().log_lengthscales) {
        EXPECT_GT(ll, std::log(1e-3));
        EXPECT_LT(ll, std::log(1e3));
    }
}

TEST(GpModel, MixedSpaceWithPermutation)
{
    SearchSpace s;
    s.add_ordinal("tile", {2, 4, 8, 16}, true);
    s.add_permutation("perm", 3);
    GpModel gp(s);
    RngEngine rng(8);
    std::vector<Configuration> xs;
    std::vector<double> ys;
    for (int i = 0; i < 16; ++i) {
        Configuration c = s.sample_unconstrained(rng);
        const Permutation& p = as_permutation(c[1]);
        // Objective depends on the permutation (distance from identity).
        double d = std::abs(p[0] - 0) + std::abs(p[1] - 1) +
                   std::abs(p[2] - 2);
        ys.push_back(std::log2(static_cast<double>(as_int(c[0]))) + d);
        xs.push_back(std::move(c));
    }
    gp.fit(xs, ys, rng);
    // Identity permutation with small tile should predict lower than
    // reversed permutation with large tile.
    Configuration lo{ParamValue{std::int64_t{2}},
                     ParamValue{Permutation{0, 1, 2}}};
    Configuration hi{ParamValue{std::int64_t{16}},
                     ParamValue{Permutation{2, 1, 0}}};
    EXPECT_LT(gp.predict(lo).mean, gp.predict(hi).mean);
}

/** NLL evaluations and failures of one GpModel::fit on 40 feasible
 *  evaluations of a registry TACO benchmark (SpMM, a 5-loop permutation
 *  among 8 dimensions) built with the given variant. */
std::pair<std::size_t, std::size_t>
taco_fit_nll(const SpaceVariant& variant)
{
    const Benchmark& b = suite::find_benchmark("SpMM/scircuit");
    std::shared_ptr<SearchSpace> s = b.make_space(variant);
    RngEngine rng(5);
    std::vector<Configuration> xs;
    std::vector<double> ys;
    while (xs.size() < 40) {
        Configuration c = s->sample_feasible(rng).value();
        EvalResult r = b.evaluate(c, rng);
        if (!r.feasible)
            continue;
        xs.push_back(std::move(c));
        ys.push_back(std::log(r.value));
    }
    GpModel gp(*s);
    gp.fit(xs, ys, rng);
    return {gp.last_fit_work().nll_evals, gp.last_fit_work().nll_failures};
}

TEST(GpModel, EuclideanPermutationFitNeverFailsToFactorize)
{
    auto [evals, failures] = taco_fit_nll(SpaceVariant{});
    EXPECT_GT(evals, 0u);
    EXPECT_EQ(failures, 0u);
    // The paper's semimetric form wastes evaluations on the same data.
    SpaceVariant paper;
    paper.permutation_form = PermutationForm::kSemimetric;
    EXPECT_GT(taco_fit_nll(paper).second, 0u);
}

TEST(GpModel, RejectsDegenerateInput)
{
    SearchSpace s = one_d_space();
    GpModel gp(s);
    RngEngine rng(9);
    EXPECT_THROW(gp.fit({cfg1(0.5)}, {1.0}, rng), std::runtime_error);
    EXPECT_THROW(gp.predict(cfg1(0.5)), std::runtime_error);
}

// ---- Incremental extend() parity with full refits ----------------------

/**
 * Smooth 1-D target used by the extend parity tests. Points are laid out
 * in bit-reversed (van der Corput) order so every prefix of the history
 * samples the whole domain — the output standardizer of a prefix fit then
 * closely matches the full fit's, which is what makes tight parity
 * tolerances meaningful.
 */
void
smooth_history(std::size_t n, std::vector<Configuration>* xs,
               std::vector<double>* ys)
{
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t rev = 0, v = i;
        for (int b = 0; b < 6; ++b) {
            rev = (rev << 1) | (v & 1);
            v >>= 1;
        }
        double x = (static_cast<double>(rev) + 0.5) / 64.0;
        xs->push_back(cfg1(x));
        ys->push_back(x * x + 0.3 * std::sin(8 * x));
    }
}

GpHyperparams
fixed_hp()
{
    GpHyperparams hp;
    hp.log_lengthscales = {std::log(0.3)};
    hp.log_outputscale = 0.0;
    hp.log_noise = std::log(1e-4);
    return hp;
}

TEST(GpModelExtend, MatchesFullFitAcrossHistoryLengths)
{
    SearchSpace s = one_d_space();
    std::vector<Configuration> xs;
    std::vector<double> ys;
    smooth_history(28, &xs, &ys);

    for (std::size_t base : {5u, 10u, 20u}) {
        GpModel inc(s);
        inc.fit_with_hyperparams(
            {xs.begin(), xs.begin() + static_cast<long>(base)},
            {ys.begin(), ys.begin() + static_cast<long>(base)}, fixed_hp());
        for (std::size_t i = base; i < xs.size(); ++i)
            ASSERT_TRUE(inc.extend(xs[i], ys[i])) << "extend " << i;

        GpModel full(s);
        full.fit_with_hyperparams(xs, ys, fixed_hp());

        // The two models share hyperparameters and training data; they
        // differ only in the output standardizer (fit on the base prefix
        // vs the full history — extend intentionally freezes it between
        // refits). With prefix statistics close to full-history
        // statistics the models interpolate the same data, so held-out
        // predictions agree far below the function's scale (~1.3); 0.02
        // bounds the standardizer-induced drift with margin.
        for (double x : {0.07, 0.33, 0.52, 0.71, 0.96}) {
            GpPrediction pi = inc.predict(cfg1(x));
            GpPrediction pf = full.predict(cfg1(x));
            EXPECT_NEAR(pi.mean, pf.mean, 0.02) << "base " << base;
            EXPECT_NEAR(std::sqrt(pi.var), std::sqrt(pf.var), 0.02)
                << "base " << base;
        }
        // Training points are interpolated through the extended factor.
        for (std::size_t i = 0; i < xs.size(); ++i)
            EXPECT_NEAR(inc.predict(xs[i]).mean, ys[i], 0.02);
        // The marginal-likelihood score driving the tuner's drift-based
        // refit check is scale-sensitive (the frozen standardizer enters
        // the data-fit term quadratically), so it tracks more loosely than
        // the predictions — but must stay well inside the tuner's default
        // refit_nll_drift of 1.0, or drift refits would fire constantly.
        EXPECT_NEAR(inc.data_nll_per_point(), full.data_nll_per_point(), 0.75);
    }
}

TEST(GpModelExtend, TruncateRestoresExactPosterior)
{
    SearchSpace s = one_d_space();
    std::vector<Configuration> xs;
    std::vector<double> ys;
    smooth_history(12, &xs, &ys);

    GpModel gp(s);
    gp.fit_with_hyperparams(
        {xs.begin(), xs.begin() + 8}, {ys.begin(), ys.begin() + 8},
        fixed_hp());
    std::vector<GpPrediction> before;
    for (double x : {0.1, 0.4, 0.8})
        before.push_back(gp.predict(cfg1(x)));

    for (std::size_t i = 8; i < 12; ++i)
        ASSERT_TRUE(gp.extend(xs[i], ys[i]));
    gp.truncate(8);

    // Appends never touch the leading factor block and truncate recomputes
    // alpha from the same inputs, so restoration is bitwise — this is what
    // lets the tuner roll fantasy observations back between suggests.
    std::size_t k = 0;
    for (double x : {0.1, 0.4, 0.8}) {
        GpPrediction after = gp.predict(cfg1(x));
        EXPECT_DOUBLE_EQ(after.mean, before[k].mean);
        EXPECT_DOUBLE_EQ(after.var, before[k].var);
        ++k;
    }
}

TEST(GpModelExtend, DuplicatePointIsAbsorbed)
{
    // Appending an exact duplicate of a training point borders the kernel
    // matrix with a nearly dependent row; the noise term (plus, if needed,
    // extend's escalating extra jitter) must keep the factor viable.
    SearchSpace s = one_d_space();
    std::vector<Configuration> xs;
    std::vector<double> ys;
    smooth_history(8, &xs, &ys);
    GpModel gp(s);
    gp.fit_with_hyperparams(xs, ys, fixed_hp());
    ASSERT_TRUE(gp.extend(xs[3], ys[3]));
    GpPrediction p = gp.predict(cfg1(0.5));
    EXPECT_TRUE(std::isfinite(p.mean));
    EXPECT_TRUE(std::isfinite(p.var));
    EXPECT_GE(p.var, 0.0);
}

TEST(GpModelExtend, RefusesBeforeFit)
{
    SearchSpace s = one_d_space();
    GpModel gp(s);
    EXPECT_FALSE(gp.fitted());
    EXPECT_FALSE(gp.extend(cfg1(0.5), 1.0));
    std::vector<Configuration> xs;
    std::vector<double> ys;
    smooth_history(4, &xs, &ys);
    gp.fit_with_hyperparams(xs, ys, fixed_hp());
    EXPECT_TRUE(gp.fitted());
    EXPECT_TRUE(gp.extend(cfg1(0.9), 0.7));
}

TEST(GpModel, NaiveFitStillWorks)
{
    // BaCO--'s single-start fit must remain functional.
    SearchSpace s = one_d_space();
    GpOptions opt;
    opt.advanced_fit = false;
    opt.use_priors = false;
    GpModel gp(s, opt);
    RngEngine rng(10);
    std::vector<Configuration> xs{cfg1(0.0), cfg1(0.5), cfg1(1.0)};
    std::vector<double> ys{0.0, 1.0, 0.0};
    gp.fit(xs, ys, rng);
    EXPECT_NEAR(gp.predict(cfg1(0.5)).mean, 1.0, 0.2);
}

// ---- refit(): one warm descent after the first fit ------------------------

TEST(GpModelRefit, WarmRefitDrawsNothingAndCostsLessThanAFit)
{
    SearchSpace s = one_d_space();
    std::vector<Configuration> xs;
    std::vector<double> ys;
    smooth_history(24, &xs, &ys);
    const std::vector<Configuration> head(xs.begin(), xs.begin() + 16);
    const std::vector<double> head_y(ys.begin(), ys.begin() + 16);

    GpModel gp(s);
    RngEngine rng(11);
    gp.refit(head, head_y, rng);  // the first fit is fit()
    EXPECT_FALSE(gp.last_fit_work().warm);
    EXPECT_FALSE(gp.last_fit_work().fallback);
    const GpHyperparams first = gp.hyperparams();

    const RngEngine before = rng;
    gp.refit(xs, ys, rng);
    const GpFitWork& warm = gp.last_fit_work();
    EXPECT_TRUE(rng.engine() == before.engine());
    EXPECT_TRUE(warm.warm);
    EXPECT_FALSE(warm.fallback);
    EXPECT_GT(warm.nll_gradients, 0u);
    EXPECT_TRUE(std::isfinite(gp.objective(gp.hyperparams())));
    // The descent starts at the last optimum and only goes down.
    EXPECT_LE(gp.objective(gp.hyperparams()), gp.objective(first));
    ASSERT_TRUE(gp.warm_start().has_value());
    EXPECT_EQ(gp.warm_start()->to_vector(), gp.hyperparams().to_vector());

    // A cold multistart fit on the same data does several descents and
    // screens random draws.
    GpModel cold(s);
    RngEngine cold_rng(11);
    cold.fit(xs, ys, cold_rng);
    EXPECT_LT(warm.nll_evals, cold.last_fit_work().nll_evals);
    EXPECT_LT(warm.nll_gradients, cold.last_fit_work().nll_gradients);
}

TEST(GpModelRefit, SemimetricWarmStartAtInfinityFallsBackToFit)
{
    // The paper's Spearman semimetric makes some kernel matrices
    // indefinite: a warm start there has an NLL of +inf, and the descent
    // from it cannot move.
    SearchSpace s;
    s.add_permutation("perm", 5, PermutationMetric::kSpearman,
                      PermutationForm::kSemimetric);
    s.add_real("x", 0.0, 1.0);
    RngEngine data_rng(21);
    std::vector<Configuration> xs;
    std::vector<double> ys;
    for (int i = 0; i < 30; ++i) {
        Configuration c = s.sample_unconstrained(data_rng);
        ys.push_back(as_permutation(c[0])[0] + as_real(c[1]));
        xs.push_back(std::move(c));
    }
    GpModel gp(s);
    RngEngine rng(22);
    gp.fit(xs, ys, rng);

    std::optional<GpHyperparams> bad;
    for (double ll = -3.0; ll <= 3.0 && !bad; ll += 0.25) {
        GpHyperparams hp;
        hp.log_lengthscales = {ll, std::log(0.5)};
        hp.log_outputscale = 0.0;
        hp.log_noise = std::log(1e-7);
        if (std::isinf(gp.objective(hp)))
            bad = hp;
    }
    ASSERT_TRUE(bad.has_value()) << "no indefinite kernel matrix found";

    GpModel reference = gp;
    gp.set_warm_start(*bad);
    reference.set_warm_start(*bad);
    RngEngine reference_rng = rng;
    gp.refit(xs, ys, rng);
    reference.fit(xs, ys, reference_rng);

    EXPECT_TRUE(gp.last_fit_work().fallback);
    EXPECT_FALSE(gp.last_fit_work().warm);
    EXPECT_TRUE(std::isfinite(gp.objective(gp.hyperparams())));
    // The fallback is fit(): same draws, same optimum, and the descent
    // from the warm start counted on top.
    EXPECT_TRUE(rng.engine() == reference_rng.engine());
    EXPECT_EQ(gp.hyperparams().to_vector(),
              reference.hyperparams().to_vector());
    EXPECT_EQ(gp.last_fit_work().nll_evals,
              reference.last_fit_work().nll_evals + 1);
    EXPECT_EQ(gp.last_fit_work().nll_failures,
              reference.last_fit_work().nll_failures + 1);
}

TEST(GpModelRefit, IsFitWithoutPriorsOrMultistartOrBeforeTheFirstFit)
{
    SearchSpace s = one_d_space();
    std::vector<Configuration> xs;
    std::vector<double> ys;
    smooth_history(20, &xs, &ys);
    const std::vector<Configuration> head(xs.begin(), xs.begin() + 12);
    const std::vector<double> head_y(ys.begin(), ys.begin() + 12);
    // A warm start set before any fit (as a restored Ytopt(GP) model
    // has) still gets the multistart.
    const GpHyperparams preset = fixed_hp();

    struct Variant {
      const char* name;
      bool use_priors;
      bool advanced_fit;
      bool fit_first;
    };
    for (const Variant& v : {Variant{"no priors", false, true, true},
                             Variant{"BaCO--", false, false, true},
                             Variant{"naive fit", true, false, true},
                             Variant{"first fit", true, true, false}}) {
        SCOPED_TRACE(v.name);
        GpOptions opt;
        opt.use_priors = v.use_priors;
        opt.advanced_fit = v.advanced_fit;
        GpModel gp(s, opt);
        RngEngine rng(31);
        if (v.fit_first)
            gp.fit(head, head_y, rng);
        else
            gp.set_warm_start(preset);
        GpModel reference = gp;
        RngEngine reference_rng = rng;

        gp.refit(xs, ys, rng);
        reference.fit(xs, ys, reference_rng);
        EXPECT_TRUE(rng.engine() == reference_rng.engine());
        EXPECT_EQ(gp.hyperparams().to_vector(),
                  reference.hyperparams().to_vector());
        EXPECT_EQ(gp.last_fit_work().nll_evals,
                  reference.last_fit_work().nll_evals);
        EXPECT_EQ(gp.last_fit_work().nll_gradients,
                  reference.last_fit_work().nll_gradients);
        EXPECT_FALSE(gp.last_fit_work().warm);
        EXPECT_FALSE(gp.last_fit_work().fallback);
    }
}

}  // namespace
}  // namespace baco
