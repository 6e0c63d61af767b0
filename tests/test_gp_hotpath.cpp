// Bit-identity of the GP hot path. Kernel rows built from per-fit
// distance tables, the fused marginal-likelihood gradient, the in-place
// triangular solve and CholeskyFactor::inverse() each replace a
// straightforward computation and promise its exact bits, because any
// drift would change BaCO's suggestions. Every check compares against a
// reference written the straightforward way, bitwise: no tolerances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "gp/gp_model.hpp"

namespace baco {
namespace {

std::uint64_t
bits(double v)
{
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
}

/** Every kind: linear and log-scale ordered kinds (plus single-valued
 *  ones, whose span is 1), a categorical, and one permutation per
 *  metric. Small discrete dimensions take the GP's distance-table path;
 *  the reals, the 4096-value integer and the 720-value permutation do
 *  not. */
SearchSpace
mixed_space()
{
    SearchSpace s;
    s.add_real("r_lin", -2.0, 3.0);
    s.add_real("r_log", 0.01, 100.0, true);
    s.add_integer("i_lin", -5, 20);
    s.add_integer("i_log", 1, 4096, true);
    s.add_integer("i_one", 7, 7);
    s.add_ordinal("o_lin", {1, 3, 4, 9, 20});
    s.add_ordinal("o_log", {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}, true);
    s.add_ordinal("o_log_odd", {3, 5, 7, 12, 30, 100}, true);
    s.add_ordinal("o_one", {16}, true);
    s.add_categorical("c", {"a", "b", "c"});
    s.add_permutation("p_kendall", 4, PermutationMetric::kKendall);
    s.add_permutation("p_spearman", 5, PermutationMetric::kSpearman);
    s.add_permutation("p_hamming", 4, PermutationMetric::kHamming);
    s.add_permutation("p_naive", 3, PermutationMetric::kNaive);
    s.add_permutation("p_six", 6, PermutationMetric::kSpearman);
    return s;
}

void
make_data(const SearchSpace& s, std::size_t n, std::uint64_t seed,
          std::vector<Configuration>* xs, std::vector<double>* ys)
{
    RngEngine rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        xs->push_back(s.sample_unconstrained(rng));
        ys->push_back(1.0 + 3.0 * rng.uniform());
    }
}

GpHyperparams
random_hyperparams(const SearchSpace& s, RngEngine& rng)
{
    GpHyperparams hp;
    for (std::size_t k = 0; k < s.num_params(); ++k)
        hp.log_lengthscales.push_back(rng.uniform(std::log(0.05), std::log(2.0)));
    hp.log_outputscale = rng.uniform(std::log(0.2), std::log(3.0));
    hp.log_noise = rng.uniform(std::log(1e-6), std::log(1e-2));
    return hp;
}

/** Forward substitution as it was written before the in-place variant. */
std::vector<double>
reference_solve_lower(const Matrix& l, const std::vector<double>& b)
{
    std::size_t n = l.rows();
    std::vector<double> z(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double* li = l.row(i);
        z[i] = (b[i] - dot_n(li, z.data(), i)) / li[i];
    }
    return z;
}

/** predict() written the straightforward way: per-pair
 *  SearchSpace::dim_distance, r^2 summed in dimension order, then a
 *  forward solve. */
GpPrediction
reference_predict(const GpModel& gp, const SearchSpace& s,
                  const Configuration& x)
{
    const GpHyperparams& hp = gp.hyperparams();
    const std::vector<Configuration>& xs = gp.inputs();
    double s2 = std::exp(hp.log_outputscale);
    std::vector<double> kvec(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        double r2 = 0.0;
        for (std::size_t k = 0; k < s.num_params(); ++k) {
            double v = s.dim_distance(k, x, xs[i]) /
                       std::exp(hp.log_lengthscales[k]);
            r2 += v * v;
        }
        kvec[i] = s2 * matern52(std::sqrt(r2));
    }
    double mean_std = dot(kvec, gp.weights());
    std::vector<double> v = reference_solve_lower(gp.factor().lower(), kvec);
    double var_std = std::max(s2 - dot(v, v), 1e-12);
    GpPrediction p;
    p.mean = gp.standardizer().inverse(mean_std);
    p.var = gp.standardizer().inverse_variance(var_std);
    return p;
}

/** Probe points: fresh samples plus every training input. */
std::vector<Configuration>
probes(const SearchSpace& s, const GpModel& gp, std::uint64_t seed)
{
    RngEngine rng(seed);
    std::vector<Configuration> out = gp.inputs();
    for (int i = 0; i < 40; ++i)
        out.push_back(s.sample_unconstrained(rng));
    return out;
}

void
expect_predict_matches_reference(const GpModel& gp, const SearchSpace& s,
                                 std::uint64_t seed, const char* where)
{
    for (const Configuration& x : probes(s, gp, seed)) {
        GpPrediction got = gp.predict(x);
        GpPrediction want = reference_predict(gp, s, x);
        ASSERT_EQ(bits(got.mean), bits(want.mean)) << where;
        ASSERT_EQ(bits(got.var), bits(want.var)) << where;
    }
}

TEST(GpHotPath, PredictMatchesReferenceAfterFit)
{
    SearchSpace s = mixed_space();
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        std::vector<Configuration> xs;
        std::vector<double> ys;
        make_data(s, 30, seed, &xs, &ys);
        GpModel gp(s);
        RngEngine rng(seed);
        gp.fit(xs, ys, rng);
        expect_predict_matches_reference(gp, s, seed + 100, "fit");
    }
}

TEST(GpHotPath, PredictMatchesReferenceAfterFitWithHyperparams)
{
    SearchSpace s = mixed_space();
    RngEngine hp_rng(11);
    for (std::uint64_t seed : {4u, 5u, 6u}) {
        std::vector<Configuration> xs;
        std::vector<double> ys;
        make_data(s, 25, seed, &xs, &ys);
        GpModel gp(s);
        gp.fit_with_hyperparams(xs, ys, random_hyperparams(s, hp_rng));
        expect_predict_matches_reference(gp, s, seed + 100,
                                         "fit_with_hyperparams");
    }
}

TEST(GpHotPath, PredictMatchesReferenceThroughExtendAndTruncate)
{
    SearchSpace s = mixed_space();
    std::vector<Configuration> xs;
    std::vector<double> ys;
    make_data(s, 40, 7, &xs, &ys);
    std::vector<Configuration> base_x(xs.begin(), xs.begin() + 24);
    std::vector<double> base_y(ys.begin(), ys.begin() + 24);
    GpModel gp(s);
    RngEngine rng(7);
    gp.fit(base_x, base_y, rng);

    std::vector<Configuration> probe = probes(s, gp, 70);
    std::vector<GpPrediction> before;
    for (const Configuration& x : probe)
        before.push_back(gp.predict(x));

    for (std::size_t i = 24; i < 34; ++i)
        ASSERT_TRUE(gp.extend(xs[i], ys[i]));
    ASSERT_EQ(gp.size(), 34u);
    expect_predict_matches_reference(gp, s, 71, "extend");

    // A non-finite observation is appended, found to poison the weights
    // and rolled back: the model must be exactly the one before the call.
    std::vector<GpPrediction> pre_refusal;
    for (const Configuration& x : probe)
        pre_refusal.push_back(gp.predict(x));
    EXPECT_FALSE(gp.extend(xs[34], std::numeric_limits<double>::quiet_NaN()));
    ASSERT_EQ(gp.size(), 34u);
    expect_predict_matches_reference(gp, s, 72, "refused extend");
    for (std::size_t p = 0; p < probe.size(); ++p) {
        GpPrediction now = gp.predict(probe[p]);
        ASSERT_EQ(bits(now.mean), bits(pre_refusal[p].mean));
        ASSERT_EQ(bits(now.var), bits(pre_refusal[p].var));
    }

    // Appends after the rollback see consistent cached value indices.
    for (std::size_t i = 34; i < 40; ++i)
        ASSERT_TRUE(gp.extend(xs[i], ys[i]));
    expect_predict_matches_reference(gp, s, 73, "extend after rollback");

    gp.truncate(30);
    ASSERT_EQ(gp.size(), 30u);
    expect_predict_matches_reference(gp, s, 74, "truncate");

    gp.truncate(24);
    expect_predict_matches_reference(gp, s, 75, "truncate to base");
    for (std::size_t p = 0; p < probe.size(); ++p) {
        GpPrediction now = gp.predict(probe[p]);
        ASSERT_EQ(bits(now.mean), bits(before[p].mean));
        ASSERT_EQ(bits(now.var), bits(before[p].var));
    }
}

TEST(GpHotPath, PredictMatchesReferenceWithValuesOutsideTheDomain)
{
    // Values a discrete parameter does not list have no table entry: a
    // training point holding one sends its dimension down the distance()
    // path until it is truncated away, and such a candidate takes that
    // path on its own. A permutation-length vector that is not a
    // permutation (a repeated or out-of-range element) is outside the
    // domain too, not an alias of some listed permutation.
    SearchSpace s = mixed_space();
    std::size_t i_lin = s.index_of("i_lin");
    std::size_t o_lin = s.index_of("o_lin");
    std::size_t cat = s.index_of("c");
    std::size_t kendall = s.index_of("p_kendall");
    std::size_t spearman = s.index_of("p_spearman");
    std::size_t hamming = s.index_of("p_hamming");
    std::vector<Configuration> xs;
    std::vector<double> ys;
    make_data(s, 30, 8, &xs, &ys);
    Configuration odd = xs[29];
    odd[o_lin] = std::int64_t{5};
    odd[cat] = std::int64_t{7};
    odd[kendall] = Permutation{0, 0, 1, 2};
    odd[hamming] = Permutation{3, 2, 1, 1};

    GpModel gp(s);
    RngEngine rng(8);
    gp.fit(std::vector<Configuration>(xs.begin(), xs.begin() + 28),
           std::vector<double>(ys.begin(), ys.begin() + 28), rng);
    std::vector<Configuration> probe = probes(s, gp, 80);
    for (std::size_t p = 0; p < 10; ++p) {
        probe[p][o_lin] = std::int64_t{2};
        probe[p][i_lin] = std::int64_t{25};
        probe[p][cat] = std::int64_t{-1};
    }
    for (std::size_t p = 10; p < 20; ++p) {
        probe[p][kendall] = Permutation{0, 0, 1, 2};
        probe[p][spearman] = Permutation{0, 1, 2, 3, 7};
        probe[p][hamming] = Permutation{2, 2, 2, 2};
    }
    auto check = [&](const char* where) {
        for (const Configuration& x : probe) {
            GpPrediction got = gp.predict(x);
            GpPrediction want = reference_predict(gp, s, x);
            ASSERT_EQ(bits(got.mean), bits(want.mean)) << where;
            ASSERT_EQ(bits(got.var), bits(want.var)) << where;
        }
    };
    check("in-domain training set");
    ASSERT_TRUE(gp.extend(odd, ys[29]));
    check("training point outside the domain");
    gp.truncate(28);
    check("truncated back into the domain");
}

// ---- Marginal-likelihood gradient. ---------------------------------------

const double kLogTwoPi = 1.8378770664093453;
const double kThetaBound = 8.0;

double
box_penalty(double theta, double* grad)
{
    double excess = std::abs(theta) - kThetaBound;
    if (excess <= 0.0) {
        *grad = 0.0;
        return 0.0;
    }
    *grad = 2.0 * excess * (theta > 0 ? 1.0 : -1.0);
    return excess * excess;
}

/** The lengthscale-gradient factor as a separate function, one exp per
 *  call (what the gradient called per dimension per pair). */
double
reference_dlog_lengthscale_factor(double r)
{
    const double kSqrt5 = 2.23606797749978969;
    return (5.0 / 3.0) * (1.0 + kSqrt5 * r) * std::exp(-kSqrt5 * r);
}

/** GpModel's negative log posterior and gradient as written before the
 *  per-pair fusion: r stored per pair, one Matern exp per dimension per
 *  pair, K^{-1} from column solves of the identity. */
double
reference_nll(const SearchSpace& s, const GpOptions& opt,
              const std::vector<Configuration>& xs,
              const std::vector<double>& ys, const std::vector<double>& theta,
              std::vector<double>* grad)
{
    std::size_t n = xs.size();
    std::size_t d = s.num_params();
    Standardizer standardizer;
    standardizer.fit(ys);
    std::vector<double> ys_std(n);
    for (std::size_t i = 0; i < n; ++i)
        ys_std[i] = standardizer.transform(ys[i]);
    DistanceTensor tensor;
    tensor.n = n;
    tensor.dists.assign(d, Matrix(n, n));
    for (std::size_t k = 0; k < d; ++k)
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = i + 1; j < n; ++j) {
                double v = s.dim_distance(k, xs[i], xs[j]);
                tensor.dists[k](i, j) = v;
                tensor.dists[k](j, i) = v;
            }

    GpHyperparams hp = GpHyperparams::from_vector(theta);
    grad->assign(theta.size(), 0.0);
    double penalty = 0.0;
    for (std::size_t k = 0; k < theta.size(); ++k) {
        double g = 0.0;
        penalty += box_penalty(theta[k], &g);
        (*grad)[k] += g;
    }
    GpHyperparams hpc = hp;
    for (double& v : hpc.log_lengthscales)
        v = std::clamp(v, -kThetaBound, kThetaBound);
    hpc.log_outputscale = std::clamp(hpc.log_outputscale, -kThetaBound,
                                     kThetaBound);
    hpc.log_noise = std::clamp(hpc.log_noise, -kThetaBound * 2, kThetaBound);

    Matrix kmat = kernel_matrix(tensor, hpc);
    auto chol = cholesky(kmat);
    if (!chol)
        return std::numeric_limits<double>::infinity();
    std::vector<double> alpha = chol->solve(ys_std);
    double nll_val = 0.5 * dot(ys_std, alpha) + 0.5 * chol->log_det() +
                     0.5 * static_cast<double>(n) * kLogTwoPi + penalty;
    auto add_prior = [&](std::size_t idx, double shape, double rate) {
        double t = theta[idx];
        double v = std::exp(std::clamp(t, -kThetaBound * 2, kThetaBound));
        nll_val += -shape * t + rate * v;
        (*grad)[idx] += -shape + rate * v;
    };
    if (opt.use_priors) {
        for (std::size_t k = 0; k < d; ++k)
            add_prior(k, opt.lengthscale_shape, opt.lengthscale_rate);
        add_prior(d, opt.outputscale_shape, opt.outputscale_rate);
        add_prior(d + 1, opt.noise_shape, opt.noise_rate);
    }

    Matrix kinv = chol->solve_matrix(Matrix::identity(n));
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = alpha[i] * alpha[j] - kinv(i, j);
    double s2 = std::exp(hpc.log_outputscale);
    double noise = std::exp(hpc.log_noise);
    std::vector<double> ls(d);
    for (std::size_t k = 0; k < d; ++k)
        ls[k] = std::exp(hpc.log_lengthscales[k]);
    Matrix r(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j) {
            double r2 = 0.0;
            for (std::size_t k = 0; k < d; ++k) {
                double v = tensor.dists[k](i, j) / ls[k];
                r2 += v * v;
            }
            r(i, j) = std::sqrt(r2);
            r(j, i) = r(i, j);
        }
    for (std::size_t k = 0; k < d; ++k) {
        double acc = 0.0;
        double l2 = ls[k] * ls[k];
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = i + 1; j < n; ++j) {
                double dd = tensor.dists[k](i, j);
                if (dd == 0.0)
                    continue;
                double dk = s2 * reference_dlog_lengthscale_factor(r(i, j)) *
                            (dd * dd) / l2;
                acc += 2.0 * a(i, j) * dk;
            }
        (*grad)[k] += -0.5 * acc;
    }
    {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            acc += a(i, i) * s2;
            for (std::size_t j = i + 1; j < n; ++j)
                acc += 2.0 * a(i, j) * s2 * matern52(r(i, j));
        }
        (*grad)[d] += -0.5 * acc;
    }
    {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            acc += a(i, i);
        (*grad)[d + 1] += -0.5 * acc * noise;
    }
    return nll_val;
}

TEST(GpHotPath, ObjectiveWithGradientMatchesReference)
{
    SearchSpace s = mixed_space();
    std::size_t d = s.num_params();
    std::vector<Configuration> xs;
    std::vector<double> ys;
    make_data(s, 36, 9, &xs, &ys);
    RngEngine rng(9);
    int finite = 0;
    for (bool priors : {true, false}) {
        GpOptions opt;
        opt.use_priors = priors;
        GpModel gp(s, opt);
        gp.fit_with_hyperparams(xs, ys, random_hyperparams(s, rng));
        for (int t = 0; t < 24; ++t) {
            // Mostly inside the soft box; every fourth draw reaches past
            // it so the penalty and the clamped kernel are exercised.
            double reach = (t % 4 == 3) ? 11.0 : 2.5;
            std::vector<double> theta(d + 2);
            for (double& v : theta)
                v = rng.uniform(-reach, reach);
            std::vector<double> grad;
            std::vector<double> want_grad;
            double got = gp.objective_with_gradient(
                GpHyperparams::from_vector(theta), &grad);
            double want = reference_nll(s, opt, xs, ys, theta, &want_grad);
            ASSERT_EQ(bits(got), bits(want)) << "draw " << t;
            ASSERT_EQ(grad.size(), want_grad.size());
            for (std::size_t k = 0; k < grad.size(); ++k)
                ASSERT_EQ(bits(grad[k]), bits(want_grad[k]))
                    << "draw " << t << " component " << k;
            finite += std::isfinite(got) ? 1 : 0;
        }
    }
    EXPECT_GT(finite, 24);  // most draws factorize and reach the gradient
}

TEST(GpHotPath, MaternTermsMatchSeparateCalls)
{
    for (double r = 0.0; r < 12.0; r += 0.0137) {
        Matern52Terms m = matern52_terms(r);
        ASSERT_EQ(bits(m.value), bits(matern52(r))) << r;
        ASSERT_EQ(bits(m.dlog_lengthscale_factor),
                  bits(reference_dlog_lengthscale_factor(r)))
            << r;
    }
}

// ---- Cholesky. -----------------------------------------------------------

TEST(GpHotPath, InverseMatchesColumnSolvesOfIdentity)
{
    // n = 1..67 covers every residue of dot_n's 4-wide unroll many times.
    RngEngine rng(13);
    for (std::size_t n = 1; n <= 67; ++n) {
        Matrix b(n, n);
        for (double& v : b.data())
            v = rng.uniform(-1.0, 1.0);
        Matrix a = mat_mat(b, b.transposed());
        for (std::size_t i = 0; i < n; ++i)
            a(i, i) += 0.5;
        auto chol = cholesky(a);
        ASSERT_TRUE(chol.has_value()) << n;
        Matrix got = chol->inverse();
        Matrix want = chol->solve_matrix(Matrix::identity(n));
        ASSERT_EQ(got.rows(), n);
        ASSERT_EQ(got.cols(), n);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                ASSERT_EQ(bits(got(i, j)), bits(want(i, j)))
                    << "n=" << n << " (" << i << "," << j << ")";
    }
}

TEST(GpHotPath, InPlaceLowerSolveMatchesReference)
{
    RngEngine rng(17);
    for (std::size_t n = 1; n <= 40; ++n) {
        Matrix b(n, n);
        for (double& v : b.data())
            v = rng.uniform(-1.0, 1.0);
        Matrix a = mat_mat(b, b.transposed());
        for (std::size_t i = 0; i < n; ++i)
            a(i, i) += 0.5;
        auto chol = cholesky(a);
        ASSERT_TRUE(chol.has_value());
        std::vector<double> rhs(n);
        for (double& v : rhs)
            v = rng.uniform(-2.0, 2.0);
        std::vector<double> want = reference_solve_lower(chol->lower(), rhs);
        std::vector<double> got = chol->solve_lower(rhs);
        std::vector<double> in_place = rhs;
        chol->solve_lower_in_place(in_place);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(bits(got[i]), bits(want[i]));
            ASSERT_EQ(bits(in_place[i]), bits(want[i]));
        }
    }
}

// ---- Ordered distances. --------------------------------------------------

/** Every pair of values: distance() equals the closed form
 *  |t(a) - t(b)| / (t(hi) - t(lo)), t = log on log-scale parameters, that
 *  each ordered kind computed before they shared one definition. */
void
expect_ordered_distances(const Parameter& p, const std::vector<ParamValue>& vs,
                         double lo, double hi, bool log_scale)
{
    auto t = [log_scale](double x) { return log_scale ? std::log(x) : x; };
    double span = (lo == hi) ? 1.0 : t(hi) - t(lo);
    for (const ParamValue& a : vs) {
        for (const ParamValue& b : vs) {
            double closed_form = std::abs(t(as_real(a)) - t(as_real(b))) / span;
            ASSERT_EQ(bits(p.distance(a, b)), bits(closed_form)) << p.name();
        }
    }
}

TEST(GpHotPath, OrderedDistanceMatchesClosedForm)
{
    SearchSpace s = mixed_space();
    for (std::size_t k = 0; k < s.num_params(); ++k) {
        const Parameter& p = s.param(k);
        std::vector<ParamValue> vs;
        if (p.kind() == ParamKind::kReal) {
            const auto& rp = static_cast<const RealParameter&>(p);
            RngEngine rng(k);
            vs = {rp.lo(), rp.hi()};
            for (int i = 0; i < 60; ++i)
                vs.push_back(rp.sample(rng));
            expect_ordered_distances(p, vs, rp.lo(), rp.hi(), rp.log_scale());
        } else if (p.kind() == ParamKind::kInteger ||
                   p.kind() == ParamKind::kOrdinal) {
            // Every value, or 200 spread from first to last on long ranges.
            std::size_t m = p.num_values();
            std::size_t take = std::min<std::size_t>(m, 200);
            for (std::size_t i = 0; i < take; ++i)
                vs.push_back(p.value_at(take == 1 ? 0 : i * (m - 1) / (take - 1)));
            const auto& op = static_cast<const OrderedParameter&>(p);
            expect_ordered_distances(p, vs, as_real(vs.front()),
                                     as_real(vs.back()), op.log_scale());
        }
    }
}

}  // namespace
}  // namespace baco
