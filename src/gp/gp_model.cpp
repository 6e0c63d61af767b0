#include "gp/gp_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace baco {

namespace {

const double kLogTwoPi = 1.8378770664093453;
const double kThetaBound = 8.0;  // soft box on log-hyperparameters
// Largest discrete dimension that gets a distance table (m^2 entries,
// rebuilt on every fit): covers ordinals, small integer ranges,
// categoricals and permutations of up to five elements.
const std::size_t kMaxTabulatedValues = 128;
// Relative slack on predict_unless()'s lower bounds of k^T K^{-1} k. The
// computed sum of squares of the forward solve is at least each bound up
// to O(n) units of rounding (see predict_unless); this covers n up to
// about a million.
const double kExplainedSlack = 1e-9;

/** Quadratic penalty outside [-bound, bound], with gradient. */
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

/** Clamp the log-hyperparameters into the soft box for kernel evaluation. */
GpHyperparams
clamped(GpHyperparams hp)
{
    for (double& v : hp.log_lengthscales)
        v = std::clamp(v, -kThetaBound, kThetaBound);
    hp.log_outputscale = std::clamp(hp.log_outputscale, -kThetaBound,
                                    kThetaBound);
    hp.log_noise = std::clamp(hp.log_noise, -kThetaBound * 2, kThetaBound);
    return hp;
}

/** -log p(theta) of one gamma prior in log space (the density includes
 *  the log-space Jacobian): -shape*theta + rate*exp(theta) + const; *grad
 *  receives its derivative. */
double
neg_log_prior(double theta, double shape, double rate, double* grad)
{
    double v = std::exp(std::clamp(theta, -kThetaBound * 2, kThetaBound));
    *grad = -shape + rate * v;
    return -shape * theta + rate * v;
}

}  // namespace

GpModel::GpModel(const SearchSpace& space, GpOptions opt)
    : space_(&space), opt_(opt), dims_(space.num_params())
{
    for (std::size_t k = 0; k < dims_.size(); ++k) {
        const Parameter& p = space.param(k);
        std::size_t m = p.is_discrete() ? p.num_values() : 0;
        if (m == 0 || m > kMaxTabulatedValues)
            continue;
        KernelDim& kd = dims_[k];
        kd.values = m;
        std::vector<ParamValue> vals(m);
        for (std::size_t a = 0; a < m; ++a)
            vals[a] = p.value_at(a);
        // Every distance() is symmetric (as set_training_data assumes), so
        // one triangle is computed and mirrored.
        kd.distances.resize(m * m);
        for (std::size_t a = 0; a < m; ++a)
            for (std::size_t b = a; b < m; ++b)
                kd.distances[a * m + b] = kd.distances[b * m + a] =
                    p.distance(vals[a], vals[b]);
    }
}

GpHyperparams
GpModel::default_hyperparams() const
{
    GpHyperparams hp;
    hp.log_lengthscales.assign(space_->num_params(), std::log(0.5));
    hp.log_outputscale = 0.0;       // variance 1 on standardized outputs
    hp.log_noise = std::log(1e-4);
    return hp;
}

void
GpModel::fit(const std::vector<Configuration>& xs,
             const std::vector<double>& ys, RngEngine& rng)
{
    set_training_data(xs, ys);
    work_ = GpFitWork{};
    fit_multistart(rng);
}

void
GpModel::refit(const std::vector<Configuration>& xs,
               const std::vector<double>& ys, RngEngine& rng)
{
    if (!fitted_ || !warm_start_ || !opt_.use_priors || !opt_.advanced_fit) {
        fit(xs, ys, rng);
        return;
    }
    set_training_data(xs, ys);
    work_ = GpFitWork{};
    LbfgsResult r = descend(warm_start_->to_vector(), opt_.lbfgs_iters);
    if (std::isfinite(r.f)) {
        work_.warm = true;
        adopt(r.x);
        return;
    }
    work_.fallback = true;
    fit_multistart(rng);
}

void
GpModel::fit_multistart(RngEngine& rng)
{
    std::size_t d = space_->num_params();
    std::vector<std::vector<double>> starts;
    starts.push_back(default_hyperparams().to_vector());
    if (warm_start_)
        starts.push_back(warm_start_->to_vector());

    int max_iters = opt_.naive_lbfgs_iters;
    if (opt_.advanced_fit) {
        // Random hyperparameter draws, screened by objective value.
        std::vector<std::pair<double, std::vector<double>>> screened;
        for (int s = 0; s < opt_.multistart_samples; ++s) {
            std::vector<double> theta(d + 2);
            for (std::size_t k = 0; k < d; ++k)
                theta[k] = rng.uniform(std::log(0.05), std::log(2.0));
            theta[d] = rng.uniform(std::log(0.1), std::log(5.0));
            theta[d + 1] = rng.uniform(std::log(1e-6), std::log(1e-2));
            ++work_.nll_evals;
            NllPoint pt;
            double f = nll_value(theta, &pt);
            work_.nll_failures += pt.chol ? 0 : 1;
            if (std::isfinite(f))
                screened.emplace_back(f, std::move(theta));
        }
        std::sort(screened.begin(), screened.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        for (int k = 0; k < opt_.multistart_keep &&
                        k < static_cast<int>(screened.size()); ++k) {
            starts.push_back(screened[static_cast<std::size_t>(k)].second);
        }
        max_iters = opt_.lbfgs_iters;
    }

    std::vector<double> best_theta;
    double best_f = std::numeric_limits<double>::infinity();
    for (const auto& start : starts) {
        LbfgsResult r = descend(start, max_iters);
        if (std::isfinite(r.f) && r.f < best_f) {
            best_f = r.f;
            best_theta = r.x;
        }
    }
    if (best_theta.empty())
        best_theta = default_hyperparams().to_vector();
    adopt(best_theta);
}

LbfgsResult
GpModel::descend(const std::vector<double>& start, int max_iters)
{
    NllPoint last;
    SplitObjectiveFn objective_fn{
        [&](const std::vector<double>& theta) {
            ++work_.nll_evals;
            double f = nll_value(theta, &last);
            work_.nll_failures += last.chol ? 0 : 1;
            return f;
        },
        [&](std::vector<double>& grad) {
            ++work_.nll_gradients;
            nll_gradient(last, &grad);
        }};
    LbfgsOptions lopt;
    lopt.max_iters = max_iters;
    return lbfgs_minimize(objective_fn, start, lopt);
}

void
GpModel::adopt(const std::vector<double>& theta)
{
    // Clamp to the same box the objective used so the posterior matrix is
    // exactly the one the optimizer scored (and numerically factorizable).
    hp_ = clamped(GpHyperparams::from_vector(theta));
    warm_start_ = hp_;
    refresh_posterior();
}

void
GpModel::fit_with_hyperparams(const std::vector<Configuration>& xs,
                              const std::vector<double>& ys,
                              const GpHyperparams& hp)
{
    set_training_data(xs, ys);
    hp_ = hp;
    warm_start_ = hp_;
    refresh_posterior();
}

void
GpModel::set_training_data(const std::vector<Configuration>& xs,
                           const std::vector<double>& ys)
{
    if (xs.size() != ys.size() || xs.size() < 2)
        throw std::runtime_error("GpModel: fitting needs >= 2 matching points");
    xs_ = xs;
    standardizer_.fit(ys);
    ys_std_.resize(ys.size());
    for (std::size_t i = 0; i < ys.size(); ++i)
        ys_std_[i] = standardizer_.transform(ys[i]);

    std::size_t n = xs_.size();
    std::size_t d = space_->num_params();
    for (KernelDim& kd : dims_) {
        kd.index.clear();
        kd.outside = 0;
    }
    for (const Configuration& x : xs_)
        push_kernel_inputs(x);

    // Pairwise per-dimension distances.
    tensor_.n = n;
    tensor_.dists.assign(d, Matrix(n, n));
    for (std::size_t k = 0; k < d; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                double v = space_->dim_distance(k, xs_[i], xs_[j]);
                tensor_.dists[k](i, j) = v;
                tensor_.dists[k](j, i) = v;
            }
        }
    }
}

void
GpModel::push_kernel_inputs(const Configuration& x)
{
    for (std::size_t k = 0; k < dims_.size(); ++k) {
        KernelDim& kd = dims_[k];
        if (kd.values == 0)
            continue;
        std::size_t a = std::min(space_->param(k).index_of(x[k]), kd.values);
        kd.index.push_back(a);
        kd.outside += a == kd.values ? 1 : 0;
    }
}

void
GpModel::refresh_posterior()
{
    std::size_t d = space_->num_params();
    lengthscales_.resize(d);
    for (std::size_t k = 0; k < d; ++k)
        lengthscales_[k] = std::exp(hp_.log_lengthscales[k]);
    outputscale_ = std::exp(hp_.log_outputscale);
    for (std::size_t k = 0; k < d; ++k) {
        KernelDim& kd = dims_[k];
        kd.table.resize(kd.distances.size());
        for (std::size_t i = 0; i < kd.distances.size(); ++i) {
            double v = kd.distances[i] / lengthscales_[k];
            kd.table[i] = v * v;
        }
    }
    // With the paper's permutation semimetrics (PermutationForm::
    // kSemimetric) the kernel matrix can be indefinite, and near-duplicate
    // points make any kernel matrix nearly singular; after jitter rescues
    // the factorization the solve may still be badly conditioned (huge
    // alpha => wild extrapolation). Escalate an explicit diagonal boost
    // until the posterior weights are sane on the standardized outputs.
    Matrix kmat = kernel_matrix(tensor_, hp_);
    double boost = 0.0;
    double jitter = 0.0;
    for (int attempt = 0; attempt < 10; ++attempt) {
        Matrix kj = kmat;
        for (std::size_t i = 0; i < kj.rows(); ++i)
            kj(i, i) += boost;
        chol_ = cholesky_with_jitter(kj, 1e-10, 16, &jitter);
        forward_ = chol_->solve_lower(ys_std_);
        alpha_ = chol_->solve_upper(forward_);
        double amax = 0.0;
        bool finite = true;
        for (double a : alpha_) {
            amax = std::max(amax, std::abs(a));
            finite &= std::isfinite(a);
        }
        if (finite && amax <= 1e4)
            break;
        boost = boost == 0.0 ? 1e-4 * std::max(outputscale_, 1.0)
                             : boost * 10.0;
    }
    // Record the total shift baked into the factored diagonal so extend()
    // appends rows of the *same* matrix the factor represents.
    diag_shift_ = boost + jitter;
    note_factor_rows(0);
    fitted_ = true;
}

void
GpModel::note_factor_rows(std::size_t from)
{
    inv_factor_diag_.resize(from);
    for (std::size_t j = from; j < chol_->size(); ++j) {
        const double* lj = chol_->row(j);
        inv_factor_diag_.push_back(1.0 / dot_n(lj, lj, j + 1));
    }
}

void
GpModel::cross_covariances(const Configuration& x,
                           std::vector<double>& out) const
{
    // r^2 accumulates one dimension at a time over the whole row. Each
    // entry still starts from 0.0 and adds dimensions 0..d-1 in order, so
    // it is the same sum as a per-pair loop over the dimensions. A table
    // entry is the term itself: for in-domain values,
    // value_at(index_of(v)) is v.
    std::size_t n = xs_.size();
    out.assign(n, 0.0);
    double* r2 = out.data();
    for (std::size_t k = 0; k < dims_.size(); ++k) {
        const Parameter& p = space_->param(k);
        const KernelDim& kd = dims_[k];
        if (kd.values > 0 && kd.outside == 0) {
            std::size_t a = p.index_of(x[k]);
            if (a < kd.values) {
                const double* row = kd.table.data() + a * kd.values;
                const std::size_t* idx = kd.index.data();
                for (std::size_t i = 0; i < n; ++i)
                    r2[i] += row[idx[i]];
                continue;
            }
        }
        double ls = lengthscales_[k];
        for (std::size_t i = 0; i < n; ++i) {
            double v = p.distance(x[k], xs_[i][k]) / ls;
            r2[i] += v * v;
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        r2[i] = outputscale_ * matern52(std::sqrt(r2[i]));
}

bool
GpModel::extend(const Configuration& x, double y)
{
    if (!fitted_)
        return false;
    double noise = std::exp(hp_.log_noise);
    std::vector<double> cross;
    cross_covariances(x, cross);
    double diag = outputscale_ + noise + diag_shift_;

    // Appending a near-duplicate of an existing point can make the bordered
    // matrix numerically semidefinite even though the base factor is fine.
    // Escalating jitter on the *new* diagonal entry only (extra observation
    // noise on the new point) preserves the base factor and is enough in
    // practice; if even that fails, tell the caller to refit from scratch.
    double extra = 1e-8 * std::max(diag, 1.0);
    for (int attempt = 0; attempt < 6; ++attempt) {
        if (chol_->append(cross, diag)) {
            note_factor_rows(xs_.size());
            xs_.push_back(x);
            push_kernel_inputs(x);
            ys_std_.push_back(standardizer_.transform(y));
            forward_.push_back(ys_std_.back());
            chol_->solve_lower_rows(forward_, forward_.size() - 1,
                                    forward_.size());
            alpha_ = chol_->solve_upper(forward_);
            bool finite = true;
            for (double a : alpha_)
                finite &= std::isfinite(a);
            if (finite)
                return true;
            // Roll back the bad row and report failure.
            truncate(xs_.size() - 1);
            return false;
        }
        diag += extra;
        extra *= 10.0;
    }
    return false;
}

void
GpModel::truncate(std::size_t k)
{
    if (!fitted_ || k >= xs_.size())
        return;
    if (k < 2)
        throw std::runtime_error("GpModel::truncate below 2 points");
    xs_.resize(k);
    for (KernelDim& kd : dims_) {
        if (kd.values == 0)
            continue;
        for (std::size_t i = k; i < kd.index.size(); ++i)
            kd.outside -= kd.index[i] == kd.values ? 1 : 0;
        kd.index.resize(k);
    }
    ys_std_.resize(k);
    chol_->shrink(k);
    inv_factor_diag_.resize(k);
    forward_.resize(k);
    alpha_ = chol_->solve_upper(forward_);
}

double
GpModel::data_nll_per_point() const
{
    if (!fitted_ || ys_std_.empty())
        return 0.0;
    double n = static_cast<double>(ys_std_.size());
    double nll_val = 0.5 * dot(ys_std_, alpha_) + 0.5 * chol_->log_det() +
                     0.5 * n * kLogTwoPi;
    return nll_val / n;
}

double
GpModel::nll(const std::vector<double>& theta, std::vector<double>* grad) const
{
    NllPoint pt;
    double value = nll_value(theta, &pt);
    if (grad)
        nll_gradient(pt, grad);
    return value;
}

double
GpModel::nll_value(const std::vector<double>& theta, NllPoint* pt) const
{
    std::size_t n = tensor_.n;
    std::size_t d = tensor_.dims();
    pt->theta = theta;

    // Soft box to keep exp() finite.
    double penalty = 0.0;
    for (double t : theta) {
        double g = 0.0;
        penalty += box_penalty(t, &g);
    }
    // Clamp for the kernel evaluation itself.
    pt->hpc = clamped(GpHyperparams::from_vector(theta));

    Matrix kmat = kernel_matrix(tensor_, pt->hpc);
    pt->chol = cholesky(kmat);
    if (!pt->chol)
        return std::numeric_limits<double>::infinity();

    pt->alpha = pt->chol->solve(ys_std_);
    double data_fit = 0.5 * dot(ys_std_, pt->alpha);
    double nll_val = data_fit + 0.5 * pt->chol->log_det() +
                     0.5 * static_cast<double>(n) * kLogTwoPi + penalty;

    if (opt_.use_priors) {
        double g = 0.0;
        for (std::size_t k = 0; k < d; ++k)
            nll_val += neg_log_prior(theta[k], opt_.lengthscale_shape,
                                     opt_.lengthscale_rate, &g);
        nll_val += neg_log_prior(theta[d], opt_.outputscale_shape,
                                 opt_.outputscale_rate, &g);
        nll_val += neg_log_prior(theta[d + 1], opt_.noise_shape,
                                 opt_.noise_rate, &g);
    }
    return nll_val;
}

void
GpModel::nll_gradient(const NllPoint& pt, std::vector<double>* grad) const
{
    std::size_t n = tensor_.n;
    std::size_t d = tensor_.dims();
    const std::vector<double>& theta = pt.theta;
    const GpHyperparams& hpc = pt.hpc;
    const std::vector<double>& alpha = pt.alpha;

    grad->assign(theta.size(), 0.0);
    for (std::size_t k = 0; k < theta.size(); ++k) {
        double g = 0.0;
        box_penalty(theta[k], &g);
        (*grad)[k] += g;
    }
    if (!pt.chol)
        return;  // the value is +inf; only the box pulls back
    if (opt_.use_priors) {
        double g = 0.0;
        for (std::size_t k = 0; k < d; ++k) {
            neg_log_prior(theta[k], opt_.lengthscale_shape,
                          opt_.lengthscale_rate, &g);
            (*grad)[k] += g;
        }
        neg_log_prior(theta[d], opt_.outputscale_shape,
                      opt_.outputscale_rate, &g);
        (*grad)[d] += g;
        neg_log_prior(theta[d + 1], opt_.noise_shape, opt_.noise_rate, &g);
        (*grad)[d + 1] += g;
    }

    // dNLL/dtheta = -0.5 tr((alpha alpha' - K^{-1}) dK/dtheta), with
    // a = alpha alpha' - K^{-1} built in K^{-1}'s storage.
    Matrix a = pt.chol->inverse();
    for (std::size_t i = 0; i < n; ++i) {
        double* ai = a.row(i);
        for (std::size_t j = 0; j < n; ++j)
            ai[j] = alpha[i] * alpha[j] - ai[j];
    }

    double s2 = std::exp(hpc.log_outputscale);
    double noise = std::exp(hpc.log_noise);
    std::vector<double> ls(d);
    std::vector<double> l2(d);
    for (std::size_t k = 0; k < d; ++k) {
        ls[k] = std::exp(hpc.log_lengthscales[k]);
        l2[k] = ls[k] * ls[k];
    }

    // One sweep over the upper-triangle pairs, a row at a time: each
    // pair's scaled distance r and its Matern exponential are computed
    // once and shared by every lengthscale term and the output-scale term
    // (dK/dlog s2 = s2 * matern(r), including the diagonal s2). Every
    // accumulator still adds its terms in (i, j) order, so each sum is the
    // one a separate loop per hyperparameter would produce.
    std::vector<double> acc_ls(d, 0.0);
    double acc_s2 = 0.0;
    std::vector<double> r2(n);
    std::vector<double> factor(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double* ai = a.row(i);
        std::fill(r2.begin() + static_cast<std::ptrdiff_t>(i), r2.end(), 0.0);
        for (std::size_t k = 0; k < d; ++k) {
            const double* dk = tensor_.dists[k].row(i);
            for (std::size_t j = i + 1; j < n; ++j) {
                double v = dk[j] / ls[k];
                r2[j] += v * v;
            }
        }
        acc_s2 += ai[i] * s2;
        for (std::size_t j = i + 1; j < n; ++j) {
            Matern52Terms m = matern52_terms(std::sqrt(r2[j]));
            factor[j] = m.dlog_lengthscale_factor;
            acc_s2 += 2.0 * ai[j] * s2 * m.value;
        }
        for (std::size_t k = 0; k < d; ++k) {
            const double* dk = tensor_.dists[k].row(i);
            double acc = acc_ls[k];
            for (std::size_t j = i + 1; j < n; ++j) {
                double dd = dk[j];
                if (dd == 0.0)
                    continue;
                double dkj = s2 * factor[j] * (dd * dd) / l2[k];
                acc += 2.0 * ai[j] * dkj;  // symmetric off-diagonal pair
            }
            acc_ls[k] = acc;
        }
    }
    for (std::size_t k = 0; k < d; ++k)
        (*grad)[k] += -0.5 * acc_ls[k];
    (*grad)[d] += -0.5 * acc_s2;

    // Noise: dK/dlog noise = noise * I.
    {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            acc += a(i, i);
        (*grad)[d + 1] += -0.5 * acc * noise;
    }
}

double
GpModel::objective(const GpHyperparams& hp) const
{
    return nll(hp.to_vector(), nullptr);
}

double
GpModel::objective_with_gradient(const GpHyperparams& hp,
                                 std::vector<double>* grad) const
{
    return nll(hp.to_vector(), grad);
}

GpPrediction
GpModel::predict(const Configuration& x) const
{
    return *predict_unless(x, Hopeless());
}

std::optional<GpPrediction>
GpModel::predict_unless(const Configuration& x, const Hopeless& hopeless) const
{
    if (!fitted_)
        throw std::runtime_error("GpModel::predict called before fit");

    // One scratch row per thread, reused across calls: predict() runs
    // about a thousand times per suggestion, and it is const, so callers
    // on different threads must not share the buffer.
    thread_local std::vector<double> row;
    cross_covariances(x, row);
    GpPrediction p;
    p.mean = standardizer_.inverse(dot(row, alpha_));

    // The variance is outputscale - ||z||^2 with L z = k, and any lower
    // bound on ||z||^2 gives an upper bound on it. Forward substitution
    // computes the exact solution of (L + E) z = k with |E| <= n u |L|,
    // so by Cauchy-Schwarz ||z||^2 >= k_j^2 / ((L + E)(L + E)^T)_jj for
    // every j: the one-point bound, valid to O(n u) relative for any
    // factored positive-definite matrix (jitter and boost included). A
    // prefix of z's squares is a bound too. kExplainedSlack covers the
    // rounding of both against dot(z, z) below.
    auto stops = [&](double explained) {
        double var_std =
            std::max(outputscale_ - explained * (1.0 - kExplainedSlack), 1e-12);
        return hopeless(GpPrediction{p.mean,
                                     standardizer_.inverse_variance(var_std)});
    };
    std::size_t n = row.size();
    double explained = 0.0;
    if (hopeless) {
        for (std::size_t j = 0; j < n; ++j)
            explained = std::max(explained,
                                 row[j] * row[j] * inv_factor_diag_[j]);
        if (stops(explained))
            return std::nullopt;
    }
    // k -> L^{-1} k in three pieces, testing the running sum of squares
    // after the first two.
    double solved_sq = 0.0;
    std::size_t done = 0;
    for (std::size_t end : {n / 2, n - n / 4}) {
        chol_->solve_lower_rows(row, done, end);
        if (hopeless) {
            for (std::size_t i = done; i < end; ++i)
                solved_sq += row[i] * row[i];
            if (solved_sq > explained && stops(solved_sq))
                return std::nullopt;
        }
        done = end;
    }
    chol_->solve_lower_rows(row, done, n);
    double var_std = outputscale_ - dot(row, row);
    var_std = std::max(var_std, 1e-12);
    p.var = standardizer_.inverse_variance(var_std);
    return p;
}

}  // namespace baco
