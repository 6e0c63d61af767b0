#include "core/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/acquisition.hpp"
#include "core/chain_of_trees.hpp"
#include "core/feasibility_model.hpp"
#include "core/tuner_metrics.hpp"
#include "obs/trace.hpp"
#include "rf/random_forest.hpp"

namespace baco {

namespace {

/** Add one GP fit's work to the tuner's model counters. */
void
add_fit_work(TunerMetrics& tm, const GpFitWork& w)
{
    tm.model_nll_evals.add(w.nll_evals);
    tm.model_nll_failures.add(w.nll_failures);
    tm.model_nll_gradients.add(w.nll_gradients);
    tm.model_refits_warm.add(w.warm ? 1 : 0);
    tm.model_refit_fallbacks.add(w.fallback ? 1 : 0);
}

}  // namespace

/** The models the loop carries between suggest()/observe() calls. */
struct Tuner::State : MethodState {
  GpModel gp;
  RandomForest rf_surrogate;
  FeasibilityModel feasibility;

  // --- Incremental-refresh bookkeeping (TunerOptions::incremental_fit). ---
  /** Feasible observations currently inside the GP (the model "base"). */
  std::size_t model_real = 0;
  /** Hashes of the fantasy rows appended past the base, in order. */
  std::vector<std::size_t> model_fantasy_hashes;
  /** New observations absorbed via extend() since the last full refit. */
  int tells_since_refit = 0;
  /** Per-point NLL right after the last full refit (drift reference). */
  double nll_after_refit = 0.0;
  /** Log-objective transform in effect at the last full fit. */
  bool model_log = false;
  /** False until the first full fit (and after any inconsistency). */
  bool model_valid = false;
  /** History size the feasibility model was last fit on. */
  std::size_t feas_fitted_on = static_cast<std::size_t>(-1);

  State(const SearchSpace& space, const TunerOptions& opt)
      : gp(space, opt.gp),
        rf_surrogate([] {
            ForestOptions o;
            o.task = TreeTask::kRegression;
            o.num_trees = 40;
            return o;
        }()),
        feasibility(space)
  {
  }
};

Tuner::Tuner(const SearchSpace& space, TunerOptions opt)
    : AskTellBase(space, opt.budget, opt.seed), opt_(opt)
{
}

std::unique_ptr<AskTellBase::MethodState>
Tuner::new_state() const
{
    return std::make_unique<State>(space_, opt_);
}

Configuration
Tuner::random_unique()
{
    // Known constraints: Chain-of-Trees when possible.
    const ChainOfTrees* tree = opt_.use_cot ? cot() : nullptr;
    for (int t = 0; t < 500; ++t) {
        Configuration c;
        if (tree) {
            c = tree->sample(rng(), opt_.cot_uniform_leaves);
        } else {
            auto s = space_.sample_feasible(rng(), 500);
            if (!s)
                continue;
            c = std::move(*s);
        }
        if (!seen(c))
            return c;
    }
    // The space may be (nearly) exhausted: allow a duplicate.
    if (tree)
        return tree->sample(rng(), opt_.cot_uniform_leaves);
    auto s = space_.sample_feasible(rng(), 5000);
    if (s)
        return *s;
    return space_.sample_unconstrained(rng());
}

Configuration
Tuner::propose_with_model(State& st,
                          const std::vector<Configuration>& fantasy_configs,
                          double fantasy_value)
{
    const SearchSpace& space = space_;

    // Gather feasible training data, plus the batch's fantasy points.
    std::vector<Configuration> xs;
    std::vector<double> ys;
    bool log_ok = opt_.log_objective;
    for (const Observation& o : history_.observations) {
        if (!o.feasible)
            continue;
        xs.push_back(o.config);
        ys.push_back(o.value);
        if (o.value <= 0.0)
            log_ok = false;
    }
    if (xs.size() < 2)
        return random_unique();
    for (const Configuration& c : fantasy_configs) {
        xs.push_back(c);
        ys.push_back(fantasy_value);
        if (fantasy_value <= 0.0)
            log_ok = false;
    }
    if (log_ok) {
        for (double& y : ys)
            y = std::log(y);
    }
    std::size_t n_real = xs.size() - fantasy_configs.size();

    // Fit / refresh the value model.
    bool use_gp = opt_.surrogate == TunerOptions::Surrogate::kGaussianProcess;
    {
        obs::ScopedTimer timer(TunerMetrics::get().model_fit,
                               "tuner.model_fit", "tuner");
        if (use_gp && opt_.incremental_fit) {
            sync_gp(st, xs, ys, n_real, log_ok);
        } else if (use_gp) {
            st.gp.fit(xs, ys, rng());
            add_fit_work(TunerMetrics::get(), st.gp.last_fit_work());
        } else {
            std::vector<std::vector<double>> rf_x;
            rf_x.reserve(xs.size());
            for (const Configuration& c : xs)
                rf_x.push_back(space.encode(c));
            st.rf_surrogate.fit(rf_x, ys, rng());
        }
    }

    // Fit the feasibility model (on real observations only). On the
    // incremental path, skip the refit when no observation arrived since
    // the last one — repeat calls inside one constant-liar batch would
    // re-train the forest on identical data.
    if (opt_.use_feasibility_model &&
        (!opt_.incremental_fit ||
         st.feas_fitted_on != history_.observations.size())) {
        obs::ScopedTimer timer(TunerMetrics::get().feasibility_fit,
                               "tuner.feasibility_fit", "tuner");
        st.feasibility.fit(history_.observations, rng());
        st.feas_fitted_on = history_.observations.size();
    }

    // Minimum feasibility threshold eps_f, resampled each iteration
    // with P(eps_f = 0) > 0 (Sec. 4.2).
    double eps_f = 0.0;
    if (st.feasibility.active() && opt_.use_feasibility_limit)
        eps_f = rng().bernoulli(1.0 / 3.0) ? 0.0 : rng().uniform(0.0, 0.6);

    double best = *std::min_element(ys.begin(), ys.end());

    // Pruning: once a GP candidate's score provably cannot beat the floor
    // the search passes, its prediction stops and it scores -inf, which
    // the search treats exactly like the score it skipped. Without a user
    // prior (a weight that may exceed 1) the score is at most EI, so
    // ei_below_floor() on the prediction bound decides; the feasibility
    // forest then runs only for candidates that survive.
    double current_floor = 0.0;
    const GpModel::Hopeless below_floor = [&](const GpPrediction& bound) {
        return ei_below_floor(bound.mean, bound.var, best, current_floor);
    };
    const GpModel::Hopeless never;
    const GpModel::Hopeless& hopeless =
        opt_.user_prior ? never : below_floor;
    std::uint64_t scored = 0;
    std::uint64_t pruned = 0;
    ScoreFn score = [&](const Configuration& c, double floor_to_beat) {
        ++scored;
        if (seen(c))
            return -2.0;  // worse than any admissible candidate
        double mean, var;
        if (use_gp) {
            current_floor = floor_to_beat;
            std::optional<GpPrediction> p = st.gp.predict_unless(c, hopeless);
            if (!p) {
                ++pruned;
                return -std::numeric_limits<double>::infinity();
            }
            mean = p->mean;
            var = p->var;
        } else {
            ForestPrediction p =
                st.rf_surrogate.predict_with_variance(space.encode(c));
            mean = p.mean;
            var = p.var;
        }
        double pf = opt_.use_feasibility_model ? st.feasibility.probability(c)
                                               : 1.0;
        double s = constrained_ei(mean, var, best, pf, eps_f);
        if (s > 0.0 && opt_.user_prior) {
            double exponent =
                opt_.prior_strength /
                static_cast<double>(std::max<std::size_t>(
                    1, history_.size() + fantasy_configs.size()));
            s *= std::pow(std::max(opt_.user_prior(c), 1e-9), exponent);
        }
        return s;
    };

    LocalSearchOptions ls = opt_.ls;
    ls.cot_uniform_leaves = opt_.cot_uniform_leaves;
    ls.hill_climb = opt_.local_search;
    std::optional<Configuration> cand;
    {
        obs::ScopedTimer timer(TunerMetrics::get().acquisition,
                               "tuner.acquisition", "tuner");
        cand = local_search_maximize(space, opt_.use_cot ? cot() : nullptr,
                                     score, rng(), ls);
    }
    TunerMetrics::get().acquisition_candidates.add(scored);
    TunerMetrics::get().acquisition_pruned.add(pruned);

    if (!cand || seen(*cand))
        return random_unique();
    return std::move(*cand);
}

void
Tuner::sync_gp(State& st, const std::vector<Configuration>& xs,
               const std::vector<double>& ys, std::size_t n_real, bool log_ok)
{
    TunerMetrics& tm = TunerMetrics::get();
    std::size_t n_fant = xs.size() - n_real;

    // Full refit on real observations only: fantasies are appended after,
    // so the hyperparameters and the output standardization never depend
    // on the constant-liar values. After the first, a refit re-optimizes
    // the hyperparameters from the last optimum (GpModel::refit).
    auto full_refit = [&]() {
        std::vector<Configuration> rx(xs.begin(),
                                      xs.begin() + static_cast<long>(n_real));
        std::vector<double> ry(ys.begin(),
                               ys.begin() + static_cast<long>(n_real));
        st.gp.refit(rx, ry, rng());
        st.model_real = n_real;
        st.model_fantasy_hashes.clear();
        st.tells_since_refit = 0;
        st.nll_after_refit = st.gp.data_nll_per_point();
        st.model_log = log_ok;
        st.model_valid = true;
        tm.model_refits.add();
        add_fit_work(tm, st.gp.last_fit_work());
    };

    bool need_full =
        !st.model_valid || st.model_log != log_ok ||
        st.tells_since_refit >= opt_.refit_every ||
        st.gp.size() != st.model_real + st.model_fantasy_hashes.size() ||
        st.model_real > n_real;

    if (!need_full) {
        // Fantasy rows sit after the real block, so absorbing new real
        // observations (or a diverged fantasy list) first rolls the model
        // back to its real-only base.
        std::size_t keep = 0;
        if (n_real == st.model_real) {
            while (keep < st.model_fantasy_hashes.size() && keep < n_fant &&
                   st.model_fantasy_hashes[keep] ==
                       config_hash(xs[n_real + keep]))
                ++keep;
        }
        if (keep < st.model_fantasy_hashes.size()) {
            st.gp.truncate(st.model_real + keep);
            st.model_fantasy_hashes.resize(keep);
        }

        bool appended_real = false;
        for (std::size_t i = st.model_real; i < n_real && !need_full; ++i) {
            if (st.gp.extend(xs[i], ys[i])) {
                st.model_real = i + 1;
                ++st.tells_since_refit;
                appended_real = true;
                tm.model_extends.add();
            } else {
                need_full = true;  // bordered matrix not SPD: refit
            }
        }
        // Hyperparameter-staleness check: the frozen-theta likelihood of
        // the grown training set drifting past the threshold means the
        // cheap path is no longer describing the data.
        if (!need_full && appended_real &&
            st.gp.data_nll_per_point() - st.nll_after_refit >
                opt_.refit_nll_drift)
            need_full = true;
    }

    if (need_full)
        full_refit();

    // Append the missing fantasy suffix. The model must stay a pure
    // function of (real prefix, hyperparameters, appends) — restore_gp
    // rebuilds it from exactly that — so a refusal never triggers a fit
    // that mixes liar values into the hyperparameters or the output
    // standardization. Instead, refit the real block once and retry; a
    // fantasy that refuses even a fresh factor is a near-duplicate whose
    // repulsive effect on the acquisition the existing rows already
    // provide, so it is simply left out of the model.
    bool refit_retry = false;
    for (std::size_t i = st.model_fantasy_hashes.size(); i < n_fant; ++i) {
        const Configuration& c = xs[n_real + i];
        if (st.gp.extend(c, ys[n_real + i])) {
            st.model_fantasy_hashes.push_back(config_hash(c));
            tm.model_extends.add();
        } else if (!refit_retry) {
            refit_retry = true;
            full_refit();  // drops fantasy rows; restart their appends
            i = static_cast<std::size_t>(-1);
        }
    }
}

std::vector<Configuration>
Tuner::propose(int n, const std::vector<Configuration>& pending)
{
    State& st = *state<State>();
    std::vector<Configuration> out;
    out.reserve(static_cast<std::size_t>(n));

    const int doe_target = std::min(opt_.doe_samples, opt_.budget);

    // Constant liar: the incumbent value stands in for every fantasy —
    // the in-flight evaluations handed in by an asynchronous driver and
    // the batch members proposed so far — pushing new proposals away
    // from the same regions.
    double lie = std::numeric_limits<double>::infinity();
    for (const Observation& o : history_.observations) {
        if (o.feasible && o.value < lie)
            lie = o.value;
    }

    std::vector<Configuration> fantasies = pending;
    TunerMetrics& tm = TunerMetrics::get();
    for (int k = 0; k < n; ++k) {
        std::size_t virtual_evals = history_.size() + fantasies.size();
        Configuration c;
        if (virtual_evals < static_cast<std::size_t>(doe_target)) {
            obs::ScopedTimer timer(tm.doe, "tuner.doe", "tuner");
            c = random_unique();
        } else {
            c = propose_with_model(st, fantasies, lie);
        }
        mark_seen(c);
        out.push_back(c);
        fantasies.push_back(std::move(c));
    }
    // Roll the incremental model back to its real-observation base: the
    // leading factor block is untouched by appends, so dropping the fantasy
    // rows restores the exact pre-batch posterior for free.
    if (opt_.incremental_fit && !st.model_fantasy_hashes.empty()) {
        st.gp.truncate(st.model_real);
        st.model_fantasy_hashes.clear();
    }
    return out;
}

void
Tuner::write_segments(std::string& out) const
{
    // Base size of the last full refit, appends since, the log flag, the
    // drift reference and the frozen hyperparameters: enough for
    // restore_gp() to rebuild the model bit-for-bit. Without it a resumed
    // run would be forced into an extra full refit, shifting the refit
    // cadence (and the RNG draws refits consume) off the uninterrupted
    // run's.
    const State* st = state<State>();
    if (!st || !opt_.incremental_fit ||
        opt_.surrogate != TunerOptions::Surrogate::kGaussianProcess ||
        !st->model_valid) {
        return;
    }
    out += ";gp=";
    out += std::to_string(st->model_real) + ',';
    out += std::to_string(st->tells_since_refit) + ',';
    out += st->model_log ? "1," : "0,";
    std::vector<double> nums = st->gp.hyperparams().to_vector();
    nums.insert(nums.begin(), st->nll_after_refit);
    append_hexfloats(out, nums);
}

bool
Tuner::read_segment(const std::string& key, const std::string& value)
{
    if (key != "gp")
        return false;
    // The segment only applies when this tuner runs the incremental GP
    // path; otherwise it is valid but unused.
    if (!opt_.incremental_fit ||
        opt_.surrogate != TunerOptions::Surrogate::kGaussianProcess)
        return true;
    return restore_gp(*state<State>(), value);
}

bool
Tuner::restore_gp(State& st, const std::string& seg)
{
    // model_real, tells since the refit, log flag (0/1), drift reference,
    // then the hyperparameters; the counts are range-checked before they
    // are converted.
    std::vector<double> v;
    if (!parse_hexfloats(seg, v) || v.size() != 4 + space_.num_params() + 2)
        return false;
    auto is_count = [](double x) { return x >= 0.0 && x == std::floor(x); };
    if (!is_count(v[0]) || !is_count(v[1]) ||
        v[0] > static_cast<double>(history_.size()) || v[0] - v[1] < 2.0 ||
        (v[2] != 0.0 && v[2] != 1.0))
        return false;
    const std::size_t model_real = static_cast<std::size_t>(v[0]);
    const std::size_t tells = static_cast<std::size_t>(v[1]);
    const bool model_log = v[2] == 1.0;

    // The transformed feasible prefix the checkpointed model was built on.
    std::vector<Configuration> xs;
    std::vector<double> ys;
    for (const Observation& o : history_.observations) {
        if (!o.feasible)
            continue;
        if (model_log && o.value <= 0.0)
            return false;
        xs.push_back(o.config);
        ys.push_back(model_log ? std::log(o.value) : o.value);
        if (xs.size() == model_real)
            break;
    }
    if (xs.size() < model_real)
        return false;

    std::size_t base = model_real - tells;
    GpHyperparams hp = GpHyperparams::from_vector({v.begin() + 4, v.end()});
    st.gp.fit_with_hyperparams(
        {xs.begin(), xs.begin() + static_cast<long>(base)},
        {ys.begin(), ys.begin() + static_cast<long>(base)}, hp);
    for (std::size_t i = base; i < model_real; ++i) {
        if (!st.gp.extend(xs[i], ys[i]))
            return false;  // succeeded live; a failure here means corruption
    }
    st.model_real = model_real;
    st.model_fantasy_hashes.clear();
    st.tells_since_refit = static_cast<int>(tells);
    st.nll_after_refit = v[3];
    st.model_log = model_log;
    st.model_valid = true;
    return true;
}

}  // namespace baco
