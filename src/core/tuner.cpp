#include "core/tuner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "core/acquisition.hpp"
#include "core/chain_of_trees.hpp"
#include "core/feasibility_model.hpp"
#include "core/tuner_metrics.hpp"
#include "obs/trace.hpp"
#include "rf/random_forest.hpp"

namespace baco {

namespace {

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

/** Everything the loop carries between suggest()/observe() calls. */
struct Tuner::State {
  RngEngine rng;
  std::unique_ptr<ChainOfTrees> cot;
  std::unordered_set<std::size_t> seen;
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
      : rng(opt.seed),
        gp(space, opt.gp),
        rf_surrogate([] {
            ForestOptions o;
            o.task = TreeTask::kRegression;
            o.num_trees = 40;
            return o;
        }()),
        feasibility(space)
  {
      // Known constraints: Chain-of-Trees when possible.
      if (opt.use_cot && space.has_constraints() &&
          space.is_fully_discrete()) {
          try {
              cot = std::make_unique<ChainOfTrees>(ChainOfTrees::build(space));
          } catch (const std::runtime_error&) {
              cot.reset();  // fall back to rejection sampling
          }
      }
  }
};

Tuner::Tuner(const SearchSpace& space, TunerOptions opt)
    : AskTellBase(opt.budget, opt.seed), space_(&space), opt_(opt)
{
}

Tuner::~Tuner() = default;

Tuner::State&
Tuner::state()
{
    if (!state_)
        state_ = std::make_unique<State>(*space_, opt_);
    return *state_;
}

Configuration
Tuner::random_unique(State& st)
{
    const SearchSpace& space = *space_;
    for (int t = 0; t < 500; ++t) {
        Configuration c;
        if (st.cot) {
            c = st.cot->sample(st.rng, opt_.cot_uniform_leaves);
        } else {
            auto s = space.sample_feasible(st.rng, 500);
            if (!s)
                continue;
            c = std::move(*s);
        }
        if (!st.seen.count(config_hash(c)))
            return c;
    }
    // The space may be (nearly) exhausted: allow a duplicate.
    if (st.cot)
        return st.cot->sample(st.rng, opt_.cot_uniform_leaves);
    auto s = space.sample_feasible(st.rng, 5000);
    if (s)
        return *s;
    return space.sample_unconstrained(st.rng);
}

Configuration
Tuner::propose(State& st, const std::vector<Configuration>& fantasy_configs,
               double fantasy_value)
{
    const SearchSpace& space = *space_;

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
        return random_unique(st);
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
            st.gp.fit(xs, ys, st.rng);
            TunerMetrics::get().model_nll_evals.add(st.gp.last_fit_nll_evals());
        } else {
            std::vector<std::vector<double>> rf_x;
            rf_x.reserve(xs.size());
            for (const Configuration& c : xs)
                rf_x.push_back(space.encode(c));
            st.rf_surrogate.fit(rf_x, ys, st.rng);
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
        st.feasibility.fit(history_.observations, st.rng);
        st.feas_fitted_on = history_.observations.size();
    }

    // Minimum feasibility threshold eps_f, resampled each iteration
    // with P(eps_f = 0) > 0 (Sec. 4.2).
    double eps_f = 0.0;
    if (st.feasibility.active() && opt_.use_feasibility_limit)
        eps_f = st.rng.bernoulli(1.0 / 3.0) ? 0.0 : st.rng.uniform(0.0, 0.6);

    double best = *std::min_element(ys.begin(), ys.end());

    std::uint64_t scored = 0;
    ScoreFn score = [&](const Configuration& c) -> double {
        ++scored;
        if (st.seen.count(config_hash(c)))
            return -2.0;  // worse than any admissible candidate
        double mean, var;
        if (use_gp) {
            GpPrediction p = st.gp.predict(c);
            mean = p.mean;
            var = p.var;
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
        cand = local_search_maximize(space, st.cot.get(), score, st.rng, ls);
    }
    TunerMetrics::get().acquisition_candidates.add(scored);

    if (!cand || st.seen.count(config_hash(*cand)))
        return random_unique(st);
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
    // on the constant-liar values.
    auto full_refit = [&]() {
        std::vector<Configuration> rx(xs.begin(),
                                      xs.begin() + static_cast<long>(n_real));
        std::vector<double> ry(ys.begin(),
                               ys.begin() + static_cast<long>(n_real));
        st.gp.fit(rx, ry, st.rng);
        st.model_real = n_real;
        st.model_fantasy_hashes.clear();
        st.tells_since_refit = 0;
        st.nll_after_refit = st.gp.data_nll_per_point();
        st.model_log = log_ok;
        st.model_valid = true;
        tm.model_refits.add();
        tm.model_nll_evals.add(st.gp.last_fit_nll_evals());
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
Tuner::suggest(int n)
{
    return suggest_with_pending(n, {});
}

std::vector<Configuration>
Tuner::suggest_with_pending(int n, const std::vector<Configuration>& pending)
{
    auto t0 = Clock::now();
    State& st = state();
    n = std::min(n, remaining() - static_cast<int>(pending.size()));
    std::vector<Configuration> out;
    if (n <= 0)
        return out;
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
    // Re-marking pending as seen is a no-op mid-run (suggesting them
    // inserted the hashes already) but repairs the dedup set after a
    // checkpoint resume, where pending never reached the history.
    for (const Configuration& c : pending)
        st.seen.insert(config_hash(c));

    TunerMetrics& tm = TunerMetrics::get();
    obs::ScopedTimer suggest_timer(tm.suggest, "tuner.suggest", "tuner");
    for (int k = 0; k < n; ++k) {
        std::size_t virtual_evals = history_.size() + fantasies.size();
        Configuration c;
        if (virtual_evals < static_cast<std::size_t>(doe_target)) {
            obs::ScopedTimer timer(tm.doe, "tuner.doe", "tuner");
            c = random_unique(st);
        } else {
            c = propose(st, fantasies, lie);
        }
        st.seen.insert(config_hash(c));
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
    tm.suggestions.add(static_cast<std::uint64_t>(out.size()));
    history_.tuner_seconds += seconds_since(t0);
    return out;
}

void
Tuner::observe(const std::vector<Configuration>& configs,
               const std::vector<EvalResult>& results)
{
    auto t0 = Clock::now();
    TunerMetrics& tm = TunerMetrics::get();
    obs::ScopedTimer observe_timer(tm.observe, "tuner.observe", "tuner");
    State& st = state();
    for (std::size_t i = 0; i < configs.size() && i < results.size(); ++i) {
        st.seen.insert(config_hash(configs[i]));
        history_.add(configs[i], results[i]);
        tm.observations.add();
    }
    history_.tuner_seconds += seconds_since(t0);
}

void
Tuner::reset_sampler()
{
    state_.reset();
}

std::string
Tuner::sampler_state() const
{
    // RNG stream position, then (incremental GP mode only) the surrogate
    // bookkeeping: base size of the last full refit, appends since, the
    // drift reference and the frozen hyperparameters. That is enough for
    // restore() to rebuild the model bit-for-bit — without it a resumed
    // run would be forced into an extra full refit, shifting the refit
    // cadence (and the RNG draws refits consume) off the uninterrupted
    // run's. Doubles travel as hexfloats so the round trip is exact.
    std::string out = rng_state_string(state_ ? &state_->rng : nullptr);
    if (!state_ || !opt_.incremental_fit ||
        opt_.surrogate != TunerOptions::Surrogate::kGaussianProcess ||
        !state_->model_valid) {
        return out;
    }
    const State& st = *state_;
    char buf[64];
    auto hex = [&buf](double v) {
        std::snprintf(buf, sizeof buf, "%a", v);
        return std::string(buf);
    };
    out += ";gp=";
    out += std::to_string(st.model_real) + ',';
    out += std::to_string(st.tells_since_refit) + ',';
    out += st.model_log ? "1," : "0,";
    out += hex(st.nll_after_refit);
    for (double v : st.gp.hyperparams().to_vector()) {
        out += ',';
        out += hex(v);
    }
    return out;
}

bool
Tuner::restore_gp(State& st, const std::string& seg)
{
    std::vector<std::string> parts;
    std::size_t at = 0;
    while (at <= seg.size()) {
        std::size_t comma = seg.find(',', at);
        parts.push_back(seg.substr(
            at, comma == std::string::npos ? std::string::npos : comma - at));
        if (comma == std::string::npos)
            break;
        at = comma + 1;
    }
    std::size_t d = space_->num_params();
    if (parts.size() != 4 + d + 2)
        return false;

    char* end = nullptr;
    std::size_t model_real = std::strtoull(parts[0].c_str(), &end, 10);
    if (end == parts[0].c_str() || *end != '\0')
        return false;
    long tells = std::strtol(parts[1].c_str(), &end, 10);
    if (end == parts[1].c_str() || *end != '\0')
        return false;
    if (parts[2] != "0" && parts[2] != "1")
        return false;
    bool model_log = parts[2] == "1";
    std::vector<double> nums;
    for (std::size_t i = 3; i < parts.size(); ++i) {
        double v = std::strtod(parts[i].c_str(), &end);
        if (end == parts[i].c_str() || *end != '\0' || !std::isfinite(v))
            return false;
        nums.push_back(v);
    }
    if (tells < 0 || static_cast<std::size_t>(tells) > model_real ||
        model_real < 2 || model_real - static_cast<std::size_t>(tells) < 2)
        return false;

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

    std::size_t base = model_real - static_cast<std::size_t>(tells);
    GpHyperparams hp = GpHyperparams::from_vector(
        {nums.begin() + 1, nums.end()});
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
    st.nll_after_refit = nums[0];
    st.model_log = model_log;
    st.model_valid = true;
    return true;
}

bool
Tuner::restore(const TuningHistory& history, const std::string& sampler_state)
{
    state_.reset();
    history_ = history;
    State& st = state();
    for (const Observation& o : history_.observations)
        st.seen.insert(config_hash(o.config));
    std::size_t semi = sampler_state.find(';');
    bool ok = restore_rng(st.rng, sampler_state.substr(0, semi));
    if (ok && semi != std::string::npos) {
        std::string seg = sampler_state.substr(semi + 1);
        if (seg.compare(0, 3, "gp=") == 0) {
            // The segment only applies when this tuner runs the
            // incremental GP path; otherwise it is valid but unused.
            if (opt_.incremental_fit &&
                opt_.surrogate == TunerOptions::Surrogate::kGaussianProcess)
                ok = restore_gp(st, seg.substr(3));
        } else {
            ok = false;
        }
    }
    if (!ok) {
        // Don't leave a half-restored tuner behind.
        state_.reset();
        history_ = TuningHistory{};
        return false;
    }
    return true;
}

TuningHistory
Tuner::run(const BlackBoxFn& objective)
{
    state_.reset();
    history_ = TuningHistory{};
    return drive_serial(*this, objective);
}

}  // namespace baco
