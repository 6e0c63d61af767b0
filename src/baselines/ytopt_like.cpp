#include "baselines/ytopt_like.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "core/acquisition.hpp"
#include "core/chain_of_trees.hpp"
#include "core/tuner_metrics.hpp"
#include "exec/drive.hpp"
#include "obs/trace.hpp"
#include "gp/gp_model.hpp"
#include "rf/random_forest.hpp"

namespace baco {

namespace {
using Clock = std::chrono::steady_clock;
}

struct YtoptLike::State {
  RngEngine rng;
  std::unique_ptr<ChainOfTrees> cot;
  std::unordered_set<std::size_t> seen;
  RandomForest forest;
  GpModel gp;

  State(const SearchSpace& space, const Options& opt)
      : rng(opt.seed),
        forest([] {
            ForestOptions o;
            o.task = TreeTask::kRegression;
            o.num_trees = 40;
            return o;
        }()),
        gp(space, [] {
            GpOptions o;
            o.use_priors = false;  // plain GP, no BaCO customizations
            o.advanced_fit = false;
            return o;
        }())
  {
      // The RF mode supports known constraints (like Ytopt's ConfigSpace
      // path); the GP mode does not (matching the real tool) and samples
      // the dense space.
      bool use_gp = opt.surrogate == Surrogate::kGaussianProcess;
      if (!use_gp && space.has_constraints() && space.is_fully_discrete()) {
          try {
              cot = std::make_unique<ChainOfTrees>(ChainOfTrees::build(space));
          } catch (const std::runtime_error&) {
              cot.reset();
          }
      }
  }
};

YtoptLike::YtoptLike(const SearchSpace& space, Options opt)
    : AskTellBase(opt.budget, opt.seed), space_(&space), opt_(opt)
{
}

YtoptLike::~YtoptLike() = default;

YtoptLike::State&
YtoptLike::state()
{
    if (!state_)
        state_ = std::make_unique<State>(*space_, opt_);
    return *state_;
}

std::vector<Configuration>
YtoptLike::suggest(int n)
{
    auto start = Clock::now();
    const SearchSpace& space = *space_;
    State& st = state();
    n = std::min(n, remaining());
    std::vector<Configuration> out;
    if (n <= 0)
        return out;
    TunerMetrics& tm = TunerMetrics::get();
    obs::ScopedTimer suggest_timer(tm.suggest, "tuner.suggest", "tuner");
    tm.suggestions.add(static_cast<std::uint64_t>(n));
    out.reserve(static_cast<std::size_t>(n));

    bool use_gp = opt_.surrogate == Surrogate::kGaussianProcess;

    auto sample_candidate = [&]() -> Configuration {
        if (use_gp)
            return space.sample_unconstrained(st.rng);
        if (st.cot)
            return st.cot->sample(st.rng, /*uniform_leaves=*/true);
        auto s = space.sample_feasible(st.rng, 2000);
        return s ? std::move(*s) : space.sample_unconstrained(st.rng);
    };

    // ---- DoE phase: plain sampling, deduplicated best-effort. ----
    const int doe_target = std::min(opt_.doe_samples, opt_.budget);
    while (static_cast<int>(out.size()) < n &&
           history_.size() + out.size() <
               static_cast<std::size_t>(doe_target)) {
        Configuration c = sample_candidate();
        for (int tries = 0;
             tries < 100 && st.seen.count(config_hash(c)); ++tries)
            c = sample_candidate();
        st.seen.insert(config_hash(c));
        out.push_back(std::move(c));
    }

    while (static_cast<int>(out.size()) < n) {
        // Training set: all observations; infeasible ones get a penalty.
        double worst = 0.0;
        bool any_feasible = false;
        for (const Observation& o : history_.observations) {
            if (o.feasible) {
                worst = std::max(worst, o.value);
                any_feasible = true;
            }
        }
        double penalty = any_feasible ? worst * opt_.penalty_factor : 1.0;

        std::vector<Configuration> xs;
        std::vector<double> ys;
        for (const Observation& o : history_.observations) {
            xs.push_back(o.config);
            ys.push_back(o.feasible ? o.value : penalty);
        }
        if (xs.size() < 2) {
            Configuration c = sample_candidate();
            st.seen.insert(config_hash(c));
            out.push_back(std::move(c));
            continue;
        }

        if (use_gp) {
            st.gp.fit(xs, ys, st.rng);
        } else {
            std::vector<std::vector<double>> enc;
            enc.reserve(xs.size());
            for (const Configuration& c : xs)
                enc.push_back(space.encode(c));
            st.forest.fit(enc, ys, st.rng);
        }

        double best = *std::min_element(ys.begin(), ys.end());

        // Acquisition over one random candidate pool (skopt-style): the
        // remaining batch slots take the top-k distinct candidates.
        int want = n - static_cast<int>(out.size());
        std::vector<std::pair<double, Configuration>> scored;
        for (int i = 0; i < opt_.pool_size; ++i) {
            Configuration c = sample_candidate();
            if (st.seen.count(config_hash(c)))
                continue;
            double mean, var;
            if (use_gp) {
                GpPrediction p = st.gp.predict(c);
                mean = p.mean;
                var = p.var;
            } else {
                ForestPrediction p =
                    st.forest.predict_with_variance(space.encode(c));
                mean = p.mean;
                var = p.var;
            }
            scored.emplace_back(expected_improvement(mean, var, best),
                                std::move(c));
        }
        std::stable_sort(scored.begin(), scored.end(),
                         [](const auto& a, const auto& b) {
                             return a.first > b.first;
                         });
        std::unordered_set<std::size_t> batch_dedup;
        for (auto& [s, c] : scored) {
            if (static_cast<int>(out.size()) >= n || want <= 0)
                break;
            std::size_t h = config_hash(c);
            if (batch_dedup.count(h))
                continue;
            batch_dedup.insert(h);
            st.seen.insert(h);
            out.push_back(std::move(c));
            --want;
        }
        while (want > 0 && static_cast<int>(out.size()) < n) {
            Configuration c = sample_candidate();
            st.seen.insert(config_hash(c));
            out.push_back(std::move(c));
            --want;
        }
    }
    history_.tuner_seconds +=
        std::chrono::duration<double>(Clock::now() - start).count();
    return out;
}

void
YtoptLike::observe(const std::vector<Configuration>& configs,
                   const std::vector<EvalResult>& results)
{
    auto start = Clock::now();
    TunerMetrics& tm = TunerMetrics::get();
    obs::ScopedTimer timer(tm.observe, "tuner.observe", "tuner");
    State& st = state();
    for (std::size_t i = 0; i < configs.size() && i < results.size(); ++i) {
        st.seen.insert(config_hash(configs[i]));
        history_.add(configs[i], results[i]);
        tm.observations.add();
    }
    history_.tuner_seconds +=
        std::chrono::duration<double>(Clock::now() - start).count();
}

void
YtoptLike::reset_sampler()
{
    state_.reset();
}

std::string
YtoptLike::sampler_state() const
{
    return rng_state_string(state_ ? &state_->rng : nullptr);
}

bool
YtoptLike::restore(const TuningHistory& history,
                   const std::string& sampler_state)
{
    state_.reset();
    history_ = history;
    State& st = state();
    for (const Observation& o : history_.observations)
        st.seen.insert(config_hash(o.config));
    if (!restore_rng(st.rng, sampler_state)) {
        state_.reset();
        history_ = TuningHistory{};
        return false;
    }
    return true;
}

TuningHistory
YtoptLike::run(const BlackBoxFn& objective)
{
    state_.reset();
    history_ = TuningHistory{};
    return drive_serial(*this, objective);
}

}  // namespace baco
