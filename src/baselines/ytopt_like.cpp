#include "baselines/ytopt_like.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/acquisition.hpp"
#include "core/chain_of_trees.hpp"
#include "gp/gp_model.hpp"
#include "rf/random_forest.hpp"

namespace baco {

struct YtoptLike::State : MethodState {
  RandomForest forest;
  GpModel gp;

  explicit State(const SearchSpace& space)
      : forest([] {
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
  }
};

YtoptLike::YtoptLike(const SearchSpace& space, Options opt)
    : AskTellBase(space, opt.budget, opt.seed), opt_(opt)
{
}

std::unique_ptr<AskTellBase::MethodState>
YtoptLike::new_state() const
{
    return std::make_unique<State>(space_);
}

std::vector<Configuration>
YtoptLike::propose(int n, const std::vector<Configuration>&)
{
    const SearchSpace& space = space_;
    State& st = *state<State>();
    std::vector<Configuration> out;
    out.reserve(static_cast<std::size_t>(n));

    bool use_gp = opt_.surrogate == Surrogate::kGaussianProcess;
    // The RF mode supports known constraints (like Ytopt's ConfigSpace
    // path); the GP mode does not (matching the real tool) and samples
    // the dense space.
    const ChainOfTrees* tree = use_gp ? nullptr : cot();

    auto sample_candidate = [&]() -> Configuration {
        if (use_gp)
            return space.sample_unconstrained(rng());
        if (tree)
            return tree->sample(rng(), /*uniform_leaves=*/true);
        auto s = space.sample_feasible(rng(), 2000);
        return s ? std::move(*s) : space.sample_unconstrained(rng());
    };

    // ---- DoE phase: plain sampling, deduplicated best-effort. ----
    const int doe_target = std::min(opt_.doe_samples, opt_.budget);
    while (static_cast<int>(out.size()) < n &&
           history_.size() + out.size() <
               static_cast<std::size_t>(doe_target)) {
        Configuration c = sample_candidate();
        for (int tries = 0; tries < 100 && seen(c); ++tries)
            c = sample_candidate();
        mark_seen(c);
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
            mark_seen(c);
            out.push_back(std::move(c));
            continue;
        }

        if (use_gp) {
            st.gp.fit(xs, ys, rng());
        } else {
            std::vector<std::vector<double>> enc;
            enc.reserve(xs.size());
            for (const Configuration& c : xs)
                enc.push_back(space.encode(c));
            st.forest.fit(enc, ys, rng());
        }

        double best = *std::min_element(ys.begin(), ys.end());

        // Acquisition over one random candidate pool (skopt-style): the
        // remaining batch slots take the top-k distinct candidates.
        int want = n - static_cast<int>(out.size());
        std::vector<std::pair<double, Configuration>> scored;
        for (int i = 0; i < opt_.pool_size; ++i) {
            Configuration c = sample_candidate();
            if (seen(c))
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
            mark_seen(c);
            out.push_back(std::move(c));
            --want;
        }
        while (want > 0 && static_cast<int>(out.size()) < n) {
            Configuration c = sample_candidate();
            mark_seen(c);
            out.push_back(std::move(c));
            --want;
        }
    }
    return out;
}

void
YtoptLike::write_segments(std::string& out) const
{
    const State* st = state<State>();
    if (!st || !st->gp.warm_start())
        return;
    out += ";hp=";
    append_hexfloats(out, st->gp.warm_start()->to_vector());
}

bool
YtoptLike::read_segment(const std::string& key, const std::string& value)
{
    std::vector<double> hp;
    if (key != "hp" || !parse_hexfloats(value, hp) ||
        hp.size() != space_.num_params() + 2)
        return false;
    state<State>()->gp.set_warm_start(GpHyperparams::from_vector(hp));
    return true;
}

}  // namespace baco
