#include "baselines/ytopt_like.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/acquisition.hpp"
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
    : AskTellBase(space, opt.budget, opt.seed,
                  // Like the real tool's GP mode, Ytopt(GP) ignores known
                  // constraints.
                  opt.surrogate == Surrogate::kGaussianProcess
                      ? Draw::kUnconstrained
                      : Draw::kLeafUniform,
                  opt.doe_samples),
      opt_(opt)
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
    bool use_gp = opt_.surrogate == Surrogate::kGaussianProcess;

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

    // Acquisition over one random candidate pool (skopt-style): the batch
    // takes the top-n distinct candidates, and random draws fill the rest.
    std::vector<std::pair<double, Configuration>> scored;
    for (int i = 0; i < opt_.pool_size; ++i) {
        Configuration c = draw();
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
    std::vector<Configuration> out;
    out.reserve(static_cast<std::size_t>(n));
    std::unordered_set<std::size_t> batch_dedup;
    for (auto& [s, c] : scored) {
        if (static_cast<int>(out.size()) >= n)
            break;
        if (batch_dedup.insert(config_hash(c)).second)
            out.push_back(std::move(c));
    }
    while (static_cast<int>(out.size()) < n)
        out.push_back(draw());
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
