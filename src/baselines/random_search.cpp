#include "baselines/random_search.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "core/chain_of_trees.hpp"
#include "core/tuner_metrics.hpp"
#include "exec/drive.hpp"
#include "obs/trace.hpp"

namespace baco {

namespace {

using Clock = std::chrono::steady_clock;

std::unique_ptr<ChainOfTrees>
try_build_cot(const SearchSpace& space)
{
    if (!space.has_constraints() || !space.is_fully_discrete())
        return nullptr;
    try {
        return std::make_unique<ChainOfTrees>(ChainOfTrees::build(space));
    } catch (const std::runtime_error&) {
        return nullptr;
    }
}

}  // namespace

struct RandomSearchTuner::State {
  RngEngine rng;
  std::unique_ptr<ChainOfTrees> cot;

  State(const SearchSpace& space, std::uint64_t seed)
      : rng(seed), cot(try_build_cot(space))
  {
  }
};

RandomSearchTuner::RandomSearchTuner(const SearchSpace& space,
                                     RandomSearchOptions opt,
                                     bool biased_walk)
    : AskTellBase(opt.budget, opt.seed),
      space_(&space),
      opt_(opt),
      biased_walk_(biased_walk)
{
}

RandomSearchTuner::~RandomSearchTuner() = default;

RandomSearchTuner::State&
RandomSearchTuner::state()
{
    if (!state_)
        state_ = std::make_unique<State>(*space_, opt_.seed);
    return *state_;
}

std::vector<Configuration>
RandomSearchTuner::suggest(int n)
{
    auto t0 = Clock::now();
    State& st = state();
    n = std::min(n, remaining());
    std::vector<Configuration> out;
    if (n <= 0)
        return out;
    TunerMetrics& tm = TunerMetrics::get();
    obs::ScopedTimer suggest_timer(tm.suggest, "tuner.suggest", "tuner");
    tm.suggestions.add(static_cast<std::uint64_t>(n));
    out.reserve(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
        if (biased_walk_ && st.cot) {
            out.push_back(st.cot->sample(st.rng, /*uniform_leaves=*/false));
        } else if (st.cot) {
            // Leaf-uniform CoT sampling is exactly uniform over the
            // feasible region, so use it directly instead of rejection.
            out.push_back(st.cot->sample(st.rng, /*uniform_leaves=*/true));
        } else {
            auto s = space_->sample_feasible(st.rng, 5000);
            out.push_back(s ? std::move(*s)
                            : space_->sample_unconstrained(st.rng));
        }
    }
    history_.tuner_seconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
    return out;
}

void
RandomSearchTuner::observe(const std::vector<Configuration>& configs,
                           const std::vector<EvalResult>& results)
{
    TunerMetrics& tm = TunerMetrics::get();
    obs::ScopedTimer timer(tm.observe, "tuner.observe", "tuner");
    for (std::size_t i = 0; i < configs.size() && i < results.size(); ++i) {
        history_.add(configs[i], results[i]);
        tm.observations.add();
    }
}

void
RandomSearchTuner::reset_sampler()
{
    state_.reset();
}

std::string
RandomSearchTuner::sampler_state() const
{
    return rng_state_string(state_ ? &state_->rng : nullptr);
}

bool
RandomSearchTuner::restore(const TuningHistory& history,
                           const std::string& sampler_state)
{
    state_.reset();
    history_ = history;
    if (!restore_rng(state().rng, sampler_state)) {
        state_.reset();
        history_ = TuningHistory{};
        return false;
    }
    return true;
}

TuningHistory
run_uniform_sampling(const SearchSpace& space, const BlackBoxFn& objective,
                     const RandomSearchOptions& opt)
{
    RandomSearchTuner tuner(space, opt, /*biased_walk=*/false);
    return drive_serial(tuner, objective);
}

TuningHistory
run_cot_sampling(const SearchSpace& space, const BlackBoxFn& objective,
                 const RandomSearchOptions& opt)
{
    RandomSearchTuner tuner(space, opt, /*biased_walk=*/true);
    return drive_serial(tuner, objective);
}

}  // namespace baco
