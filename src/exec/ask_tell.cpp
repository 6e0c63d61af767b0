#include "exec/ask_tell.hpp"

#include <sstream>

namespace baco {

RngEngine
eval_rng_for(std::uint64_t run_seed, std::uint64_t index)
{
    // splitmix64 over (seed, index); index + 1 keeps index 0 distinct from
    // the raw seed.
    std::uint64_t z = run_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return RngEngine(z);
}

void
AskTellTuner::observe_one(const Configuration& c, const EvalResult& r)
{
    observe(std::vector<Configuration>{c}, std::vector<EvalResult>{r});
}

std::vector<Configuration>
AskTellTuner::suggest_with_pending(int n,
                                   const std::vector<Configuration>& pending)
{
    // Budget accounting only: in-flight evaluations will be observed, so
    // they already claim part of the remaining budget.
    int avail = remaining() - static_cast<int>(pending.size());
    if (avail <= 0)
        return {};
    return suggest(std::min(n, avail));
}

bool
AskTellTuner::restore(const TuningHistory&, const std::string&)
{
    return false;
}

TuningHistory
AskTellBase::take_history()
{
    TuningHistory h = std::move(history_);
    history_ = TuningHistory{};
    reset_sampler();
    return h;
}

std::string
AskTellBase::rng_state_string(const RngEngine* rng) const
{
    std::ostringstream oss;
    if (rng) {
        oss << rng->engine();
    } else {
        oss << RngEngine(seed_).engine();
    }
    return oss.str();
}

bool
AskTellBase::restore_rng(RngEngine& rng, const std::string& state)
{
    if (state.empty())
        return true;
    std::istringstream iss(state);
    iss >> rng.engine();
    return !iss.fail();
}

}  // namespace baco
