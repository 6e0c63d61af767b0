#include "baselines/random_search.hpp"

namespace baco {

RandomSearchTuner::RandomSearchTuner(const SearchSpace& space,
                                     RandomSearchOptions opt,
                                     bool biased_walk)
    : AskTellBase(space, opt.budget, opt.seed,
                  biased_walk ? Draw::kBiasedWalk : Draw::kLeafUniform)
{
}

std::vector<Configuration>
RandomSearchTuner::propose(int n, const std::vector<Configuration>&)
{
    std::vector<Configuration> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k)
        out.push_back(draw());
    return out;
}

}  // namespace baco
