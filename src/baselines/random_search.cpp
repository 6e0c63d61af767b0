#include "baselines/random_search.hpp"

#include "core/chain_of_trees.hpp"

namespace baco {

RandomSearchTuner::RandomSearchTuner(const SearchSpace& space,
                                     RandomSearchOptions opt,
                                     bool biased_walk)
    : AskTellBase(space, opt.budget, opt.seed), biased_walk_(biased_walk)
{
}

std::vector<Configuration>
RandomSearchTuner::propose(int n, const std::vector<Configuration>&)
{
    const ChainOfTrees* tree = cot();
    std::vector<Configuration> out;
    out.reserve(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
        if (tree) {
            // Leaf-uniform CoT sampling is exactly uniform over the
            // feasible region, so the uniform sampler uses it directly
            // instead of rejection.
            out.push_back(
                tree->sample(rng(), /*uniform_leaves=*/!biased_walk_));
        } else {
            auto s = space_.sample_feasible(rng(), 5000);
            out.push_back(s ? std::move(*s)
                            : space_.sample_unconstrained(rng()));
        }
    }
    return out;
}

}  // namespace baco
