#include "core/local_search.hpp"

#include <algorithm>
#include <functional>
#include <limits>

namespace baco {

namespace {

/** Feasibility filter shared by pool and neighbour candidates. */
bool
is_feasible(const SearchSpace& space, const ChainOfTrees* cot,
            const Configuration& c)
{
    if (cot)
        return cot->contains(c);
    return space.satisfies(c);
}

}  // namespace

std::optional<Configuration>
local_search_maximize(const SearchSpace& space, const ChainOfTrees* cot,
                      const ScoreFn& score, RngEngine& rng,
                      const LocalSearchOptions& opt)
{
    // ---- Candidate pool. ----
    struct Scored {
      Configuration config;
      double value;
    };
    std::vector<Scored> pool;
    pool.reserve(static_cast<std::size_t>(opt.random_samples));
    // The `starts` largest scores so far, smallest in front: the multiset
    // partial_sort's heap holds when it reaches the next member, so its
    // front is the floor.
    std::size_t n_top = static_cast<std::size_t>(std::max(opt.starts, 0));
    std::vector<double> top;
    top.reserve(n_top);
    const std::greater<double> min_front;
    for (int i = 0; i < opt.random_samples; ++i) {
        Configuration c;
        if (cot) {
            c = cot->sample(rng, /*uniform_leaves=*/true);
        } else {
            auto s = space.sample_feasible(rng, 200);
            if (!s)
                continue;
            c = std::move(*s);
        }
        bool full = n_top > 0 && top.size() == n_top;
        double v = score(c, full ? top.front()
                                 : -std::numeric_limits<double>::infinity());
        if (top.size() < n_top) {
            top.push_back(v);
            std::push_heap(top.begin(), top.end(), min_front);
        } else if (full && v > top.front()) {
            std::pop_heap(top.begin(), top.end(), min_front);
            top.back() = v;
            std::push_heap(top.begin(), top.end(), min_front);
        }
        pool.push_back(Scored{std::move(c), v});
    }
    if (pool.empty())
        return std::nullopt;

    std::size_t n_starts = std::min<std::size_t>(
        static_cast<std::size_t>(opt.starts), pool.size());
    std::partial_sort(pool.begin(),
                      pool.begin() + static_cast<std::ptrdiff_t>(n_starts),
                      pool.end(), [](const Scored& a, const Scored& b) {
                          return a.value > b.value;
                      });

    Configuration best = pool[0].config;
    double best_score = pool[0].value;

    if (!opt.hill_climb)
        return best;

    // ---- Hill climbing from each start. ----
    for (std::size_t s = 0; s < n_starts; ++s) {
        Configuration cur = pool[s].config;
        double cur_score = pool[s].value;
        for (int step = 0; step < opt.max_steps; ++step) {
            // Single-parameter moves...
            std::vector<Configuration> moves = space.neighbors(cur, rng);
            // ...plus whole-tree resampling for co-dependent groups.
            if (cot) {
                for (std::size_t t = 0; t < cot->num_trees(); ++t) {
                    for (int m = 0; m < opt.tree_moves; ++m) {
                        Configuration c = cur;
                        cot->resample_tree(t, c, rng, /*uniform_leaves=*/true);
                        moves.push_back(std::move(c));
                    }
                }
            }
            double best_move_score = cur_score;
            std::optional<Configuration> best_move;
            for (Configuration& c : moves) {
                if (!is_feasible(space, cot, c))
                    continue;
                double v = score(c, best_move_score);
                if (v > best_move_score) {
                    best_move_score = v;
                    best_move = std::move(c);
                }
            }
            if (!best_move)
                break;  // local optimum
            cur = std::move(*best_move);
            cur_score = best_move_score;
        }
        if (cur_score > best_score) {
            best_score = cur_score;
            best = std::move(cur);
        }
    }
    return best;
}

}  // namespace baco
