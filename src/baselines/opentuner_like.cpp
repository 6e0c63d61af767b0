#include "baselines/opentuner_like.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "core/chain_of_trees.hpp"
#include "exec/jsonl.hpp"

namespace baco {

namespace {

/** The ensemble's sub-techniques. */
enum class Technique : int {
  kMutateUniform = 0,   ///< re-randomize 1-2 parameters of an elite parent
  kMutateLocal,         ///< step elite parent to a neighbouring value
  kDifferentialEvo,     ///< recombine elite with two random members
  kHillClimb,           ///< neighbour of the incumbent best
  kRandom,              ///< global uniform sample
  kCount,
};

/** An observation's rank in the population: failures rank last. */
double
rank_value(const Observation& o)
{
    return o.feasible ? o.value : std::numeric_limits<double>::infinity();
}

}  // namespace

struct OpenTunerLike::State : MethodState {
  std::vector<int> uses =
      std::vector<int>(static_cast<std::size_t>(Technique::kCount), 0);
  /** Sliding window of (technique, improved?) outcomes. */
  std::deque<std::pair<int, bool>> window;
  /** (config hash, technique) of each suggested-but-unobserved
   *  configuration, oldest first. */
  std::vector<std::pair<std::size_t, int>> outstanding;
};

OpenTunerLike::OpenTunerLike(const SearchSpace& space, Options opt)
    : AskTellBase(space, opt.budget, opt.seed, Draw::kBiasedWalk,
                  opt.doe_samples),
      opt_(opt)
{
}

std::unique_ptr<AskTellBase::MethodState>
OpenTunerLike::new_state() const
{
    return std::make_unique<State>();
}

std::vector<Configuration>
OpenTunerLike::propose(int n, const std::vector<Configuration>&)
{
    const SearchSpace& space = space_;
    State& st = *state<State>();
    const ChainOfTrees* tree = cot();
    // The population is the history, ranked by rank_value(); the base
    // asks for proposals only once it holds two observations.
    const std::vector<Observation>& population = history_.observations;
    std::vector<Configuration> out;
    out.reserve(static_cast<std::size_t>(n));

    auto feasible_known = [&](const Configuration& c) {
        return tree ? tree->contains(c) : space.satisfies(c);
    };

    /**
     * Repair a mutated configuration: when the known constraints broke,
     * resample the CoT trees containing the touched parameters (ATF keeps
     * proposals inside the constrained space).
     */
    auto repair = [&](Configuration& c,
                      const std::vector<std::size_t>& touched) -> bool {
        if (feasible_known(c))
            return true;
        if (!tree)
            return false;
        for (std::size_t p : touched) {
            std::size_t t = tree->tree_of(p);
            if (t != ChainOfTrees::kNoTree)
                tree->resample_tree(t, c, rng(), /*uniform_leaves=*/false);
        }
        return feasible_known(c);
    };

    // Elite access: indices of the best configurations.
    auto elites = [&]() {
        std::vector<std::size_t> idx(population.size());
        for (std::size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        std::size_t k = std::min<std::size_t>(
            static_cast<std::size_t>(opt_.elite_size), idx.size());
        std::partial_sort(
            idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
            idx.end(), [&](std::size_t a, std::size_t b) {
                return rank_value(population[a]) < rank_value(population[b]);
            });
        idx.resize(k);
        return idx;
    };

    auto select_technique = [&]() -> Technique {
        const int n_tech = static_cast<int>(Technique::kCount);
        int total_uses = 0;
        for (int u : st.uses)
            total_uses += u;
        double best_score = -1.0;
        int best_t = 0;
        for (int t = 0; t < n_tech; ++t) {
            double score;
            if (st.uses[static_cast<std::size_t>(t)] == 0) {
                score = std::numeric_limits<double>::infinity();
            } else {
                // AUC credit: recency-weighted improvements in the window.
                double auc = 0.0, norm = 0.0;
                double w = 1.0;
                for (auto it = st.window.rbegin(); it != st.window.rend();
                     ++it) {
                    if (it->first == t) {
                        auc += w * (it->second ? 1.0 : 0.0);
                        norm += w;
                    }
                    w *= 0.98;
                }
                double exploit = norm > 0.0 ? auc / norm : 0.0;
                score = exploit +
                        opt_.bandit_c *
                            std::sqrt(2.0 * std::log(std::max(1, total_uses)) /
                                      st.uses[static_cast<std::size_t>(t)]);
            }
            if (score > best_score) {
                best_score = score;
                best_t = t;
            }
        }
        return static_cast<Technique>(best_t);
    };

    // ---- Proposal generators. ----
    auto generate = [&](Technique t) -> Configuration {
        std::vector<std::size_t> elite = elites();
        const std::size_t n_params = space.num_params();
        switch (t) {
          case Technique::kRandom:
            return draw();

          case Technique::kMutateUniform: {
            Configuration c =
                population[elite[rng().index(elite.size())]].config;
            int n_mut = 1 + static_cast<int>(rng().bernoulli(0.3));
            std::vector<std::size_t> touched;
            for (int m = 0; m < n_mut; ++m) {
                std::size_t p = rng().index(n_params);
                touched.push_back(p);
                if (tree && tree->tree_of(p) != ChainOfTrees::kNoTree) {
                    tree->resample_tree(tree->tree_of(p), c, rng(),
                                          false);
                } else {
                    c[p] = space.param(p).sample(rng());
                }
            }
            if (!repair(c, touched))
                return draw();
            return c;
          }

          case Technique::kMutateLocal: {
            Configuration c =
                population[elite[rng().index(elite.size())]].config;
            std::size_t p = rng().index(n_params);
            std::vector<ParamValue> nb =
                space.param(p).neighbors(c[p], rng());
            if (!nb.empty())
                c[p] = nb[rng().index(nb.size())];
            if (!repair(c, {p}))
                return draw();
            return c;
          }

          case Technique::kHillClimb: {
            const Configuration& best = population[elite[0]].config;
            Configuration c = best;
            std::size_t p = rng().index(n_params);
            std::vector<ParamValue> nb =
                space.param(p).neighbors(c[p], rng());
            if (!nb.empty())
                c[p] = nb[rng().index(nb.size())];
            if (!repair(c, {p}))
                return draw();
            return c;
          }

          case Technique::kDifferentialEvo: {
            const Configuration& base =
                population[elite[rng().index(elite.size())]].config;
            const Configuration& a =
                population[rng().index(population.size())].config;
            const Configuration& b =
                population[rng().index(population.size())].config;
            Configuration c = base;
            std::vector<std::size_t> touched;
            for (std::size_t p = 0; p < n_params; ++p) {
                if (!rng().bernoulli(0.4))
                    continue;
                touched.push_back(p);
                const Parameter& par = space.param(p);
                if (par.is_discrete() &&
                    par.kind() != ParamKind::kPermutation) {
                    // Index-space DE step: i_base + F * (i_a - i_b).
                    auto ia = static_cast<double>(par.index_of(a[p]));
                    auto ib = static_cast<double>(par.index_of(b[p]));
                    auto ic = static_cast<double>(par.index_of(base[p]));
                    double step = ic + 0.6 * (ia - ib);
                    auto idx = static_cast<std::int64_t>(std::llround(step));
                    idx = std::clamp<std::int64_t>(
                        idx, 0,
                        static_cast<std::int64_t>(par.num_values()) - 1);
                    c[p] = par.value_at(static_cast<std::size_t>(idx));
                } else if (par.kind() == ParamKind::kPermutation) {
                    c[p] = rng().bernoulli(0.5) ? a[p] : b[p];
                } else {
                    double va = as_real(a[p]), vb = as_real(b[p]);
                    double vc = as_real(base[p]) + 0.6 * (va - vb);
                    const auto& rp = static_cast<const RealParameter&>(par);
                    c[p] = std::clamp(vc, rp.lo(), rp.hi());
                }
            }
            if (!repair(c, touched))
                return draw();
            return c;
          }

          case Technique::kCount:
            break;
        }
        return draw();
    };

    // A technique gets 8 tries at an unseen configuration before a
    // random draw stands in. Each proposal is remembered with its
    // technique, which its result credits whenever it lands.
    for (int k = 0; k < n; ++k) {
        Technique t = select_technique();
        Configuration c = generate(t);
        for (int tries = 1; tries < 8 && seen(c); ++tries)
            c = generate(t);
        if (seen(c))
            c = draw_unseen();
        mark_seen(c);
        st.outstanding.emplace_back(config_hash(c), static_cast<int>(t));
        out.push_back(std::move(c));
    }
    return out;
}

void
OpenTunerLike::after_observe(const Configuration& config, bool improved)
{
    State& st = *state<State>();
    const std::size_t h = config_hash(config);
    auto it = std::find_if(st.outstanding.begin(), st.outstanding.end(),
                           [h](const auto& p) { return p.first == h; });
    // Not a technique's: an initial-phase draw, or the in-flight work of
    // a resumed run.
    if (it == st.outstanding.end())
        return;
    const int technique = it->second;
    st.outstanding.erase(it);
    st.uses[static_cast<std::size_t>(technique)] += 1;
    st.window.emplace_back(technique, improved);
    if (static_cast<int>(st.window.size()) > opt_.bandit_window)
        st.window.pop_front();
}

void
OpenTunerLike::write_segments(std::string& out) const
{
    // The AUC bandit credit; a state without it restores a cold window.
    const State* st = state<State>();
    if (!st)
        return;
    out += ";uses=";
    for (std::size_t t = 0; t < st->uses.size(); ++t) {
        if (t > 0)
            out += ',';
        out += std::to_string(st->uses[t]);
    }
    out += ";win=";
    for (std::size_t i = 0; i < st->window.size(); ++i) {
        if (i > 0)
            out += '|';
        out += std::to_string(st->window[i].first);
        out += ':';
        out += st->window[i].second ? '1' : '0';
    }
}

namespace {

/**
 * Parse "a,b,c,..." into counts. The list must have exactly uses.size()
 * entries — a mismatch (truncated state, or a checkpoint from a build
 * with a different technique set) fails the restore rather than
 * silently applying partial credit.
 */
bool
parse_uses(const std::string& s, std::vector<int>& uses)
{
    std::size_t at = 0;
    std::size_t slot = 0;
    while (at < s.size()) {
        std::int64_t v;
        if (!jsonl::parse_int_at(s, at, v))
            return false;
        // Use counts are nonnegative and small; anything else is a
        // corrupt checkpoint (a negative count would feed NaN into the
        // bandit's UCB term and silently disable a technique).
        if (slot >= uses.size() || v < 0 ||
            v > std::numeric_limits<int>::max()) {
            return false;
        }
        uses[slot] = static_cast<int>(v);
        ++slot;
        if (at < s.size()) {
            if (s[at] != ',')
                return false;
            ++at;
        }
    }
    return slot == uses.size();
}

/** Parse "t:i|t:i|..." into window entries; false on malformed input. */
bool
parse_window(const std::string& s, std::deque<std::pair<int, bool>>& window)
{
    std::size_t at = 0;
    while (at < s.size()) {
        std::int64_t t;
        if (!jsonl::parse_int_at(s, at, t))
            return false;
        if (t < 0 || t >= static_cast<std::int64_t>(Technique::kCount))
            return false;
        if (at + 1 >= s.size() || s[at] != ':' ||
            (s[at + 1] != '0' && s[at + 1] != '1')) {
            return false;
        }
        window.emplace_back(static_cast<int>(t), s[at + 1] == '1');
        at += 2;
        if (at < s.size()) {
            if (s[at] != '|')
                return false;
            ++at;
        }
    }
    return true;
}

}  // namespace

bool
OpenTunerLike::read_segment(const std::string& key, const std::string& value)
{
    State& st = *state<State>();
    if (key == "uses")
        return parse_uses(value, st.uses);
    if (key == "win")
        return parse_window(value, st.window);
    return false;
}

}  // namespace baco
