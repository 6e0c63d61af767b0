#include "baselines/opentuner_like.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_set>

#include "core/chain_of_trees.hpp"
#include "core/tuner_metrics.hpp"
#include "exec/drive.hpp"
#include "obs/trace.hpp"
#include "exec/jsonl.hpp"

namespace baco {

namespace {

using Clock = std::chrono::steady_clock;

/** The ensemble's sub-techniques. */
enum class Technique : int {
  kMutateUniform = 0,   ///< re-randomize 1-2 parameters of an elite parent
  kMutateLocal,         ///< step elite parent to a neighbouring value
  kDifferentialEvo,     ///< recombine elite with two random members
  kHillClimb,           ///< neighbour of the incumbent best
  kRandom,              ///< global uniform sample
  kCount,
};

/** Sentinel for seed-phase proposals (no bandit credit). */
constexpr int kSeedPhase = -1;

/** Per-evaluation record ranked by (feasible, value). */
struct Member {
  Configuration config;
  double value = std::numeric_limits<double>::infinity();  // inf = infeasible
};

}  // namespace

struct OpenTunerLike::State {
  RngEngine rng;
  std::unique_ptr<ChainOfTrees> cot;
  std::vector<Member> population;
  std::unordered_set<std::size_t> seen;
  std::vector<int> uses;
  /** Sliding window of (technique, improved?) outcomes. */
  std::deque<std::pair<int, bool>> window;
  /** Technique of each suggested-but-unobserved configuration, in order. */
  std::deque<int> pending;

  State(const SearchSpace& space, std::uint64_t seed)
      : rng(seed), uses(static_cast<std::size_t>(Technique::kCount), 0)
  {
      if (space.has_constraints() && space.is_fully_discrete()) {
          try {
              cot = std::make_unique<ChainOfTrees>(ChainOfTrees::build(space));
          } catch (const std::runtime_error&) {
              cot.reset();
          }
      }
  }
};

OpenTunerLike::OpenTunerLike(const SearchSpace& space, Options opt)
    : AskTellBase(opt.budget, opt.seed), space_(&space), opt_(opt)
{
}

OpenTunerLike::~OpenTunerLike() = default;

OpenTunerLike::State&
OpenTunerLike::state()
{
    if (!state_)
        state_ = std::make_unique<State>(*space_, opt_.seed);
    return *state_;
}

std::vector<Configuration>
OpenTunerLike::suggest(int n)
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

    auto feasible_known = [&](const Configuration& c) {
        return st.cot ? st.cot->contains(c) : space.satisfies(c);
    };

    auto random_config = [&]() -> Configuration {
        if (st.cot)
            return st.cot->sample(st.rng, /*uniform_leaves=*/false);
        auto s = space.sample_feasible(st.rng, 2000);
        return s ? std::move(*s) : space.sample_unconstrained(st.rng);
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
        if (!st.cot)
            return false;
        for (std::size_t p : touched) {
            std::size_t t = st.cot->tree_of(p);
            if (t != ChainOfTrees::kNoTree)
                st.cot->resample_tree(t, c, st.rng, /*uniform_leaves=*/false);
        }
        return feasible_known(c);
    };

    // Elite access: indices of the best configurations.
    auto elites = [&]() {
        std::vector<std::size_t> idx(st.population.size());
        for (std::size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        std::size_t k = std::min<std::size_t>(
            static_cast<std::size_t>(opt_.elite_size), idx.size());
        std::partial_sort(
            idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
            idx.end(), [&](std::size_t a, std::size_t b) {
                return st.population[a].value < st.population[b].value;
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
    auto propose = [&](Technique t) -> Configuration {
        std::vector<std::size_t> elite = elites();
        const std::size_t n_params = space.num_params();
        switch (t) {
          case Technique::kRandom:
            return random_config();

          case Technique::kMutateUniform: {
            Configuration c =
                st.population[elite[st.rng.index(elite.size())]].config;
            int n_mut = 1 + static_cast<int>(st.rng.bernoulli(0.3));
            std::vector<std::size_t> touched;
            for (int m = 0; m < n_mut; ++m) {
                std::size_t p = st.rng.index(n_params);
                touched.push_back(p);
                if (st.cot && st.cot->tree_of(p) != ChainOfTrees::kNoTree) {
                    st.cot->resample_tree(st.cot->tree_of(p), c, st.rng,
                                          false);
                } else {
                    c[p] = space.param(p).sample(st.rng);
                }
            }
            if (!repair(c, touched))
                return random_config();
            return c;
          }

          case Technique::kMutateLocal: {
            Configuration c =
                st.population[elite[st.rng.index(elite.size())]].config;
            std::size_t p = st.rng.index(n_params);
            std::vector<ParamValue> nb =
                space.param(p).neighbors(c[p], st.rng);
            if (!nb.empty())
                c[p] = nb[st.rng.index(nb.size())];
            if (!repair(c, {p}))
                return random_config();
            return c;
          }

          case Technique::kHillClimb: {
            const Configuration& best = st.population[elite[0]].config;
            Configuration c = best;
            std::size_t p = st.rng.index(n_params);
            std::vector<ParamValue> nb =
                space.param(p).neighbors(c[p], st.rng);
            if (!nb.empty())
                c[p] = nb[st.rng.index(nb.size())];
            if (!repair(c, {p}))
                return random_config();
            return c;
          }

          case Technique::kDifferentialEvo: {
            const Configuration& base =
                st.population[elite[st.rng.index(elite.size())]].config;
            const Configuration& a =
                st.population[st.rng.index(st.population.size())].config;
            const Configuration& b =
                st.population[st.rng.index(st.population.size())].config;
            Configuration c = base;
            std::vector<std::size_t> touched;
            for (std::size_t p = 0; p < n_params; ++p) {
                if (!st.rng.bernoulli(0.4))
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
                    c[p] = st.rng.bernoulli(0.5) ? a[p] : b[p];
                } else {
                    double va = as_real(a[p]), vb = as_real(b[p]);
                    double vc = as_real(base[p]) + 0.6 * (va - vb);
                    const auto& rp = static_cast<const RealParameter&>(par);
                    c[p] = std::clamp(vc, rp.lo(), rp.hi());
                }
            }
            if (!repair(c, touched))
                return random_config();
            return c;
          }

          case Technique::kCount:
            break;
        }
        return random_config();
    };

    const int seed_target = std::min(opt_.initial_random, opt_.budget);
    for (int k = 0; k < n; ++k) {
        std::size_t virtual_evals = history_.size() + out.size();
        if (virtual_evals < static_cast<std::size_t>(seed_target)) {
            Configuration c = random_config();
            st.seen.insert(config_hash(c));
            st.pending.push_back(kSeedPhase);
            out.push_back(std::move(c));
            continue;
        }
        Technique t = select_technique();
        Configuration c;
        bool found = false;
        for (int tries = 0; tries < 8; ++tries) {
            c = propose(t);
            if (!st.seen.count(config_hash(c))) {
                found = true;
                break;
            }
        }
        if (!found) {
            for (int tries = 0; tries < 200 && !found; ++tries) {
                c = random_config();
                found = !st.seen.count(config_hash(c));
            }
        }
        st.seen.insert(config_hash(c));
        st.pending.push_back(static_cast<int>(t));
        out.push_back(std::move(c));
    }
    history_.tuner_seconds +=
        std::chrono::duration<double>(Clock::now() - start).count();
    return out;
}

void
OpenTunerLike::observe(const std::vector<Configuration>& configs,
                       const std::vector<EvalResult>& results)
{
    auto start = Clock::now();
    TunerMetrics& tm = TunerMetrics::get();
    obs::ScopedTimer timer(tm.observe, "tuner.observe", "tuner");
    tm.observations.add(static_cast<std::uint64_t>(
        std::min(configs.size(), results.size())));
    State& st = state();
    for (std::size_t i = 0; i < configs.size() && i < results.size(); ++i) {
        int technique = kSeedPhase;
        if (!st.pending.empty()) {
            technique = st.pending.front();
            st.pending.pop_front();
        }
        st.seen.insert(config_hash(configs[i]));

        double before = history_.best_value;
        Member m;
        m.config = configs[i];
        if (results[i].feasible)
            m.value = results[i].value;
        st.population.push_back(std::move(m));
        history_.add(configs[i], results[i]);

        if (technique != kSeedPhase) {
            bool improved = history_.best_value < before;
            st.uses[static_cast<std::size_t>(technique)] += 1;
            st.window.emplace_back(technique, improved);
            if (static_cast<int>(st.window.size()) > opt_.bandit_window)
                st.window.pop_front();
        }
    }
    history_.tuner_seconds +=
        std::chrono::duration<double>(Clock::now() - start).count();
}

void
OpenTunerLike::reset_sampler()
{
    state_.reset();
}

std::string
OpenTunerLike::sampler_state() const
{
    // RNG stream position, then the AUC bandit credit state: per-technique
    // use counts and the sliding (technique, improved?) window. Segments
    // are ';'-separated so the whole string stays a single JSON-safe token
    // (no quotes); a state without the bandit segments restores with a
    // cold window (pre-serialization checkpoints).
    std::string out = rng_state_string(state_ ? &state_->rng : nullptr);
    if (!state_)
        return out;
    const State& st = *state_;
    out += ";uses=";
    for (std::size_t t = 0; t < st.uses.size(); ++t) {
        if (t > 0)
            out += ',';
        out += std::to_string(st.uses[t]);
    }
    out += ";win=";
    for (std::size_t i = 0; i < st.window.size(); ++i) {
        if (i > 0)
            out += '|';
        out += std::to_string(st.window[i].first);
        out += ':';
        out += st.window[i].second ? '1' : '0';
    }
    return out;
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
OpenTunerLike::restore(const TuningHistory& history,
                       const std::string& sampler_state)
{
    state_.reset();
    history_ = history;
    State& st = state();
    for (const Observation& o : history_.observations) {
        st.seen.insert(config_hash(o.config));
        Member m;
        m.config = o.config;
        if (o.feasible)
            m.value = o.value;
        st.population.push_back(std::move(m));
    }
    bool ok = true;
    std::size_t semi = sampler_state.find(';');
    ok = restore_rng(st.rng, sampler_state.substr(0, semi));
    // Bandit credit segments (absent in old checkpoints: cold restart).
    while (ok && semi != std::string::npos) {
        std::size_t next = sampler_state.find(';', semi + 1);
        std::string seg = sampler_state.substr(
            semi + 1,
            next == std::string::npos ? std::string::npos : next - semi - 1);
        if (seg.compare(0, 5, "uses=") == 0)
            ok = parse_uses(seg.substr(5), st.uses);
        else if (seg.compare(0, 4, "win=") == 0)
            ok = parse_window(seg.substr(4), st.window);
        else
            ok = false;
        semi = next;
    }
    if (!ok) {
        state_.reset();
        history_ = TuningHistory{};
        return false;
    }
    return true;
}

TuningHistory
OpenTunerLike::run(const BlackBoxFn& objective)
{
    state_.reset();
    history_ = TuningHistory{};
    return drive_serial(*this, objective);
}

}  // namespace baco
