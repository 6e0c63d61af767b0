#include "exec/ask_tell.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/chain_of_trees.hpp"
#include "core/search_space.hpp"
#include "core/tuner_metrics.hpp"
#include "obs/trace.hpp"

namespace baco {

namespace {

using Clock = std::chrono::steady_clock;

/** draw(): constraint checks before rejection sampling gives up. */
constexpr int kRejectionTries = 2000;
/** draw_unseen(): draws before it settles for a seen configuration. */
constexpr int kUnseenDraws = 100;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The space's Chain-of-Trees, or nullptr when it has none. */
std::unique_ptr<ChainOfTrees>
try_build_cot(const SearchSpace& space)
{
    if (!space.has_constraints() || !space.is_fully_discrete())
        return nullptr;
    try {
        return std::make_unique<ChainOfTrees>(ChainOfTrees::build(space));
    } catch (const std::runtime_error&) {
        return nullptr;  // no tree form: callers sample by rejection
    }
}

}  // namespace

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

bool
AskTellTuner::restore(const TuningHistory&, const std::string&)
{
    return false;
}

AskTellBase::AskTellBase(const SearchSpace& space, int budget,
                         std::uint64_t seed, Draw draw)
    : space_(space),
      budget_(budget),
      seed_(seed),
      draw_(draw),
      initial_(0),
      model_based_(false)
{
}

AskTellBase::AskTellBase(const SearchSpace& space, int budget,
                         std::uint64_t seed, Draw draw, int initial)
    : space_(space),
      budget_(budget),
      seed_(seed),
      draw_(draw),
      initial_(std::max(0, std::min(initial, budget))),
      model_based_(true)
{
}

AskTellBase::~AskTellBase() = default;

AskTellBase::Sampler::Sampler(std::uint64_t seed) : rng(seed) {}

void
AskTellBase::start()
{
    if (!sampler_) {
        sampler_ = std::make_unique<Sampler>(seed_);
        sampler_->method = new_state();
    }
}

std::vector<Configuration>
AskTellBase::suggest(int n)
{
    return suggest_with_pending(n, {});
}

std::vector<Configuration>
AskTellBase::suggest_with_pending(int n,
                                  const std::vector<Configuration>& pending)
{
    auto t0 = Clock::now();
    start();
    // In-flight evaluations will be observed, so they already claim part
    // of the remaining budget.
    n = std::min(n, remaining() - static_cast<int>(pending.size()));
    if (n <= 0)
        return {};
    TunerMetrics& tm = TunerMetrics::get();
    obs::ScopedTimer timer(tm.suggest, "tuner.suggest", "tuner");
    // Marking pending is a no-op mid-run (suggesting them marked them)
    // but repairs the dedup set after a resume, where the in-flight work
    // never reached the history.
    for (const Configuration& c : pending)
        mark_seen(c);
    std::vector<Configuration> out;
    out.reserve(static_cast<std::size_t>(n));
    auto take = [&](Configuration c) {
        mark_seen(c);
        out.push_back(std::move(c));
    };
    // The initial phase: in-flight work counts toward it.
    for (std::size_t k = history_.size() + pending.size();
         k < static_cast<std::size_t>(initial_) &&
         static_cast<int>(out.size()) < n;
         ++k) {
        obs::ScopedTimer doe(tm.doe, "tuner.doe", "tuner");
        take(draw_unseen());
    }
    // A model has nothing to learn from before two results land.
    while (model_based_ && history_.size() < 2 &&
           static_cast<int>(out.size()) < n)
        take(draw_unseen());
    if (static_cast<int>(out.size()) < n) {
        // The method sees the initial draws as in flight after pending.
        std::vector<Configuration> in_flight = pending;
        in_flight.insert(in_flight.end(), out.begin(), out.end());
        for (Configuration& c :
             propose(n - static_cast<int>(out.size()), in_flight))
            take(std::move(c));
    }
    tm.suggestions.add(static_cast<std::uint64_t>(out.size()));
    history_.tuner_seconds += seconds_since(t0);
    return out;
}

void
AskTellBase::observe(const std::vector<Configuration>& configs,
                     const std::vector<EvalResult>& results)
{
    auto t0 = Clock::now();
    TunerMetrics& tm = TunerMetrics::get();
    obs::ScopedTimer timer(tm.observe, "tuner.observe", "tuner");
    start();
    for (std::size_t i = 0; i < configs.size() && i < results.size(); ++i) {
        const double best_before = history_.best_value;
        mark_seen(configs[i]);
        history_.add(configs[i], results[i]);
        tm.observations.add();
        after_observe(configs[i], history_.best_value < best_before);
    }
    history_.tuner_seconds += seconds_since(t0);
}

void
AskTellBase::after_observe(const Configuration&, bool)
{
}

TuningHistory
AskTellBase::take_history()
{
    // Release all the run built (a finished study may stay alive long
    // after its run); the next suggest starts from the seed.
    sampler_.reset();
    return std::exchange(history_, TuningHistory{});
}

std::string
AskTellBase::sampler_state() const
{
    std::ostringstream oss;
    if (sampler_)
        oss << sampler_->rng.engine();
    else
        oss << RngEngine(seed_).engine();
    std::string out = oss.str();
    write_segments(out);
    return out;
}

void
AskTellBase::write_segments(std::string&) const
{
}

bool
AskTellBase::read_segment(const std::string&, const std::string&)
{
    return false;
}

bool
AskTellBase::restore(const TuningHistory& history,
                     const std::string& sampler_state)
{
    // Install the checkpointed run on a fresh sampler, keeping the
    // current run to put back when the state does not parse.
    TuningHistory old_history = std::exchange(history_, history);
    std::unique_ptr<Sampler> old_sampler = std::move(sampler_);
    start();
    for (const Observation& o : history_.observations)
        mark_seen(o.config);
    if (read_sampler_state(sampler_state))
        return true;
    history_ = std::move(old_history);
    sampler_ = std::move(old_sampler);
    return false;
}

bool
AskTellBase::read_sampler_state(const std::string& state)
{
    // "<RNG words>[;key=value]...": an empty RNG part leaves the RNG at
    // its seeded start; every segment must be one the method reads.
    std::size_t end = state.find(';');
    if (end != 0 && !state.empty()) {
        std::istringstream words(state.substr(0, end));
        char extra = 0;
        if (!(words >> sampler_->rng.engine()) || words >> extra)
            return false;
    }
    while (end != std::string::npos) {
        std::size_t at = end + 1;
        end = state.find(';', at);
        std::string seg = state.substr(
            at, end == std::string::npos ? std::string::npos : end - at);
        std::size_t eq = seg.find('=');
        if (eq == 0 || eq == std::string::npos ||
            !read_segment(seg.substr(0, eq), seg.substr(eq + 1)))
            return false;
    }
    return true;
}

const ChainOfTrees*
AskTellBase::cot()
{
    if (!sampler_->cot_built) {
        sampler_->cot_built = true;
        sampler_->cot = try_build_cot(space_);
    }
    return sampler_->cot.get();
}

Configuration
AskTellBase::draw()
{
    if (draw_ == Draw::kUnconstrained)
        return space_.sample_unconstrained(rng());
    if (const ChainOfTrees* tree = cot())
        return tree->sample(rng(), draw_ == Draw::kLeafUniform);
    std::optional<Configuration> c =
        space_.sample_feasible(rng(), kRejectionTries);
    return c ? std::move(*c) : space_.sample_unconstrained(rng());
}

Configuration
AskTellBase::draw_unseen()
{
    Configuration c = draw();
    for (int t = 1; t < kUnseenDraws && seen(c); ++t)
        c = draw();
    return c;
}

bool
AskTellBase::seen(const Configuration& c) const
{
    return sampler_->seen.count(config_hash(c)) > 0;
}

void
AskTellBase::mark_seen(const Configuration& c)
{
    sampler_->seen.insert(config_hash(c));
}

void
AskTellBase::append_hexfloats(std::string& out, const std::vector<double>& v)
{
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof buf, i == 0 ? "%a" : ",%a", v[i]);
        out += buf;
    }
}

bool
AskTellBase::parse_hexfloats(const std::string& s, std::vector<double>& v)
{
    v.clear();
    const char* p = s.c_str();
    for (;;) {
        char* end = nullptr;
        double x = std::strtod(p, &end);
        if (end == p || !std::isfinite(x))
            return false;
        v.push_back(x);
        if (*end == '\0')
            return true;
        if (*end != ',')
            return false;
        p = end + 1;
    }
}

}  // namespace baco
