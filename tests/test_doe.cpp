// The initial design of experiments every method starts from: the
// uniform (or biased-walk) draws AskTellBase owns, their uniqueness and
// feasibility, and how the phase behaves on an exhausted feasible set.

#include <gtest/gtest.h>

#include <set>

#include "api/baco.hpp"
#include "core/tuner_metrics.hpp"
#include "exec/ask_tell.hpp"

namespace baco {
namespace {

/**
 * A model-based method whose search is plain draws, recording what the
 * base hands it: suggest() shows AskTellBase's initial phase on its own.
 */
class InitialPhaseOnly : public AskTellBase {
 public:
  using AskTellBase::Draw;

  InitialPhaseOnly(const SearchSpace& s, Draw draw, int doe, int budget,
                   std::uint64_t seed)
      : AskTellBase(s, budget, seed, draw, doe)
  {
  }

  /** (n, pending count) of each propose() call. */
  std::vector<std::pair<int, std::size_t>> calls;

 private:
  std::vector<Configuration>
  propose(int n, const std::vector<Configuration>& pending) override
  {
      calls.emplace_back(n, pending.size());
      std::vector<Configuration> out;
      for (int k = 0; k < n; ++k)
          out.push_back(draw());
      return out;
  }
};

/** tuner.doe samples recorded by `suggest`. */
template <class Fn>
std::uint64_t
doe_samples_during(Fn&& suggest)
{
    const std::uint64_t before = TunerMetrics::get().doe.count();
    suggest();
    return TunerMetrics::get().doe.count() - before;
}

std::size_t
distinct(const std::vector<Configuration>& cs)
{
    std::set<std::size_t> hashes;
    for (const Configuration& c : cs)
        hashes.insert(config_hash(c));
    return hashes.size();
}

TEST(InitialPhase, DrawsUniqueFeasibleConfigurationsWithACot)
{
    SearchSpace s;
    s.add_ordinal("a", {1, 2, 4, 8, 16, 32}, true);
    s.add_ordinal("b", {1, 2, 4, 8, 16, 32}, true);
    s.add_constraint("a >= b");
    InitialPhaseOnly t(s, InitialPhaseOnly::Draw::kLeafUniform, 15, 20, 1);
    std::vector<Configuration> doe;
    EXPECT_EQ(doe_samples_during([&] { doe = t.suggest(15); }), 15u);
    ASSERT_EQ(doe.size(), 15u);
    for (const Configuration& c : doe)
        EXPECT_TRUE(s.satisfies(c));
    EXPECT_EQ(distinct(doe), 15u);
    EXPECT_TRUE(t.calls.empty());
}

TEST(InitialPhase, DrawsUniqueFeasibleConfigurationsWithoutACot)
{
    // The continuous parameter leaves the space without a Chain-of-Trees,
    // so the draws rejection-sample against the constraint.
    SearchSpace s;
    s.add_integer("x", 0, 100);
    s.add_real("r", 0.0, 1.0);
    s.add_constraint("x % 2 == 0");
    InitialPhaseOnly t(s, InitialPhaseOnly::Draw::kLeafUniform, 10, 20, 2);
    std::vector<Configuration> doe = t.suggest(10);
    ASSERT_EQ(doe.size(), 10u);
    for (const Configuration& c : doe)
        EXPECT_EQ(as_int(c[0]) % 2, 0);
    EXPECT_EQ(distinct(doe), 10u);
}

TEST(InitialPhase, BiasedWalkStaysFeasible)
{
    SearchSpace s;
    s.add_ordinal("a", {1, 2, 4});
    s.add_ordinal("b", {1, 2, 4});
    s.add_constraint("a >= b");
    InitialPhaseOnly t(s, InitialPhaseOnly::Draw::kBiasedWalk, 5, 10, 4);
    std::vector<Configuration> doe = t.suggest(5);
    ASSERT_EQ(doe.size(), 5u);
    for (const Configuration& c : doe)
        EXPECT_TRUE(s.satisfies(c));
    EXPECT_EQ(distinct(doe), 5u);
}

TEST(InitialPhase, DoeZeroDrawsNothing)
{
    // Once two results are in, every slot goes to the method's search.
    SearchSpace s;
    s.add_integer("x", 0, 3);
    InitialPhaseOnly t(s, InitialPhaseOnly::Draw::kLeafUniform, 0, 10, 5);
    t.observe({{std::int64_t{0}}, {std::int64_t{1}}},
              {EvalResult{1.0, true}, EvalResult{2.0, true}});
    std::vector<Configuration> batch;
    EXPECT_EQ(doe_samples_during([&] { batch = t.suggest(3); }), 0u);
    EXPECT_EQ(batch.size(), 3u);
    ASSERT_EQ(t.calls.size(), 1u);
    EXPECT_EQ(t.calls[0], (std::pair<int, std::size_t>{3, 0}));
}

TEST(InitialPhase, ExhaustedSpaceRepeatsFeasibleConfigurations)
{
    // Only 3 feasible configurations exist: a phase of 10 draws all 3,
    // then feasible duplicates, and still fills the batch.
    SearchSpace s;
    s.add_ordinal("a", {1, 2});
    s.add_ordinal("b", {1, 2});
    s.add_constraint("a >= b");
    InitialPhaseOnly t(s, InitialPhaseOnly::Draw::kLeafUniform, 10, 10, 3);
    std::vector<Configuration> doe = t.suggest(10);
    ASSERT_EQ(doe.size(), 10u);
    for (const Configuration& c : doe)
        EXPECT_TRUE(s.satisfies(c));
    EXPECT_EQ(distinct({doe.begin(), doe.begin() + 3}), 3u);
    EXPECT_EQ(distinct(doe), 3u);
}

TEST(OpenTunerLike, SeedPhaseHoldsNoDuplicate)
{
    // The biased walk revisits Asum_GPU's sparse subtrees: at seed 1 an
    // undeduplicated seed phase repeats a configuration at index 8.
    StudyResult r = StudyBuilder()
                        .benchmark("Asum_GPU")
                        .method("opentuner")
                        .budget(60)
                        .doe(10)
                        .seed(1)
                        .build()
                        .run();
    ASSERT_EQ(r.history.size(), 60u);
    std::vector<Configuration> seed_phase;
    for (std::size_t i = 0; i < 10; ++i)
        seed_phase.push_back(r.history.observations[i].config);
    EXPECT_EQ(distinct(seed_phase), 10u);
}

}  // namespace
}  // namespace baco
