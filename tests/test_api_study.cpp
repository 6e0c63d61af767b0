// The baco::Study front-door API: seed-for-seed parity between
// Study::run() under every policy and the reference loops (the serial
// loop for Serial and single-slot Async, the barrier loop for Batched
// and Distributed), the MethodRegistry round-trip, the inline parameter
// DSL, the ask/tell embedding surface, and the uniform
// cache/checkpoint/on_event options.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "api/baco.hpp"
#include "baselines/random_search.hpp"
#include "drive_reference.hpp"
#include "obs/trace.hpp"
#include "suite/runner.hpp"

namespace baco {
namespace {

const char* kBench = "SDDMM/email-Enron";
constexpr int kBudget = 12;
constexpr std::uint64_t kSeed = 23;

/** A Study over the shared parity benchmark at the shared seed. */
StudyBuilder
parity_study(ExecutionPolicy policy, const std::string& method = "baco")
{
    StudyBuilder sb;
    sb.benchmark(kBench)
        .method(method)
        .budget(kBudget)
        .seed(kSeed)
        .execution(policy);
    return sb;
}

/** The legacy tuner the Study must reproduce, built outside the api. */
std::unique_ptr<AskTellTuner>
legacy_tuner(const SearchSpace& space, int doe)
{
    TunerOptions opt = TunerOptions::baco_defaults();
    opt.budget = kBudget;
    opt.doe_samples = doe;
    opt.seed = kSeed;
    return std::make_unique<Tuner>(space, opt);
}

// ---------------------------------------------------------------------------
// Seed-for-seed parity against the reference loops, under all four
// policies.
// ---------------------------------------------------------------------------

TEST(StudyParity, SerialMatchesTunerRunBitForBit)
{
    const Benchmark& b = suite::find_benchmark(kBench);
    std::shared_ptr<SearchSpace> space = b.make_space(SpaceVariant{});
    TuningHistory reference = reference_serial_loop(
        *legacy_tuner(*space, b.doe_samples), b.evaluate);

    StudyResult r = parity_study(ExecutionPolicy::Serial()).build().run();
    EXPECT_TRUE(histories_equal(reference, r.history));
    EXPECT_EQ(r.mode, ExecutionPolicy::Mode::kSerial);
    EXPECT_EQ(r.method, "baco");
    EXPECT_EQ(r.benchmark, kBench);
    EXPECT_EQ(r.seed, kSeed);
}

TEST(StudyParity, BatchedMatchesBarrierLoopBitForBit)
{
    const Benchmark& b = suite::find_benchmark(kBench);
    std::shared_ptr<SearchSpace> space = b.make_space(SpaceVariant{});
    auto tuner = legacy_tuner(*space, b.doe_samples);
    TuningHistory reference = reference_batched_loop(*tuner, b.evaluate, 4);

    StudyResult r =
        parity_study(ExecutionPolicy::Batched(4)).build().run();
    EXPECT_TRUE(histories_equal(reference, r.history));
}

TEST(StudyParity, AsyncSingleSlotMatchesSerialBitForBit)
{
    const Benchmark& b = suite::find_benchmark(kBench);
    std::shared_ptr<SearchSpace> space = b.make_space(SpaceVariant{});
    TuningHistory serial = reference_serial_loop(
        *legacy_tuner(*space, b.doe_samples), b.evaluate);

    StudyResult r =
        parity_study(ExecutionPolicy::Async(/*slots=*/1, /*threads=*/2))
            .build()
            .run();
    EXPECT_TRUE(histories_equal(serial, r.history));
}

TEST(StudyParity, OneSlotMatchesSerialLoopUnderEveryPolicy)
{
    // serial == batched(1) == async(1) == distributed(1), each against
    // the independent reference loop.
    const Benchmark& b = suite::find_benchmark(kBench);
    std::shared_ptr<SearchSpace> space = b.make_space(SpaceVariant{});
    TuningHistory serial = reference_serial_loop(
        *legacy_tuner(*space, b.doe_samples), b.evaluate);
    for (ExecutionPolicy policy :
         {ExecutionPolicy::Batched(1, /*threads=*/2),
          ExecutionPolicy::Async(1, /*threads=*/2),
          ExecutionPolicy::Distributed(2, 1),
          ExecutionPolicy::Distributed(2, 1, /*async=*/true)}) {
        SCOPED_TRACE(execution_mode_name(policy.mode));
        StudyResult r = parity_study(policy).build().run();
        EXPECT_TRUE(histories_equal(serial, r.history));
    }
}

TEST(StudyParity, AsyncMultiSlotExhaustsBudget)
{
    StudyResult r =
        parity_study(ExecutionPolicy::Async(/*slots=*/3)).build().run();
    EXPECT_EQ(r.history.size(), static_cast<std::size_t>(kBudget));
    EXPECT_TRUE(r.history.best_config.has_value());
}

TEST(StudyParity, DistributedMatchesCoordinatorSelftestParity)
{
    // The serve layer's parity contract: a 2-worker sharded fleet
    // reproduces the same-seed barrier loop bit-for-bit.
    const Benchmark& b = suite::find_benchmark(kBench);
    std::shared_ptr<SearchSpace> space = b.make_space(SpaceVariant{});
    auto tuner = legacy_tuner(*space, b.doe_samples);
    TuningHistory reference = reference_batched_loop(*tuner, b.evaluate, 4);

    StudyResult r =
        parity_study(ExecutionPolicy::Distributed(/*workers=*/2,
                                                  /*batch_size=*/4))
            .build()
            .run();
    EXPECT_TRUE(histories_equal(reference, r.history));
    EXPECT_EQ(r.mode, ExecutionPolicy::Mode::kDistributed);
}

// ---------------------------------------------------------------------------
// MethodRegistry.
// ---------------------------------------------------------------------------

TEST(MethodRegistry, RoundTripEveryRegisteredMethod)
{
    SearchSpace space;
    space.add_ordinal("x", {1, 2, 4, 8}, true);
    space.add_categorical("m", {"a", "b"});

    MethodRegistry& registry = MethodRegistry::global();
    MethodSpec spec;
    spec.budget = 6;
    spec.doe_samples = 3;
    spec.seed = 5;
    for (const std::string& name : registry.names()) {
        SCOPED_TRACE(name);
        ASSERT_TRUE(registry.contains(name));
        EXPECT_EQ(*registry.resolve(name), name);
        std::unique_ptr<AskTellTuner> tuner =
            registry.make(name, space, spec);
        ASSERT_NE(tuner, nullptr);
        // The tuner honors the spec: budget-bounded suggestions under
        // the requested seed.
        EXPECT_EQ(tuner->remaining(), 6);
        EXPECT_EQ(tuner->run_seed(), 5u);
        EXPECT_FALSE(tuner->suggest(1).empty());
    }
}

TEST(MethodRegistry, SuiteDisplayNamesResolveAsAliases)
{
    MethodRegistry& registry = MethodRegistry::global();
    EXPECT_EQ(*registry.resolve("BaCO"), "baco");
    EXPECT_EQ(*registry.resolve("BaCO--"), "baco--");
    EXPECT_EQ(*registry.resolve("ATF"), "opentuner");
    EXPECT_EQ(*registry.resolve("Uniform"), "random");
    EXPECT_EQ(*registry.resolve("Ytopt"), "ytopt");
    EXPECT_EQ(*registry.resolve("Ytopt(GP)"), "ytopt-gp");
    EXPECT_EQ(*registry.resolve("CoT"), "cot");
    // Every headline method the suite names resolves in the registry.
    for (const std::string& m : suite::headline_methods())
        EXPECT_TRUE(registry.contains(m)) << m;
}

TEST(MethodRegistry, UnknownNameThrowsWithSuggestions)
{
    SearchSpace space;
    space.add_ordinal("x", {1, 2}, false);
    try {
        MethodRegistry::global().make("bacoo", space, MethodSpec{});
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown method 'bacoo'"), std::string::npos);
        EXPECT_NE(msg.find("did you mean"), std::string::npos);
        EXPECT_NE(msg.find("'baco'"), std::string::npos);
    }
}

TEST(MethodRegistry, UserRegisteredMethodReachesStudy)
{
    MethodRegistry& registry = MethodRegistry::global();
    registry.add("test-random-2x",
                 [](const SearchSpace& space, const MethodSpec& spec) {
                     RandomSearchOptions opt;
                     opt.budget = spec.budget;
                     opt.seed = spec.seed;
                     return std::make_unique<RandomSearchTuner>(
                         space, opt, /*biased_walk=*/false);
                 });
    ASSERT_TRUE(registry.contains("test-random-2x"));

    StudyResult r = parity_study(ExecutionPolicy::Serial(),
                                 "Test-Random-2X")  // case-insensitive
                        .build()
                        .run();
    EXPECT_EQ(r.method, "test-random-2x");
    EXPECT_EQ(r.history.size(), static_cast<std::size_t>(kBudget));
}

TEST(MethodRegistry, ConflictingAliasIsRejected)
{
    MethodRegistry& registry = MethodRegistry::global();
    auto null_factory = [](const SearchSpace&, const MethodSpec&)
        -> std::unique_ptr<AskTellTuner> { return nullptr; };
    EXPECT_THROW(registry.add("baco", null_factory,
                              {"random"}),  // names a different method
                 std::invalid_argument);
    // A rejected registration must not leave the new name
    // half-registered (resolvable but factory-less).
    EXPECT_THROW(
        registry.add("half-registered", null_factory, {"Uniform"}),
        std::invalid_argument);
    EXPECT_FALSE(registry.contains("half-registered"));
}

// ---------------------------------------------------------------------------
// Inline DSL, ask/tell embedding, events, validation.
// ---------------------------------------------------------------------------

EvalResult
dsl_eval(const Configuration& c, RngEngine& rng)
{
    double tile = static_cast<double>(as_int(c[0]));
    double penalty = as_int(c[1]) == 0 ? 1.5 : 0.0;
    return EvalResult{std::pow(std::log2(tile / 8.0), 2) + penalty +
                          0.01 * rng.uniform(0, 1),
                      true};
}

StudyBuilder
dsl_study()
{
    StudyBuilder sb;
    sb.ordinal("tile", {2, 4, 8, 16, 32}, true)
        .categorical("mode", {"a", "b"})
        .constraint("tile >= 4")
        .objective(dsl_eval)
        .budget(10)
        .doe(4)
        .seed(3);
    return sb;
}

TEST(Study, InlineDslRunsAndRespectsConstraints)
{
    StudyResult r = dsl_study().build().run();
    EXPECT_EQ(r.history.size(), 10u);
    ASSERT_TRUE(r.history.best_config.has_value());
    for (const Observation& o : r.history.observations)
        EXPECT_GE(as_int(o.config[0]), 4);  // known constraint honored
    EXPECT_TRUE(r.benchmark.empty());
}

TEST(Study, SecondFinalizationThrowsInsteadOfRedriving)
{
    Study study = dsl_study().build();
    StudyResult r = study.run();
    EXPECT_EQ(r.history.size(), 10u);
    EXPECT_THROW(study.result(), std::logic_error);
    EXPECT_THROW(study.run(), std::logic_error);
    EXPECT_THROW(study.ask(1), std::logic_error);
    EXPECT_THROW(study.tell(Configuration{}, EvalResult{}),
                 std::logic_error);
}

TEST(Study, BuildConsumesTheInlineSpace)
{
    // DSL calls after build() must not mutate the live study's space —
    // its tuner fixed the dimensionality at construction.
    StudyBuilder sb = dsl_study();
    Study study = sb.build();
    EXPECT_EQ(study.space().num_params(), 2u);
    sb.categorical("late", {"x", "y"});
    EXPECT_EQ(study.space().num_params(), 2u);
}

TEST(Study, AskTellEmbeddingMatchesRun)
{
    TuningHistory driven = dsl_study().build().run().history;

    Study study = dsl_study().build();
    while (study.remaining() > 0) {
        std::vector<Configuration> batch = study.ask(1);
        if (batch.empty())
            break;
        // Reproduce the serial driver's evaluation contract: the noise
        // stream is keyed by (run seed, evaluation index).
        std::uint64_t index = study.tuner().history().size();
        RngEngine rng = eval_rng_for(study.tuner().run_seed(), index);
        study.tell(batch.front(), dsl_eval(batch.front(), rng));
    }
    StudyResult r = study.result();
    EXPECT_TRUE(histories_equal(driven, r.history));
}

TEST(Study, EventsFireInHistoryOrderAcrossPolicies)
{
    for (ExecutionPolicy policy :
         {ExecutionPolicy::Serial(), ExecutionPolicy::Batched(4)}) {
        SCOPED_TRACE(execution_mode_name(policy.mode));
        std::vector<std::uint64_t> indices;
        double last_best = std::numeric_limits<double>::infinity();
        StudyResult r = dsl_study()
                            .execution(policy)
                            .on_event([&](const AsyncEvent& ev) {
                                indices.push_back(ev.index);
                                last_best = ev.best;
                            })
                            .build()
                            .run();
        ASSERT_EQ(indices.size(), r.history.size());
        for (std::size_t i = 0; i < indices.size(); ++i)
            EXPECT_EQ(indices[i], i);  // history order
        EXPECT_DOUBLE_EQ(last_best, r.history.best_value);
    }
}

TEST(Study, CacheReplayReportsFromCacheOnEveryEventUnderEveryPolicy)
{
    // A second same-seed study against a warm cache is a pure replay:
    // every event must say so, whichever policy drives it. (random
    // search suggests the same sequence however asks are sliced, so
    // even the multi-slot async replay hits on every configuration.)
    for (ExecutionPolicy policy :
         {ExecutionPolicy::Serial(), ExecutionPolicy::Batched(4),
          ExecutionPolicy::Async(4), ExecutionPolicy::Distributed(2, 4)}) {
        SCOPED_TRACE(execution_mode_name(policy.mode));
        EvalCache cache;
        parity_study(policy, "random").cache(&cache).build().run();
        int events = 0;
        int cached = 0;
        StudyResult replay = parity_study(policy, "random")
                                 .cache(&cache)
                                 .on_event([&](const AsyncEvent& ev) {
                                     ++events;
                                     if (ev.from_cache)
                                         ++cached;
                                     EXPECT_EQ(ev.eval_seconds, 0.0);
                                 })
                                 .build()
                                 .run();
        EXPECT_EQ(replay.cache_hits, static_cast<std::uint64_t>(kBudget));
        EXPECT_EQ(events, kBudget);
        EXPECT_EQ(cached, kBudget);
    }
}

TEST(Study, EventsFireAfterTheCheckpointUnderEveryPolicyAndTell)
{
    // Every tell checkpoints first and fires its events second, so an
    // observer always finds its result on disk — run() under every
    // policy and the ask/tell embedding alike.
    std::string path = testing::TempDir() + "baco_api_study_events.ckpt";
    int checked = 0;
    auto on_disk = [&](const AsyncEvent& ev) {
        std::optional<CheckpointData> data = load_checkpoint(path);
        ASSERT_TRUE(data.has_value());
        EXPECT_GE(data->history.size(), ev.evals);
        ++checked;
    };
    for (ExecutionPolicy policy :
         {ExecutionPolicy::Serial(), ExecutionPolicy::Batched(4),
          ExecutionPolicy::Async(4), ExecutionPolicy::Distributed(2, 4)}) {
        SCOPED_TRACE(execution_mode_name(policy.mode));
        std::remove(path.c_str());
        checked = 0;
        parity_study(policy, "random")
            .checkpoint(path)
            .on_event(on_disk)
            .build()
            .run();
        EXPECT_EQ(checked, kBudget);
    }

    std::remove(path.c_str());
    checked = 0;
    const Benchmark& b = suite::find_benchmark(kBench);
    Study study = parity_study(ExecutionPolicy::Serial(), "random")
                      .checkpoint(path)
                      .on_event(on_disk)
                      .build();
    std::vector<Configuration> batch = study.ask(3);
    std::vector<EvalResult> results;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        RngEngine rng = eval_rng_for(kSeed, i);
        results.push_back(b.evaluate(batch[i], rng));
    }
    study.tell(batch, results);
    EXPECT_EQ(checked, 3);
    std::remove(path.c_str());
}

TEST(Study, FailedCheckpointWriteStopsTheExchange)
{
    // The checkpoint's directory does not exist, so every write fails.
    // The first tell observes its results and then throws, naming the
    // path, instead of finishing the budget with no checkpoint. (A
    // permission-denied directory would not do: root ignores permission
    // bits.)
    const std::string path =
        testing::TempDir() + "baco_api_study_no_such_dir/run.ckpt";
    for (ExecutionPolicy policy :
         {ExecutionPolicy::Serial(), ExecutionPolicy::Batched(2),
          ExecutionPolicy::Async(2)}) {
        SCOPED_TRACE(execution_mode_name(policy.mode));
        int events = 0;
        Study study = parity_study(policy, "random")
                          .checkpoint(path)
                          .on_event([&](const AsyncEvent&) { ++events; })
                          .build();
        try {
            study.run();
            ADD_FAILURE() << "run() finished without a checkpoint";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
                << e.what();
        }
        // Barrier rounds tell two results at once, the others one.
        const std::size_t first_tell =
            policy.mode == ExecutionPolicy::Mode::kBatched ? 2 : 1;
        EXPECT_EQ(study.tuner().history().size(), first_tell);
        EXPECT_EQ(events, 0);
    }

    const Benchmark& b = suite::find_benchmark(kBench);
    Study study = parity_study(ExecutionPolicy::Serial(), "random")
                      .checkpoint(path)
                      .build();
    std::vector<Configuration> batch = study.ask(2);
    std::vector<EvalResult> results;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        RngEngine rng = eval_rng_for(kSeed, i);
        results.push_back(b.evaluate(batch[i], rng));
    }
    EXPECT_THROW(study.tell(batch, results), std::runtime_error);
    EXPECT_EQ(study.tuner().history().size(), 2u);
}

TEST(Study, RealAndLogScaledIntegerParametersRunInBounds)
{
    Study study = StudyBuilder()
                      .real("alpha", 0.25, 2.0)
                      .integer("n", 1, 1024, /*log_scale=*/true)
                      .objective([](const Configuration& c, RngEngine&) {
                          double alpha = as_real(c[0]);
                          double n = static_cast<double>(as_int(c[1]));
                          return EvalResult{
                              (alpha - 1.0) * (alpha - 1.0) +
                                  std::pow(std::log2(n / 64.0), 2),
                              true};
                      })
                      .budget(10)
                      .doe(4)
                      .seed(9)
                      .build();
    const SearchSpace& space = study.space();
    ASSERT_EQ(space.num_params(), 2u);
    const auto& alpha = dynamic_cast<const RealParameter&>(space.param(0));
    EXPECT_EQ(alpha.name(), "alpha");
    EXPECT_FALSE(alpha.log_scale());
    EXPECT_DOUBLE_EQ(alpha.lo(), 0.25);
    EXPECT_DOUBLE_EQ(alpha.hi(), 2.0);
    const auto& n = dynamic_cast<const IntegerParameter&>(space.param(1));
    EXPECT_EQ(n.name(), "n");
    EXPECT_TRUE(n.log_scale());
    EXPECT_EQ(n.lo(), 1);
    EXPECT_EQ(n.hi(), 1024);

    StudyResult r = study.run();
    ASSERT_EQ(r.history.size(), 10u);
    for (const Observation& o : r.history.observations) {
        EXPECT_GE(as_real(o.config[0]), 0.25);
        EXPECT_LE(as_real(o.config[0]), 2.0);
        EXPECT_GE(as_int(o.config[1]), 1);
        EXPECT_LE(as_int(o.config[1]), 1024);
    }
    EXPECT_TRUE(r.history.best_config.has_value());
}

TEST(Study, TraceExportsTheStudysSpans)
{
    std::string path = testing::TempDir() + "baco_api_study_trace.json";
    std::remove(path.c_str());
    obs::Trace::clear();
    dsl_study().trace(path).build().run();
    EXPECT_FALSE(obs::Trace::enabled());  // finalization turns it off

    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr) << "no trace written to " << path;
    std::string json;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        json.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
#if defined(BACO_OBS_TRACE_OFF)
    GTEST_SKIP() << "tracing compiled out (-DBACO_OBS_TRACE=OFF): no spans";
#else
    EXPECT_NE(json.find("\"tuner.suggest\""), std::string::npos);
    EXPECT_NE(json.find("\"engine.objective\""), std::string::npos);
#endif
}

TEST(Study, BuildValidationRejectsInconsistentSpecs)
{
    // No space at all.
    EXPECT_THROW(StudyBuilder().objective(dsl_eval).budget(5).build(),
                 std::invalid_argument);
    // Two space sources.
    EXPECT_THROW(StudyBuilder()
                     .benchmark(kBench)
                     .ordinal("x", {1, 2})
                     .build(),
                 std::invalid_argument);
    // Inline study without a budget.
    EXPECT_THROW(
        StudyBuilder().ordinal("x", {1, 2}).objective(dsl_eval).build(),
        std::invalid_argument);
    // Distributed without a registry benchmark.
    EXPECT_THROW(StudyBuilder()
                     .ordinal("x", {1, 2})
                     .objective(dsl_eval)
                     .budget(5)
                     .execution(ExecutionPolicy::Distributed(2))
                     .build(),
                 std::invalid_argument);
    // Distributed with a benchmark object that is not the registry's
    // own instance (here: a modified copy): workers resolve by name
    // and would silently evaluate the registry version — fail at
    // build, not with wrong results mid-run.
    {
        Benchmark rogue = suite::find_benchmark(kBench);
        rogue.evaluate = [](const Configuration&, RngEngine&) {
            return EvalResult{0.0, true};
        };
        EXPECT_THROW(StudyBuilder()
                         .benchmark(rogue)
                         .execution(ExecutionPolicy::Distributed(2))
                         .build(),
                     std::invalid_argument);
    }
    // Distributed with a custom objective: workers evaluate the
    // registry benchmark's own black box, so a local override would be
    // silently ignored — reject it instead.
    EXPECT_THROW(StudyBuilder()
                     .benchmark(kBench)
                     .objective(dsl_eval)
                     .execution(ExecutionPolicy::Distributed(2))
                     .build(),
                 std::invalid_argument);
    // Unknown benchmark name suggests close matches.
    try {
        StudyBuilder().benchmark("SDDMM/email-Enrom");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("SDDMM/email-Enron"),
                  std::string::npos);
    }
    // Inline study without an objective fails at run().
    Study no_objective =
        StudyBuilder().ordinal("x", {1, 2}).budget(3).build();
    EXPECT_THROW(no_objective.run(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Uniform cache + checkpoint options.
// ---------------------------------------------------------------------------

TEST(Study, SharedCacheShortCircuitsRepeatRunsWithProvenance)
{
    EvalCache cache;
    auto cached_study = [&] {
        return parity_study(ExecutionPolicy::Batched(3))
            .cache(&cache)
            .build();
    };
    StudyResult first = cached_study().run();
    EXPECT_EQ(first.cache_hits, 0u);
    EXPECT_GT(first.cache_misses, 0u);
    EXPECT_FALSE(first.cache_namespace.empty());  // benchmark identity

    StudyResult second = cached_study().run();
    // Identical seed => identical suggestions => pure cache replay.
    EXPECT_TRUE(histories_equal(first.history, second.history));
    EXPECT_EQ(second.cache_hits,
              static_cast<std::uint64_t>(second.history.size()));
    EXPECT_EQ(second.cache_misses, 0u);
}

TEST(Study, OverriddenObjectiveNeverClaimsBenchmarkCacheNamespace)
{
    // Fill the cache under the benchmark's identity namespace.
    EvalCache cache;
    StudyResult real = parity_study(ExecutionPolicy::Serial())
                           .cache(&cache)
                           .build()
                           .run();
    ASSERT_FALSE(real.cache_namespace.empty());

    // A study overriding the benchmark's objective must not read those
    // entries: it lands in the anonymous namespace and misses.
    BlackBoxFn stub = [](const Configuration&, RngEngine&) {
        return EvalResult{1.0, true};
    };
    StudyResult stubbed = parity_study(ExecutionPolicy::Serial())
                              .objective(stub)
                              .cache(&cache)
                              .build()
                              .run();
    EXPECT_TRUE(stubbed.cache_namespace.empty());
    EXPECT_EQ(stubbed.cache_hits, 0u);
    for (const Observation& o : stubbed.history.observations)
        EXPECT_DOUBLE_EQ(o.value, 1.0);  // the stub's results, never the
                                         // benchmark's cached ones
}

TEST(Study, CacheLruBoundAppliedThroughBuilder)
{
    EvalCache cache;
    parity_study(ExecutionPolicy::Batched(3))
        .cache(&cache, /*max_entries=*/4)
        .build()
        .run();
    EXPECT_EQ(cache.max_entries(), 4u);
    EXPECT_LE(cache.size(), 4u);
    EXPECT_GT(cache.evictions(), 0u);  // budget 12 >> bound 4
}

TEST(Study, CheckpointResumeReproducesUninterruptedRun)
{
    std::string path = testing::TempDir() + "baco_api_study_resume.ckpt";
    std::remove(path.c_str());

    TuningHistory full =
        parity_study(ExecutionPolicy::Serial()).build().run().history;

    // Interrupted run: stop after 5 evaluations by telling through the
    // ask/tell surface with checkpointing on.
    {
        Study study = parity_study(ExecutionPolicy::Serial())
                          .checkpoint(path)
                          .build();
        const Benchmark& b = suite::find_benchmark(kBench);
        for (int i = 0; i < 5; ++i) {
            std::vector<Configuration> batch = study.ask(1);
            ASSERT_FALSE(batch.empty());
            std::uint64_t index = study.tuner().history().size();
            RngEngine rng = eval_rng_for(kSeed, index);
            study.tell(batch.front(), b.evaluate(batch.front(), rng));
        }
    }

    StudyResult resumed = parity_study(ExecutionPolicy::Serial())
                              .checkpoint(path, /*resume=*/true)
                              .build()
                              .run();
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.resumed_evals, 5u);
    EXPECT_TRUE(histories_equal(full, resumed.history));

    // A seed mismatch must be an error, not a silent fresh start.
    EXPECT_THROW(parity_study(ExecutionPolicy::Serial())
                     .seed(kSeed + 1)
                     .checkpoint(path, /*resume=*/true)
                     .build(),
                 std::runtime_error);
    std::remove(path.c_str());
}

TEST(Study, AsyncCheckpointPendingResumesUnderEveryPolicy)
{
    // A killed async run leaves in-flight evaluations in its
    // checkpoint. Resuming must re-dispatch them under their original
    // indices no matter which ExecutionPolicy the resumed study picks:
    // the sync policies' drain must match the async driver's
    // (established, separately tested) resume behavior exactly.
    std::string path = testing::TempDir() + "baco_api_study_pending.ckpt";
    const Benchmark& b = suite::find_benchmark(kBench);

    auto make_pending_checkpoint = [&]() -> Configuration {
        std::remove(path.c_str());
        Study study = parity_study(ExecutionPolicy::Serial()).build();
        for (int i = 0; i < 4; ++i) {
            std::vector<Configuration> batch = study.ask(1);
            std::uint64_t index = study.tuner().history().size();
            RngEngine rng = eval_rng_for(kSeed, index);
            study.tell(batch.front(), b.evaluate(batch.front(), rng));
        }
        // One more suggestion dies in flight: index 4. (A single
        // pending eval keeps the async reference deterministic — the
        // async driver re-dispatches multiple pending concurrently, so
        // their arrival order would not be comparable.)
        std::vector<Configuration> next = study.ask(1);
        std::vector<PendingEval> pending{PendingEval{4, next.front()}};
        EXPECT_TRUE(save_checkpoint(path, study.tuner(), pending));
        return next.front();
    };

    auto resume_with = [&](ExecutionPolicy policy) {
        return parity_study(policy)
            .checkpoint(path, /*resume=*/true)
            .build()
            .run()
            .history;
    };

    Configuration in_flight = make_pending_checkpoint();
    // The result the killed run would have told: index 4's own stream.
    RngEngine rng4 = eval_rng_for(kSeed, 4);
    EvalResult expected = b.evaluate(in_flight, rng4);

    TuningHistory via_async = resume_with(ExecutionPolicy::Async(1));
    make_pending_checkpoint();
    TuningHistory via_serial = resume_with(ExecutionPolicy::Serial());
    make_pending_checkpoint();
    TuningHistory via_batched = resume_with(ExecutionPolicy::Batched(3));

    // The independent reference: restore by hand, tell the in-flight
    // evaluation under its own index, finish with the serial loop.
    make_pending_checkpoint();
    TuningHistory via_reference;
    {
        std::shared_ptr<SearchSpace> space = b.make_space(SpaceVariant{});
        std::unique_ptr<AskTellTuner> tuner =
            legacy_tuner(*space, b.doe_samples);
        std::vector<PendingEval> pending;
        ASSERT_TRUE(resume_from_checkpoint(path, *tuner, &pending));
        ASSERT_EQ(pending.size(), 1u);
        RngEngine prng = eval_rng_for(kSeed, pending[0].index);
        tuner->observe({pending[0].config},
                       {b.evaluate(pending[0].config, prng)});
        via_reference = reference_serial_loop(*tuner, b.evaluate);
    }

    // The ask/tell embedding path handles the same checkpoint through
    // resume_pending()/tell_pending(): ask() refuses until the
    // in-flight work is drained, and the drained exchange reproduces
    // the run()-driven serial resume exactly.
    make_pending_checkpoint();
    TuningHistory via_asktell;
    {
        Study study = parity_study(ExecutionPolicy::Serial())
                          .checkpoint(path, /*resume=*/true)
                          .build();
        ASSERT_EQ(study.resume_pending().size(), 1u);
        EXPECT_THROW(study.ask(1), std::logic_error);
        EXPECT_THROW(study.tell(Configuration{}, EvalResult{}),
                     std::logic_error);
        PendingEval p = study.resume_pending().front();
        RngEngine prng = eval_rng_for(kSeed, p.index);
        study.tell_pending(p, b.evaluate(p.config, prng));
        while (study.remaining() > 0) {
            std::vector<Configuration> next = study.ask(1);
            if (next.empty())
                break;
            std::uint64_t index = study.tuner().history().size();
            RngEngine rng = eval_rng_for(kSeed, index);
            study.tell(next.front(), b.evaluate(next.front(), rng));
        }
        via_asktell = study.result().history;
    }

    // Single-slot async is the established resume semantic; the serial
    // and ask/tell drains must match it observation-for-observation.
    // Batched continues with its own (legitimately different) batch
    // suggestions after the drain, but the drained evaluation itself
    // must land at its original index with its original noise stream.
    EXPECT_EQ(via_async.size(), static_cast<std::size_t>(kBudget));
    EXPECT_TRUE(histories_equal(via_reference, via_async));
    EXPECT_TRUE(histories_equal(via_async, via_serial));
    EXPECT_TRUE(histories_equal(via_async, via_asktell));
    for (const TuningHistory* h : {&via_async, &via_serial, &via_batched}) {
        ASSERT_EQ(h->size(), static_cast<std::size_t>(kBudget));
        EXPECT_TRUE(configs_equal(h->observations[4].config, in_flight));
        EXPECT_DOUBLE_EQ(h->observations[4].value, expected.value);
        EXPECT_EQ(h->observations[4].feasible, expected.feasible);
    }
    std::remove(path.c_str());
}

}  // namespace
}  // namespace baco
