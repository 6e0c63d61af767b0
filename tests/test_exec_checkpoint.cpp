// JSONL checkpoint/resume: round-trip fidelity and mid-budget resume
// reproducing the uninterrupted history exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "api/method_registry.hpp"
#include "baselines/opentuner_like.hpp"
#include "core/tuner.hpp"
#include "drive_reference.hpp"
#include "exec/checkpoint.hpp"
#include "exec/drive.hpp"

namespace baco {
namespace {

/** Mixed-type space including a permutation, to stress serialization. */
SearchSpace
mixed_space()
{
    SearchSpace s;
    s.add_ordinal("tile", {2, 4, 8, 16, 32, 64, 128, 256}, true);
    s.add_real("alpha", 0.1, 2.0);
    s.add_permutation("loops", 3);
    return s;
}

EvalResult
mixed_eval(const Configuration& c, RngEngine& rng)
{
    double tile = static_cast<double>(as_int(c[0]));
    double alpha = as_real(c[1]);
    const auto& perm = std::get<Permutation>(c[2]);
    double v = 1.0 + std::pow(std::log2(tile / 32.0), 2) +
               (alpha - 0.7) * (alpha - 0.7) +
               (perm[0] == 0 ? 0.0 : 0.8);
    if (tile >= 128 && alpha > 1.5)
        return EvalResult::infeasible();  // hidden constraint
    return EvalResult{v * rng.lognormal_factor(0.02), true};
}

/** Fully discrete and constrained, so the methods that can walk its
 *  Chain-of-Trees do. */
SearchSpace
constrained_space()
{
    SearchSpace s;
    s.add_ordinal("tile", {2, 4, 8, 16, 32, 64, 128, 256}, true);
    s.add_ordinal("unroll", {1, 2, 4, 8, 16}, true);
    s.add_permutation("loops", 3);
    s.add_constraint("unroll <= tile");
    return s;
}

EvalResult
constrained_eval(const Configuration& c, RngEngine& rng)
{
    double tile = static_cast<double>(as_int(c[0]));
    double unroll = static_cast<double>(as_int(c[1]));
    const auto& perm = std::get<Permutation>(c[2]);
    if (tile >= 128 && unroll >= 8)
        return EvalResult::infeasible();  // hidden constraint
    double v = 1.0 + std::pow(std::log2(tile / 32.0), 2) +
               0.3 * std::pow(std::log2(unroll / 4.0), 2) +
               (perm[0] == 0 ? 0.0 : 0.8);
    return EvalResult{v * rng.lognormal_factor(0.02), true};
}

/** Drive at most max_evals evaluations of objective on a pool. */
void
drive_some(AskTellTuner& tuner, int max_evals, DriveOptions opt = {},
           const BlackBoxFn& objective = mixed_eval)
{
    ThreadPoolExecutor exec(objective, tuner.run_seed(), 0);
    opt.max_evals = max_evals;
    drive(tuner, exec, opt);
}

/** Copy the checkpoint at from to to, with `extra` appended to its
 *  sampler state. */
void
copy_with_state_suffix(const std::string& from, const std::string& to,
                       const std::string& extra)
{
    std::ifstream in(from);
    std::stringstream text;
    text << in.rdbuf();
    std::string body = text.str();
    const std::string key = "\"rng\":\"";
    std::size_t at = body.find(key);
    ASSERT_NE(at, std::string::npos);
    body.insert(body.find('"', at + key.size()), extra);
    std::ofstream(to) << body;
}

TEST(Checkpoint, SaveLoadRoundtripPreservesHistory)
{
    SearchSpace s = mixed_space();
    TunerOptions opt;
    opt.budget = 12;
    opt.doe_samples = 5;
    opt.seed = 4;
    opt.log_objective = false;
    Tuner tuner(s, opt);
    drive_some(tuner, 12);

    std::string path = testing::TempDir() + "baco_test_ckpt_roundtrip.jsonl";
    ASSERT_TRUE(save_checkpoint(path, tuner));

    std::optional<CheckpointData> data = load_checkpoint(path);
    ASSERT_TRUE(data.has_value());
    EXPECT_EQ(data->seed, opt.seed);
    EXPECT_TRUE(histories_equal(data->history, tuner.history()));
    EXPECT_EQ(data->history.best_value, tuner.history().best_value);
    EXPECT_EQ(data->sampler_state, tuner.sampler_state());
    std::remove(path.c_str());
}

TEST(Checkpoint, ResumeReproducesUninterruptedHistory)
{
    SearchSpace s = mixed_space();
    TunerOptions opt;
    opt.budget = 20;
    opt.doe_samples = 6;
    opt.seed = 13;
    opt.log_objective = false;

    DriveOptions eopt = drive_options(2);

    // Reference: one uninterrupted run.
    Tuner full(s, opt);
    TuningHistory reference = pool_drive(full, mixed_eval, 0, eopt);
    ASSERT_EQ(reference.size(), 20u);

    // Interrupted run: 8 evaluations (a batch boundary), then "crash".
    std::string path = testing::TempDir() + "baco_test_ckpt_resume.jsonl";
    DriveOptions copt = eopt;
    copt.checkpoint_path = path;
    {
        Tuner interrupted(s, opt);
        drive_some(interrupted, 8, copt);
        ASSERT_EQ(interrupted.history().size(), 8u);
    }

    // Resume into a fresh tuner and finish the budget.
    Tuner resumed(s, opt);
    ASSERT_TRUE(resume_from_checkpoint(path, resumed));
    ASSERT_EQ(resumed.history().size(), 8u);
    TuningHistory final_history = pool_drive(resumed, mixed_eval, 0, copt);

    EXPECT_TRUE(histories_equal(reference, final_history));
    EXPECT_EQ(reference.best_value, final_history.best_value);
    std::remove(path.c_str());
}

TEST(Checkpoint, ResumeWorksForBaselines)
{
    SearchSpace s = mixed_space();
    OpenTunerLike::Options opt;
    opt.budget = 14;
    opt.doe_samples = 5;
    opt.seed = 23;

    std::string path = testing::TempDir() + "baco_test_ckpt_baseline.jsonl";
    {
        OpenTunerLike interrupted(s, opt);
        DriveOptions copt;
        copt.checkpoint_path = path;
        drive_some(interrupted, 6, copt);
    }

    OpenTunerLike resumed(s, opt);
    ASSERT_TRUE(resume_from_checkpoint(path, resumed));
    EXPECT_EQ(resumed.history().size(), 6u);
    TuningHistory h = pool_drive(resumed, mixed_eval, 0);
    EXPECT_EQ(h.size(), 14u);
    std::remove(path.c_str());
}

TEST(Checkpoint, BanditWindowResumesBitForBit)
{
    // The AUC credit window and use counts are serialized in the sampler
    // state, so a resumed OpenTunerLike run makes identical technique
    // choices — the full history matches the uninterrupted run exactly.
    SearchSpace s = mixed_space();
    OpenTunerLike::Options opt;
    opt.budget = 30;
    opt.doe_samples = 6;
    opt.seed = 91;

    OpenTunerLike full(s, opt);
    TuningHistory reference = pool_drive(full, mixed_eval, 0);
    ASSERT_EQ(reference.size(), 30u);

    // Interrupt well past the seed phase, when the bandit credit state
    // actively steers technique selection.
    std::string path = testing::TempDir() + "baco_test_ckpt_bandit.jsonl";
    {
        OpenTunerLike interrupted(s, opt);
        DriveOptions copt;
        copt.checkpoint_path = path;
        drive_some(interrupted, 18, copt);
    }

    OpenTunerLike resumed(s, opt);
    ASSERT_TRUE(resume_from_checkpoint(path, resumed));
    ASSERT_EQ(resumed.history().size(), 18u);
    TuningHistory final_history = pool_drive(resumed, mixed_eval, 0);

    EXPECT_TRUE(histories_equal(reference, final_history));
    EXPECT_EQ(reference.best_value, final_history.best_value);
    std::remove(path.c_str());
}

TEST(Checkpoint, EveryRegisteredMethodResumesBitForBit)
{
    // Every built-in method checkpoints and resumes through the one
    // ask-tell scaffold: interrupted past the DoE phase and resumed into
    // a fresh tuner, the run finishes exactly as the uninterrupted one.
    // A state with a segment no method writes restores nothing.
    SearchSpace s = constrained_space();
    MethodSpec spec;
    spec.budget = 30;
    spec.doe_samples = 6;
    spec.seed = 17;
    const MethodRegistry builtins;
    const std::string path =
        testing::TempDir() + "baco_test_ckpt_every_method.jsonl";
    const std::string bogus =
        testing::TempDir() + "baco_test_ckpt_every_method_bogus.jsonl";
    for (const std::string& name : builtins.names()) {
        SCOPED_TRACE(name);
        std::unique_ptr<AskTellTuner> full = builtins.make(name, s, spec);
        TuningHistory reference = pool_drive(*full, constrained_eval, 0);
        ASSERT_EQ(reference.size(), 30u);

        {
            std::unique_ptr<AskTellTuner> interrupted =
                builtins.make(name, s, spec);
            DriveOptions copt;
            copt.checkpoint_path = path;
            drive_some(*interrupted, 17, copt, constrained_eval);
        }
        copy_with_state_suffix(path, bogus, ";bogus=1");

        std::unique_ptr<AskTellTuner> fresh = builtins.make(name, s, spec);
        EXPECT_FALSE(resume_from_checkpoint(bogus, *fresh));
        EXPECT_EQ(fresh->history().size(), 0u);
        EXPECT_EQ(fresh->remaining(), spec.budget);

        std::unique_ptr<AskTellTuner> resumed = builtins.make(name, s, spec);
        ASSERT_TRUE(resume_from_checkpoint(path, *resumed));
        ASSERT_EQ(resumed->history().size(), 17u);
        const std::string state = resumed->sampler_state();
        EXPECT_FALSE(resume_from_checkpoint(bogus, *resumed));
        EXPECT_EQ(resumed->history().size(), 17u);
        EXPECT_EQ(resumed->sampler_state(), state);

        TuningHistory final_history =
            pool_drive(*resumed, constrained_eval, 0);
        EXPECT_TRUE(histories_equal(reference, final_history));
    }
    std::remove(path.c_str());
    std::remove(bogus.c_str());
}

TEST(Checkpoint, ResumeRejectsSeedMismatch)
{
    SearchSpace s = mixed_space();
    OpenTunerLike::Options opt;
    opt.budget = 10;
    opt.doe_samples = 4;
    opt.seed = 5;

    std::string path = testing::TempDir() + "baco_test_ckpt_seed.jsonl";
    {
        OpenTunerLike run(s, opt);
        DriveOptions copt;
        copt.checkpoint_path = path;
        drive_some(run, 4, copt);
    }

    // The per-evaluation RNG streams are rooted at the run seed, so a
    // checkpoint must not restore into a differently-seeded tuner.
    OpenTunerLike::Options other = opt;
    other.seed = 6;
    OpenTunerLike mismatched(s, other);
    EXPECT_FALSE(resume_from_checkpoint(path, mismatched));
    OpenTunerLike matched(s, opt);
    EXPECT_TRUE(resume_from_checkpoint(path, matched));
    std::remove(path.c_str());
}

TEST(Checkpoint, LoadMissingOrCorruptFileFails)
{
    EXPECT_FALSE(load_checkpoint("/nonexistent/ckpt.jsonl").has_value());

    std::string path = testing::TempDir() + "baco_test_ckpt_corrupt.jsonl";
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("this is not json\n", f);
        std::fclose(f);
    }
    EXPECT_FALSE(load_checkpoint(path).has_value());
    std::remove(path.c_str());
}

TEST(Checkpoint, PendingEvaluationsRoundTrip)
{
    SearchSpace s = mixed_space();
    TunerOptions opt;
    opt.budget = 12;
    opt.doe_samples = 4;
    opt.seed = 6;
    opt.log_objective = false;
    Tuner tuner(s, opt);
    drive_some(tuner, 4);

    // Two in-flight evaluations (mixed types, permutation included).
    std::vector<PendingEval> pending;
    std::vector<Configuration> batch = tuner.suggest(2);
    ASSERT_EQ(batch.size(), 2u);
    pending.push_back(PendingEval{4, batch[0]});
    pending.push_back(PendingEval{5, batch[1]});

    std::string path = testing::TempDir() + "baco_test_ckpt_pending.jsonl";
    ASSERT_TRUE(save_checkpoint(path, tuner, pending));

    std::optional<CheckpointData> data = load_checkpoint(path);
    ASSERT_TRUE(data.has_value());
    EXPECT_TRUE(histories_equal(data->history, tuner.history()));
    ASSERT_EQ(data->pending.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(data->pending[i].index, pending[i].index);
        EXPECT_TRUE(
            configs_equal(data->pending[i].config, pending[i].config));
    }

    // A batch-mode resume (no pending out-param) still restores cleanly.
    Tuner resumed(s, opt);
    EXPECT_TRUE(resume_from_checkpoint(path, resumed));
    EXPECT_TRUE(histories_equal(resumed.history(), tuner.history()));
    std::remove(path.c_str());
}

}  // namespace
}  // namespace baco
