// The multi-session manager and serve loop: protocol-driven tuning
// sessions, idempotent retries, concurrent sessions from many threads,
// idle eviction, spill and close, the version handshake, and crash/resume
// recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/study.hpp"
#include "drive_reference.hpp"
#include "exec/checkpoint.hpp"
#include "exec/eval_cache.hpp"
#include "serve/client.hpp"
#include "serve/coordinator.hpp"
#include "serve/server.hpp"
#include "serve/session_manager.hpp"
#include "serve/transport.hpp"
#include "serve/worker.hpp"
#include "suite/registry.hpp"

namespace baco::serve {
namespace {

constexpr const char* kBench = "SDDMM/email-Enron";

Message
open_request(const std::string& name, const std::string& method, int budget,
             std::uint64_t seed, bool resume = false)
{
    Message m;
    m.type = MsgType::kOpenSession;
    m.id = 1;
    m.session = name;
    m.benchmark = kBench;
    m.method = method;
    m.budget = budget;
    m.doe = 0;  // benchmark default, matching reference_run
    m.seed = seed;
    m.resume = resume;
    return m;
}

/** The observe frame for a configs reply, evaluated client-side under
 *  the session's (seed, index) noise streams. */
Message
observe_request(const std::string& name, const Message& configs,
                std::uint64_t seed)
{
    const Benchmark& bench = suite::find_benchmark(kBench);
    Message tell;
    tell.type = MsgType::kObserve;
    tell.session = name;
    for (std::size_t i = 0; i < configs.configs.size(); ++i) {
        ObservedResult r;
        r.config = configs.configs[i];
        EvalResult res = evaluate_on(bench, r.config, seed, configs.index + i);
        r.value = res.value;
        r.feasible = res.feasible;
        tell.results.push_back(std::move(r));
    }
    return tell;
}

Message
run_request(const std::string& name, int n, int budget = 0,
            bool async = false)
{
    Message run;
    run.type = MsgType::kRun;
    run.session = name;
    run.n = n;
    run.budget = budget;
    run.async = async;
    return run;
}

/**
 * serve_connection on one end of a loopback pair, on its own thread,
 * with a handshaken client on the other. Shuts the connection down and
 * joins on scope exit.
 */
class LoopbackConnection {
 public:
  explicit LoopbackConnection(const ServerContext& ctx)
  {
      auto [client_end, server_end] = loopback_pair();
      transport_ = std::move(client_end);
      thread_ = std::thread(
          [&ctx, s = std::shared_ptr<Transport>(std::move(server_end))] {
              serve_connection(*s, ctx);
          });
      client_ = std::make_unique<SessionClient>(*transport_);
      EXPECT_TRUE(client_->handshake());
  }

  LoopbackConnection(const LoopbackConnection&) = delete;
  LoopbackConnection& operator=(const LoopbackConnection&) = delete;

  ~LoopbackConnection()
  {
      Message bye;
      bye.type = MsgType::kShutdown;
      transport_->send(encode(bye));
      thread_.join();
  }

  SessionClient& client() { return *client_; }

 private:
  std::unique_ptr<Transport> transport_;
  std::thread thread_;
  std::unique_ptr<SessionClient> client_;
};

/**
 * Drive a session through the ask-tell protocol exchange, evaluating
 * client-side exactly as a remote evaluation farm would. Returns the
 * final evals count.
 */
std::uint64_t
drive_session(SessionManager& sm, const std::string& name, int batch,
              int max_evals = -1)
{
    std::optional<SessionInfo> info = sm.info(name);
    EXPECT_TRUE(info.has_value());
    std::uint64_t evals = info->evals;
    int done = 0;
    for (;;) {
        if (max_evals >= 0 && done >= max_evals)
            break;
        Message ask;
        ask.type = MsgType::kSuggest;
        ask.session = name;
        ask.n = batch;
        Message configs = sm.handle(ask);
        EXPECT_EQ(configs.type, MsgType::kConfigs) << configs.text;
        if (configs.configs.empty())
            break;
        Message ok = sm.handle(observe_request(name, configs, info->seed));
        EXPECT_EQ(ok.type, MsgType::kOk) << ok.text;
        evals = ok.evals;
        done += static_cast<int>(configs.configs.size());
    }
    return evals;
}

TEST(ServeSession, ProtocolDrivenRunMatchesDirectRun)
{
    SessionManager sm;
    Message opened = sm.handle(open_request("s1", "Uniform", 12, 33));
    ASSERT_EQ(opened.type, MsgType::kOpened) << opened.text;
    EXPECT_EQ(opened.evals, 0u);
    EXPECT_FALSE(opened.resumed);

    EXPECT_EQ(drive_session(sm, "s1", 3), 12u);
    std::optional<SessionInfo> info = sm.info("s1");
    ASSERT_TRUE(info.has_value());
    // No cache, so no space fingerprint is computed.
    EXPECT_TRUE(info->cache_namespace.empty());

    // The protocol exchange is the barrier-round exchange over frames:
    // the session history must match the batched in-process run exactly.
    const Benchmark& bench = suite::find_benchmark(kBench);
    TuningHistory reference = reference_run(bench, "Uniform", 12, 33, 3);
    EXPECT_EQ(info->evals, reference.size());
    EXPECT_EQ(info->best, reference.best_value);
}

TEST(ServeSession, OpenRejectsBadRequests)
{
    SessionManager sm;
    Message bad_name = open_request("no/slashes", "BaCO", 10, 1);
    EXPECT_EQ(sm.handle(bad_name).type, MsgType::kError);

    Message bad_bench = open_request("ok", "BaCO", 10, 1);
    bad_bench.benchmark = "NoSuch/benchmark";
    EXPECT_EQ(sm.handle(bad_bench).type, MsgType::kError);

    Message bad_method = open_request("ok", "NoSuchMethod", 10, 1);
    EXPECT_EQ(sm.handle(bad_method).type, MsgType::kError);

    ASSERT_EQ(sm.handle(open_request("ok", "BaCO", 10, 1)).type,
              MsgType::kOpened);
    // Double open of a live session is an error.
    EXPECT_EQ(sm.handle(open_request("ok", "BaCO", 10, 1)).type,
              MsgType::kError);
    EXPECT_EQ(sm.size(), 1u);
}

TEST(ServeSession, SuggestIsIdempotentAndObserveValidatesBatch)
{
    SessionManager sm;
    ASSERT_EQ(sm.handle(open_request("s", "Uniform", 10, 7)).type,
              MsgType::kOpened);

    Message ask;
    ask.type = MsgType::kSuggest;
    ask.session = "s";
    ask.n = 3;
    Message first = sm.handle(ask);
    ASSERT_EQ(first.type, MsgType::kConfigs);
    ASSERT_EQ(first.configs.size(), 3u);

    // A retried suggest re-sends the same outstanding batch (lost-reply
    // recovery), without advancing the tuner.
    Message retry = sm.handle(ask);
    ASSERT_EQ(retry.type, MsgType::kConfigs);
    ASSERT_EQ(retry.configs.size(), 3u);
    EXPECT_EQ(retry.index, first.index);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_TRUE(configs_equal(retry.configs[i], first.configs[i]));

    // Observing results for the wrong configs is rejected.
    Message wrong;
    wrong.type = MsgType::kObserve;
    wrong.session = "s";
    ObservedResult r;
    r.config = first.configs[0];
    r.value = 1.0;
    wrong.results = {r};
    EXPECT_EQ(sm.handle(wrong).type, MsgType::kError);  // size mismatch

    // Observing with no batch outstanding is rejected too.
    Message ok_observe;
    ok_observe.type = MsgType::kObserve;
    ok_observe.session = "s";
    const Benchmark& bench = suite::find_benchmark(kBench);
    std::optional<SessionInfo> info = sm.info("s");
    for (std::size_t i = 0; i < first.configs.size(); ++i) {
        ObservedResult obs;
        obs.config = first.configs[i];
        EvalResult res = evaluate_on(bench, obs.config, info->seed,
                                     first.index + i);
        obs.value = res.value;
        obs.feasible = res.feasible;
        ok_observe.results.push_back(std::move(obs));
    }
    EXPECT_EQ(sm.handle(ok_observe).type, MsgType::kOk);
    EXPECT_EQ(sm.handle(ok_observe).type, MsgType::kError);
}

TEST(ServeSession, ConcurrentSessionsStayIsolated)
{
    // Many threads hammer their own sessions through one manager; each
    // history must match its serial single-session reference exactly.
    SessionManager sm;
    const int kThreads = 8;
    const int kBudget = 10;

    for (int t = 0; t < kThreads; ++t) {
        Message opened = sm.handle(open_request(
            "hammer-" + std::to_string(t), "Uniform", kBudget,
            static_cast<std::uint64_t>(100 + t)));
        ASSERT_EQ(opened.type, MsgType::kOpened) << opened.text;
    }

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&sm, t] {
            drive_session(sm, "hammer-" + std::to_string(t),
                          1 + t % 3);
        });
    }
    for (std::thread& t : threads)
        t.join();

    const Benchmark& bench = suite::find_benchmark(kBench);
    for (int t = 0; t < kThreads; ++t) {
        std::optional<SessionInfo> info =
            sm.info("hammer-" + std::to_string(t));
        ASSERT_TRUE(info.has_value());
        EXPECT_EQ(info->evals, static_cast<std::uint64_t>(kBudget));
        TuningHistory reference = reference_run(
            bench, "Uniform", kBudget, static_cast<std::uint64_t>(100 + t),
            1 + t % 3);
        EXPECT_EQ(info->best, reference.best_value) << info->name;
    }
    EXPECT_EQ(sm.size(), static_cast<std::size_t>(kThreads));
}

TEST(ServeSession, ServerCrashResumesFromCheckpointAndMatches)
{
    // Acceptance scenario: kill the server mid-run, restart, resume from
    // checkpoint and finish — the final history must equal the
    // uninterrupted run's bit-for-bit.
    std::string dir = testing::TempDir();
    const int kBudget = 14;
    const std::uint64_t kSeed = 77;
    const int kBatch = 2;

    const Benchmark& bench = suite::find_benchmark(kBench);
    TuningHistory reference =
        reference_run(bench, "BaCO", kBudget, kSeed, kBatch);
    ASSERT_EQ(reference.size(), static_cast<std::size_t>(kBudget));

    std::string name = "crashy";
    {
        SessionManagerOptions opt;
        opt.checkpoint_dir = dir;
        SessionManager sm(opt);
        ASSERT_EQ(sm.handle(open_request(name, "BaCO", kBudget, kSeed)).type,
                  MsgType::kOpened);
        drive_session(sm, name, kBatch, /*max_evals=*/6);
        // The manager is destroyed here with the session still mid-budget
        // — the "crash". Durability comes from the per-observe checkpoint.
    }

    SessionManagerOptions opt;
    opt.checkpoint_dir = dir;
    SessionManager sm(opt);
    Message reopened = sm.handle(
        open_request(name, "BaCO", kBudget, kSeed, /*resume=*/true));
    ASSERT_EQ(reopened.type, MsgType::kOpened) << reopened.text;
    EXPECT_TRUE(reopened.resumed);
    EXPECT_EQ(reopened.evals, 6u);

    EXPECT_EQ(drive_session(sm, name, kBatch),
              static_cast<std::uint64_t>(kBudget));
    std::optional<SessionInfo> info = sm.info(name);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->best, reference.best_value);

    // The final on-disk checkpoint carries the full history: compare it
    // against the uninterrupted reference observation by observation.
    std::optional<CheckpointData> final_state =
        load_checkpoint(sm.checkpoint_path(name));
    ASSERT_TRUE(final_state.has_value());
    EXPECT_TRUE(histories_equal(final_state->history, reference));
    std::remove(sm.checkpoint_path(name).c_str());
}

TEST(ServeSession, ResumeTellsTheCheckpointsInFlightEvaluations)
{
    // A server-side async run lists its in-flight evaluations in the
    // session's checkpoint. Built here the way
    // Study.AsyncCheckpointPendingResumesUnderEveryPolicy builds one: 4
    // told evaluations and index 4 in flight. The resumed session must
    // tell index 4 under its own noise stream before anything new, so
    // its history is the resumed Study's.
    const int kBudget = 12;
    const std::uint64_t kSeed = 21;
    const std::string name = "in-flight";
    SessionManagerOptions opt;
    opt.checkpoint_dir = testing::TempDir();
    SessionManager sm(opt);
    const std::string path = sm.checkpoint_path(name);
    const Benchmark& bench = suite::find_benchmark(kBench);

    auto study = [&] {
        StudyBuilder sb;
        sb.benchmark(kBench).method("random").budget(kBudget).seed(kSeed);
        return sb;
    };
    auto make_pending_checkpoint = [&] {
        std::remove(path.c_str());
        Study s = study().build();
        for (int i = 0; i < 4; ++i) {
            std::vector<Configuration> batch = s.ask(1);
            std::uint64_t index = s.tuner().history().size();
            s.tell(batch.front(),
                   evaluate_on(bench, batch.front(), kSeed, index));
        }
        std::vector<Configuration> next = s.ask(1);
        ASSERT_TRUE(save_checkpoint(path, s.tuner(),
                                    {PendingEval{4, next.front()}}));
    };

    make_pending_checkpoint();
    TuningHistory via_study =
        study().checkpoint(path, /*resume=*/true).build().run().history;
    ASSERT_EQ(via_study.size(), static_cast<std::size_t>(kBudget));

    make_pending_checkpoint();
    Message opened = sm.handle(
        open_request(name, "random", kBudget, kSeed, /*resume=*/true));
    ASSERT_EQ(opened.type, MsgType::kOpened) << opened.text;
    EXPECT_TRUE(opened.resumed);
    EXPECT_EQ(opened.evals, 5u);  // told before the reply
    EXPECT_EQ(drive_session(sm, name, 1), static_cast<std::uint64_t>(kBudget));

    std::optional<CheckpointData> via_session = load_checkpoint(path);
    ASSERT_TRUE(via_session.has_value());
    EXPECT_TRUE(via_session->pending.empty());
    EXPECT_TRUE(histories_equal(via_study, via_session->history));
    std::remove(path.c_str());
}

TEST(ServeSession, ResumeWithWrongSeedIsRejected)
{
    std::string dir = testing::TempDir();
    SessionManagerOptions opt;
    opt.checkpoint_dir = dir;
    std::string name = "seeded";
    {
        SessionManager sm(opt);
        ASSERT_EQ(sm.handle(open_request(name, "Uniform", 8, 5)).type,
                  MsgType::kOpened);
        drive_session(sm, name, 2, 4);
    }
    SessionManager sm(opt);
    Message wrong = sm.handle(open_request(name, "Uniform", 8, 6, true));
    EXPECT_EQ(wrong.type, MsgType::kError);
    Message right = sm.handle(open_request(name, "Uniform", 8, 5, true));
    ASSERT_EQ(right.type, MsgType::kOpened) << right.text;
    EXPECT_TRUE(right.resumed);
    std::remove(sm.checkpoint_path(name).c_str());
}

TEST(ServeSession, ReopenIsRefusedUntilTheCloseCompletes)
{
    // A close waits for the run holding its session, and the name stays
    // taken until the close is done: a re-open in between would put a
    // second study on the same checkpoint file.
    SessionManagerOptions opt;
    opt.checkpoint_dir = testing::TempDir();
    SessionManager sm(opt);
    const std::string name = "close-race";
    std::remove(sm.checkpoint_path(name).c_str());
    ASSERT_EQ(sm.handle(open_request(name, "Uniform", 10, 3)).type,
              MsgType::kOpened);
    drive_session(sm, name, 2, 4);

    std::promise<void> holding;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::thread run([&] {
        EXPECT_TRUE(sm.with_study(name, [&](Study&) {
            holding.set_value();
            released.wait();
        }));
    });
    holding.get_future().wait();
    Message close;
    close.type = MsgType::kClose;
    close.session = name;
    std::atomic<bool> closed{false};
    Message closed_reply;
    std::thread closer([&] {
        closed_reply = sm.handle(close);
        closed.store(true);
    });
    // Time for the close to reach the session, which the run holds.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Message reopen =
        sm.handle(open_request(name, "Uniform", 10, 3, /*resume=*/true));
    EXPECT_EQ(reopen.type, MsgType::kError) << reopen.text;
    EXPECT_FALSE(closed.load());

    release.set_value();
    run.join();
    closer.join();
    ASSERT_EQ(closed_reply.type, MsgType::kOk) << closed_reply.text;
    EXPECT_EQ(closed_reply.evals, 4u);
    Message again =
        sm.handle(open_request(name, "Uniform", 10, 3, /*resume=*/true));
    ASSERT_EQ(again.type, MsgType::kOpened) << again.text;
    EXPECT_TRUE(again.resumed);
    EXPECT_EQ(again.evals, 4u);
    std::remove(sm.checkpoint_path(name).c_str());
}

TEST(ServeSession, ClosingASpilledSessionReportsItsSpilledProgress)
{
    // The spill metadata carries evals and best, so closing a spilled
    // session reads no checkpoint: the reply holds even with the file
    // gone.
    SessionManagerOptions opt;
    opt.checkpoint_dir = testing::TempDir();
    opt.max_live_sessions = 1;
    SessionManager sm(opt);
    const std::string older = "spill-close-a";
    const std::string newer = "spill-close-b";
    ASSERT_EQ(sm.handle(open_request(older, "Uniform", 10, 5)).type,
              MsgType::kOpened);
    drive_session(sm, older, 2, 4);
    const double best = sm.info(older)->best;
    ASSERT_EQ(sm.handle(open_request(newer, "Uniform", 10, 6)).type,
              MsgType::kOpened);
    ASSERT_EQ(sm.spilled_sessions(), 1u);
    ASSERT_EQ(std::remove(sm.checkpoint_path(older).c_str()), 0);

    Message close;
    close.type = MsgType::kClose;
    close.session = older;
    Message reply = sm.handle(close);
    ASSERT_EQ(reply.type, MsgType::kOk) << reply.text;
    EXPECT_EQ(reply.evals, 4u);
    EXPECT_EQ(reply.best, best);
    EXPECT_EQ(sm.spilled_sessions(), 0u);
    std::remove(sm.checkpoint_path(newer).c_str());
}

TEST(ServeSession, IdleSessionsAreEvicted)
{
    SessionManagerOptions opt;
    opt.idle_timeout_seconds = 1e-9;  // everything is instantly idle
    SessionManager sm(opt);
    ASSERT_EQ(sm.handle(open_request("a", "Uniform", 8, 1)).type,
              MsgType::kOpened);
    ASSERT_EQ(sm.handle(open_request("b", "Uniform", 8, 2)).type,
              MsgType::kOpened);
    EXPECT_EQ(sm.size(), 2u);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(sm.evict_idle(), 2u);
    EXPECT_EQ(sm.size(), 0u);

    // A never-idle manager keeps its sessions.
    SessionManager keep;
    ASSERT_EQ(keep.handle(open_request("a", "Uniform", 8, 1)).type,
              MsgType::kOpened);
    EXPECT_EQ(keep.evict_idle(), 0u);
    EXPECT_EQ(keep.size(), 1u);
}

TEST(ServeSession, CheckpointRequestRefusesMidBatch)
{
    SessionManagerOptions opt;
    opt.checkpoint_dir = testing::TempDir();
    SessionManager sm(opt);
    ASSERT_EQ(sm.handle(open_request("mid", "Uniform", 8, 9)).type,
              MsgType::kOpened);

    Message ckpt;
    ckpt.type = MsgType::kCheckpoint;
    ckpt.session = "mid";
    EXPECT_EQ(sm.handle(ckpt).type, MsgType::kOk);

    Message ask;
    ask.type = MsgType::kSuggest;
    ask.session = "mid";
    ask.n = 2;
    ASSERT_EQ(sm.handle(ask).type, MsgType::kConfigs);
    // With a batch in flight the sampler stream is ahead of the history;
    // checkpointing now could not resume deterministically.
    EXPECT_EQ(sm.handle(ckpt).type, MsgType::kError);
    std::remove(sm.checkpoint_path("mid").c_str());
}

TEST(ServeSession, SharedCacheIsNamespacedPerSession)
{
    // Two sessions over different benchmarks share one cache: entries do
    // not collide, and a same-benchmark rerun hits.
    EvalCache cache;
    SessionManagerOptions opt;
    opt.cache = &cache;
    SessionManager sm(opt);
    ASSERT_EQ(sm.handle(open_request("c1", "Uniform", 6, 3)).type,
              MsgType::kOpened);
    drive_session(sm, "c1", 2);
    std::size_t after_first = cache.size();
    EXPECT_EQ(after_first, 6u);

    // Same seed + benchmark under a new session name: the observe path
    // re-inserts into the same namespace — no growth.
    ASSERT_EQ(sm.handle(open_request("c2", "Uniform", 6, 3)).type,
              MsgType::kOpened);
    drive_session(sm, "c2", 2);
    EXPECT_EQ(cache.size(), after_first);
}

TEST(ServeSession, FailedCheckpointWriteIsReportedAndTheBatchIsDone)
{
    // The checkpoint directory's parent does not exist, so the manager
    // cannot create it and every write fails. (A permission-denied
    // directory would not do: root ignores permission bits.)
    SessionManagerOptions opt;
    opt.checkpoint_dir = testing::TempDir() + "baco_no_such_parent/ckpts";
    SessionManager sm(opt);
    ASSERT_EQ(sm.handle(open_request("lost", "Uniform", 10, 3)).type,
              MsgType::kOpened);

    Message ask;
    ask.type = MsgType::kSuggest;
    ask.session = "lost";
    ask.n = 2;
    Message batch = sm.handle(ask);
    ASSERT_EQ(batch.type, MsgType::kConfigs) << batch.text;
    ASSERT_EQ(batch.configs.size(), 2u);

    Message reply = sm.handle(observe_request("lost", batch, 3));
    ASSERT_EQ(reply.type, MsgType::kError);
    EXPECT_NE(reply.text.find("results recorded but checkpoint write "
                              "failed: " + sm.checkpoint_path("lost")),
              std::string::npos)
        << reply.text;
    // The results are observed, and the batch is no longer outstanding:
    // the next suggest deals a fresh batch instead of re-sending it.
    EXPECT_EQ(sm.info("lost")->evals, 2u);
    Message next = sm.handle(ask);
    ASSERT_EQ(next.type, MsgType::kConfigs) << next.text;
    EXPECT_EQ(next.index, 2u);
    EXPECT_EQ(next.configs.size(), 2u);
}

TEST(ServeSession, ObserveRejectsNonFiniteFeasibleValuesAndEvalSeconds)
{
    SessionManager sm;
    ASSERT_EQ(sm.handle(open_request("nan", "BaCO", 10, 4)).type,
              MsgType::kOpened);
    Message ask;
    ask.type = MsgType::kSuggest;
    ask.session = "nan";
    ask.n = 2;
    Message batch = sm.handle(ask);
    ASSERT_EQ(batch.type, MsgType::kConfigs) << batch.text;
    const Message valid = observe_request("nan", batch, 4);

    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<Message> malformed;
    for (double v : {nan, inf, -inf}) {
        Message m = valid;
        m.results[1].value = v;
        m.results[1].feasible = true;
        malformed.push_back(m);
    }
    for (double seconds : {-1.0, nan, inf}) {
        Message m = valid;
        m.eval_seconds = seconds;
        malformed.push_back(m);
    }
    // Each goes through the wire codec, as a remote client sends it, and
    // is refused without touching the history or the outstanding batch.
    for (const Message& m : malformed) {
        Message decoded;
        ASSERT_TRUE(decode(encode(m), decoded)) << encode(m);
        Message reply = sm.handle(decoded);
        EXPECT_EQ(reply.type, MsgType::kError) << encode(m);
        EXPECT_EQ(sm.info("nan")->evals, 0u);
    }

    // An infeasible result may carry any value; the batch is still the
    // outstanding one, so this observe of it succeeds.
    Message ok_frame = valid;
    ok_frame.results[0].feasible = false;
    ok_frame.results[0].value = nan;
    ok_frame.eval_seconds = 0.25;
    Message decoded;
    ASSERT_TRUE(decode(encode(ok_frame), decoded));
    Message ok = sm.handle(decoded);
    ASSERT_EQ(ok.type, MsgType::kOk) << ok.text;
    EXPECT_EQ(ok.evals, 2u);
}

TEST(ServeConnection, HandshakeAndMalformedFrames)
{
    SessionManager sm;
    ServerContext ctx;
    ctx.sessions = &sm;

    // Version mismatch: rejected at the handshake.
    {
        auto [client, server] = loopback_pair();
        std::thread srv([&, s = std::shared_ptr<Transport>(
                                std::move(server))] {
            ServeStats stats = serve_connection(*s, ctx);
            EXPECT_FALSE(stats.handshake_ok);
        });
        Message hello;
        hello.type = MsgType::kHello;
        hello.version = kProtocolVersion + 1;
        ASSERT_TRUE(client->send(encode(hello)));
        std::string line;
        ASSERT_EQ(client->recv(line, 2000), RecvStatus::kOk);
        Message reply;
        ASSERT_TRUE(decode(line, reply));
        EXPECT_EQ(reply.type, MsgType::kError);
        EXPECT_NE(reply.text.find("version"), std::string::npos);
        srv.join();
    }

    // Good handshake; then malformed frames get error replies and the
    // connection keeps serving real requests.
    {
        auto [client, server] = loopback_pair();
        std::thread srv([&, s = std::shared_ptr<Transport>(
                                std::move(server))] {
            ServeStats stats = serve_connection(*s, ctx);
            EXPECT_TRUE(stats.handshake_ok);
            EXPECT_GE(stats.errors, 2u);
        });
        Message hello;
        hello.type = MsgType::kHello;
        ASSERT_TRUE(client->send(encode(hello)));
        std::string line;
        ASSERT_EQ(client->recv(line, 2000), RecvStatus::kOk);
        Message reply;
        ASSERT_TRUE(decode(line, reply));
        ASSERT_EQ(reply.type, MsgType::kWelcome);

        ASSERT_TRUE(client->send("garbage frame"));
        ASSERT_EQ(client->recv(line, 2000), RecvStatus::kOk);
        ASSERT_TRUE(decode(line, reply));
        EXPECT_EQ(reply.type, MsgType::kError);

        ASSERT_TRUE(client->send("{\"type\":\"martian\"}"));
        ASSERT_EQ(client->recv(line, 2000), RecvStatus::kOk);
        ASSERT_TRUE(decode(line, reply));
        EXPECT_EQ(reply.type, MsgType::kError);

        ASSERT_TRUE(client->send(encode(open_request("ok", "Uniform",
                                                     6, 1))));
        ASSERT_EQ(client->recv(line, 2000), RecvStatus::kOk);
        ASSERT_TRUE(decode(line, reply));
        EXPECT_EQ(reply.type, MsgType::kOpened);

        Message bye;
        bye.type = MsgType::kShutdown;
        ASSERT_TRUE(client->send(encode(bye)));
        srv.join();
    }
}

TEST(ServeConnection, ServerSideRunCompletesSession)
{
    SessionManager sm;
    ServerContext ctx;
    ctx.sessions = &sm;

    auto [client, server] = loopback_pair();
    std::thread srv(
        [&, s = std::shared_ptr<Transport>(std::move(server))] {
            serve_connection(*s, ctx);
        });

    Message hello;
    hello.type = MsgType::kHello;
    ASSERT_TRUE(client->send(encode(hello)));
    std::string line;
    ASSERT_EQ(client->recv(line, 2000), RecvStatus::kOk);

    ASSERT_TRUE(client->send(encode(open_request("run-me", "Uniform",
                                                 10, 21))));
    ASSERT_EQ(client->recv(line, 5000), RecvStatus::kOk);
    Message reply;
    ASSERT_TRUE(decode(line, reply));
    ASSERT_EQ(reply.type, MsgType::kOpened) << reply.text;

    Message run;
    run.type = MsgType::kRun;
    run.id = 2;
    run.session = "run-me";
    run.n = 4;
    ASSERT_TRUE(client->send(encode(run)));
    ASSERT_EQ(client->recv(line, 30000), RecvStatus::kOk);
    ASSERT_TRUE(decode(line, reply));
    ASSERT_EQ(reply.type, MsgType::kDone) << reply.text;
    EXPECT_EQ(reply.evals, 10u);

    // In-process evaluation in handle_run matches the batched run.
    const Benchmark& bench = suite::find_benchmark(kBench);
    TuningHistory reference = reference_run(bench, "Uniform", 10, 21, 4);
    EXPECT_EQ(reply.best, reference.best_value);

    Message bye;
    bye.type = MsgType::kShutdown;
    ASSERT_TRUE(client->send(encode(bye)));
    srv.join();
}

TEST(ServeConnection, AsyncRunStreamsResultFramesBeforeDone)
{
    SessionManager sm;
    ServerContext ctx;
    ctx.sessions = &sm;

    auto [client, server] = loopback_pair();
    std::thread srv(
        [&, s = std::shared_ptr<Transport>(std::move(server))] {
            serve_connection(*s, ctx);
        });

    Message hello;
    hello.type = MsgType::kHello;
    ASSERT_TRUE(client->send(encode(hello)));
    std::string line;
    ASSERT_EQ(client->recv(line, 2000), RecvStatus::kOk);

    const int budget = 10;
    ASSERT_TRUE(client->send(encode(open_request("stream-me", "Uniform",
                                                 budget, 29))));
    ASSERT_EQ(client->recv(line, 5000), RecvStatus::kOk);
    Message reply;
    ASSERT_TRUE(decode(line, reply));
    ASSERT_EQ(reply.type, MsgType::kOpened) << reply.text;

    Message run;
    run.type = MsgType::kRun;
    run.id = 7;
    run.session = "stream-me";
    run.n = 3;
    run.async = true;
    ASSERT_TRUE(client->send(encode(run)));

    // One streamed result frame per evaluation, then the final done.
    int results = 0;
    std::uint64_t max_evals_seen = 0;
    std::set<std::uint64_t> indices;
    for (;;) {
        ASSERT_EQ(client->recv(line, 30000), RecvStatus::kOk);
        ASSERT_TRUE(decode(line, reply)) << line;
        if (reply.type == MsgType::kDone)
            break;
        ASSERT_EQ(reply.type, MsgType::kResult) << reply.text;
        EXPECT_EQ(reply.id, 7u);
        indices.insert(reply.index);
        max_evals_seen = std::max(max_evals_seen, reply.evals);
        ++results;
    }
    EXPECT_EQ(results, budget);
    EXPECT_EQ(indices.size(), static_cast<std::size_t>(budget));
    EXPECT_EQ(max_evals_seen, static_cast<std::uint64_t>(budget));
    EXPECT_EQ(reply.evals, static_cast<std::uint64_t>(budget));

    // Session is intact and exhausted: a follow-up suggest returns an
    // empty batch, not an error.
    Message ask;
    ask.type = MsgType::kSuggest;
    ask.id = 8;
    ask.session = "stream-me";
    ask.n = 2;
    ASSERT_TRUE(client->send(encode(ask)));
    ASSERT_EQ(client->recv(line, 5000), RecvStatus::kOk);
    ASSERT_TRUE(decode(line, reply));
    EXPECT_EQ(reply.type, MsgType::kConfigs) << reply.text;
    EXPECT_TRUE(reply.configs.empty());

    Message bye;
    bye.type = MsgType::kShutdown;
    ASSERT_TRUE(client->send(encode(bye)));
    srv.join();
}

TEST(ServeConnection, SyncRunCheckpointHoldsTheBarrierLoopHistory)
{
    // A sync run is barrier rounds of n told through drive()'s tell
    // step: the session checkpoint it leaves holds the reference barrier
    // loop's history bit for bit, evaluated in-process and on a fleet of
    // two loopback workers.
    const Benchmark& bench = suite::find_benchmark(kBench);
    const TuningHistory reference = reference_run(bench, "BaCO", 16, 21, 4);
    for (int workers : {0, 2}) {
        SCOPED_TRACE(workers);
        SessionManagerOptions opt;
        opt.checkpoint_dir = testing::TempDir();
        SessionManager sm(opt);
        Coordinator coordinator;
        std::vector<std::thread> threads =
            attach_loopback_workers(coordinator, workers);
        ServerContext ctx;
        ctx.sessions = &sm;
        ctx.coordinator = &coordinator;
        const std::string name = "sync-ckpt-" + std::to_string(workers);
        {
            LoopbackConnection conn(ctx);
            ASSERT_EQ(conn.client().open(name, kBench, "BaCO", 16, 21).type,
                      MsgType::kOpened);
            Message done = conn.client().rpc(run_request(name, 4));
            ASSERT_EQ(done.type, MsgType::kDone) << done.text;
            EXPECT_EQ(done.evals, 16u);
            EXPECT_EQ(done.best, reference.best_value);
        }
        std::optional<CheckpointData> data =
            load_checkpoint(sm.checkpoint_path(name));
        ASSERT_TRUE(data.has_value());
        EXPECT_TRUE(histories_equal(reference, data->history));
        EXPECT_TRUE(data->pending.empty());
        std::remove(sm.checkpoint_path(name).c_str());
        coordinator.shutdown();
        for (std::thread& t : threads)
            t.join();
    }
}

TEST(ServeConnection, RunTellsExactlyItsEvalCap)
{
    // A run frame's budget caps the evaluations it tells, also when the
    // cap is not a multiple of n.
    SessionManager sm;
    ServerContext ctx;
    ctx.sessions = &sm;
    LoopbackConnection conn(ctx);
    for (bool async : {false, true}) {
        const std::string name = async ? "cap-async" : "cap-sync";
        ASSERT_EQ(conn.client().open(name, kBench, "Uniform", 20, 5).type,
                  MsgType::kOpened);
        Message done = conn.client().rpc(run_request(name, 4, 5, async));
        ASSERT_EQ(done.type, MsgType::kDone) << done.text;
        EXPECT_EQ(done.evals, 5u);
        EXPECT_EQ(sm.info(name)->evals, 5u);
    }
}

TEST(ServeConnection, RunRefusesASessionWithAnOutstandingBatch)
{
    // A run may not interleave with a frame-level exchange: with a
    // suggested batch outstanding, sync and async runs are refused, and
    // the batch is left to its observe.
    SessionManager sm;
    ServerContext ctx;
    ctx.sessions = &sm;
    LoopbackConnection conn(ctx);
    SessionClient& client = conn.client();
    ASSERT_EQ(client.open("busy", kBench, "Uniform", 10, 9).type,
              MsgType::kOpened);
    Message batch = client.suggest("busy", 3);
    ASSERT_EQ(batch.type, MsgType::kConfigs) << batch.text;
    ASSERT_EQ(batch.configs.size(), 3u);

    for (bool async : {false, true}) {
        Message refused = client.rpc(run_request("busy", 2, 0, async));
        ASSERT_EQ(refused.type, MsgType::kError);
        EXPECT_NE(refused.text.find("outstanding"), std::string::npos)
            << refused.text;
    }
    EXPECT_EQ(sm.info("busy")->evals, 0u);

    Message ok = client.rpc(observe_request("busy", batch, 9));
    ASSERT_EQ(ok.type, MsgType::kOk) << ok.text;
    EXPECT_EQ(ok.evals, 3u);
    Message done = client.rpc(run_request("busy", 2));
    ASSERT_EQ(done.type, MsgType::kDone) << done.text;
    EXPECT_EQ(done.evals, 10u);
}

/**
 * The server's end of a connection whose client vanishes once it has
 * been sent `results` result frames: every later send fails.
 */
class VanishingClient : public Transport {
 public:
  VanishingClient(std::unique_ptr<Transport> inner, int results)
      : inner_(std::move(inner)), results_left_(results)
  {
  }

  bool
  send(const std::string& line) override
  {
      Message m;
      if (decode(line, m) && m.type == MsgType::kResult &&
          results_left_-- <= 0)
          gone_ = true;
      return !gone_ && inner_->send(line);
  }

  RecvStatus
  recv(std::string& line, int timeout_ms) override
  {
      return inner_->recv(line, timeout_ms);
  }

  void
  close() override
  {
      inner_->close();
  }

 private:
  std::unique_ptr<Transport> inner_;
  int results_left_;
  bool gone_ = false;
};

TEST(ServeConnection, AbortedAsyncRunTellsItsInFlightWorkOnce)
{
    // An async run whose client vanishes stops with work in flight, which
    // its last checkpoint lists as pending. With a checkpoint directory
    // the session must resume from that checkpoint, telling the work once
    // under its own indices, so its history is the one a Study resumed
    // from the same checkpoint produces. Without one the live session
    // keeps what it told.
    const int kBudget = 20;
    const std::uint64_t kSeed = 9;
    const std::string name = "aborted-run";
    for (bool durable : {true, false}) {
        SCOPED_TRACE(durable);
        SessionManagerOptions opt;
        if (durable)
            opt.checkpoint_dir = testing::TempDir();
        SessionManager sm(opt);
        ServerContext ctx;
        ctx.sessions = &sm;
        const std::string path = sm.checkpoint_path(name);
        if (durable)
            std::remove(path.c_str());

        auto [client, server] = loopback_pair();
        Message hello;
        hello.type = MsgType::kHello;
        for (const Message& m :
             {hello, open_request(name, "random", kBudget, kSeed),
              run_request(name, 4, 0, /*async=*/true)})
            ASSERT_TRUE(client->send(encode(m)));
        VanishingClient vanishing(std::move(server), /*results=*/5);
        serve_connection(vanishing, ctx);  // ends at the failed send

        if (!durable) {
            EXPECT_EQ(sm.info(name)->evals, 6u);
            continue;
        }
        std::optional<CheckpointData> at_abort = load_checkpoint(path);
        ASSERT_TRUE(at_abort.has_value());
        EXPECT_EQ(at_abort->history.size(), 6u);
        EXPECT_EQ(at_abort->pending.size(), 3u);
        const std::string copy = path + ".at-abort";
        std::filesystem::copy_file(
            path, copy, std::filesystem::copy_options::overwrite_existing);

        EXPECT_EQ(drive_session(sm, name, 1),
                  static_cast<std::uint64_t>(kBudget));
        std::optional<CheckpointData> final_state = load_checkpoint(path);
        ASSERT_TRUE(final_state.has_value());
        TuningHistory via_study = StudyBuilder()
                                      .benchmark(kBench)
                                      .method("random")
                                      .budget(kBudget)
                                      .seed(kSeed)
                                      .checkpoint(copy, /*resume=*/true)
                                      .build()
                                      .run()
                                      .history;
        EXPECT_TRUE(histories_equal(via_study, final_state->history));
        const std::vector<Observation>& told =
            final_state->history.observations;
        for (const PendingEval& p : at_abort->pending) {
            ASSERT_LT(p.index, told.size());
            EXPECT_TRUE(configs_equal(told[p.index].config, p.config))
                << "index " << p.index;
            EXPECT_EQ(std::count_if(told.begin(), told.end(),
                                    [&](const Observation& o) {
                                        return configs_equal(o.config,
                                                             p.config);
                                    }),
                      1)
                << "index " << p.index;
        }
        std::remove(path.c_str());
        std::remove(copy.c_str());
    }
}

TEST(ServeConnection, RefusedRunLeavesAFreshSessionFresh)
{
    // A run refused before it tells anything still drops the live study
    // (a checkpoint directory is set), so the next request reloads the
    // session from its checkpoint file. A session opened without resume
    // owns that file from its open: the file an earlier session of the
    // same name left must not become its history.
    const std::string name = "fresh-over-stale";
    SessionManagerOptions opt;
    opt.checkpoint_dir = testing::TempDir();
    SessionManager sm(opt);
    CoordinatorOptions copt;
    copt.max_active_runs = 1;
    Coordinator coordinator(copt);
    std::vector<std::thread> workers = attach_loopback_workers(coordinator, 1);
    ServerContext ctx;
    ctx.sessions = &sm;
    ctx.coordinator = &coordinator;
    {
        LoopbackConnection conn(ctx);
        SessionClient& client = conn.client();
        ASSERT_EQ(client.open(name, kBench, "Uniform", 10, 3).type,
                  MsgType::kOpened);
        ASSERT_EQ(client.rpc(run_request(name, 2, 4)).evals, 4u);
        ASSERT_EQ(client.close(name).type, MsgType::kOk);

        ASSERT_EQ(client.open(name, kBench, "Uniform", 10, 3).type,
                  MsgType::kOpened);
        {
            Coordinator::RunLease occupant = coordinator.begin_run();
            Message refused = client.rpc(run_request(name, 2));
            ASSERT_EQ(refused.type, MsgType::kError) << refused.text;
            EXPECT_EQ(refused.code, "busy");
        }
        EXPECT_EQ(sm.info(name)->evals, 0u);
        Message done = client.rpc(run_request(name, 2));
        ASSERT_EQ(done.type, MsgType::kDone) << done.text;
        EXPECT_EQ(done.evals, 10u);
    }
    coordinator.shutdown();
    for (std::thread& t : workers)
        t.join();
    std::remove(sm.checkpoint_path(name).c_str());
}

const StatEntry*
find_stat(const Message& report, const std::string& name)
{
    for (const StatEntry& e : report.stats)
        if (e.name == name)
            return &e;
    return nullptr;
}

TEST(ServeSession, SessionStatsReportsLatencyHistograms)
{
    SessionManager sm;
    Message opened = sm.handle(open_request("obs-me", "Uniform", 20, 5));
    ASSERT_EQ(opened.type, MsgType::kOpened) << opened.text;

    const int kBatches = 4;
    drive_session(sm, "obs-me", /*batch=*/3, /*max_evals=*/3 * kBatches);

    Message req;
    req.type = MsgType::kStats;
    req.id = 9;
    req.session = "obs-me";
    Message report = sm.handle(req);
    ASSERT_EQ(report.type, MsgType::kStatsReport) << report.text;
    EXPECT_EQ(report.stats_version, kStatsVersion);

    const StatEntry* evals = find_stat(report, "session.evals");
    ASSERT_NE(evals, nullptr);
    EXPECT_DOUBLE_EQ(evals->value, 12.0);

    // drive_session issues one suggest + one observe per batch; the
    // per-session histograms must have counted each with a nonzero
    // latency and ordered percentiles.
    for (const char* name :
         {"session.suggest_seconds", "session.observe_seconds"}) {
        const StatEntry* h = find_stat(report, name);
        ASSERT_NE(h, nullptr) << name;
        EXPECT_EQ(h->kind, "histogram") << name;
        EXPECT_EQ(h->count, static_cast<std::uint64_t>(kBatches)) << name;
        EXPECT_GT(h->sum, 0.0) << name;
        EXPECT_GT(h->p50, 0.0) << name;
        EXPECT_LE(h->p50, h->p99) << name;
    }

    // Unknown session: an error frame, exactly like other handlers.
    req.session = "never-opened";
    Message err = sm.handle(req);
    EXPECT_EQ(err.type, MsgType::kError);
}

TEST(ServeConnection, ServerStatsFrameMatchesClientRequestCounts)
{
    SessionManager sm;
    ServerContext ctx;
    ctx.sessions = &sm;

    auto [client_t, server] = loopback_pair();
    std::thread srv(
        [&, s = std::shared_ptr<Transport>(std::move(server))] {
            serve_connection(*s, ctx);
        });
    SessionClient client(*client_t);
    ASSERT_TRUE(client.handshake());

    // Baseline: serve.requests_total is a process-global counter (other
    // tests in this binary feed it too), so the pin is the DELTA
    // between two stats frames issued by this client.
    Message before = client.stats();
    ASSERT_EQ(before.type, MsgType::kStatsReport) << before.text;
    const StatEntry* req0 = find_stat(before, "serve.requests_total");
    ASSERT_NE(req0, nullptr);

    Message opened = client.open("count-me", kBench, "Uniform",
                                 /*budget=*/12, /*seed=*/3);
    ASSERT_EQ(opened.type, MsgType::kOpened) << opened.text;
    const int kSuggests = 3;
    std::uint64_t client_requests = 1;  // the open
    for (int i = 0; i < kSuggests; ++i) {
        Message configs = client.suggest("count-me", 2);
        ASSERT_EQ(configs.type, MsgType::kConfigs) << configs.text;
        ++client_requests;
        std::vector<ObservedResult> results;
        for (std::size_t k = 0; k < configs.configs.size(); ++k) {
            ObservedResult r;
            r.config = configs.configs[k];
            r.value = 1.0 + static_cast<double>(k);
            r.feasible = true;
            results.push_back(r);
        }
        Message ok = client.observe("count-me", std::move(results));
        ASSERT_EQ(ok.type, MsgType::kOk) << ok.text;
        ++client_requests;
    }

    Message after = client.stats();
    ASSERT_EQ(after.type, MsgType::kStatsReport) << after.text;
    const StatEntry* req1 = find_stat(after, "serve.requests_total");
    ASSERT_NE(req1, nullptr);

    // Every frame this client sent since the baseline — the opens,
    // suggests, observes, and the second stats request itself — must be
    // in the server's live counter: totals equal client-side counts.
    EXPECT_DOUBLE_EQ(req1->value - req0->value,
                     static_cast<double>(client_requests + 1));

    // The server-wide report also carries the session registry gauges
    // and the aggregate serve-layer latency histograms.
    const StatEntry* live = find_stat(after, "sessions.live");
    ASSERT_NE(live, nullptr);
    EXPECT_GE(live->value, 1.0);
    const StatEntry* suggest_h = find_stat(after, "serve.suggest_seconds");
    ASSERT_NE(suggest_h, nullptr);
    EXPECT_GE(suggest_h->count, static_cast<std::uint64_t>(kSuggests));

    // Named-session stats over the wire: the per-session histograms
    // report exactly this client's suggest/observe traffic.
    Message session_report = client.stats("count-me");
    ASSERT_EQ(session_report.type, MsgType::kStatsReport)
        << session_report.text;
    const StatEntry* sh = find_stat(session_report,
                                    "session.suggest_seconds");
    ASSERT_NE(sh, nullptr);
    EXPECT_EQ(sh->count, static_cast<std::uint64_t>(kSuggests));
    EXPECT_GT(sh->p50, 0.0);
    EXPECT_LE(sh->p50, sh->p99);

    Message bye;
    bye.type = MsgType::kShutdown;
    ASSERT_TRUE(client_t->send(encode(bye)));
    srv.join();
}

}  // namespace
}  // namespace baco::serve
