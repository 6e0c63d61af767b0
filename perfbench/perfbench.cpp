// perfbench: the seeded, closed-loop end-to-end benchmark of the BaCO
// stack, with per-layer attribution measured from outside the library.
//
// Every workload is a closed loop (the evaluating side waits for its next
// configuration before it evaluates again) driven through a public entry
// point, and is bit-for-bit reproducible from --seed: the seed picks the
// benchmarks and the study/session seeds, so the library only ever sees
// the generated inputs.
//
// Workloads, with the shares a prototype measured on a 4-vCPU sandbox and
// the pairs predicted to show no change:
//
//   paper-serial   BaCO through Study::run with ExecutionPolicy::Serial,
//                  one thread pinned to one CPU (see pin_to_one_cpu),
//                  Table 3 full budgets: the paper's workflow. Each pass
//                  tunes 9 registry benchmarks, one per stratum: RISE
//                  MM_GPU (the longest budget, 120); one TACO
//                  benchmark of each kernel (SpMM, SDDMM, MTTKRP, TTV,
//                  SpMV); one RISE benchmark of budget 100 and one of
//                  budget 60; one HPVM2FPGA benchmark. Every pass covers
//                  all three substrates and both known and hidden
//                  constraints, and consecutive passes rotate through each
//                  stratum from a seeded offset. The tuner is the whole
//                  cost: Tuner::suggest 99.8% (acquisition ~60%, GP fit
//                  ~37%, RF feasibility ~2%), the objective 0.04%.
//                  Serve, coordinator and checkpoint code never run, so
//                  changes there must not move any metric here.
//   serve-ckpt     An in-process serve::Acceptor on a Unix socket whose
//                  SessionManager checkpoints every observe (as
//                  `baco_serve --listen ... --checkpoint-dir` does) into a
//                  tmpfs. Three client connections, one thread each,
//                  round-robin three `random` sessions each on
//                  SDDMM/email-Enron for 800 evaluations at batch 1,
//                  evaluating client-side. With a sampler the surrogate
//                  costs almost nothing, so the serving path does the
//                  work: the whole-checkpoint rewrite on every observe was
//                  ~99% of SessionManager observe time and ~90% of client
//                  turnaround, and long sessions let its O(n) growth show.
//                  Acquisition, GP and RF changes must not move any metric
//                  here (core.acquisition_ms and gp.* read 0).
//   fleet-dispatch A long-lived serve::Coordinator with 4 baco_worker
//                  child processes spawned once at set-up (as `baco_serve
//                  --workers 4 --worker-cmd baco_worker` does), all pinned
//                  to one CPU, driving `random` studies of 4000
//                  evaluations through
//                  ExecutionPolicy::Attached(&coordinator, 4): synchronous
//                  sharded rounds of 4, one study per registry benchmark
//                  in a seeded order. Framing, pipes, dispatch and worker
//                  round trips do the work, so drive-loop and coordinator
//                  changes show here; on one CPU it measures their CPU
//                  cost, not how well they overlap. Acquisition, GP, RF
//                  and checkpoint changes must not move any metric here.
//
// Run length. paper-serial runs round(--seconds / 8 s) passes: its passes
// differ in make-up, so its timing is pooled over the run, whose make-up
// must not depend on the machine's speed. serve-ckpt and fleet-dispatch
// repeat passes (fleet-dispatch: studies) until --seconds of measurement
// have passed; their passes are alike, so rates and turnaround
// percentiles are taken per pass and reported as the median over passes,
// and a burst of load from the machine's other tenants moves a few passes
// rather than the result. Their first passes (the prefix, opened or built
// during set-up) always run, and quality, expert_reached and the named
// counts come from the prefix alone, so every run with one seed reports
// them identically whatever the machine's speed.
//
// End-to-end metrics (untraced run): evals_per_s, turnaround_p50_ms and
// turnaround_p95_ms (the evaluating side's wait between handing back a
// result and holding its next configuration — paper-serial: the gap
// between objective calls; serve-ckpt: the observe RPC plus the next
// suggest RPC; fleet-dispatch: the gap between consecutive rounds' event
// bursts, once per evaluation), quality_vs_expert (geometric mean over
// studies of reference_cost / true_cost(incumbent), noise-free),
// expert_reached (share of studies that evaluated a feasible
// configuration whose noise-free cost is at or below reference_cost),
// setup_s (process start until the first configuration is requested) and
// peak_rss_mb.
//
// With --trace the run also records spans (name, start, end, parent,
// study/session group) around each call the benchmark makes into a
// layer, snapshots obs::MetricsRegistry::global() around the measured
// phase, derives the per-layer metrics, reconciles the layer times
// against the measured wall time, and writes the spans out (JSONL) at
// exit. The per-layer values are per evaluation unless they are counts
// or set-up times.
//
// Every output is checked: each study/session consumes exactly its
// budget, every configuration satisfies its space's known constraints,
// every recorded value equals an independent serve::evaluate_on()
// recomputation, no error frame / worker error / straggler re-dispatch
// occurs, and each serve-ckpt session's final checkpoint reads back
// (load_checkpoint) with exactly the history its client observed.
//
// Usage: perfbench --workload NAME --seed N --seconds S
//                  [--worker PATH] [--trace] [--spans PATH] [--setup-only]
//        perfbench --calibrate
//
// perfbench/run.py builds this and prints the metrics; run that instead.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/mount.h>
#include <sys/stat.h>

#include "api/baco.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/coordinator.hpp"
#include "serve/server.hpp"
#include "serve/session_manager.hpp"
#include "serve/transport.hpp"
#include "serve/worker.hpp"
#include "suite/registry.hpp"

using namespace baco;

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kCkptBenchmark = "SDDMM/email-Enron";
constexpr int kCkptClients = 3;
constexpr int kCkptSessionsPerClient = 3;
constexpr int kCkptBudget = 800;
constexpr int kFleetWorkers = 4;
constexpr int kFleetBudget = 4000;

double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** SplitMix64 finalizer: the seed -> input derivation. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0)
{
    return mix(mix(mix(seed) ^ a) ^ b);
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Exact quantile (sorted copy, linear interpolation). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

bool
same_value(double a, double b)
{
    return a == b || (std::isnan(a) && std::isnan(b));
}

// ---------------------------------------------------------------------------
// Spans: recorded in memory only with --trace, written out at exit.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  explicit SpanLog(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin)
  {
  }

  bool enabled() const { return enabled_; }

  /** Record a finished span; returns its id (0 when tracing is off). */
  std::uint64_t
  add(const char* name, std::uint64_t parent, std::uint64_t group,
      Clock::time_point start, Clock::time_point end)
  {
      if (!enabled_)
          return 0;
      std::lock_guard<std::mutex> lock(mu_);
      spans_.push_back(Span{name, next_id_, parent, group,
                            ms_between(origin_, start),
                            ms_between(origin_, end)});
      return next_id_++;
  }

  /** Summed duration (ms) of every span with this name. */
  double
  total_ms(const char* name) const
  {
      std::lock_guard<std::mutex> lock(mu_);
      double sum = 0.0;
      for (const Span& s : spans_) {
          if (std::strcmp(s.name, name) == 0)
              sum += s.end_ms - s.start_ms;
      }
      return sum;
  }

  std::size_t
  size() const
  {
      std::lock_guard<std::mutex> lock(mu_);
      return spans_.size();
  }

  bool
  write(const std::string& path) const
  {
      std::lock_guard<std::mutex> lock(mu_);
      std::ofstream out(path, std::ios::trunc);
      for (const Span& s : spans_) {
          out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
              << ",\"group\":" << s.group << ",\"name\":\"" << s.name
              << "\",\"start_ms\":" << num(s.start_ms)
              << ",\"end_ms\":" << num(s.end_ms) << "}\n";
      }
      return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t group;
    double start_ms;
    double end_ms;
  };

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

// ---------------------------------------------------------------------------
// What one run measures.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string worker = "baco_worker";
  std::string spans;
};

/** One per-layer metric of the traced run. */
struct Layer {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/**
 * One slice of the measured phase with its own rate and turnaround
 * percentiles: a serve-ckpt pass, a fleet-dispatch study, or the whole
 * paper-serial run. The reported values are the medians over chunks.
 */
struct Chunk {
  std::uint64_t evals = 0;
  double wall_s = 0.0;
  std::vector<double> turnaround_ms;
};

/** Output checks and quality: what a run attempted, failed and reached. */
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  /** Per study of the prefix: reference / true cost of the incumbent. */
  std::vector<double> quality;
  /** Per study of the prefix: some evaluated config matched the expert. */
  std::vector<bool> reached;

  void
  fail(std::uint64_t operations, const std::string& what)
  {
      failed += operations;
      if (problems.size() < 20)
          problems.push_back(what);
  }

  /** Append another tally (in a fixed order, so sums reproduce). */
  void
  merge(const Tally& t)
  {
      attempted += t.attempted;
      failed += t.failed;
      for (const std::string& p : t.problems) {
          if (problems.size() < 20)
              problems.push_back(p);
      }
      quality.insert(quality.end(), t.quality.begin(), t.quality.end());
      reached.insert(reached.end(), t.reached.begin(), t.reached.end());
  }
};

struct Outcome {
  Clock::time_point start;  ///< process start (first line of main)
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< measured phase
  std::uint64_t evals = 0;
  std::vector<Chunk> chunks;
  Tally tally;
  obs::MetricsSnapshot delta;   ///< registry traffic of the measured phase
  /** Registry traffic of the prefix (paper-serial: the whole run). */
  obs::MetricsSnapshot prefix;
  /** serve-ckpt: summed final record count of the prefix sessions. */
  double prefix_records = 0.0;
  double check_ms = 0.0;  ///< output checks inside the measured phase
  bool ckpt_tmpfs = false;  ///< serve-ckpt: checkpoints on a private tmpfs
  int cpu = -1;             ///< the CPU the run is pinned to, or -1
  std::vector<Layer> layers;
  std::vector<std::string> report;  ///< reconciliation lines (traced)
};

/**
 * Whether to start another pass: the deterministic prefix always runs,
 * then passes continue until --seconds of the measured phase have passed.
 */
bool
another_pass(const Args& args, int done, int prefix, Clock::time_point t0)
{
    if (args.setup_only)
        return false;
    return done < prefix ||
           ms_between(t0, Clock::now()) < 1000.0 * args.seconds;
}

double
per_eval(double total, std::uint64_t evals)
{
    return evals ? total / static_cast<double>(evals) : 0.0;
}

/** Registry series as ms totals over the measured phase. */
double
reg_ms(const Outcome& o, const char* name)
{
    return 1000.0 * o.delta.value(name);
}

/**
 * Score one study of the prefix: quality of its incumbent, and whether
 * any evaluated feasible config is at or below the reference cost.
 */
void
score_study(Tally& t, const Benchmark& b, const TuningHistory& h,
            const std::string& label)
{
    if (!h.best_config) {
        t.fail(1, label + ": no feasible configuration found");
        return;
    }
    t.quality.push_back(b.reference_cost / b.true_cost(*h.best_config));
    bool reached = false;
    for (const Observation& obs : h.observations) {
        if (obs.feasible && b.true_cost(obs.config) <= b.reference_cost) {
            reached = true;
            break;
        }
    }
    t.reached.push_back(reached);
}

/**
 * The per-evaluation output checks shared by every workload: the budget
 * is consumed exactly, known constraints hold and each recorded value
 * equals an independent recomputation under the (seed, index) stream.
 */
void
check_history(Tally& t, const Benchmark& b, const SearchSpace& space,
              const std::vector<Observation>& obs, std::uint64_t seed,
              int budget, const std::string& label)
{
    if (obs.size() != static_cast<std::size_t>(budget)) {
        t.fail(1, label + ": " + std::to_string(obs.size()) +
                      " evaluations, budget " + std::to_string(budget));
    }
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < obs.size(); ++i) {
        EvalResult again = serve::evaluate_on(b, obs[i].config, seed, i);
        if (!space.satisfies(obs[i].config) ||
            !same_value(again.value, obs[i].value) ||
            again.feasible != obs[i].feasible) {
            ++bad;
        }
    }
    if (bad)
        t.fail(bad, label + ": " + std::to_string(bad) +
                        " evaluations violate a constraint or differ from "
                        "their recomputation");
}

/**
 * Pin this thread, and so every thread and worker process started after
 * it, to the last CPU it may use; returns that CPU, or -1. On a shared
 * 4-vCPU sandbox, cross-CPU wake-ups of the fleet slowed unpinned runs
 * 4-5x for minutes at a time (6.6k-43.7k evals/s over 20 runs) while
 * pinned runs held 22.5k-28.9k (20 runs); the single-threaded
 * paper-serial also spread less pinned (68.5-71.2 vs 56.9-67.6 evals/s
 * over three same-seed pairs).
 */
int
pin_to_one_cpu()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) != 0)
        return -1;
    int cpu = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set))
            cpu = c;
    }
    if (cpu < 0)
        return -1;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return ::sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

std::string
format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

std::string
format(const char* fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

// ---------------------------------------------------------------------------
// paper-serial
// ---------------------------------------------------------------------------

/** Nominal pass length: a run is round(--seconds / this) passes. Three
 *  passes cover each TACO kernel's and HPVM2FPGA's three benchmarks. */
constexpr double kSerialPassSeconds = 8.0;  // 9 BaCO studies, ~650 evals

/**
 * The draw strata, one benchmark of each tuned per pass: TACO by kernel,
 * RISE by Table 3 budget (MM_GPU alone at 120), HPVM2FPGA as one.
 */
std::vector<std::vector<const Benchmark*>>
serial_strata()
{
    std::map<std::string, std::vector<const Benchmark*>> by_key;
    for (const Benchmark& b : suite::all_benchmarks()) {
        std::string key = b.framework;
        if (b.framework == "TACO")
            key += "/" + b.name.substr(0, b.name.find('/'));
        else if (b.framework == "RISE")
            key += "/" + std::to_string(b.full_budget);
        by_key[key].push_back(&b);
    }
    std::vector<std::vector<const Benchmark*>> strata;
    for (auto& kv : by_key)
        strata.push_back(std::move(kv.second));
    return strata;
}

struct SerialStudy {
  const Benchmark* bench = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t group = 0;
  std::unique_ptr<Study> study;
  // Objective-call timestamps (the closed loop's evaluating side).
  std::vector<Clock::time_point> eval_start;
  std::vector<Clock::time_point> eval_end;
};

void
run_paper_serial(const Args& args, Outcome& o, SpanLog& spans)
{
    o.cpu = pin_to_one_cpu();
    const auto strata = serial_strata();
    const int passes = std::max(
        1, static_cast<int>(std::lround(args.seconds / kSerialPassSeconds)));
    // Set-up: build every study (space, chain of trees, tuner), one per
    // stratum and pass. A seeded rotation gives consecutive passes
    // consecutive members of each stratum.
    std::vector<std::unique_ptr<SerialStudy>> studies;
    for (int p = 0; p < passes; ++p) {
        for (std::size_t s = 0; s < strata.size(); ++s) {
            auto st = std::make_unique<SerialStudy>();
            SerialStudy* raw = st.get();
            const auto& stratum = strata[s];
            raw->bench = stratum[(derive(args.seed, s) + p) % stratum.size()];
            raw->seed = derive(args.seed, p, 100 + s) % 1000000007ULL;
            raw->group = studies.size() + 1;
            raw->eval_start.reserve(raw->bench->full_budget);
            raw->eval_end.reserve(raw->bench->full_budget);
            const Benchmark* b = raw->bench;
            BlackBoxFn objective = [raw, b](const Configuration& c,
                                            RngEngine& rng) {
                raw->eval_start.push_back(Clock::now());
                EvalResult r = b->evaluate(c, rng);
                raw->eval_end.push_back(Clock::now());
                return r;
            };
            auto t0 = Clock::now();
            raw->study = std::make_unique<Study>(
                StudyBuilder()
                    .benchmark(b->name)
                    .objective(std::move(objective))
                    .method("baco")
                    .seed(raw->seed)
                    .execution(ExecutionPolicy::Serial())
                    .build());
            spans.add("api.build", 0, raw->group, t0, Clock::now());
            o.tally.attempted += static_cast<std::uint64_t>(b->full_budget);
            studies.push_back(std::move(st));
        }
    }
    const auto measured0 = Clock::now();
    o.setup_s = ms_between(o.start, measured0) / 1000.0;
    if (args.setup_only)
        return;

    const obs::MetricsSnapshot reg0 = obs::MetricsRegistry::global().snapshot();
    bool known = false, hidden = false;
    std::map<std::string, int> frameworks;
    Chunk chunk;
    for (auto& st : studies) {
        auto t0 = Clock::now();
        TuningHistory h = st->study->run().history;
        auto t1 = Clock::now();
        chunk.wall_s += ms_between(t0, t1) / 1000.0;
        std::uint64_t id = spans.add("api.run", 0, st->group, t0, t1);

        // Checks, outside the chunk's time.
        auto c0 = Clock::now();
        for (std::size_t k = 0; k < st->eval_start.size(); ++k) {
            spans.add("suite.evaluate", id, st->group, st->eval_start[k],
                      st->eval_end[k]);
            if (k > 0)
                chunk.turnaround_ms.push_back(
                    ms_between(st->eval_end[k - 1], st->eval_start[k]));
        }
        known |= st->study->space().has_constraints();
        hidden |= st->bench->has_hidden_constraints;
        frameworks[st->bench->framework]++;
        chunk.evals += h.size();
        std::string label =
            st->bench->name + " seed " + std::to_string(st->seed);
        check_history(o.tally, *st->bench, st->study->space(), h.observations,
                      st->seed, st->bench->full_budget, label);
        score_study(o.tally, *st->bench, h, label);
        o.check_ms += ms_between(c0, Clock::now());
    }
    const auto measured1 = Clock::now();
    o.evals = chunk.evals;
    o.chunks.push_back(std::move(chunk));
    o.delta = obs::MetricsRegistry::global().snapshot().delta_since(reg0);
    o.prefix = o.delta;
    o.wall_s = ms_between(measured0, measured1) / 1000.0;
    if (!known || !hidden || frameworks.size() != 3)
        o.tally.fail(1, "draw misses a substrate or a constraint kind");
    if (!spans.enabled())
        return;

    const double W = o.wall_s * 1000.0;
    const double A = spans.total_ms("api.run");
    const double E = spans.total_ms("suite.evaluate");
    const double S = reg_ms(o, "tuner.suggest_seconds");
    const double Ob = reg_ms(o, "tuner.observe_seconds");
    const double acq = reg_ms(o, "tuner.acquisition_seconds");
    const double fit = reg_ms(o, "tuner.model_fit_seconds");
    const double rf = reg_ms(o, "tuner.feasibility_fit_seconds");
    const double doe = reg_ms(o, "tuner.doe_seconds");
    const double drive = A - E - S - Ob;
    const std::uint64_t n = o.evals;
    o.layers = {
        {"core.suggest_ms", "ms", per_eval(S, n)},
        {"core.acquisition_ms", "ms", per_eval(acq, n)},
        {"core.observe_ms", "ms", per_eval(Ob, n)},
        {"gp.fit_ms", "ms", per_eval(fit, n)},
        {"gp.refits", "count", o.prefix.value("tuner.model_refits_total")},
        {"gp.extends", "count", o.prefix.value("tuner.model_extends_total")},
        {"rf.fit_ms", "ms", per_eval(rf, n)},
        {"suite.evaluate_ms", "ms", per_eval(E, n)},
        {"exec.drive_ms", "ms", per_eval(drive, n)},
        {"api.build_ms", "ms", spans.total_ms("api.build")},
    };
    auto pct = [W](double v) { return 100.0 * v / W; };
    const double other = W - A - o.check_ms;
    o.report = {
        format("wall %.1f ms = Study::run %.1f (%.2f%%) + output checks "
               "%.1f (%.2f%%) + unexplained %.1f (%.3f%%)",
               W, A, pct(A), o.check_ms, pct(o.check_ms), other, pct(other)),
        format("Study::run %.1f ms = suite.evaluate %.1f (%.2f%%) + "
               "core.suggest %.1f (%.2f%%) + core.observe %.1f (%.2f%%) + "
               "exec.drive %.1f (%.2f%%)",
               A, E, pct(E), S, pct(S), Ob, pct(Ob), drive, pct(drive)),
        format("core.suggest %.1f ms = acquisition %.1f + gp.fit %.1f + "
               "rf.fit %.1f + doe %.1f + rest %.1f",
               S, acq, fit, rf, doe, S - acq - fit - rf - doe),
    };
}

// ---------------------------------------------------------------------------
// serve-ckpt
// ---------------------------------------------------------------------------

constexpr int kCkptPrefixPasses = 2;

/** Newline count of a file (the checkpoint's record count). */
std::uint64_t
count_lines(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        return 0;
    std::uint64_t lines = 0;
    char buf[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
        for (std::size_t i = 0; i < got; ++i)
            lines += buf[i] == '\n';
    }
    std::fclose(f);
    return lines;
}

/**
 * Back `dir` with a tmpfs in a mount namespace of this process's own, so
 * the checkpoint rewrite is measured without the machine's disk: on ext4
 * every replace-by-rename also starts writeback (~140 MB/s here), which a
 * shared virtual disk throttles from run to run. The mount is invisible
 * outside the process and goes away with it. Must run before any thread
 * starts; returns false, leaving `dir` on disk, where mounting is not
 * permitted.
 */
bool
mount_private_tmpfs(const std::string& dir)
{
    return ::unshare(CLONE_NEWNS) == 0 &&
           ::mount("none", "/", nullptr, MS_REC | MS_PRIVATE, nullptr) == 0 &&
           ::mount("tmpfs", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
                   "size=256m,mode=0700") == 0;
}

struct CkptSession {
  std::string name;
  std::uint64_t seed = 0;
  std::uint64_t group = 0;
  std::vector<serve::ObservedResult> observed;
  std::uint64_t final_evals = 0;
};

struct CkptClient {
  std::vector<CkptSession> sessions;  ///< opened and not yet checked
  std::vector<std::vector<double>> turnaround_ms;  ///< per pass
  std::vector<std::uint64_t> evals;                ///< per pass
  Tally tally;
  double prefix_records = 0.0;
  bool broken = false;  ///< a request failed: the client stops working
  // Traced per-layer sums.
  double rpc_ms = 0.0;
  double eval_ms = 0.0;
  double probe_ms = 0.0;  ///< stat + record count (tracing overhead)
  double ckpt_bytes = 0.0;
  double ckpt_records = 0.0;
  double open_ms = 0.0;
};

/**
 * Cyclic barrier between the client threads: they start and end each pass
 * together. The last thread to arrive runs on_phase (the others still
 * blocked), which stamps the phase boundary and decides whether another
 * pass starts.
 */
class Barrier {
 public:
  Barrier(int parties, std::function<void()> on_phase)
      : parties_(parties), on_phase_(std::move(on_phase))
  {
  }

  void
  arrive_and_wait()
  {
      std::unique_lock<std::mutex> lock(mu_);
      const std::uint64_t generation = generation_;
      if (++arrived_ == parties_) {
          on_phase_();
          arrived_ = 0;
          ++generation_;
          cv_.notify_all();
          return;
      }
      cv_.wait(lock, [&] { return generation_ != generation; });
  }

 private:
  const int parties_;
  const std::function<void()> on_phase_;
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
};

void
run_serve_ckpt(const Args& args, Outcome& o, SpanLog& spans)
{
    const Benchmark& bench = suite::find_benchmark(kCkptBenchmark);
    const auto space = bench.make_space(SpaceVariant{});
    const std::string dir = "ckpt";
    std::filesystem::create_directories(dir);
    o.ckpt_tmpfs = mount_private_tmpfs(dir);
    const std::string address = "unix:serve.sock";

    serve::SessionManagerOptions sopt;
    sopt.checkpoint_dir = dir;
    serve::SessionManager sessions(sopt);
    serve::ServerContext ctx;
    ctx.sessions = &sessions;
    serve::Listener listener;
    std::string error;
    if (!listener.open(*serve::parse_socket_address(address), &error)) {
        o.tally.attempted = 1;
        o.tally.fail(1, "listen " + address + ": " + error);
        return;
    }
    serve::Acceptor acceptor(std::move(listener), ctx);
    std::thread server([&acceptor] { acceptor.run(); });

    std::vector<CkptClient> clients(kCkptClients);
    // Phase 1 starts pass 0; then even phases end a pass and odd ones
    // start the next. Written by on_phase only, under the barrier.
    std::vector<Clock::time_point> phase;
    obs::MetricsSnapshot reg0;
    bool more = false;
    Barrier barrier(kCkptClients, [&] {
        phase.push_back(Clock::now());
        const int passes_done = static_cast<int>(phase.size() / 2);
        if (phase.size() == 1) {
            o.setup_s = ms_between(o.start, phase.front()) / 1000.0;
            reg0 = obs::MetricsRegistry::global().snapshot();
        }
        if (phase.size() % 2 == 0 && passes_done == kCkptPrefixPasses)
            o.prefix =
                obs::MetricsRegistry::global().snapshot().delta_since(reg0);
        if (phase.size() % 2 == 1)
            more = another_pass(args, passes_done, kCkptPrefixPasses,
                                phase.front());
    });
    const bool traced = spans.enabled();
    auto client_main = [&](int c) {
        CkptClient& me = clients[c];
        std::unique_ptr<serve::Transport> t = serve::connect_socket(address);
        std::unique_ptr<serve::SessionClient> client;
        if (t) {
            client = std::make_unique<serve::SessionClient>(*t);
            if (!client->handshake())
                client.reset();
        }
        auto broke = [&me](const std::string& what) {
            me.broken = true;
            me.tally.fail(1, what);
        };
        if (!client)
            broke("client " + std::to_string(c) + ": cannot connect");
        // Open pass p's sessions: the prefix during set-up, later passes
        // at their start.
        auto open_pass = [&](int p) {
            for (int s = 0; s < kCkptSessionsPerClient && !me.broken; ++s) {
                CkptSession cs;
                cs.name = "p" + std::to_string(p) + "c" + std::to_string(c) +
                          "s" + std::to_string(s);
                cs.seed = derive(args.seed, p, 10 * c + s) % 1000000007ULL;
                cs.group = static_cast<std::uint64_t>(
                    1 + (p * kCkptClients + c) * kCkptSessionsPerClient + s);
                auto r0 = Clock::now();
                serve::Message m = client->open(cs.name, kCkptBenchmark,
                                                "random", kCkptBudget, cs.seed);
                auto r1 = Clock::now();
                me.open_ms += ms_between(r0, r1);
                spans.add("serve.open", 0, cs.group, r0, r1);
                me.tally.attempted += kCkptBudget;
                if (m.type != serve::MsgType::kOpened)
                    broke(cs.name + ": open: " + m.text);
                me.sessions.push_back(std::move(cs));
            }
        };
        // The closed loop over one pass: round-robin this client's three
        // sessions, batch 1, evaluating client-side.
        auto run_pass = [&](std::vector<double>& waits) {
            std::uint64_t evals = 0;
            std::vector<double> last_observe_ms(kCkptSessionsPerClient, -1.0);
            for (int step = 0; step < kCkptBudget && !me.broken; ++step) {
                for (int k = 0; k < kCkptSessionsPerClient && !me.broken;
                     ++k) {
                    CkptSession& s = me.sessions[k];
                    auto a0 = Clock::now();
                    serve::Message cfg = client->suggest(s.name, 1);
                    auto a1 = Clock::now();
                    if (cfg.type != serve::MsgType::kConfigs ||
                        cfg.configs.size() != 1) {
                        broke(s.name + ": suggest: " + cfg.text);
                        break;
                    }
                    if (last_observe_ms[k] >= 0.0)
                        waits.push_back(last_observe_ms[k] +
                                        ms_between(a0, a1));
                    serve::ObservedResult r;
                    r.config = cfg.configs.front();
                    EvalResult e =
                        serve::evaluate_on(bench, r.config, s.seed, cfg.index);
                    r.value = e.value;
                    r.feasible = e.feasible;
                    auto a2 = Clock::now();
                    s.observed.push_back(r);
                    serve::Message ok = client->observe(s.name, {r});
                    auto a3 = Clock::now();
                    if (ok.type != serve::MsgType::kOk) {
                        broke(s.name + ": observe: " + ok.text);
                        break;
                    }
                    ++evals;
                    s.final_evals = ok.evals;
                    last_observe_ms[k] = ms_between(a2, a3);
                    if (traced) {
                        me.rpc_ms += ms_between(a0, a1) + ms_between(a2, a3);
                        me.eval_ms += ms_between(a1, a2);
                        spans.add("serve.rpc.suggest", 0, s.group, a0, a1);
                        spans.add("suite.evaluate", 0, s.group, a1, a2);
                        spans.add("serve.rpc.observe", 0, s.group, a2, a3);
                        // The checkpoint as the observe left it.
                        std::string path = sessions.checkpoint_path(s.name);
                        struct stat st {};
                        if (::stat(path.c_str(), &st) == 0)
                            me.ckpt_bytes += static_cast<double>(st.st_size);
                        me.ckpt_records +=
                            static_cast<double>(count_lines(path));
                        me.probe_ms += ms_between(a3, Clock::now());
                    }
                }
            }
            return evals;
        };
        // Check the pass's sessions — budget, constraints, recomputation,
        // checkpoint read-back — then close and forget them, so a long
        // run's memory stays flat.
        auto check_pass = [&](int p) {
            const std::size_t n = std::min<std::size_t>(
                kCkptSessionsPerClient, me.sessions.size());
            for (std::size_t k = 0; k < n; ++k) {
                const CkptSession& s = me.sessions[k];
                std::vector<Observation> seen;
                for (const serve::ObservedResult& r : s.observed)
                    seen.push_back(Observation{r.config, r.value, r.feasible});
                std::string label = s.name + " seed " + std::to_string(s.seed);
                check_history(me.tally, bench, *space, seen, s.seed,
                              kCkptBudget, label);
                if (s.final_evals != static_cast<std::uint64_t>(kCkptBudget))
                    me.tally.fail(1, label + ": server reports " +
                                         std::to_string(s.final_evals) +
                                         " evals");
                std::string path = sessions.checkpoint_path(s.name);
                std::optional<CheckpointData> ck = load_checkpoint(path);
                bool same = ck && ck->seed == s.seed &&
                            ck->history.observations.size() == seen.size();
                for (std::size_t i = 0; same && i < seen.size(); ++i)
                    same = observations_equal(ck->history.observations[i],
                                              seen[i]);
                if (!same) {
                    me.tally.fail(1, label + ": checkpoint does not hold the "
                                             "observed history");
                } else if (p < kCkptPrefixPasses) {
                    me.prefix_records += static_cast<double>(count_lines(path));
                    score_study(me.tally, bench, ck->history, label);
                }
                if (!me.broken &&
                    client->close(s.name).type != serve::MsgType::kOk)
                    broke(label + ": close failed");
            }
            me.sessions.erase(me.sessions.begin(), me.sessions.begin() + n);
        };

        // An exception marks the client broken but keeps it at every
        // barrier, so the other clients never wait on it forever.
        auto guarded = [&](auto&& step) {
            try {
                step();
            } catch (const std::exception& e) {
                broke(std::string("exception: ") + e.what());
            }
        };
        guarded([&] {
            for (int p = 0; p < kCkptPrefixPasses; ++p)
                open_pass(p);
        });
        barrier.arrive_and_wait();
        for (int p = 0; more; ++p) {
            std::uint64_t evals = 0;
            me.turnaround_ms.emplace_back();
            guarded([&] {
                if (p >= kCkptPrefixPasses)
                    open_pass(p);
                evals = run_pass(me.turnaround_ms.back());
            });
            me.evals.push_back(evals);
            barrier.arrive_and_wait();
            guarded([&] { check_pass(p); });
            barrier.arrive_and_wait();
        }
    };

    std::vector<std::thread> threads;
    for (int c = 0; c < kCkptClients; ++c)
        threads.emplace_back(client_main, c);
    for (std::thread& t : threads)
        t.join();
    o.delta = obs::MetricsRegistry::global().snapshot().delta_since(reg0);
    o.wall_s = ms_between(phase.front(), phase.back()) / 1000.0;
    acceptor.stop();
    server.join();

    // Merge in client order, so quality sums reproduce exactly.
    const std::size_t passes = (phase.size() - 1) / 2;
    for (const CkptClient& c : clients) {
        o.tally.merge(c.tally);
        o.prefix_records += c.prefix_records;
    }
    for (std::size_t p = 0; p < passes; ++p) {
        Chunk chunk;
        chunk.wall_s = ms_between(phase[2 * p], phase[2 * p + 1]) / 1000.0;
        for (const CkptClient& c : clients) {
            chunk.evals += c.evals[p];
            chunk.turnaround_ms.insert(chunk.turnaround_ms.end(),
                                       c.turnaround_ms[p].begin(),
                                       c.turnaround_ms[p].end());
        }
        o.evals += chunk.evals;
        o.check_ms += ms_between(phase[2 * p + 1], phase[2 * p + 2]);
        o.chunks.push_back(std::move(chunk));
    }
    if (o.delta.value("serve.errors_total") != 0.0)
        o.tally.fail(1, "the server answered with error frames");
    if (!traced)
        return;

    double rpc = 0, eval = 0, probe = 0, bytes = 0, records = 0, open = 0;
    for (const CkptClient& c : clients) {
        rpc += c.rpc_ms;
        eval += c.eval_ms;
        probe += c.probe_ms;
        bytes += c.ckpt_bytes;
        records += c.ckpt_records;
        open += c.open_ms;
    }
    const std::uint64_t n = o.evals;
    const double S = reg_ms(o, "tuner.suggest_seconds");
    const double Ob = reg_ms(o, "tuner.observe_seconds");
    const double session = reg_ms(o, "serve.suggest_seconds") +
                           reg_ms(o, "serve.observe_seconds");
    const double ckpt = reg_ms(o, "serve.observe_seconds") - Ob;
    o.layers = {
        {"serve.rpc_ms", "ms", per_eval(rpc, n)},
        {"serve.session_ms", "ms", per_eval(session, n)},
        {"serve.wire_ms", "ms", per_eval(rpc - session, n)},
        {"exec.checkpoint_ms", "ms", per_eval(ckpt, n)},
        {"exec.checkpoint_bytes", "bytes", per_eval(bytes, n)},
        {"exec.checkpoint_records", "records", per_eval(records, n)},
        {"core.suggest_ms", "ms", per_eval(S, n)},
        {"core.observe_ms", "ms", per_eval(Ob, n)},
        {"suite.evaluate_ms", "ms", per_eval(eval, n)},
        {"serve.open_ms", "ms", open},
    };
    // Three client threads run concurrently: reconcile their summed
    // thread time over the passes, not the wall.
    double pass_ms = 0.0;
    for (const Chunk& c : o.chunks)
        pass_ms += 1000.0 * c.wall_s;
    const double T = kCkptClients * pass_ms;
    auto pct = [T](double v) { return 100.0 * v / T; };
    const double other = T - rpc - eval - probe;
    o.report = {
        format("wall %.1f ms = passes %.1f + output checks between passes "
               "%.1f", o.wall_s * 1000.0, pass_ms, o.check_ms),
        format("client thread time in passes %.1f ms (%d x %.1f) = "
               "serve.rpc %.1f (%.2f%%) + suite.evaluate %.1f (%.2f%%) + "
               "checkpoint probe (tracing) %.1f (%.2f%%) + opens, waits for "
               "the slowest client and unexplained %.1f (%.2f%%)",
               T, kCkptClients, pass_ms, rpc, pct(rpc), eval, pct(eval),
               probe, pct(probe), other, pct(other)),
        format("serve.rpc %.1f ms = serve.session %.1f [core.suggest %.1f + "
               "core.observe %.1f + exec.checkpoint %.1f + session "
               "bookkeeping %.1f] + serve.wire %.1f",
               rpc, session, S, Ob, ckpt, session - S - Ob - ckpt,
               rpc - session),
    };
}

// ---------------------------------------------------------------------------
// fleet-dispatch
// ---------------------------------------------------------------------------

/** The worker fleet: shut down, and every worker reaped, on any exit. */
struct Fleet {
  serve::Coordinator coordinator;
  std::vector<int> pids;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet()
  {
      coordinator.shutdown();
      for (int pid : pids)
          serve::wait_process(pid);
  }
};

struct FleetStudy {
  const Benchmark* bench = nullptr;
  std::uint64_t seed = 0;
  std::unique_ptr<Study> study;
  std::vector<std::pair<std::uint64_t, Clock::time_point>> events;
};

void
run_fleet_dispatch(const Args& args, Outcome& o, SpanLog& spans)
{
    // A seed-shuffled cycle over the whole registry; the prefix is one
    // full cycle.
    std::vector<const Benchmark*> order;
    for (const Benchmark& b : suite::all_benchmarks())
        order.push_back(&b);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[derive(args.seed, 7, i) % i]);
    const int prefix = static_cast<int>(order.size());

    o.cpu = pin_to_one_cpu();
    Fleet fleet;
    for (int w = 0; w < kFleetWorkers; ++w) {
        auto t0 = Clock::now();
        serve::ChildProcess child =
            serve::spawn_process({args.worker, "--log-level", "warn"});
        if (child.pid > 0)
            fleet.pids.push_back(child.pid);
        int id = child.transport
                     ? fleet.coordinator.add_worker(std::move(child.transport))
                     : -1;
        spans.add("serve.spawn", 0, 0, t0, Clock::now());
        if (id < 0) {
            o.tally.attempted = 1;
            o.tally.fail(1, "cannot start worker " + args.worker);
            return;
        }
    }

    auto build_study = [&](int i) {
        auto st = std::make_unique<FleetStudy>();
        FleetStudy* raw = st.get();
        raw->bench = order[static_cast<std::size_t>(i) % order.size()];
        raw->seed = derive(args.seed, 11, i) % 1000000007ULL;
        raw->events.reserve(kFleetBudget);
        auto t0 = Clock::now();
        raw->study = std::make_unique<Study>(
            StudyBuilder()
                .benchmark(raw->bench->name)
                .method("random")
                .budget(kFleetBudget)
                .seed(raw->seed)
                .execution(ExecutionPolicy::Attached(&fleet.coordinator,
                                                     kFleetWorkers))
                .on_event([raw](const AsyncEvent& ev) {
                    raw->events.emplace_back(ev.index, Clock::now());
                })
                .build());
        spans.add("api.build", 0, static_cast<std::uint64_t>(i + 1), t0,
                  Clock::now());
        o.tally.attempted += kFleetBudget;
        return st;
    };
    std::vector<std::unique_ptr<FleetStudy>> studies;
    for (int i = 0; i < prefix; ++i)
        studies.push_back(build_study(i));
    const auto measured0 = Clock::now();
    o.setup_s = ms_between(o.start, measured0) / 1000.0;

    const obs::MetricsSnapshot reg0 = obs::MetricsRegistry::global().snapshot();
    double worker_eval_ms = 0.0;
    double build_ms = 0.0;  // studies built after the prefix
    for (int i = 0; another_pass(args, i, prefix, measured0); ++i) {
        if (i >= prefix) {
            auto b0 = Clock::now();
            studies.push_back(build_study(i));
            build_ms += ms_between(b0, Clock::now());
        }
        FleetStudy& st = *studies[static_cast<std::size_t>(i)];
        const std::uint64_t group = static_cast<std::uint64_t>(i + 1);
        Chunk chunk;
        TuningHistory h;
        auto t0 = Clock::now();
        try {
            h = st.study->run().history;
        } catch (const std::exception& e) {
            o.tally.fail(1, st.bench->name + ": " + e.what());
        }
        auto t1 = Clock::now();
        std::uint64_t id = spans.add("api.run", 0, group, t0, t1);
        if (i + 1 == prefix)
            o.prefix = obs::MetricsRegistry::global().snapshot().delta_since(
                reg0);

        auto c0 = Clock::now();
        chunk.evals = h.size();
        chunk.wall_s = ms_between(t0, t1) / 1000.0;
        worker_eval_ms += 1000.0 * h.eval_seconds;
        // Rounds are shards of kFleetWorkers consecutive indices; each
        // round's wait is the gap since the previous round's last event,
        // counted once per evaluation of the round.
        const auto& ev = st.events;
        for (std::size_t k = 1; k < ev.size(); ++k) {
            std::uint64_t round = ev[k].first / kFleetWorkers;
            if (round == ev[k - 1].first / kFleetWorkers)
                continue;
            std::size_t in_round = 0;
            while (k + in_round < ev.size() &&
                   ev[k + in_round].first / kFleetWorkers == round)
                ++in_round;
            chunk.turnaround_ms.insert(
                chunk.turnaround_ms.end(), in_round,
                ms_between(ev[k - 1].second, ev[k].second));
            spans.add("exec.round", id, group, ev[k - 1].second,
                      ev[k].second);
        }
        std::string label = st.bench->name + " seed " + std::to_string(st.seed);
        check_history(o.tally, *st.bench, st.study->space(), h.observations,
                      st.seed, kFleetBudget, label);
        if (i < prefix)
            score_study(o.tally, *st.bench, h, label);
        o.evals += chunk.evals;
        o.chunks.push_back(std::move(chunk));
        // Only the timing survives a study: a long run's memory stays flat.
        studies[static_cast<std::size_t>(i)].reset();
        o.check_ms += ms_between(c0, Clock::now());
    }
    const auto measured1 = Clock::now();
    o.delta = obs::MetricsRegistry::global().snapshot().delta_since(reg0);
    o.wall_s = ms_between(measured0, measured1) / 1000.0;
    if (args.setup_only)
        return;

    if (o.delta.value("coord.straggler_redispatch_total") != 0.0 ||
        o.delta.value("coord.worker_errors_total") != 0.0 ||
        o.delta.value("coord.workers_lost_total") != 0.0) {
        o.tally.fail(1, "fleet reported worker errors, lost workers or "
                  "straggler re-dispatches");
    }
    if (!spans.enabled())
        return;

    const std::uint64_t n = o.evals;
    const double W = o.wall_s * 1000.0;
    const double A = spans.total_ms("api.run");
    const double R = reg_ms(o, "coord.run.seconds");
    const double S = reg_ms(o, "tuner.suggest_seconds");
    const double Ob = reg_ms(o, "tuner.observe_seconds");
    o.layers = {
        {"serve.coord_ms", "ms", per_eval(R - S - Ob, n)},
        {"serve.dispatched", "count", o.prefix.value("coord.dispatched_total")},
        {"serve.redispatched", "count",
         o.prefix.value("coord.straggler_redispatch_total")},
        {"serve.worker_errors", "count",
         o.prefix.value("coord.worker_errors_total")},
        {"exec.drive_ms", "ms", per_eval(A - R, n)},
        {"core.suggest_ms", "ms", per_eval(S, n)},
        {"core.observe_ms", "ms", per_eval(Ob, n)},
        {"suite.evaluate_ms", "ms", per_eval(worker_eval_ms, n)},
        {"serve.spawn_ms", "ms", spans.total_ms("serve.spawn")},
        {"api.build_ms", "ms", spans.total_ms("api.build")},
    };
    auto pct = [W](double v) { return 100.0 * v / W; };
    const double other = W - A - o.check_ms - build_ms;
    o.report = {
        format("wall %.1f ms = Study::run %.1f (%.2f%%) + output checks "
               "%.1f (%.2f%%) + builds after the prefix %.1f (%.2f%%) + "
               "unexplained %.1f (%.3f%%)",
               W, A, pct(A), o.check_ms, pct(o.check_ms), build_ms,
               pct(build_ms), other, pct(other)),
        format("Study::run %.1f ms = coordinator runs %.1f (%.2f%%) "
               "[core.suggest %.1f + core.observe %.1f + serve.coord %.1f] "
               "+ exec.drive %.1f (%.2f%%)",
               A, R, pct(R), S, Ob, R - S - Ob, A - R, pct(A - R)),
        format("worker-side suite.evaluate %.1f ms summed over %d workers "
               "(inside serve.coord); round gaps %.1f ms",
               worker_eval_ms, kFleetWorkers, spans.total_ms("exec.round")),
    };
}

// ---------------------------------------------------------------------------
// Machine-drift calibration: a fixed CPU-only loop, never compared across
// commits.
// ---------------------------------------------------------------------------

int
calibrate()
{
    constexpr int kN = 256;
    constexpr int kReps = 5;
    std::vector<double> a(kN * kN), b(kN * kN), c(kN * kN);
    for (int i = 0; i < kN * kN; ++i) {
        a[i] = static_cast<double>(i % 17) * 0.25;
        b[i] = static_cast<double>(i % 13) * 0.5;
    }
    std::vector<double> rep_s;
    double checksum = 0.0;
    for (int r = 0; r < kReps; ++r) {
        auto t0 = Clock::now();
        std::fill(c.begin(), c.end(), 0.0);
        for (int i = 0; i < kN; ++i)
            for (int k = 0; k < kN; ++k) {
                double aik = a[i * kN + k];
                for (int j = 0; j < kN; ++j)
                    c[i * kN + j] += aik * b[k * kN + j];
            }
        rep_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
        checksum += c[(r * 977) % (kN * kN)];
    }
    double total = 0.0;
    for (double s : rep_s)
        total += s;
    std::printf("RESULT {\"calibration_s\":%s,\"median_rep_s\":%s,"
                "\"checksum\":%s}\n",
                num(total).c_str(), num(quantile(rep_s, 0.5)).c_str(),
                num(checksum).c_str());
    return 0;
}

/**
 * Peak resident memory of this process image (VmHWM). getrusage's
 * ru_maxrss would also count the parent's memory it was forked from.
 */
double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
    return 0.0;
}

std::string
json_string(const std::string& s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += ch;
    }
    return out + "\"";
}

void
print_result(const Args& args, const Outcome& o, const SpanLog& spans)
{
    const Tally& t = o.tally;
    double log_sum = 0.0;
    for (double v : t.quality)
        log_sum += std::log(v);
    const double quality =
        t.quality.empty() ? 0.0 : std::exp(log_sum / t.quality.size());
    const double expert =
        t.reached.empty()
            ? 0.0
            : static_cast<double>(
                  std::count(t.reached.begin(), t.reached.end(), true)) /
                  t.reached.size();
    // Median over chunks of each chunk's rate and turnaround percentiles.
    std::vector<double> rate, p50, p95;
    std::size_t samples = 0;
    for (const Chunk& c : o.chunks) {
        if (c.wall_s > 0.0)
            rate.push_back(static_cast<double>(c.evals) / c.wall_s);
        if (!c.turnaround_ms.empty()) {
            p50.push_back(quantile(c.turnaround_ms, 0.50));
            p95.push_back(quantile(c.turnaround_ms, 0.95));
        }
        samples += c.turnaround_ms.size();
    }

    std::ostringstream js;
    js << "RESULT {\"workload\":" << json_string(args.workload)
       << ",\"setup_s\":" << num(o.setup_s)
       << ",\"wall_s\":" << num(o.wall_s) << ",\"evals\":" << o.evals
       << ",\"chunks\":" << o.chunks.size()
       << ",\"evals_per_s\":" << num(quantile(rate, 0.5))
       << ",\"turnaround_p50_ms\":" << num(quantile(p50, 0.5))
       << ",\"turnaround_p95_ms\":" << num(quantile(p95, 0.5))
       << ",\"turnaround_samples\":" << samples
       << ",\"quality_vs_expert\":" << num(quality)
       << ",\"expert_reached\":" << num(expert)
       << ",\"studies\":" << t.quality.size()
       << ",\"peak_rss_mb\":" << num(peak_rss_mb())
       << ",\"attempted\":" << t.attempted << ",\"failed\":" << t.failed
       << ",\"spans\":" << spans.size()
       << ",\"ckpt_tmpfs\":" << (o.ckpt_tmpfs ? "true" : "false")
       << ",\"cpu\":" << o.cpu;
    // The values every run with this seed must reproduce exactly.
    js << ",\"fingerprint\":{\"quality_vs_expert\":" << num(quality)
       << ",\"expert_reached\":" << num(expert) << ",\"gp.refits\":"
       << num(o.prefix.value("tuner.model_refits_total"))
       << ",\"gp.extends\":"
       << num(o.prefix.value("tuner.model_extends_total"))
       << ",\"serve.dispatched\":"
       << num(o.prefix.value("coord.dispatched_total"))
       << ",\"exec.checkpoint_records\":" << num(o.prefix_records)
       << "},\"layers\":{";
    const char* sep = "";
    for (const Layer& l : o.layers) {
        js << sep << json_string(l.name) << ":{\"value\":" << num(l.value)
           << ",\"unit\":" << json_string(l.unit) << "}";
        sep = ",";
    }
    js << "},\"report\":[";
    sep = "";
    for (const std::string& line : o.report) {
        js << sep << json_string(line);
        sep = ",";
    }
    js << "],\"problems\":[";
    sep = "";
    for (const std::string& p : t.problems) {
        js << sep << json_string(p);
        sep = ",";
    }
    js << "]}";
    std::printf("%s\n", js.str().c_str());
}

}  // namespace

int
main(int argc, char** argv)
{
    Outcome outcome;
    outcome.start = Clock::now();
    std::signal(SIGPIPE, SIG_IGN);

    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : std::string();
        };
        if (a == "--calibrate")
            return calibrate();
        if (a == "--workload")
            args.workload = next();
        else if (a == "--seed")
            args.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (a == "--seconds")
            args.seconds = std::atof(next().c_str());
        else if (a == "--worker")
            args.worker = next();
        else if (a == "--spans")
            args.spans = next();
        else if (a == "--trace")
            args.trace = true;
        else if (a == "--setup-only")
            args.setup_only = true;
        else {
            std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
            return 2;
        }
    }

    SpanLog spans(args.trace, outcome.start);
    // The registry builds every benchmark instance on first use.
    auto t0 = Clock::now();
    suite::all_benchmarks();
    spans.add("suite.registry", 0, 0, t0, Clock::now());

    try {
        if (args.workload == "paper-serial")
            run_paper_serial(args, outcome, spans);
        else if (args.workload == "serve-ckpt")
            run_serve_ckpt(args, outcome, spans);
        else if (args.workload == "fleet-dispatch")
            run_fleet_dispatch(args, outcome, spans);
        else {
            std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                         args.workload.c_str());
            return 2;
        }
    } catch (const std::exception& e) {
        Tally& t = outcome.tally;
        t.attempted = std::max<std::uint64_t>(t.attempted, 1);
        t.fail(t.attempted, std::string("exception: ") + e.what());
    }

    if (args.setup_only) {
        std::printf("RESULT {\"setup_s\":%s}\n", num(outcome.setup_s).c_str());
        return outcome.tally.failed ? 1 : 0;
    }
    if (args.trace) {
        outcome.layers.insert(outcome.layers.begin(),
                              Layer{"suite.registry_ms", "ms",
                                    spans.total_ms("suite.registry")});
        if (!args.spans.empty() && !spans.write(args.spans))
            outcome.tally.fail(1, "cannot write spans to " + args.spans);
    }
    print_result(args, outcome, spans);
    return outcome.tally.failed ? 1 : 0;
}
