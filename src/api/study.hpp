#ifndef BACO_API_STUDY_HPP_
#define BACO_API_STUDY_HPP_

/**
 * @file
 * The baco::Study front-door API: one declarative entry point — a search
 * space, an objective, a method name and an ExecutionPolicy — over every
 * execution back-end the framework has (serial loop, batched and fully
 * asynchronous thread-pool drives, distributed Coordinator fleet).
 *
 *   Study study = StudyBuilder()
 *                     .benchmark("SpMM/scircuit")   // or an inline space
 *                     .method("baco")               // MethodRegistry name
 *                     .budget(60)
 *                     .seed(7)
 *                     .execution(ExecutionPolicy::Batched(4))
 *                     .build();
 *   StudyResult r = study.run();
 *
 * Swapping the ExecutionPolicy — Serial to Batched to Async to
 * Distributed — changes no other line; cache, checkpoint/resume, seed
 * and the on_event observer behave uniformly across all four. For
 * embedding into an external loop, ask()/tell() expose the underlying
 * ask-tell exchange and result() finalizes without driving.
 *
 * run() is advance() under the study's own policy, then finalization.
 * advance() alone drives the study without finalizing it, under any
 * policy, eval cap and observer; it only picks an Executor and runs the
 * one exec-layer drive() loop, so local and remote execution cannot
 * drift. The serve layer holds one Study per session: its run request is
 * an advance(), its suggest/observe frames are ask()/tell(), and save()
 * writes the checkpoint a spilled or closed session resumes from.
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/execution_policy.hpp"
#include "api/method_registry.hpp"
#include "exec/ask_tell.hpp"
#include "exec/checkpoint.hpp"
#include "exec/drive.hpp"
#include "obs/metrics.hpp"
#include "suite/benchmark.hpp"

namespace baco {

class EvalCache;
class SearchSpace;

/**
 * Per-evaluation observer. Fires once per told result, after the tell
 * and its checkpoint, in history order for deterministic modes and
 * completion order for asynchronous ones. Every policy fills the same
 * fields: eval_seconds is the evaluation's own black-box time and
 * from_cache marks results answered by the cache.
 */
using StudyEventFn = AsyncResultFn;

/** Everything a finished (or finalized) study reports. */
struct StudyResult {
  TuningHistory history;

  // --- Provenance. ---
  std::string method;              ///< canonical MethodRegistry name
  std::string benchmark;           ///< empty for inline objectives
  ExecutionPolicy::Mode mode = ExecutionPolicy::Mode::kSerial;
  std::uint64_t seed = 0;
  bool resumed = false;            ///< continued from a checkpoint
  std::size_t resumed_evals = 0;   ///< history size restored at build
  std::string checkpoint_path;     ///< empty when checkpointing was off
  std::string cache_namespace;     ///< empty when no cache was attached
  /**
   * Cache traffic during this study, measured as deltas of the shared
   * cache's global counters — exact for a study with the cache to
   * itself; studies running *concurrently* against one cache see each
   * other's lookups in these numbers (entries stay isolated by
   * namespace regardless).
   */
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /**
   * Per-phase observability during this study: the global obs registry
   * as a delta between build() and finalization — counters and
   * histogram buckets subtract, gauges keep their final value. Exact
   * for a study with the process to itself; studies running
   * concurrently in one process appear in each other's deltas (the
   * registry is process-global). `metrics.value("tuner.suggest_seconds")`
   * is the study's total suggest time; see README "Observability" for
   * the metric reference.
   */
  obs::MetricsSnapshot metrics;
};

/** One configured tuning study. Move-only; built by StudyBuilder. */
class Study {
 public:
  Study(Study&&) = default;
  Study& operator=(Study&&) = default;
  Study(const Study&) = delete;
  Study& operator=(const Study&) = delete;

  /**
   * Drive the study to budget exhaustion under its ExecutionPolicy and
   * return the finalized result: advance(policy()) with the study's
   * on_event, then result(). Call once: a second run()/result() throws
   * std::logic_error (finalization moves the history out). A failed
   * checkpoint write stops the drive with std::runtime_error.
   */
  StudyResult run();

  /**
   * Advance the study without finalizing it: drive its tuner under
   * `policy` until the budget is spent or max_evals results were told
   * (-1 = no cap), with on_event in place of the study's observer. The
   * policy picks the Executor: a thread pool (one lane for Serial), its
   * attached fleet, or a fleet assembled for this call. Serial, Batched
   * and synchronous Distributed drives are barrier rounds; Async and
   * Distributed(async=true) tell results as they land. resume_pending()
   * is told first, under its original indices, and counts against
   * max_evals. The study's objective, cache and checkpoint apply. On an
   * error the drive stops suggesting, drains what is in flight without
   * telling it (the checkpoint still lists that work as pending) and
   * rethrows.
   * @throws std::invalid_argument when the policy needs what the study
   * lacks: an objective in-process, a benchmark on a fleet.
   */
  void advance(const ExecutionPolicy& policy, int max_evals = -1,
               const StudyEventFn& on_event = {});

  // --- Ask-tell embedding (external evaluation loops). ---
  /** Propose up to n configurations (empty once the budget is spent).
   *  @throws std::logic_error while resume_pending() is undrained — a
   *  resumed async checkpoint's in-flight work must be re-evaluated
   *  (under eval_rng_for(seed, pending.index)) and handed to
   *  tell_pending() first, so it is told exactly once. */
  std::vector<Configuration> ask(int n = 1);
  /** Report results for an ask()ed batch, in ask() order, through
   *  drive()'s tell step: cache (when attached), observe, charge
   *  eval_seconds (the batch's black-box time) to the history,
   *  checkpoint, then on_event per result with the same as-if-serial
   *  evals/best counters run() emits (the first event carries
   *  eval_seconds). Like ask(), throws std::logic_error while
   *  resume_pending() is undrained; throws std::runtime_error when the
   *  checkpoint write fails (the results are observed by then). */
  void tell(const std::vector<Configuration>& configs,
            const std::vector<EvalResult>& results,
            double eval_seconds = 0.0);
  /** Single-result tell. */
  void tell(const Configuration& config, const EvalResult& result,
            double eval_seconds = 0.0);

  /** In-flight evaluations restored from a resumed async checkpoint,
   *  still awaiting tell_pending(). (run() and advance() tell these
   *  first; the ask/tell path must do it explicitly.) */
  const std::vector<PendingEval>& resume_pending() const
  {
      return resume_pending_;
  }
  /** Report the result of one resume_pending() evaluation: tells it
   *  under its original index (through drive()'s tell step) and keeps
   *  the not-yet-drained rest in the checkpoint.
   *  @throws std::invalid_argument when p's index is not pending. */
  void tell_pending(const PendingEval& p, const EvalResult& result,
                    double eval_seconds = 0.0);

  /** Evaluations left before the budget is exhausted. */
  int remaining() const { return tuner_->remaining(); }

  /**
   * Rewrite the checkpoint with the study's current state, undrained
   * resume_pending() included: the point a resume continues from. Every
   * tell already leaves the file in this state; save() is for a
   * checkpoint taken on request or before the study is dropped. Returns
   * false when the write fails or the study has no checkpoint path.
   */
  bool save() const;

  /** Finalize without driving (the ask/tell path's run()). Call once. */
  StudyResult result();

  const SearchSpace& space() const { return *space_; }
  const ExecutionPolicy& policy() const { return policy_; }
  /** The underlying ask-tell tuner (advanced embedding). */
  AskTellTuner& tuner() { return *tuner_; }

  // --- Provenance (as result() reports it). ---
  /** The canonical MethodRegistry name. */
  const std::string& method() const { return method_; }
  /** The study's benchmark; null for a space() or inline-DSL study. */
  const Benchmark* benchmark() const
  {
      return benchmark_ ? &*benchmark_ : nullptr;
  }
  /** The budget, DoE size and seed the tuner was built with. */
  const MethodSpec& spec() const { return spec_; }
  /** The cache namespace; empty without a cache (or when anonymous). */
  const std::string& cache_namespace() const { return cache_namespace_; }
  /** True when build() restored a checkpoint. */
  bool resumed() const { return resumed_; }

 private:
  friend class StudyBuilder;
  Study() = default;

  void ensure_not_finalized() const;
  StudyResult finalize(TuningHistory history);
  /** The tell step's cache, checkpoint and event options. */
  DriveOptions tell_options() const;

  std::string trace_path_;        ///< empty = tracing stays off
  obs::MetricsSnapshot metrics0_; ///< registry state at build()

  std::optional<Benchmark> benchmark_;  ///< copied; self-contained
  std::shared_ptr<SearchSpace> space_;
  std::unique_ptr<AskTellTuner> tuner_;
  BlackBoxFn objective_;
  std::string method_;  ///< canonical name
  ExecutionPolicy policy_;
  EvalCache* cache_ = nullptr;
  std::string cache_namespace_;
  std::string checkpoint_path_;
  StudyEventFn on_event_;
  std::vector<PendingEval> resume_pending_;
  bool resumed_ = false;
  std::size_t resumed_evals_ = 0;
  MethodSpec spec_;
  std::uint64_t cache_hits0_ = 0;
  std::uint64_t cache_misses0_ = 0;
  bool finalized_ = false;
};

/** Fluent construction of a Study. All setters return *this. */
class StudyBuilder {
 public:
  // --- Search space: exactly one of benchmark / space / inline DSL. ---
  /** A registered suite benchmark by name (space, objective, budget and
   *  DoE defaults come with it). @throws on an unknown name, with the
   *  closest registered names. */
  StudyBuilder& benchmark(const std::string& name);
  /** A benchmark object (copied; need not be in the registry, but
   *  distributed execution requires the registry's own instance —
   *  workers resolve it by name, so a modified copy would silently be
   *  replaced by the registry version there). */
  StudyBuilder& benchmark(const Benchmark& b);
  /** Space-construction variant for benchmark studies (ablations). */
  StudyBuilder& variant(const SpaceVariant& v);
  /** A ready-made search space. */
  StudyBuilder& space(std::shared_ptr<SearchSpace> s);

  // --- Inline parameter DSL (builds an owned space). ---
  StudyBuilder& real(const std::string& name, double lo, double hi,
                     bool log_scale = false);
  StudyBuilder& integer(const std::string& name, std::int64_t lo,
                        std::int64_t hi, bool log_scale = false);
  StudyBuilder& ordinal(const std::string& name,
                        std::vector<std::int64_t> values,
                        bool log_scale = false);
  StudyBuilder& categorical(const std::string& name,
                            std::vector<std::string> values);
  StudyBuilder& permutation(const std::string& name, std::size_t n);
  StudyBuilder& constraint(const std::string& expr);

  // --- Objective (required unless a benchmark supplies one). ---
  /** The black box. With a benchmark, overrides its evaluator for the
   *  in-process policies; rejected with Distributed (workers always
   *  evaluate the registry benchmark's own objective). */
  StudyBuilder& objective(BlackBoxFn fn);

  // --- Method & run options. ---
  /** MethodRegistry name or alias; default "baco". */
  StudyBuilder& method(std::string name);
  StudyBuilder& budget(int evaluations);
  StudyBuilder& doe(int samples);
  StudyBuilder& seed(std::uint64_t run_seed);
  StudyBuilder& execution(ExecutionPolicy policy);

  // --- Uniform cross-policy options. ---
  /** Shared evaluation cache (not owned). max_entries > 0 applies an
   *  LRU bound to it (EvalCache::set_max_entries). */
  StudyBuilder& cache(EvalCache* cache, std::size_t max_entries = 0);
  /** Pin the cache namespace. Default: benchmark identity when the
   *  study evaluates the benchmark's own objective, the anonymous
   *  namespace otherwise (including when objective() overrides a
   *  benchmark's — its results must not answer for the real ones). */
  StudyBuilder& cache_namespace(std::string ns);
  /** Checkpoint after every observed batch/result; resume=true restores
   *  an existing checkpoint file first (async in-flight work is
   *  re-dispatched under the original indices). */
  StudyBuilder& checkpoint(std::string path, bool resume = false);
  StudyBuilder& on_event(StudyEventFn fn);
  /**
   * Opt into tracing: spans recorded between build() and finalization
   * are exported to `path` as Chrome trace_event JSON (load in
   * chrome://tracing / Perfetto). Tracing is process-global — the
   * export carries every span in the buffers, concurrent studies
   * included — and is a no-op when the library was built with
   * -DBACO_OBS_TRACE=OFF.
   */
  StudyBuilder& trace(std::string path);

  /**
   * Validate and construct the Study (resolving the method through
   * MethodRegistry::global() and restoring any resume checkpoint).
   * @throws std::invalid_argument on an inconsistent specification,
   * std::runtime_error on unknown names or an unusable checkpoint.
   */
  Study build();

 private:
  SearchSpace& inline_space();

  std::optional<Benchmark> benchmark_;
  bool benchmark_is_registry_ = false;
  SpaceVariant variant_;
  std::shared_ptr<SearchSpace> space_;
  std::shared_ptr<SearchSpace> inline_space_;
  bool inline_space_consumed_ = false;
  BlackBoxFn objective_;
  std::string method_ = "baco";
  int budget_ = 0;  ///< 0 = benchmark full_budget
  int doe_ = 0;     ///< 0 = benchmark doe_samples (or 10)
  std::uint64_t seed_ = 0;
  ExecutionPolicy policy_;
  EvalCache* cache_ = nullptr;
  std::size_t cache_max_entries_ = 0;
  std::string cache_namespace_;
  std::string checkpoint_path_;
  bool resume_ = false;
  StudyEventFn on_event_;
  std::string trace_path_;
};

}  // namespace baco

#endif  // BACO_API_STUDY_HPP_
