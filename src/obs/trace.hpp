#ifndef BACO_OBS_TRACE_HPP_
#define BACO_OBS_TRACE_HPP_

/**
 * @file
 * Opt-in lightweight tracing: RAII spans record (name, category, thread,
 * start, duration) events into bounded per-thread ring buffers, and the
 * collected events export as Chrome trace_event JSON (loadable in
 * chrome://tracing / Perfetto) or as JSONL.
 *
 * Tracing is off by default — Span construction is a single relaxed
 * atomic load when disabled — and compiles to complete no-ops when the
 * build sets BACO_OBS_TRACE_OFF (CMake option BACO_OBS_TRACE=OFF), so
 * release builds can strip it entirely. Each thread owns a fixed-size
 * ring of kBufferCapacity events; when full, the oldest events are
 * overwritten (bounded memory, no allocation on the record path after
 * the first event per thread).
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace baco::obs {

/** One completed span, timestamps in microseconds since Trace::enable(). */
struct TraceEvent {
  const char* name = "";  ///< static string (span names are literals)
  const char* category = "";
  std::uint64_t thread_id = 0;
  std::uint64_t start_us = 0;
  std::uint64_t duration_us = 0;
};

/**
 * A span imported from another process (a worker shipping its buffer
 * back over the wire). Unlike TraceEvent the strings are owned: wire
 * names have no static lifetime. Timestamps are on the remote clock;
 * each import track renders as its own process in the Chrome export,
 * so no cross-process clock alignment is attempted.
 */
struct RemoteSpan {
  std::string name;
  std::string category;
  std::string run;  ///< trace run id the span was recorded under
  std::uint64_t thread_id = 0;
  std::uint64_t start_us = 0;
  std::uint64_t duration_us = 0;
};

/** Process-wide trace control and event collection. */
class Trace {
 public:
  static constexpr std::size_t kBufferCapacity = 4096;  ///< per thread

  /** Start capturing spans (resets the time origin; keeps old events). */
  static void enable();
  /** Stop capturing. In-flight spans finishing later are dropped. */
  static void disable();
  static bool enabled();

  /**
   * Run id stamped on propagated trace contexts. enable() generates one
   * ("run-<us>") when none is set; set_run_id overrides it.
   */
  static std::string run_id();
  static void set_run_id(const std::string& id);

  /** Discard all captured events (local buffers, retired, remote). */
  static void clear();

  /**
   * All locally captured events, oldest first per thread (snapshot
   * copy). Includes events retired from buffers of already-exited
   * threads, so collect() after a ThreadPool is destroyed still sees
   * its spans.
   */
  static std::vector<TraceEvent> collect();

  /**
   * Merge spans shipped from another process under a named track
   * ("worker-0", ...). The merged Chrome export renders each track as
   * its own process.
   */
  static void add_remote(const std::string& track,
                         std::vector<RemoteSpan> spans);
  /** Snapshot of the imported spans, grouped by track (insert order). */
  static std::vector<std::pair<std::string, std::vector<RemoteSpan>>>
  remote_tracks();

  /**
   * Write the captured events to `path` as a Chrome trace_event JSON
   * document ({"traceEvents": [...]}, complete "X" events). Local
   * events render as pid 1 ("server"); each remote track as its own
   * pid with the track name as process name and the originating run id
   * in the span args. Returns false on I/O failure.
   */
  static bool export_chrome(const std::string& path);
};

#if defined(BACO_OBS_TRACE_OFF)

/** No-op span: the build compiled tracing out. */
class Span {
 public:
  explicit Span(const char*, const char* = "") {}
};

#else

/**
 * RAII span: records a TraceEvent for its lifetime into the calling
 * thread's ring buffer. `name` and `category` must outlive the trace
 * (pass string literals). A span constructed while tracing is disabled
 * costs one relaxed atomic load and records nothing.
 */
class Span {
 public:
  explicit Span(const char* name, const char* category = "");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* category_;
  std::uint64_t start_us_ = 0;
  bool active_ = false;
};

#endif  // BACO_OBS_TRACE_OFF

/**
 * RAII timer feeding a metrics histogram (seconds), optionally paired
 * with a trace span of the same name. This is the one-liner used by
 * the instrumentation points:
 *
 *     ScopedTimer t(reg.histogram("tuner.fit_seconds"), "tuner.fit");
 */
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist, const char* span_name = nullptr,
                       const char* category = "");
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /** Seconds since construction (the value the destructor will record). */
  double elapsed() const;

 private:
  Histogram& hist_;
  std::uint64_t start_ns_;
#if !defined(BACO_OBS_TRACE_OFF)
  Span span_;
#endif
};

}  // namespace baco::obs

#endif  // BACO_OBS_TRACE_HPP_
