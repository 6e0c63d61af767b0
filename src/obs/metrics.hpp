#ifndef BACO_OBS_METRICS_HPP_
#define BACO_OBS_METRICS_HPP_

/**
 * @file
 * Always-on metrics for the tuner, the execution engines and the serve
 * layer: counters, gauges and fixed-bucket latency histograms behind a
 * named registry, plus sources that report live entities.
 *
 * The registry is the one place a number reaches a reader: the serve
 * stats frame, baco_serve's --metrics-file lines and its shutdown log
 * all format one snapshot(). Numbers that change at an event (a request,
 * a spill, a worker's death) are counters and gauges updated where the
 * event happens. Numbers that belong to something alive (a coordinator's
 * active runs and attached workers) come from a source its owner
 * registers: snapshot() asks the source for its entries, so an entity
 * that ended is simply no longer reported and values derived from the
 * clock (a worker's last_seen_s, its "slow" state) are exact at the read.
 *
 * Design constraints (the overhead discipline):
 *   - The update fast path is lock-free — one or two relaxed atomic
 *     operations per event — so instrumentation can stay on in the
 *     hot suggest/observe/evaluate loops (< 1% on table10).
 *   - Registration is mutex-protected but happens once per metric name;
 *     call sites cache the returned reference (metrics are never
 *     removed, so references stay valid for the registry's lifetime).
 *   - The read side produces a MetricsSnapshot: a value copy of every
 *     metric taken under the registry mutex, so a reader never observes
 *     a half-registered metric. Individual histogram buckets are read
 *     with relaxed loads while writers keep writing; a snapshot is
 *     therefore exact for quiescent metrics and at worst a few events
 *     stale for hot ones — fine for monitoring, and delta() between two
 *     snapshots is what perf accounting uses.
 *
 * Histograms use fixed log-spaced buckets (8 per decade over
 * [100ns, 1000s]) and extract approximate p50/p90/p99 by linear
 * interpolation inside the owning bucket: the relative quantile error
 * is bounded by the bucket ratio 10^(1/8) ~ 1.33 (tested against exact
 * quantiles in test_obs.cpp).
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_annotations.hpp"

namespace baco::obs {

/** Monotonic event count. add() is lock-free. */
class Counter {
 public:
  void add(std::uint64_t n = 1)
  {
      value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const
  {
      return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/** Last-written instantaneous value; set()/add()/set_max() are
 *  lock-free. */
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  /** Move the value by d: a level that several owners raise and lower
   *  (live sessions, live clients) stays their process-wide total. */
  void add(double d)
  {
      double cur = value_.load(std::memory_order_relaxed);
      while (!value_.compare_exchange_weak(cur, cur + d,
                                           std::memory_order_relaxed)) {
      }
  }
  /** High-water update: keep the maximum of the current value and v. */
  void set_max(double v)
  {
      double cur = value_.load(std::memory_order_relaxed);
      while (v > cur &&
             !value_.compare_exchange_weak(cur, v,
                                           std::memory_order_relaxed)) {
      }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/** Histogram bucket layout: 8 log-spaced buckets per decade. */
struct HistogramLayout {
  static constexpr int kBucketsPerDecade = 8;
  static constexpr int kDecades = 10;
  static constexpr int kBuckets = kBucketsPerDecade * kDecades;
  static constexpr double kMinValue = 1e-7;  ///< lower edge of bucket 0

  /** Bucket index for a value (clamped to [0, kBuckets - 1]). */
  static int bucket_for(double v);
  /** Lower edge of bucket i (kMinValue * ratio^i). */
  static double lower_edge(int i);
};

/** A read-side copy of one histogram (also the delta representation). */
struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;  ///< kBuckets entries (maybe empty)
  std::uint64_t count = 0;             ///< sum over buckets
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;

  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
  /**
   * Approximate quantile (q in [0,1]) by linear interpolation inside
   * the bucket where the cumulative count crosses q*count, clamped to
   * the observed [min, max]. 0 when empty.
   */
  double percentile(double q) const;

  /** Events recorded here but not in `earlier` (bucket-wise subtract;
   *  min/max fall back to this snapshot's bounds). */
  HistogramSnapshot delta_since(const HistogramSnapshot& earlier) const;
};

/**
 * Fixed-bucket latency histogram. record() is lock-free: one relaxed
 * bucket increment, one relaxed CAS-add on the sum and (rarely looping)
 * min/max CAS updates.
 */
class Histogram {
 public:
  void record(double v);
  HistogramSnapshot snapshot() const;
  std::uint64_t count() const
  {
      return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> buckets_[HistogramLayout::kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<bool> has_bounds_{false};
};

/** One metric inside a MetricsSnapshot. */
struct MetricValue {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  double value = 0.0;           ///< counter / gauge value
  HistogramSnapshot histogram;  ///< kHistogram only

  static const char* kind_name(Kind k);
  static MetricValue counter(std::string name, double value);
  static MetricValue gauge(std::string name, double value);
};

/**
 * A source appends the entries of the live entities it owns; snapshot()
 * calls it on every read. It must not take a snapshot itself.
 */
using MetricsSource = std::function<void(std::vector<MetricValue>&)>;

/** A consistent value copy of a registry, sorted by metric name. */
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  /** The named metric, or nullptr. */
  const MetricValue* find(const std::string& name) const;
  /** Counter/gauge value (histograms: the sum); 0 when absent. */
  double value(const std::string& name) const;

  /**
   * Traffic since `earlier`: counters and histograms subtract (metrics
   * absent from `earlier` pass through whole), gauges keep their
   * current value. The basis of per-study and per-bench accounting
   * against the always-on global registry.
   */
  MetricsSnapshot delta_since(const MetricsSnapshot& earlier) const;

  /**
   * One flat JSON object (single line, JSONL-friendly): counters and
   * gauges as numbers, histograms expanded into .count/.sum/.mean/
   * .p50/.p90/.p99 fields. extra_fields (already-serialized "k":v
   * pairs, comma-joined) is prepended verbatim when nonempty.
   */
  std::string to_json(const std::string& extra_fields = {}) const;
};

/**
 * Named metric registry. counter()/gauge()/histogram() register on
 * first use and return a reference that stays valid for the registry's
 * lifetime; the returned objects are the lock-free update handles.
 * Using one name with two different kinds throws std::logic_error.
 * add_source() registers a MetricsSource, whose owner calls
 * remove_source() before it is destroyed.
 */
class MetricsRegistry {
 public:
  /** The process-wide registry every built-in instrumentation point
   *  writes to. */
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /** Register a source; returns the id remove_source() takes. */
  std::uint64_t add_source(MetricsSource source)
      BACO_EXCLUDES(sources_mutex_);
  /** Unregister a source. Waits for a snapshot that is calling it, so
   *  what the source reads may be destroyed once this returns. */
  void remove_source(std::uint64_t id) BACO_EXCLUDES(sources_mutex_);

  /** Every metric and every source's entries, sorted by name. */
  MetricsSnapshot snapshot() const
      BACO_EXCLUDES(mutex_, sources_mutex_);

 private:
  struct Entry {
    MetricValue::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(const std::string& name, MetricValue::Kind kind)
      BACO_EXCLUDES(mutex_);

  mutable baco::Mutex mutex_;
  std::map<std::string, Entry> entries_ BACO_GUARDED_BY(mutex_);

  /** Held while snapshot() calls the sources; never together with
   *  mutex_, so a source may register metrics. */
  mutable baco::Mutex sources_mutex_;
  std::map<std::uint64_t, MetricsSource> sources_
      BACO_GUARDED_BY(sources_mutex_);
  std::uint64_t next_source_ BACO_GUARDED_BY(sources_mutex_) = 1;
};

}  // namespace baco::obs

#endif  // BACO_OBS_METRICS_HPP_
