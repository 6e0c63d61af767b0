#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace baco::obs {

namespace {

/** ratio between adjacent bucket edges: 10^(1/kBucketsPerDecade). */
double
bucket_ratio()
{
    static const double r =
        std::pow(10.0, 1.0 / HistogramLayout::kBucketsPerDecade);
    return r;
}

/** Lock-free add on an atomic<double> (no fetch_add pre-C++20). */
void
atomic_add(std::atomic<double>& a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + v,
                                    std::memory_order_relaxed)) {
    }
}

void
atomic_min(std::atomic<double>& a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

void
atomic_max(std::atomic<double>& a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (v > cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

std::string
fmt_num(double v)
{
    std::ostringstream os;
    os.precision(10);
    os << v;
    return os.str();
}

}  // namespace

int
HistogramLayout::bucket_for(double v)
{
    if (!(v > kMinValue))  // includes NaN and non-positive values
        return 0;
    int i = static_cast<int>(std::log10(v / kMinValue) *
                             kBucketsPerDecade);
    return std::clamp(i, 0, kBuckets - 1);
}

double
HistogramLayout::lower_edge(int i)
{
    return kMinValue * std::pow(bucket_ratio(), i);
}

void
Histogram::record(double v)
{
    buckets_[HistogramLayout::bucket_for(v)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomic_add(sum_, v);
    if (!has_bounds_.load(std::memory_order_relaxed)) {
        // First recorder seeds the bounds; the CAS publishing has_bounds_
        // may race another first recorder, so seed with updates that are
        // correct either way (min towards -inf, max towards +inf).
        double expected_min = min_.load(std::memory_order_relaxed);
        double expected_max = max_.load(std::memory_order_relaxed);
        bool was_unset = !has_bounds_.exchange(true);
        if (was_unset) {
            min_.compare_exchange_strong(expected_min, v,
                                         std::memory_order_relaxed);
            max_.compare_exchange_strong(expected_max, v,
                                         std::memory_order_relaxed);
        }
    }
    atomic_min(min_, v);
    atomic_max(max_, v);
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot s;
    s.buckets.resize(HistogramLayout::kBuckets);
    std::uint64_t total = 0;
    for (int i = 0; i < HistogramLayout::kBuckets; ++i) {
        s.buckets[static_cast<std::size_t>(i)] =
            buckets_[i].load(std::memory_order_relaxed);
        total += s.buckets[static_cast<std::size_t>(i)];
    }
    // Derive count from the buckets so count/buckets stay internally
    // consistent even while writers race the read.
    s.count = total;
    s.sum = sum_.load(std::memory_order_relaxed);
    if (has_bounds_.load(std::memory_order_relaxed)) {
        s.min = min_.load(std::memory_order_relaxed);
        s.max = max_.load(std::memory_order_relaxed);
    }
    return s;
}

double
HistogramSnapshot::percentile(double q) const
{
    if (count == 0 || buckets.empty())
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the target event (0-based, nearest-rank interpolation).
    double rank = q * static_cast<double>(count - 1);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        std::uint64_t n = buckets[i];
        if (n == 0)
            continue;
        if (rank < static_cast<double>(below + n)) {
            double lo = HistogramLayout::lower_edge(static_cast<int>(i));
            double hi = HistogramLayout::lower_edge(static_cast<int>(i) + 1);
            double within =
                (rank - static_cast<double>(below)) / static_cast<double>(n);
            double v = lo + (hi - lo) * within;
            return std::clamp(v, min, max > 0.0 ? max : v);
        }
        below += n;
    }
    return max;
}

HistogramSnapshot
HistogramSnapshot::delta_since(const HistogramSnapshot& earlier) const
{
    HistogramSnapshot d;
    d.buckets.resize(buckets.size());
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        std::uint64_t before =
            i < earlier.buckets.size() ? earlier.buckets[i] : 0;
        d.buckets[i] = buckets[i] >= before ? buckets[i] - before : 0;
        total += d.buckets[i];
    }
    d.count = total;
    d.sum = sum - earlier.sum;
    if (d.sum < 0.0)
        d.sum = 0.0;
    // Exact interval bounds are not recoverable from two snapshots;
    // the lifetime bounds still clamp the interpolated percentiles.
    d.min = min;
    d.max = max;
    return d;
}

const char*
MetricValue::kind_name(Kind k)
{
    switch (k) {
      case Kind::kCounter: return "counter";
      case Kind::kGauge: return "gauge";
      case Kind::kHistogram: return "histogram";
    }
    return "?";
}

MetricValue
MetricValue::counter(std::string name, double value)
{
    MetricValue m;
    m.name = std::move(name);
    m.kind = Kind::kCounter;
    m.value = value;
    return m;
}

MetricValue
MetricValue::gauge(std::string name, double value)
{
    MetricValue m = counter(std::move(name), value);
    m.kind = Kind::kGauge;
    return m;
}

const MetricValue*
MetricsSnapshot::find(const std::string& name) const
{
    for (const MetricValue& m : metrics) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

double
MetricsSnapshot::value(const std::string& name) const
{
    const MetricValue* m = find(name);
    if (!m)
        return 0.0;
    return m->kind == MetricValue::Kind::kHistogram ? m->histogram.sum
                                                    : m->value;
}

MetricsSnapshot
MetricsSnapshot::delta_since(const MetricsSnapshot& earlier) const
{
    MetricsSnapshot d;
    d.metrics.reserve(metrics.size());
    for (const MetricValue& m : metrics) {
        const MetricValue* before = earlier.find(m.name);
        MetricValue out = m;
        if (before && before->kind == m.kind) {
            switch (m.kind) {
              case MetricValue::Kind::kCounter:
                out.value = std::max(0.0, m.value - before->value);
                break;
              case MetricValue::Kind::kGauge:
                break;  // gauges are instantaneous: keep the current value
              case MetricValue::Kind::kHistogram:
                out.histogram = m.histogram.delta_since(before->histogram);
                break;
            }
        }
        d.metrics.push_back(std::move(out));
    }
    return d;
}

std::string
MetricsSnapshot::to_json(const std::string& extra_fields) const
{
    std::string out = "{";
    if (!extra_fields.empty())
        out += extra_fields;
    auto field = [&out](const std::string& key, const std::string& value) {
        if (out.size() > 1)
            out += ", ";
        out += "\"" + key + "\": " + value;
    };
    for (const MetricValue& m : metrics) {
        switch (m.kind) {
          case MetricValue::Kind::kCounter:
          case MetricValue::Kind::kGauge:
            field(m.name, fmt_num(m.value));
            break;
          case MetricValue::Kind::kHistogram: {
            const HistogramSnapshot& h = m.histogram;
            field(m.name + ".count",
                  std::to_string(static_cast<unsigned long long>(h.count)));
            field(m.name + ".sum", fmt_num(h.sum));
            field(m.name + ".mean", fmt_num(h.mean()));
            field(m.name + ".p50", fmt_num(h.percentile(0.50)));
            field(m.name + ".p90", fmt_num(h.percentile(0.90)));
            field(m.name + ".p99", fmt_num(h.percentile(0.99)));
            break;
          }
        }
    }
    out += "}";
    return out;
}

MetricsRegistry&
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

MetricsRegistry::Entry&
MetricsRegistry::entry(const std::string& name, MetricValue::Kind kind)
{
    MutexLock lock(mutex_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
        if (it->second.kind != kind) {
            throw std::logic_error(
                "metric '" + name + "' already registered as " +
                MetricValue::kind_name(it->second.kind));
        }
        return it->second;
    }
    Entry e;
    e.kind = kind;
    switch (kind) {
      case MetricValue::Kind::kCounter:
        e.counter = std::make_unique<Counter>();
        break;
      case MetricValue::Kind::kGauge:
        e.gauge = std::make_unique<Gauge>();
        break;
      case MetricValue::Kind::kHistogram:
        e.histogram = std::make_unique<Histogram>();
        break;
    }
    return entries_.emplace(name, std::move(e)).first->second;
}

Counter&
MetricsRegistry::counter(const std::string& name)
{
    return *entry(name, MetricValue::Kind::kCounter).counter;
}

Gauge&
MetricsRegistry::gauge(const std::string& name)
{
    return *entry(name, MetricValue::Kind::kGauge).gauge;
}

Histogram&
MetricsRegistry::histogram(const std::string& name)
{
    return *entry(name, MetricValue::Kind::kHistogram).histogram;
}

std::uint64_t
MetricsRegistry::add_source(MetricsSource source)
{
    MutexLock lock(sources_mutex_);
    std::uint64_t id = next_source_++;
    sources_.emplace(id, std::move(source));
    return id;
}

void
MetricsRegistry::remove_source(std::uint64_t id)
{
    MutexLock lock(sources_mutex_);
    sources_.erase(id);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot s;
    {
        MutexLock lock(mutex_);
        s.metrics.reserve(entries_.size());
        for (const auto& [name, e] : entries_) {
            MetricValue m;
            m.name = name;
            m.kind = e.kind;
            switch (e.kind) {
              case MetricValue::Kind::kCounter:
                m.value = static_cast<double>(e.counter->value());
                break;
              case MetricValue::Kind::kGauge:
                m.value = e.gauge->value();
                break;
              case MetricValue::Kind::kHistogram:
                m.histogram = e.histogram->snapshot();
                break;
            }
            s.metrics.push_back(std::move(m));
        }
    }
    MutexLock lock(sources_mutex_);
    if (sources_.empty())
        return s;
    for (const auto& [id, source] : sources_)
        source(s.metrics);
    std::stable_sort(s.metrics.begin(), s.metrics.end(),
                     [](const MetricValue& a, const MetricValue& b) {
                         return a.name < b.name;
                     });
    return s;
}

}  // namespace baco::obs
