// src/obs under test: histogram percentile math against exact sample
// quantiles (the documented bucket-ratio error bound), lock-free
// counter/histogram updates hammered from N threads (the TSAN stage
// runs this binary), registry kind safety, snapshot deltas, and the
// trace buffer's bounded overwrite-oldest eviction.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <future>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace baco::obs {
namespace {

/** Exact quantile of a sample set (sorted, linear interpolation). */
double
exact_percentile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    double rank = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// The documented approximation bound: linear interpolation inside a
// log-spaced bucket keeps the relative error under the bucket ratio
// 10^(1/8) - 1 ~ 0.334.
constexpr double kMaxRelativeError = 0.34;

void
check_percentiles(const std::vector<double>& samples)
{
    Histogram h;
    for (double v : samples)
        h.record(v);
    HistogramSnapshot snap = h.snapshot();
    ASSERT_EQ(snap.count, samples.size());
    for (double q : {0.50, 0.90, 0.99}) {
        double approx = snap.percentile(q);
        double exact = exact_percentile(samples, q);
        EXPECT_NEAR(approx, exact, exact * kMaxRelativeError)
            << "q=" << q << " n=" << samples.size();
    }
    // Extremes are tracked exactly, not bucket-approximated.
    EXPECT_DOUBLE_EQ(snap.min,
                     *std::min_element(samples.begin(), samples.end()));
    EXPECT_DOUBLE_EQ(snap.max,
                     *std::max_element(samples.begin(), samples.end()));
}

TEST(HistogramPercentiles, UniformDistributionWithinBucketBound)
{
    std::mt19937_64 rng(42);
    std::uniform_real_distribution<double> dist(1e-3, 0.1);
    std::vector<double> samples(5000);
    for (double& v : samples)
        v = dist(rng);
    check_percentiles(samples);
}

TEST(HistogramPercentiles, LognormalDistributionWithinBucketBound)
{
    // The latency-shaped case: heavy tail across several decades.
    std::mt19937_64 rng(7);
    std::lognormal_distribution<double> dist(std::log(5e-3), 1.2);
    std::vector<double> samples(5000);
    for (double& v : samples)
        v = dist(rng);
    check_percentiles(samples);
}

TEST(HistogramPercentiles, DegenerateAndEdgeInputs)
{
    Histogram h;
    EXPECT_DOUBLE_EQ(h.snapshot().percentile(0.5), 0.0);  // empty

    h.record(0.0);    // below the first bucket edge
    h.record(-1.0);   // negative: clamped into bucket 0
    h.record(1e9);    // beyond the last edge: clamped into the top bucket
    HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 3u);
    // Percentiles stay inside the observed bounds even for clamped
    // values far outside the bucket range.
    EXPECT_GE(snap.percentile(0.99), snap.min);
    EXPECT_LE(snap.percentile(0.99), snap.max);

    Histogram single;
    single.record(0.004);
    EXPECT_NEAR(single.snapshot().percentile(0.5), 0.004, 1e-12);
    EXPECT_NEAR(single.snapshot().percentile(0.99), 0.004, 1e-12);
}

TEST(HistogramPercentiles, SnapshotCountConsistentWithBuckets)
{
    Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.record(1e-5 * i);
    HistogramSnapshot snap = h.snapshot();
    std::uint64_t bucket_sum = 0;
    for (std::uint64_t b : snap.buckets)
        bucket_sum += b;
    EXPECT_EQ(snap.count, bucket_sum);
}

TEST(MetricsConcurrency, CountersAndHistogramsExactUnderContention)
{
    MetricsRegistry registry;
    Counter& counter = registry.counter("test.events");
    Histogram& hist = registry.histogram("test.latency");
    Gauge& peak = registry.gauge("test.peak");

    const int kThreads = 8;
    const int kPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                counter.add();
                hist.record(1e-4 * (1 + ((t * kPerThread + i) % 100)));
                peak.set_max(static_cast<double>(i % 1000));
            }
        });
    }
    for (std::thread& t : threads)
        t.join();

    const std::uint64_t expected =
        static_cast<std::uint64_t>(kThreads) * kPerThread;
    EXPECT_EQ(counter.value(), expected);
    HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count, expected);
    // The CAS-add sum is exact (no lost updates), not just approximate.
    double exact_sum = 0.0;
    for (int t = 0; t < kThreads; ++t)
        for (int i = 0; i < kPerThread; ++i)
            exact_sum += 1e-4 * (1 + ((t * kPerThread + i) % 100));
    EXPECT_NEAR(snap.sum, exact_sum, exact_sum * 1e-9);
    EXPECT_DOUBLE_EQ(peak.value(), 999.0);
}

TEST(MetricsRegistry_, SameNameSameObjectDifferentKindThrows)
{
    MetricsRegistry registry;
    Counter& a = registry.counter("dup");
    Counter& b = registry.counter("dup");
    EXPECT_EQ(&a, &b);
    EXPECT_THROW(registry.gauge("dup"), std::logic_error);
    EXPECT_THROW(registry.histogram("dup"), std::logic_error);
}

TEST(MetricsRegistry_, SnapshotAndDelta)
{
    MetricsRegistry registry;
    Counter& c = registry.counter("n");
    Histogram& h = registry.histogram("lat");
    registry.gauge("depth").set(3.0);

    c.add(5);
    h.record(0.01);
    MetricsSnapshot before = registry.snapshot();

    c.add(7);
    h.record(0.02);
    h.record(0.03);
    registry.gauge("depth").set(9.0);
    MetricsSnapshot delta = registry.snapshot().delta_since(before);

    EXPECT_DOUBLE_EQ(delta.value("n"), 7.0);         // counter subtracts
    EXPECT_DOUBLE_EQ(delta.value("depth"), 9.0);     // gauge passes through
    const MetricValue* lat = delta.find("lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->histogram.count, 2u);
    EXPECT_NEAR(lat->histogram.sum, 0.05, 1e-12);
    EXPECT_EQ(delta.find("missing"), nullptr);
    EXPECT_DOUBLE_EQ(delta.value("missing"), 0.0);

    std::string json = delta.to_json("\"tag\":1");
    EXPECT_NE(json.find("\"tag\":1"), std::string::npos);
    EXPECT_NE(json.find("\"n\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"lat.count\": 2"), std::string::npos);
}

TEST(MetricsSource, ReportsLiveEntriesSortedUntilRemoved)
{
    MetricsRegistry registry;
    registry.counter("b.events").add(2);
    double level = 1.0;
    std::uint64_t id =
        registry.add_source([&level](std::vector<MetricValue>& out) {
            out.push_back(MetricValue::gauge("a.level", level));
            out.push_back(MetricValue::counter("c.seen", 3.0));
        });
    level = 5.0;  // read when the snapshot is taken
    MetricsSnapshot s = registry.snapshot();
    ASSERT_EQ(s.metrics.size(), 3u);
    EXPECT_EQ(s.metrics[0].name, "a.level");
    EXPECT_EQ(s.metrics[0].kind, MetricValue::Kind::kGauge);
    EXPECT_EQ(s.metrics[0].value, 5.0);
    EXPECT_EQ(s.metrics[1].name, "b.events");
    EXPECT_EQ(s.metrics[2].name, "c.seen");
    EXPECT_EQ(s.metrics[2].kind, MetricValue::Kind::kCounter);

    registry.remove_source(id);
    s = registry.snapshot();
    ASSERT_EQ(s.metrics.size(), 1u);
    EXPECT_EQ(s.metrics[0].name, "b.events");
}

TEST(MetricsSource, RemoveWaitsForASnapshotCallingTheSource)
{
    MetricsRegistry registry;
    std::promise<void> entered;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::uint64_t id =
        registry.add_source([&](std::vector<MetricValue>&) {
            entered.set_value();
            released.wait();
        });
    std::thread reader([&registry] { registry.snapshot(); });
    entered.get_future().wait();
    std::atomic<bool> removed{false};
    std::thread remover([&] {
        registry.remove_source(id);
        removed.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(removed.load());
    release.set_value();
    remover.join();
    reader.join();
    EXPECT_TRUE(removed.load());
}

TEST(ScopedTimerTest, RecordsElapsedSecondsIntoHistogram)
{
    Histogram h;
    {
        ScopedTimer timer(h);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        EXPECT_GE(timer.elapsed(), 0.004);
    }
    HistogramSnapshot snap = h.snapshot();
    ASSERT_EQ(snap.count, 1u);
    EXPECT_GE(snap.sum, 0.004);
    EXPECT_LT(snap.sum, 5.0);  // sanity: seconds, not ns/us units
}

#if !defined(BACO_OBS_TRACE_OFF)

TEST(TraceBuffer, DisabledSpansRecordNothing)
{
    Trace::disable();
    Trace::clear();
    {
        Span span("not.recorded", "test");
    }
    EXPECT_TRUE(Trace::collect().empty());
}

TEST(TraceBuffer, CapturesSpansWithDurations)
{
    Trace::clear();
    Trace::enable();
    {
        Span outer("outer.span", "test");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        Span inner("inner.span", "test");
    }
    Trace::disable();
    std::vector<TraceEvent> events = Trace::collect();
    Trace::clear();
    ASSERT_EQ(events.size(), 2u);
    bool saw_outer = false;
    for (const TraceEvent& e : events) {
        if (std::string(e.name) == "outer.span") {
            saw_outer = true;
            EXPECT_GE(e.duration_us, 2000u);
        }
    }
    EXPECT_TRUE(saw_outer);
}

TEST(TraceBuffer, BoundedRingEvictsOldestKeepsNewest)
{
    Trace::clear();
    Trace::enable();
    // Well past capacity, from one thread: the ring must hold exactly
    // kBufferCapacity events and they must be the most recent ones.
    const std::size_t total = Trace::kBufferCapacity + 500;
    static const char* const kNames[2] = {"old.span", "new.span"};
    for (std::size_t i = 0; i < total; ++i) {
        Span span(i < 500 ? kNames[0] : kNames[1], "test");
    }
    Trace::disable();
    std::vector<TraceEvent> events = Trace::collect();
    Trace::clear();
    ASSERT_EQ(events.size(), Trace::kBufferCapacity);
    // The 500 oldest ("old.span") were all overwritten.
    for (const TraceEvent& e : events)
        EXPECT_STREQ(e.name, "new.span");
    // Oldest-first order within the thread.
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events[i].start_us, events[i - 1].start_us);
}

TEST(TraceBuffer, MultiThreadSpansLandInPerThreadBuffers)
{
    Trace::clear();
    Trace::enable();
    const int kThreads = 4;
    const int kPerThread = 100;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < kPerThread; ++i) {
                Span span("thread.span", "test");
            }
        });
    }
    for (std::thread& t : threads)
        t.join();
    Trace::disable();
    std::vector<TraceEvent> events = Trace::collect();
    Trace::clear();
    EXPECT_EQ(events.size(),
              static_cast<std::size_t>(kThreads) * kPerThread);
    std::vector<std::uint64_t> tids;
    for (const TraceEvent& e : events)
        tids.push_back(e.thread_id);
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
    EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST(TraceBuffer, ChromeExportWritesWellFormedDocument)
{
    Trace::clear();
    Trace::enable();
    {
        Span span("export.span", "test");
    }
    Trace::disable();
    std::string path = ::testing::TempDir() + "baco_trace_test.json";
    ASSERT_TRUE(Trace::export_chrome(path));
    std::ifstream in(path);
    std::string doc((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"export.span\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
    Trace::clear();
}

TEST(TraceBuffer, SpansFromExitedThreadsSurviveCollection)
{
    Trace::clear();
    Trace::enable();
    // Short-lived workers (a ThreadPool sized down, a finished client
    // thread) must not take their ring buffers' spans with them.
    for (int t = 0; t < 3; ++t) {
        std::thread worker([] {
            Span span("short.lived", "test");
        });
        worker.join();
    }
    {
        Span span("long.lived", "test");
    }
    Trace::disable();
    std::vector<TraceEvent> events = Trace::collect();
    Trace::clear();
    int short_lived = 0;
    int long_lived = 0;
    for (const TraceEvent& e : events) {
        if (std::string(e.name) == "short.lived")
            ++short_lived;
        if (std::string(e.name) == "long.lived")
            ++long_lived;
    }
    EXPECT_EQ(short_lived, 3);
    EXPECT_EQ(long_lived, 1);
}

TEST(TraceBuffer, RemoteTracksMergeIntoOneChromeDocument)
{
    Trace::clear();
    Trace::enable();
    Trace::set_run_id("run-merge-test");
    {
        Span span("server.span", "coord");
    }
    auto remote_span = [](const char* name, std::uint64_t ts) {
        RemoteSpan s;
        s.name = name;
        s.category = "worker";
        s.run = "run-merge-test";
        s.thread_id = 1;
        s.start_us = ts;
        s.duration_us = 50;
        return s;
    };
    Trace::add_remote("worker-0", {remote_span("worker.evaluate", 10)});
    Trace::add_remote("worker-1", {remote_span("worker.evaluate", 20),
                                   remote_span("worker.evaluate", 90)});
    // A second shipment appends to the existing track, not a new one.
    Trace::add_remote("worker-0", {remote_span("worker.evaluate", 200)});
    Trace::disable();

    auto tracks = Trace::remote_tracks();
    ASSERT_EQ(tracks.size(), 2u);
    EXPECT_EQ(tracks[0].first, "worker-0");
    EXPECT_EQ(tracks[0].second.size(), 2u);
    EXPECT_EQ(tracks[1].first, "worker-1");
    EXPECT_EQ(tracks[1].second.size(), 2u);

    std::string path = ::testing::TempDir() + "baco_trace_merged.json";
    ASSERT_TRUE(Trace::export_chrome(path));
    std::ifstream in(path);
    std::string doc((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    Trace::clear();
    // One timeline: the server's own track plus one process per worker,
    // all carrying the run id.
    EXPECT_NE(doc.find("\"server.span\""), std::string::npos);
    EXPECT_NE(doc.find("\"worker-0\""), std::string::npos);
    EXPECT_NE(doc.find("\"worker-1\""), std::string::npos);
    EXPECT_NE(doc.find("\"worker.evaluate\""), std::string::npos);
    EXPECT_NE(doc.find("run-merge-test"), std::string::npos);
}

#endif  // !BACO_OBS_TRACE_OFF

}  // namespace
}  // namespace baco::obs
