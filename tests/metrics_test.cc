/**
 * @file
 * Unit tests for the metrics subsystem: ring wraparound, downsample
 * bucket boundaries, histogram percentile math, registry behavior,
 * Prometheus rendering, and range queries past ring capacity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "metrics/registry.hh"
#include "metrics/ring.hh"
#include "metrics/series.hh"

using akita::metrics::AggBucket;
using akita::metrics::Counter;
using akita::metrics::Desc;
using akita::metrics::Gauge;
using akita::metrics::Histogram;
using akita::metrics::Labels;
using akita::metrics::MetricRegistry;
using akita::metrics::MultiResSeries;
using akita::metrics::RawSample;
using akita::metrics::Ring;
using akita::metrics::SeriesConfig;
using akita::metrics::SeriesMode;
using akita::metrics::Type;

TEST(Ring, FillAndWraparound)
{
    Ring<int> r(4);
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.capacity(), 4u);

    for (int i = 1; i <= 4; i++)
        r.push(i);
    EXPECT_EQ(r.size(), 4u);
    EXPECT_EQ(r.at(0), 1);
    EXPECT_EQ(r.back(), 4);

    // Wrap: 1 and 2 are evicted.
    r.push(5);
    r.push(6);
    EXPECT_EQ(r.size(), 4u);
    EXPECT_EQ(r.at(0), 3);
    EXPECT_EQ(r.at(1), 4);
    EXPECT_EQ(r.at(2), 5);
    EXPECT_EQ(r.back(), 6);

    auto snap = r.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_EQ(snap.front(), 3);
    EXPECT_EQ(snap.back(), 6);

    r.clear();
    EXPECT_TRUE(r.empty());
    r.push(7);
    EXPECT_EQ(r.back(), 7);
}

TEST(Ring, ManyWraps)
{
    Ring<int> r(3);
    for (int i = 0; i < 1000; i++)
        r.push(i);
    EXPECT_EQ(r.size(), 3u);
    EXPECT_EQ(r.at(0), 997);
    EXPECT_EQ(r.at(1), 998);
    EXPECT_EQ(r.at(2), 999);
}

TEST(Ring, SnapshotOfTheNewestMatchesAt)
{
    // Every fill level and head position, and every count: snapshot(n)
    // is the newest min(n, size) elements, oldest first.
    for (int pushes = 0; pushes <= 12; pushes++) {
        Ring<int> r(5);
        for (int i = 0; i < pushes; i++)
            r.push(i);
        for (std::size_t n = 0; n <= 6; n++) {
            auto snap = r.snapshot(n);
            std::size_t want = std::min(n, r.size());
            ASSERT_EQ(snap.size(), want) << pushes << " pushes, n " << n;
            for (std::size_t k = 0; k < want; k++)
                EXPECT_EQ(snap[k], r.at(r.size() - want + k));
        }
        EXPECT_EQ(r.snapshot().size(), r.size());
    }
}

TEST(Series, BucketBoundaryExactlyOnEdge)
{
    SeriesConfig cfg;
    MultiResSeries s(cfg);

    // Samples at 0, 500, 999 fall into the [0,1000) bucket; a sample
    // at exactly 1000 must open the next bucket.
    s.record(0, 0, 1.0);
    s.record(500, 0, 3.0);
    s.record(999, 0, 2.0);
    s.record(1000, 0, 10.0);

    auto buckets = s.query(0, 10000, 1000);
    ASSERT_EQ(buckets.size(), 2u);
    EXPECT_EQ(buckets[0].startMs, 0);
    EXPECT_EQ(buckets[0].count, 3u);
    EXPECT_DOUBLE_EQ(buckets[0].min, 1.0);
    EXPECT_DOUBLE_EQ(buckets[0].max, 3.0);
    EXPECT_DOUBLE_EQ(buckets[0].avg(), 2.0);
    EXPECT_DOUBLE_EQ(buckets[0].last, 2.0);
    EXPECT_EQ(buckets[1].startMs, 1000);
    EXPECT_EQ(buckets[1].count, 1u);
    EXPECT_DOUBLE_EQ(buckets[1].last, 10.0);
}

TEST(Series, DownsampleAggregatesPastRawCapacity)
{
    SeriesConfig cfg;
    cfg.rawCapacity = 16; // Tiny: raw history wraps quickly.
    MultiResSeries s(cfg);

    // Record 200 samples, 50 ms apart (4 s of data, 20/bucket) — far
    // more than the 16-sample raw ring holds.
    for (int i = 0; i < 200; i++)
        s.record(i * 50, static_cast<std::uint64_t>(i),
                 static_cast<double>(i));
    EXPECT_EQ(s.totalRecorded(), 200u);
    EXPECT_EQ(s.rawSnapshot().size(), 16u);

    // The 1 s resolution still has every bucket, with correct
    // aggregates computed from ALL samples, not just the retained raw.
    auto buckets = s.query(0, 1000000, 1000);
    ASSERT_EQ(buckets.size(), 10u); // 200*50ms = 10 s of buckets.
    for (std::size_t b = 0; b < buckets.size(); b++) {
        EXPECT_EQ(buckets[b].startMs,
                  static_cast<std::int64_t>(b) * 1000);
        EXPECT_EQ(buckets[b].count, 20u);
        double lo = static_cast<double>(b * 20);
        double hi = lo + 19;
        EXPECT_DOUBLE_EQ(buckets[b].min, lo);
        EXPECT_DOUBLE_EQ(buckets[b].max, hi);
        EXPECT_DOUBLE_EQ(buckets[b].avg(), (lo + hi) / 2);
        EXPECT_DOUBLE_EQ(buckets[b].last, hi);
    }

    // 10 s resolution folds everything into one bucket.
    auto coarse = s.query(0, 1000000, 10000);
    ASSERT_EQ(coarse.size(), 1u);
    EXPECT_EQ(coarse[0].count, 200u);
    EXPECT_DOUBLE_EQ(coarse[0].min, 0.0);
    EXPECT_DOUBLE_EQ(coarse[0].max, 199.0);
}

TEST(Series, RawQueryAndRangeFilter)
{
    SeriesConfig cfg;
    MultiResSeries s(cfg);
    for (int i = 0; i < 10; i++)
        s.record(i * 100, 0, static_cast<double>(i));

    // step < 1000 serves raw samples as single-count buckets.
    auto raw = s.query(200, 500, 1);
    ASSERT_EQ(raw.size(), 4u); // 200, 300, 400, 500.
    EXPECT_DOUBLE_EQ(raw.front().last, 2.0);
    EXPECT_DOUBLE_EQ(raw.back().last, 5.0);
    EXPECT_EQ(raw.front().count, 1u);
}

TEST(Instrument, CounterAndGauge)
{
    Counter c;
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);

    Gauge g;
    g.set(2.5);
    g.add(-0.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(Instrument, HistogramBucketsAndQuantiles)
{
    Histogram h({1.0, 10.0, 100.0});

    // 100 observations uniformly in (0, 1]: all in the first bucket.
    for (int i = 1; i <= 100; i++)
        h.observe(i / 100.0);
    auto s = h.snapshot();
    EXPECT_EQ(s.count, 100u);
    EXPECT_EQ(s.counts[0], 100u);
    EXPECT_NEAR(s.sum, 50.5, 1e-9);

    // Median of a uniform (0,1] fill interpolates to ~0.5.
    EXPECT_NEAR(s.quantile(0.5), 0.5, 0.02);
    EXPECT_NEAR(s.quantile(0.99), 0.99, 0.02);

    // Add 100 in (1, 10]: median now sits on the first bucket edge.
    for (int i = 1; i <= 100; i++)
        h.observe(1.0 + i * 9.0 / 100.0);
    s = h.snapshot();
    EXPECT_EQ(s.count, 200u);
    EXPECT_EQ(s.counts[1], 100u);
    EXPECT_NEAR(s.quantile(0.5), 1.0, 0.05);
    // p75 is halfway through the (1,10] bucket.
    EXPECT_NEAR(s.quantile(0.75), 5.5, 0.1);

    // Overflow observations report the last bound.
    h.observe(1e9);
    s = h.snapshot();
    EXPECT_EQ(s.counts[3], 1u);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
}

TEST(Instrument, HistogramExactBoundGoesToLowerBucket)
{
    Histogram h({1.0, 2.0});
    h.observe(1.0); // le="1" is inclusive (Prometheus semantics).
    auto s = h.snapshot();
    EXPECT_EQ(s.counts[0], 1u);
    EXPECT_EQ(s.counts[1], 0u);
}

TEST(Registry, OwnedInstrumentsAndPrometheusRender)
{
    MetricRegistry reg;

    Desc cd;
    cd.name = "test_events_total";
    cd.help = "Test events.";
    Counter *c = reg.addCounter(cd);
    c->inc(7);

    Desc gd;
    gd.name = "test_occupancy";
    gd.help = "Test occupancy.";
    gd.labels = {{"buffer", "A.TopPort.Buf"}};
    Gauge *g = reg.addGauge(gd);
    g->set(3);

    std::string text = reg.renderPrometheus();
    EXPECT_NE(text.find("# HELP test_events_total Test events.\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE test_events_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("test_events_total 7\n"), std::string::npos);
    EXPECT_NE(
        text.find("test_occupancy{buffer=\"A.TopPort.Buf\"} 3\n"),
        std::string::npos);
}

TEST(Registry, HistogramRenderIsCumulative)
{
    MetricRegistry reg;
    Desc hd;
    hd.name = "test_latency";
    hd.help = "Latency.";
    Histogram *h = reg.addHistogram(hd, {1.0, 10.0});
    h->observe(0.5);
    h->observe(5.0);
    h->observe(100.0);

    std::string text = reg.renderPrometheus();
    EXPECT_NE(text.find("test_latency_bucket{le=\"1\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("test_latency_bucket{le=\"10\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("test_latency_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("test_latency_count 3\n"), std::string::npos);
}

TEST(Registry, CallbackSamplingAndQuery)
{
    MetricRegistry reg;
    double value = 0;

    Desc d;
    d.name = "test_pull";
    d.help = "Pulled value.";
    d.series = SeriesMode::Full;
    reg.addCallback(d, [&value]() { return value; });

    for (int i = 0; i < 5; i++) {
        value = i;
        reg.samplePass(i * 1000, static_cast<std::uint64_t>(i) * 10,
                       {});
    }
    EXPECT_EQ(reg.version(), 5u);

    auto series = reg.query("test_pull", {}, 0, 1000000, 1000);
    ASSERT_EQ(series.size(), 1u);
    ASSERT_EQ(series[0].points.size(), 5u);
    EXPECT_DOUBLE_EQ(series[0].points[2].last, 2.0);
    EXPECT_EQ(series[0].points[2].startMs, 2000);
}

TEST(Registry, LockedCallbacksBatchUnderOneLock)
{
    MetricRegistry reg;
    int lockCalls = 0;

    for (int i = 0; i < 3; i++) {
        Desc d;
        d.name = "test_locked_" + std::to_string(i);
        d.needsLock = true;
        reg.addCallback(d, []() { return 1.0; });
    }
    Desc free_;
    free_.name = "test_free";
    reg.addCallback(free_, []() { return 2.0; });

    reg.samplePass(0, 0, [&lockCalls](const std::function<void()> &fn) {
        lockCalls++;
        fn();
    });
    // All three locked callbacks evaluated inside a single lock hold.
    EXPECT_EQ(lockCalls, 1);
}

TEST(Registry, LabelFilterAndRemove)
{
    MetricRegistry reg;
    Desc a;
    a.name = "test_multi";
    a.labels = {{"component", "A"}};
    a.series = SeriesMode::Full;
    std::uint64_t idA = reg.addPushed(a);

    Desc b;
    b.name = "test_multi";
    b.labels = {{"component", "B"}};
    b.series = SeriesMode::Full;
    std::uint64_t idB = reg.addPushed(b);

    reg.recordPushed(idA, 100, 0, 1.0);
    reg.recordPushed(idB, 100, 0, 2.0);

    auto all = reg.query("test_multi", {}, 0, 1000, 1);
    EXPECT_EQ(all.size(), 2u);
    auto onlyB =
        reg.query("test_multi", {{"component", "B"}}, 0, 1000, 1);
    ASSERT_EQ(onlyB.size(), 1u);
    EXPECT_DOUBLE_EQ(onlyB[0].points.at(0).last, 2.0);

    EXPECT_TRUE(reg.remove(idA));
    EXPECT_FALSE(reg.remove(idA));
    EXPECT_EQ(reg.query("test_multi", {}, 0, 1000, 1).size(), 1u);
}

TEST(Registry, LookupAfterRemovingFromTheMiddle)
{
    MetricRegistry reg;
    const std::size_t own = reg.size(); // The registry's own instruments.
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 20; i++) {
        Desc d;
        d.name = "test_lookup";
        d.labels = {{"i", std::to_string(i)}};
        ids.push_back(reg.addPushed(d));
    }
    std::vector<std::uint64_t> kept, removed;
    for (std::size_t i = 0; i < ids.size(); i++) {
        // Keep both ends and every third id; remove the rest.
        bool drop = i > 0 && i + 1 < ids.size() && i % 3 != 0;
        (drop ? removed : kept).push_back(ids[i]);
    }
    for (auto id : removed)
        EXPECT_TRUE(reg.remove(id));
    ASSERT_EQ(reg.size(), own + kept.size());

    for (auto id : kept) {
        reg.recordPushed(id, 100, id, static_cast<double>(id));
        auto raw = reg.rawSeries(id);
        ASSERT_EQ(raw.size(), 1u) << "id " << id;
        EXPECT_EQ(raw[0].simPs, id);
        EXPECT_DOUBLE_EQ(raw[0].value, static_cast<double>(id));
    }
    for (auto id : removed) {
        reg.recordPushed(id, 100, id, 1.0);
        EXPECT_TRUE(reg.rawSeries(id).empty()) << "id " << id;
        EXPECT_FALSE(reg.remove(id)) << "id " << id;
    }
    // Ids around and beyond the registered range are unknown too.
    EXPECT_TRUE(reg.rawSeries(0).empty());
    EXPECT_FALSE(reg.remove(ids.back() + 1));

    for (auto id : kept)
        EXPECT_TRUE(reg.remove(id)) << "id " << id;
    EXPECT_EQ(reg.size(), own);
}

TEST(Registry, WaitForSampleWakesOnPass)
{
    MetricRegistry reg;
    std::uint64_t seen = reg.version();

    std::thread waker([&reg]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        reg.samplePass(0, 0, {});
    });
    std::uint64_t v = reg.waitForSample(seen, 2000);
    waker.join();
    EXPECT_GT(v, seen);

    // Timeout path: no pass happens, returns within the timeout.
    std::uint64_t v2 = reg.waitForSample(v, 50);
    EXPECT_EQ(v2, v);
}

TEST(Registry, LatestValues)
{
    MetricRegistry reg;
    Desc d;
    d.name = "test_gauge";
    Gauge *g = reg.addGauge(d);
    g->set(4.5);
    reg.samplePass(123, 456, {});

    auto latest = reg.latest("test_gauge");
    ASSERT_EQ(latest.size(), 1u);
    EXPECT_DOUBLE_EQ(latest[0].value, 4.5);
    EXPECT_EQ(latest[0].wallMs, 123);
    EXPECT_EQ(latest[0].simPs, 456u);
}
