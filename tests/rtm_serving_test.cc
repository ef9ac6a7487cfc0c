/**
 * @file
 * Tests for the serving fast path: the generation-stamped response
 * cache (build coalescing, ETags, LRU, TTL floors, per-encoding
 * bodies) and the route table (every endpoint under /api/v1, reached
 * from /api through one alias that shares its cache key).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gpu/platform.hh"
#include "json/json.hh"
#include "rtm/respcache.hh"

using namespace akita;
using rtm::ResponseCache;

TEST(ResponseCache, BuildsOncePerGeneration)
{
    ResponseCache cache;
    auto build = []() { return std::string("body"); };
    auto a = cache.get("/x", 1, "text/plain", build);
    auto b = cache.get("/x", 1, "text/plain", build);
    EXPECT_EQ(cache.buildCount(), 1u);
    EXPECT_EQ(a->body, "body");
    EXPECT_EQ(a.get(), b.get()) << "same entry is shared";
}

TEST(ResponseCache, StaleGenerationRebuilds)
{
    ResponseCache cache;
    int calls = 0;
    auto build = [&]() { return "v" + std::to_string(++calls); };
    EXPECT_EQ(cache.get("/x", 1, "t", build)->body, "v1");
    EXPECT_EQ(cache.get("/x", 2, "t", build)->body, "v2");
    // Lower/equal generations are served from cache.
    EXPECT_EQ(cache.get("/x", 1, "t", build)->body, "v2");
    EXPECT_EQ(cache.get("/x", 2, "t", build)->body, "v2");
    EXPECT_EQ(cache.buildCount(), 2u);
}

TEST(ResponseCache, DistinctKeysBuildIndependently)
{
    ResponseCache cache;
    cache.get("/x?a=1", 1, "t", []() { return std::string("a"); });
    cache.get("/x?a=2", 1, "t", []() { return std::string("b"); });
    EXPECT_EQ(cache.buildCount(), 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ResponseCache, ConcurrentIdenticalRequestsCoalesce)
{
    // The ISSUE acceptance scenario: K simultaneous identical GETs
    // must trigger exactly one (slow) build, shared by all waiters.
    constexpr int kClients = 8;
    ResponseCache cache;
    std::atomic<int> entered{0};
    auto slowBuild = [&]() {
        entered++;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return std::string("shared");
    };

    std::vector<std::thread> threads;
    std::vector<std::shared_ptr<const ResponseCache::Entry>> results(
        kClients);
    for (int i = 0; i < kClients; i++) {
        threads.emplace_back([&, i]() {
            results[i] = cache.get("/hot", 7, "t", slowBuild);
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(cache.buildCount(), 1u);
    EXPECT_EQ(entered.load(), 1);
    for (const auto &r : results) {
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r->body, "shared");
        EXPECT_EQ(r.get(), results[0].get());
    }
}

TEST(ResponseCache, WaitersAcceptInFlightBuildAtNewerRequestedGen)
{
    // Generation sources like the engine event count advance
    // continuously; a waiter asking for gen G+1 while a build for G is
    // in flight must share that result instead of building again.
    ResponseCache cache;
    std::atomic<bool> inBuild{false};
    auto slowBuild = [&]() {
        inBuild = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return std::string("gen10");
    };

    std::thread first(
        [&]() { cache.get("/hot", 10, "t", slowBuild); });
    while (!inBuild.load())
        std::this_thread::yield();
    auto late = cache.get("/hot", 11, "t", slowBuild);
    first.join();

    EXPECT_EQ(late->body, "gen10");
    EXPECT_EQ(cache.buildCount(), 1u);
}

TEST(ResponseCache, EtagTracksBodyNotGeneration)
{
    ResponseCache cache;
    auto same = []() { return std::string("constant"); };
    std::string etag1 = cache.get("/x", 1, "t", same)->etag;
    std::string etag2 = cache.get("/x", 2, "t", same)->etag;
    // Generation advanced but the bytes did not: the ETag must be
    // stable so pollers keep getting 304s.
    EXPECT_EQ(etag1, etag2);
    EXPECT_EQ(etag1.front(), '"');
    EXPECT_EQ(etag1.back(), '"');

    std::string etag3 =
        cache.get("/x", 3, "t", []() { return std::string("changed"); })
            ->etag;
    EXPECT_NE(etag3, etag1);
}

TEST(ResponseCache, LruEvictsOldestKey)
{
    ResponseCache cache(2);
    auto build = []() { return std::string("b"); };
    cache.get("/a", 1, "t", build);
    cache.get("/b", 1, "t", build);
    cache.get("/a", 1, "t", build); // Touch /a so /b is the LRU.
    cache.get("/c", 1, "t", build);
    EXPECT_EQ(cache.size(), 2u);
    // /a survived; /b was evicted and needs a rebuild.
    cache.get("/a", 1, "t", build);
    EXPECT_EQ(cache.buildCount(), 3u);
    cache.get("/b", 1, "t", build);
    EXPECT_EQ(cache.buildCount(), 4u);
}

TEST(ResponseCache, BuilderExceptionPropagatesAndDoesNotPoison)
{
    ResponseCache cache;
    EXPECT_THROW(cache.get("/x", 1, "t",
                           []() -> std::string {
                               throw std::runtime_error("boom");
                           }),
                 std::runtime_error);
    // The key is not left in a stuck "building" state.
    EXPECT_EQ(cache.get("/x", 1, "t",
                        []() { return std::string("ok"); })
                  ->body,
              "ok");
}

TEST(ResponseCache, ClearDropsEntries)
{
    ResponseCache cache;
    cache.get("/x", 1, "t", []() { return std::string("b"); });
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    cache.get("/x", 1, "t", []() { return std::string("b"); });
    EXPECT_EQ(cache.buildCount(), 2u);
}

// ---------------------------------------------------------------------
// TTL floors, serving counters, and per-encoding bodies
// ---------------------------------------------------------------------

#include "rtm/monitor.hh"
#include "web/client.hh"
#include "web/encoding.hh"

TEST(ResponseCache, TtlFloorCoalescesAcrossGenerationBump)
{
    ResponseCache cache;
    int calls = 0;
    auto build = [&]() { return "v" + std::to_string(++calls); };
    // First polling wave builds at generation 1.
    EXPECT_EQ(cache.get("/x", 1, "t", build, /*ttl_ms=*/500)->body, "v1");
    // The generation bumps, but a second wave arrives within the TTL
    // floor: it must be served the (slightly stale) cached bytes.
    EXPECT_EQ(cache.get("/x", 2, "t", build, /*ttl_ms=*/500)->body, "v1");
    EXPECT_EQ(cache.buildCount(), 1u);
    EXPECT_EQ(cache.hitCount(), 1u);
    EXPECT_EQ(cache.missCount(), 1u);
}

TEST(ResponseCache, TtlZeroKeepsStrictGenerationSemantics)
{
    ResponseCache cache;
    int calls = 0;
    auto build = [&]() { return "v" + std::to_string(++calls); };
    EXPECT_EQ(cache.get("/x", 1, "t", build, 0)->body, "v1");
    EXPECT_EQ(cache.get("/x", 2, "t", build, 0)->body, "v2");
    EXPECT_EQ(cache.buildCount(), 2u);
}

TEST(ResponseCache, TtlExpiryRebuildsOnStaleGeneration)
{
    ResponseCache cache;
    int calls = 0;
    auto build = [&]() { return "v" + std::to_string(++calls); };
    cache.get("/x", 1, "t", build, 20);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    // TTL elapsed and the generation moved on: rebuild.
    EXPECT_EQ(cache.get("/x", 2, "t", build, 20)->body, "v2");
    // But a fresh-enough *generation* never needs the TTL.
    EXPECT_EQ(cache.get("/x", 2, "t", build, 20)->body, "v2");
    EXPECT_EQ(cache.buildCount(), 2u);
}

TEST(ResponseCache, CountersClassifyEveryOutcome)
{
    ResponseCache cache;
    auto build = []() { return std::string("body"); };
    cache.get("/x", 1, "t", build);  // miss
    cache.get("/x", 1, "t", build);  // hit
    cache.get("/x", 1, "t", build);  // hit
    EXPECT_EQ(cache.missCount(), 1u);
    EXPECT_EQ(cache.hitCount(), 2u);
    EXPECT_EQ(cache.coalesceCount(), 0u);
    EXPECT_EQ(cache.notModifiedCount(), 0u);
    cache.noteNotModified();
    EXPECT_EQ(cache.notModifiedCount(), 1u);

    // Waiters on an in-flight build count as coalesced, not hits.
    std::atomic<bool> inBuild{false};
    auto slowBuild = [&]() {
        inBuild = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(80));
        return std::string("slow");
    };
    std::thread first([&]() { cache.get("/slow", 1, "t", slowBuild); });
    while (!inBuild.load())
        std::this_thread::yield();
    cache.get("/slow", 1, "t", slowBuild);
    first.join();
    EXPECT_EQ(cache.coalesceCount(), 1u);
}

TEST(ResponseCache, EncodedBodyCompressesOncePerEntry)
{
    if (!web::encodingSupported())
        GTEST_SKIP() << "built without zlib";
    ResponseCache cache;
    std::string big;
    for (int i = 0; i < 300; i++)
        big += "repetitive cache payload segment " + std::to_string(i);
    auto entry =
        cache.get("/x", 1, "t", [&]() { return big; });

    const std::string *gz =
        cache.encodedBody(entry, web::ContentEncoding::Gzip);
    ASSERT_NE(gz, nullptr);
    EXPECT_LT(gz->size(), big.size());
    const std::string *again =
        cache.encodedBody(entry, web::ContentEncoding::Gzip);
    EXPECT_EQ(gz, again) << "same cached bytes, not a re-compression";
    EXPECT_EQ(cache.encodeCount(), 1u);

    std::string unpacked;
    ASSERT_TRUE(web::decompressBody(*gz, unpacked, 1u << 24));
    EXPECT_EQ(unpacked, entry->body);

    // A second coding is an independent variant of the same entry.
    const std::string *fl =
        cache.encodedBody(entry, web::ContentEncoding::Deflate);
    ASSERT_NE(fl, nullptr);
    EXPECT_EQ(cache.encodeCount(), 2u);

    // Identity asks for nothing.
    EXPECT_EQ(cache.encodedBody(entry, web::ContentEncoding::Identity),
              nullptr);

    // A new generation's entry starts with no encoded variants.
    auto entry2 = cache.get("/x", 2, "t", [&]() { return big + "!"; });
    cache.encodedBody(entry2, web::ContentEncoding::Gzip);
    EXPECT_EQ(cache.encodeCount(), 3u);
}

TEST(MonitorServing, CacheCountersExportedViaMetrics)
{
    rtm::MonitorConfig cfg;
    cfg.port = 0;
    cfg.announceUrl = false;
    cfg.metricsIntervalMs = 3600 * 1000; // Manual passes only.
    rtm::Monitor mon(cfg);
    ASSERT_TRUE(mon.startServer());

    web::PersistentClient client("127.0.0.1", mon.serverPort());
    auto a = client.get("/api/components");
    auto b = client.get("/api/components");
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_GE(mon.responseCache().hitCount() +
                  mon.responseCache().coalesceCount(),
              1u);

    auto metrics = client.get("/metrics");
    ASSERT_TRUE(metrics.has_value());
    EXPECT_NE(metrics->body.find(
                  "akita_rtm_response_cache_events_total{kind=\"hit\"}"),
              std::string::npos)
        << metrics->body.substr(0, 400);
    EXPECT_NE(metrics->body.find(
                  "akita_rtm_response_cache_events_total{kind=\"miss\"}"),
              std::string::npos);
    mon.stopServer();
}

// ---------------------------------------------------------------------
// Route table: /api/v1 handlers and the /api alias
// ---------------------------------------------------------------------

namespace
{

/**
 * A serving monitor over a tiny platform with a flight recorder, so
 * that every endpoint (including the /api/v1/recorder views) has
 * something to answer with.
 */
struct RouteRig
{
    std::string seg = "/tmp/akita_route_test_" +
                      std::to_string(::getpid()) + ".seg";
    gpu::Platform plat;
    rtm::Monitor mon;

    RouteRig()
        : plat(gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny())),
          mon(monitorConfig(seg))
    {
        mon.registerEngine(&plat.engine());
        for (auto *c : plat.components())
            mon.registerComponent(c);
        for (auto *conn : plat.connections())
            mon.registerConnection(conn);
        EXPECT_TRUE(mon.startServer());
    }

    ~RouteRig()
    {
        mon.stopServer();
        ::unlink(seg.c_str());
    }

    static rtm::MonitorConfig
    monitorConfig(const std::string &seg)
    {
        rtm::MonitorConfig cfg;
        cfg.announceUrl = false;
        cfg.autoSample = false; // Passes only when the test asks.
        cfg.recordPath = seg;
        return cfg;
    }
};

} // namespace

TEST(ApiRoutes, EveryPublishedPathAnswers)
{
    RouteRig rig;
    rig.mon.metricsSamplePass();
    web::PersistentClient c("127.0.0.1", rig.mon.serverPort());
    const std::string comp = "component=GPU%5B0%5D.RDMA";

    // The ten core endpoints, served under both spellings.
    std::vector<std::pair<std::string, std::string>> table;
    for (const char *prefix : {"/api/", "/api/v1/"}) {
        const std::string p = prefix;
        for (const std::string &get :
             {p + "status", p + "resources", p + "components",
              p + "component?name=GPU%5B0%5D.RDMA", p + "buffers",
              p + "progress", p + "topology"})
            table.emplace_back("GET", get);
        for (const std::string &post :
             {p + "pause", p + "resume", p + "tick?" + comp})
            table.emplace_back("POST", post);
    }
    // Profile, monitor and throughput, as clients have always spelled
    // them (unversioned).
    table.insert(table.end(),
                 {{"GET", "/api/profile"},
                  {"POST", "/api/profile/start"},
                  {"POST", "/api/profile/stop"},
                  {"GET", "/api/monitor/all"},
                  {"GET", "/api/throughput?" + comp}});
    // Paths published only in their versioned spelling.
    table.insert(
        table.end(),
        {{"GET", "/"},
         {"GET", "/metrics"},
         {"GET", "/api/v1/metrics"},
         {"GET", "/api/v1/metrics/query?name=akita_engine_events_total"},
         {"GET", "/api/v1/metrics/stream?name=akita_engine_events_total&"
                 "max_events=1"},
         {"GET", "/api/v1/hang"},
         {"GET", "/api/v1/recorder/info"},
         {"GET", "/api/v1/recorder/range?name=akita_engine_events_total"}});

    for (const auto &[method, target] : table) {
        auto r = method == "GET" ? c.get(target) : c.post(target, "");
        ASSERT_TRUE(r.has_value()) << method << " " << target;
        EXPECT_EQ(r->status, 200)
            << method << " " << target << ": " << r->body;
    }

    // The series endpoints need a tracked id.
    auto track = c.post("/api/monitor/track?" + comp + "&field=transactions",
                        "");
    ASSERT_TRUE(track.has_value());
    ASSERT_EQ(track->status, 200) << track->body;
    std::string id = std::to_string(
        json::Json::parse(track->body).getInt("id", 0));
    for (const std::string &get :
         {"/api/monitor/series?id=" + id, "/api/monitor/export?id=" + id}) {
        auto r = c.get(get);
        ASSERT_TRUE(r.has_value()) << get;
        EXPECT_EQ(r->status, 200) << get << ": " << r->body;
    }
    auto untrack = c.post("/api/monitor/untrack?id=" + id, "");
    ASSERT_TRUE(untrack.has_value());
    EXPECT_EQ(untrack->status, 200) << untrack->body;
}

TEST(ApiRoutes, AliasSharesTheVersionedCacheEntry)
{
    RouteRig rig;
    web::PersistentClient c("127.0.0.1", rig.mon.serverPort());
    std::uint64_t before = rig.mon.responseCache().buildCount();
    auto a = c.get("/api/buffers");
    auto b = c.get("/api/v1/buffers");
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->status, 200);
    EXPECT_EQ(b->status, 200);
    EXPECT_EQ(a->body, b->body);
    EXPECT_EQ(rig.mon.responseCache().buildCount() - before, 1u)
        << "both spellings must share one cache key";
}

TEST(ApiRoutes, UnknownPathsAreNotFound)
{
    RouteRig rig;
    web::PersistentClient c("127.0.0.1", rig.mon.serverPort());
    for (const char *target :
         {"/api/v1/nope", "/api/v1/v1/status", "/api/nope",
          "/api/metrics/stream"}) {
        auto r = c.get(target);
        ASSERT_TRUE(r.has_value()) << target;
        EXPECT_EQ(r->status, 404) << target;
    }
    // A method mismatch misses through the alias too.
    auto r = c.get("/api/pause");
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, 404);
}
