/**
 * @file
 * Integration tests: a live monitored simulation queried over HTTP —
 * the full AkitaRTM stack end to end, including the case-study-2
 * debugging workflow (hang detection, buffer residue, per-component
 * tick) and the pause/resume determinism property.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>

#include "gpu/platform.hh"
#include "json/json.hh"
#include "rtm/monitor.hh"
#include "web/client.hh"
#include "workloads/workloads.hh"

using namespace akita;
using akita::json::Json;

namespace
{

gpu::KernelDescriptor
smallKernel(std::uint32_t wgs)
{
    gpu::KernelDescriptor k;
    k.name = "small";
    k.numWorkGroups = wgs;
    k.wavefrontsPerWG = 2;
    k.trace = [](std::uint32_t wg, std::uint32_t wf) {
        std::vector<gpu::WfOp> ops;
        for (int i = 0; i < 4; i++) {
            ops.push_back(gpu::WfOp::load(
                0x10000ull + (wg * 64 + wf * 16 + i) * 4096, 64, 2));
        }
        return ops;
    };
    return k;
}

/** Platform + monitor + server, sim running on a worker thread. */
struct LiveRig
{
    gpu::Platform plat;
    rtm::Monitor mon;
    std::thread simThread;

    explicit LiveRig(gpu::PlatformConfig cfg =
                         gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny()),
                     rtm::MonitorConfig mcfg = quietConfig())
        : plat(withEngineEnv(std::move(cfg))), mon(mcfg)
    {
        mon.registerEngine(&plat.engine());
        for (auto *c : plat.components())
            mon.registerComponent(c);
        plat.driver().setProgressListener(&mon);
        EXPECT_TRUE(mon.startServer());
    }

    /** AKITA_ENGINE/AKITA_DOMAINS select the engine (CI TSan job). */
    static gpu::PlatformConfig
    withEngineEnv(gpu::PlatformConfig cfg)
    {
        gpu::applyEngineEnv(cfg);
        return cfg;
    }

    static rtm::MonitorConfig
    quietConfig()
    {
        rtm::MonitorConfig cfg;
        cfg.announceUrl = false;
        cfg.sampleIntervalMs = 10;
        cfg.hangThresholdSec = 0.2;
        return cfg;
    }

    void
    runAsync()
    {
        simThread = std::thread([this]() { plat.run(); });
    }

    void
    join()
    {
        if (simThread.joinable())
            simThread.join();
    }

    ~LiveRig()
    {
        plat.engine().stop();
        join();
        mon.stopServer();
    }

    web::HttpClient
    client() const
    {
        return web::HttpClient("127.0.0.1", mon.serverPort());
    }
};

Json
getJson(const web::HttpClient &c, const std::string &target)
{
    auto r = c.get(target);
    EXPECT_TRUE(r.has_value()) << target;
    EXPECT_EQ(r->status, 200) << target << ": " << r->body;
    return Json::parse(r->body);
}

} // namespace

TEST(RtmHttp, StatusProgressAndCompletion)
{
    LiveRig rig;
    auto k = smallKernel(64);
    rig.plat.launchKernel(&k);
    rig.runAsync();
    auto c = rig.client();

    // Poll until completion; progress bars must reach 64/64.
    for (int i = 0; i < 500; i++) {
        Json bars = getJson(c, "/api/progress");
        if (bars.size() == 1 &&
            bars.at(0).getInt("completed", 0) == 64)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    rig.join();

    Json bars = getJson(c, "/api/progress");
    ASSERT_EQ(bars.size(), 1u);
    EXPECT_EQ(bars.at(0).getStr("label"), "kernel small");
    EXPECT_EQ(bars.at(0).getInt("completed", 0), 64);
    EXPECT_EQ(bars.at(0).getInt("not_started", -1), 0);

    Json status = getJson(c, "/api/status");
    EXPECT_GT(status.getInt("now_ps", 0), 0);
    EXPECT_GT(status.getInt("events", 0), 0);
}

TEST(RtmHttp, ComponentHierarchyAndSnapshot)
{
    LiveRig rig;
    auto c = rig.client();

    Json tree = getJson(c, "/api/components");
    ASSERT_NE(tree.get("children"), nullptr);
    // Root children include Driver, GPU[0..3], Network is not a
    // component (it is a connection), so expect 5 nodes.
    EXPECT_GE(tree.get("children")->size(), 5u);

    Json comp = getJson(
        c, "/api/component?name=GPU%5B0%5D.SA%5B0%5D.L1VCache%5B0%5D");
    EXPECT_EQ(comp.getStr("name"), "GPU[0].SA[0].L1VCache[0]");
    bool hasMshrCap = false;
    for (const auto &f : comp.get("fields")->items()) {
        if (f.getStr("name") == "mshr_capacity") {
            hasMshrCap = true;
            EXPECT_EQ(f.getInt("value", 0), 16);
        }
    }
    EXPECT_TRUE(hasMshrCap);

    auto missing = c.get("/api/component?name=Ghost");
    EXPECT_EQ(missing->status, 404);
    auto noName = c.get("/api/component");
    EXPECT_EQ(noName->status, 400);
}

TEST(RtmHttp, BufferAnalyzerDuringLoad)
{
    LiveRig rig;
    auto k = smallKernel(256);
    rig.plat.launchKernel(&k);
    rig.runAsync();
    auto c = rig.client();

    // While the simulation runs, the analyzer must report rows with the
    // Fig. 3 columns and honour sort/top parameters.
    Json rows = getJson(c, "/api/buffers?sort=percent&top=10");
    EXPECT_LE(rows.size(), 10u);
    if (rows.size() >= 2) {
        EXPECT_GE(rows.at(0).getNumber("percent", 0),
                  rows.at(1).getNumber("percent", 0));
    }
    rig.join();

    rows = getJson(c, "/api/buffers?sort=size&top=5");
    for (const auto &row : rows.items()) {
        EXPECT_FALSE(row.getStr("buffer").empty());
        EXPECT_GE(row.getInt("cap", 0), row.getInt("size", 0));
    }
}

TEST(RtmHttp, ValueMonitoringOverHttp)
{
    LiveRig rig;
    auto k = smallKernel(512);
    rig.plat.launchKernel(&k);
    rig.runAsync();
    auto c = rig.client();

    auto track = c.post(
        "/api/monitor/track?component=GPU%5B0%5D.RDMA&field=transactions",
        "");
    ASSERT_TRUE(track.has_value());
    ASSERT_EQ(track->status, 200) << track->body;
    std::int64_t id = Json::parse(track->body).getInt("id", 0);
    ASSERT_GT(id, 0);

    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    Json series = getJson(c, "/api/monitor/series?id=" +
                                 std::to_string(id));
    EXPECT_EQ(series.getStr("component"), "GPU[0].RDMA");
    EXPECT_GE(series.get("points")->size(), 2u);

    auto untrack =
        c.post("/api/monitor/untrack?id=" + std::to_string(id), "");
    EXPECT_EQ(untrack->status, 200);
    auto gone = c.get("/api/monitor/series?id=" + std::to_string(id));
    EXPECT_EQ(gone->status, 404);

    rig.join();
}

TEST(RtmHttp, PauseFreezesVirtualTime)
{
    LiveRig rig;
    auto k = smallKernel(2048);
    rig.plat.launchKernel(&k);
    rig.runAsync();
    auto c = rig.client();

    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(c.post("/api/pause", "")->status, 200);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::int64_t t1 = getJson(c, "/api/status").getInt("now_ps", 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::int64_t t2 = getJson(c, "/api/status").getInt("now_ps", 0);
    EXPECT_EQ(t1, t2) << "virtual time advanced while paused";
    EXPECT_TRUE(getJson(c, "/api/status").getBool("paused", false));

    EXPECT_EQ(c.post("/api/resume", "")->status, 200);
    rig.join();
    std::int64_t t3 = getJson(c, "/api/status").getInt("now_ps", 0);
    EXPECT_GT(t3, t2);
}

TEST(RtmHttp, ProfilerEndpoints)
{
    LiveRig rig;
    auto k = smallKernel(256);
    rig.plat.launchKernel(&k);
    auto c = rig.client();

    EXPECT_EQ(c.post("/api/profile/start", "")->status, 200);
    rig.runAsync();
    rig.join();

    Json prof = getJson(c, "/api/profile?top=10");
    EXPECT_TRUE(prof.getBool("enabled", false));
    ASSERT_GT(prof.get("functions")->size(), 0u);
    // Tick handlers of simulated components must appear.
    bool sawTick = false;
    for (const auto &f : prof.get("functions")->items()) {
        if (f.getStr("name").find("::tick") != std::string::npos)
            sawTick = true;
        EXPECT_GE(f.getInt("total_ns", 0), f.getInt("self_ns", 0));
    }
    EXPECT_TRUE(sawTick);
    EXPECT_EQ(c.post("/api/profile/stop", "")->status, 200);
}

TEST(RtmHttp, DashboardServed)
{
    LiveRig rig;
    auto c = rig.client();
    auto r = c.get("/");
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, 200);
    EXPECT_NE(r->body.find("AkitaRTM"), std::string::npos);
    // Mount-relative fetch targets (no leading slash): the same HTML
    // works at / and under a fleet-gateway /sim/<id>/ prefix.
    EXPECT_NE(r->body.find("get('api/v1/status')"), std::string::npos);
    EXPECT_EQ(r->body.find("'/api/"), std::string::npos)
        << "absolute API URLs break gateway-mounted dashboards";
}

TEST(RtmHttp, CaseStudy2HangWorkflow)
{
    // The paper's second case study over the real API: the legacy L2
    // deadlock fires; the dashboard detects the hang; buffer residue
    // points at the L2; per-component Tick wakes components but cannot
    // resolve a true deadlock.
    gpu::PlatformConfig cfg =
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    cfg.legacyL2Deadlock = true;
    cfg.gpu.l2.numSets = 1;
    cfg.gpu.l2.ways = 4;
    cfg.gpu.l2.wbInCapacity = 2;
    cfg.gpu.l2.installCapacity = 2;
    cfg.gpu.l2.wbFetchedCapacity = 2;
    cfg.gpu.l2.dramWriteInflightMax = 1;

    LiveRig rig(cfg);
    workloads::TransposeParams tp;
    tp.n = 128;
    auto k = workloads::makeTranspose(tp);
    rig.plat.launchKernel(&k);
    rig.runAsync();
    auto c = rig.client();

    // Wait for the hang signature: frozen time + drained queue.
    bool hangSeen = false;
    for (int i = 0; i < 600 && !hangSeen; i++) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        Json st = getJson(c, "/api/status");
        hangSeen = st.get("hang")->getBool("hanging", false) &&
                   st.get("hang")->getBool("queue_drained", false);
    }
    ASSERT_TRUE(hangSeen) << "hang was not detected";

    // Bottleneck analyzer: non-empty buffers identify stuck components.
    Json rows = getJson(c, "/api/buffers?sort=size&top=50");
    bool l2Residue = false;
    for (const auto &row : rows.items()) {
        if (row.getInt("size", 0) > 0 &&
            row.getStr("buffer").find(".L2[") != std::string::npos)
            l2Residue = true;
    }
    EXPECT_TRUE(l2Residue) << "L2 buffers should hold residue";

    // The Tick button wakes a component; the engine revives briefly
    // but the deadlock persists (time stays frozen afterwards).
    std::int64_t tBefore = getJson(c, "/api/status").getInt("now_ps", 0);
    auto tick = c.post("/api/tick?component=GPU%5B0%5D.L2%5B0%5D", "");
    EXPECT_EQ(tick->status, 200);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::int64_t tAfter = getJson(c, "/api/status").getInt("now_ps", 0);
    EXPECT_GE(tAfter, tBefore);
    EXPECT_LE(tAfter - tBefore, 10000) << "a kicked deadlock must not "
                                          "make real progress";

    rig.plat.engine().stop();
    rig.join();
}

TEST(RtmHttp, PrometheusScrapeHasFamilies)
{
    LiveRig rig;
    auto k = smallKernel(256);
    rig.plat.launchKernel(&k);
    rig.runAsync();
    auto c = rig.client();

    // Let the sampler take a few passes while the workload runs.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    auto r = c.get("/metrics");
    ASSERT_TRUE(r.has_value());
    ASSERT_EQ(r->status, 200);

    // Count distinct instrument families from "# TYPE <name> <kind>".
    std::set<std::string> families;
    std::istringstream lines(r->body);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("# TYPE ", 0) == 0) {
            auto sp = line.find(' ', 7);
            families.insert(line.substr(7, sp - 7));
        }
    }
    EXPECT_GE(families.size(), 10u) << r->body;
    for (const char *want :
         {"akita_engine_events_total", "akita_engine_virtual_time_seconds",
          "akita_port_sent_total", "akita_buffer_occupancy",
          "akita_cache_hits_total", "akita_dram_reads_total",
          "akita_rdma_forwarded_out_total", "akita_cu_completed_wgs_total",
          "akita_http_requests_total",
          "akita_metrics_sample_pass_seconds"}) {
        EXPECT_TRUE(families.count(want)) << "missing family " << want;
    }
    rig.join();
}

TEST(RtmHttp, MetricsQueryEndpoint)
{
    LiveRig rig;
    auto k = smallKernel(256);
    rig.plat.launchKernel(&k);
    rig.runAsync();
    auto c = rig.client();
    rig.join();
    // Workload done; force one more pass so the final totals land.
    rig.mon.metricsSamplePass();

    auto missing = c.get("/api/v1/metrics/query");
    EXPECT_EQ(missing->status, 400);

    Json list = getJson(c, "/api/v1/metrics");
    EXPECT_GE(list.size(), 10u);

    Json series = getJson(
        c, "/api/v1/metrics/query?name=akita_engine_events_total&step=1");
    ASSERT_EQ(series.size(), 1u);
    const Json *pts = series.at(0).get("points");
    ASSERT_NE(pts, nullptr);
    ASSERT_GE(pts->size(), 1u);
    // Cumulative event counter: non-decreasing across points, positive
    // at the end.
    double prev = -1;
    for (const auto &p : pts->items()) {
        double last = p.getNumber("last", -1);
        EXPECT_GE(last, prev);
        prev = last;
    }
    EXPECT_GT(prev, 0);

    // Label-filtered query: one CU's completed work-groups.
    Json cu = getJson(c,
                      "/api/v1/metrics/query?name=akita_cu_completed_wgs_"
                      "total&component=GPU%5B0%5D.SA%5B0%5D.CU%5B0%5D");
    ASSERT_EQ(cu.size(), 1u);
    EXPECT_EQ(cu.at(0).get("labels")->getStr("component"),
              "GPU[0].SA[0].CU[0]");
}

TEST(RtmHttp, MetricsStreamSse)
{
    LiveRig rig;
    auto k = smallKernel(128);
    rig.plat.launchKernel(&k);
    rig.runAsync();
    auto c = rig.client();

    // max_events=1 makes the stream close after one event so the
    // plain read-to-EOF client can consume it.
    auto r = c.get(
        "/api/v1/metrics/stream?name=akita_engine_events_total&"
        "max_events=1");
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, 200);
    auto at = r->body.find("data: ");
    ASSERT_NE(at, std::string::npos) << r->body;
    std::string payload = r->body.substr(at + 6);
    payload = payload.substr(0, payload.find('\n'));
    Json arr = Json::parse(payload);
    ASSERT_GE(arr.size(), 1u);
    EXPECT_EQ(arr.at(0).getStr("name"), "akita_engine_events_total");
    EXPECT_GE(arr.at(0).getNumber("value", -1), 0);
    rig.join();
}

TEST(RtmHttp, TwoThroughputClientsIndependentRates)
{
    LiveRig rig;
    auto k = smallKernel(128);
    rig.plat.launchKernel(&k);
    auto c = rig.client();
    const std::string q =
        "/api/throughput?component=GPU%5B0%5D.RDMA&client=";

    // Both clients take a baseline cursor before the run.
    Json a1 = getJson(c, q + "a");
    Json b1 = getJson(c, q + "b");
    ASSERT_GE(a1.size(), 1u);
    for (const auto &p : a1.items())
        EXPECT_EQ(p.getNumber("send_rate_sim_per_sec", -1), 0);

    rig.runAsync();
    rig.join();

    // Client A queries twice after completion; the second A query
    // consumes A's delta. B's cursor must be unaffected: its first
    // post-run query still sees the full run's worth of traffic.
    Json a2 = getJson(c, q + "a");
    Json a3 = getJson(c, q + "a");
    Json b2 = getJson(c, q + "b");

    double aRate = 0, bRate = 0;
    std::int64_t aTotal = 0, bTotal = 0;
    for (const auto &p : a2.items()) {
        aRate += p.getNumber("send_rate_sim_per_sec", 0);
        aTotal += p.getInt("total_sent", 0);
    }
    for (const auto &p : b2.items()) {
        bRate += p.getNumber("send_rate_sim_per_sec", 0);
        bTotal += p.getInt("total_sent", 0);
    }
    EXPECT_GT(aTotal, 0);
    EXPECT_EQ(aTotal, bTotal) << "totals are absolute, not per-client";
    EXPECT_GT(aRate, 0);
    // With the old shared cursor, A's second query (a3) would have
    // zeroed the delta so B's rate would read 0 here.
    EXPECT_DOUBLE_EQ(bRate, aRate)
        << "client B's rate was corrupted by client A's queries";
    // a3 itself sees no further virtual-time progress => zero rates.
    for (const auto &p : a3.items())
        EXPECT_EQ(p.getNumber("send_rate_sim_per_sec", -1), 0);
}

TEST(RtmHttp, MonitoredRunIsDeterministic)
{
    // Attaching the monitor (and polling it) must not change simulated
    // behavior: final virtual time equals an unmonitored run.
    sim::VTime unmonitored;
    {
        gpu::Platform plat(
            gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny()));
        auto k = smallKernel(64);
        plat.launchKernel(&k);
        plat.run();
        unmonitored = plat.engine().now();
    }

    LiveRig rig;
    auto k = smallKernel(64);
    rig.plat.launchKernel(&k);
    rig.runAsync();
    auto c = rig.client();
    for (int i = 0; i < 50; i++) {
        c.get("/api/status");
        c.get("/api/buffers?sort=percent&top=10");
        c.get("/api/component?name=GPU%5B0%5D.RDMA");
    }
    rig.join();
    EXPECT_EQ(rig.plat.engine().now(), unmonitored);
}

// ---------------------------------------------------------------------
// Serving fast path over live HTTP: ETag/304, coalescing
// ---------------------------------------------------------------------

TEST(RtmHttp, EtagRoundTripYields304)
{
    LiveRig rig;
    web::PersistentClient client("127.0.0.1", rig.mon.serverPort());

    // First GET returns the body and an ETag.
    auto first = client.get("/api/components");
    ASSERT_TRUE(first.has_value());
    ASSERT_EQ(first->status, 200);
    ASSERT_TRUE(first->headers.count("etag"));
    std::string etag = first->headers.at("etag");
    EXPECT_FALSE(first->body.empty());

    // Replaying the ETag gets a body-less 304 on the same connection
    // (no component was registered in between, so the generation is
    // unchanged).
    auto second =
        client.get("/api/components", {{"If-None-Match", etag}});
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->status, 304);
    EXPECT_TRUE(second->body.empty());
    EXPECT_EQ(second->headers.at("etag"), etag);

    // A stale ETag gets the full body again.
    auto third = client.get("/api/components",
                            {{"If-None-Match", "\"deadbeef\""}});
    ASSERT_TRUE(third.has_value());
    EXPECT_EQ(third->status, 200);
    EXPECT_EQ(third->body, first->body);
}

TEST(RtmHttp, ConcurrentIdenticalGetsBuildOnce)
{
    LiveRig rig;
    // The component tree's generation is the registration count, which
    // is fixed here — so K simultaneous identical GETs must produce
    // exactly one serialization.
    constexpr int kClients = 8;
    std::vector<std::thread> threads;
    std::vector<std::string> bodies(kClients);
    for (int i = 0; i < kClients; i++) {
        threads.emplace_back([&, i]() {
            web::HttpClient c("127.0.0.1", rig.mon.serverPort());
            auto r = c.get("/api/components");
            if (r && r->status == 200)
                bodies[i] = r->body;
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(rig.mon.responseCache().buildCount(), 1u);
    for (int i = 0; i < kClients; i++) {
        EXPECT_FALSE(bodies[i].empty()) << "client " << i;
        EXPECT_EQ(bodies[i], bodies[0]);
    }
}

TEST(RtmHttp, NoCacheHeaderBypassesCache)
{
    LiveRig rig;
    web::PersistentClient client("127.0.0.1", rig.mon.serverPort());
    auto r = client.get("/api/components", {{"x-akita-no-cache", "1"}});
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, 200);
    EXPECT_FALSE(r->headers.count("etag"))
        << "bypassed responses are uncached and carry no validator";
    EXPECT_EQ(rig.mon.responseCache().buildCount(), 0u);
}

// ---------------------------------------------------------------------
// Content-coding negotiation and resumable SSE
// ---------------------------------------------------------------------

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "web/encoding.hh"

namespace
{

/** Monitor config with metrics passes under manual (test) control. */
rtm::MonitorConfig
manualMetricsConfig()
{
    rtm::MonitorConfig cfg = LiveRig::quietConfig();
    cfg.metricsIntervalMs = 3600 * 1000;
    return cfg;
}

/** All "id: N" values in an SSE byte stream, in order. */
std::vector<std::uint64_t>
sseIds(const std::string &stream)
{
    std::vector<std::uint64_t> ids;
    std::size_t at = 0;
    while ((at = stream.find("id: ", at)) != std::string::npos) {
        // Only count line-initial "id:" fields.
        if (at != 0 && stream[at - 1] != '\n') {
            at += 4;
            continue;
        }
        ids.push_back(std::strtoull(stream.c_str() + at + 4, nullptr, 10));
        at += 4;
    }
    return ids;
}

} // namespace

TEST(RtmHttp, GzipRoundTripIsByteIdentical)
{
    if (!web::encodingSupported())
        GTEST_SKIP() << "built without zlib";
    LiveRig rig(gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny()),
                manualMetricsConfig());
    rig.mon.metricsSamplePass();
    web::PersistentClient client("127.0.0.1", rig.mon.serverPort());

    for (const char *target : {"/api/components", "/metrics"}) {
        auto plain = client.get(target);
        ASSERT_TRUE(plain.has_value()) << target;
        ASSERT_EQ(plain->status, 200);
        EXPECT_EQ(plain->headers.count("content-encoding"), 0u);

        auto gz = client.get(target, {{"Accept-Encoding", "gzip"}});
        ASSERT_TRUE(gz.has_value()) << target;
        ASSERT_EQ(gz->status, 200);
        ASSERT_EQ(gz->headers.at("content-encoding"), "gzip") << target;
        EXPECT_EQ(gz->headers.at("vary"), "Accept-Encoding");
        EXPECT_LT(gz->wireBodyBytes, plain->body.size()) << target;
        EXPECT_EQ(gz->body, plain->body)
            << target << ": gunzipped bytes differ from identity bytes";
    }

    // Compression ran once per (endpoint, generation, encoding): a
    // repeat gzip GET serves the stored variant.
    std::uint64_t encodes = rig.mon.responseCache().encodeCount();
    EXPECT_EQ(encodes, 2u) << "one per endpoint";
    auto again =
        client.get("/api/components", {{"Accept-Encoding", "gzip"}});
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(rig.mon.responseCache().encodeCount(), encodes);
}

TEST(RtmHttp, EtagVariesPerEncoding)
{
    if (!web::encodingSupported())
        GTEST_SKIP() << "built without zlib";
    LiveRig rig;
    web::PersistentClient client("127.0.0.1", rig.mon.serverPort());

    auto plain = client.get("/api/components");
    ASSERT_TRUE(plain.has_value());
    std::string etag = plain->headers.at("etag");

    auto gz =
        client.get("/api/components", {{"Accept-Encoding", "gzip"}});
    ASSERT_TRUE(gz.has_value());
    std::string gzEtag = gz->headers.at("etag");
    EXPECT_NE(gzEtag, etag) << "representations must not share an ETag";
    EXPECT_NE(gzEtag.find("-gzip"), std::string::npos);

    // The gzip validator matches only the gzip representation.
    auto cached = client.get("/api/components",
                             {{"Accept-Encoding", "gzip"},
                              {"If-None-Match", gzEtag}});
    ASSERT_TRUE(cached.has_value());
    EXPECT_EQ(cached->status, 304);
    EXPECT_EQ(cached->headers.at("etag"), gzEtag);
    EXPECT_GE(rig.mon.responseCache().notModifiedCount(), 1u);

    auto mismatched =
        client.get("/api/components", {{"If-None-Match", gzEtag}});
    ASSERT_TRUE(mismatched.has_value());
    EXPECT_EQ(mismatched->status, 200)
        << "identity request with a gzip validator is a full response";
    EXPECT_EQ(mismatched->headers.at("etag"), etag);
}

TEST(RtmHttp, SseResumesFromLastEventId)
{
    LiveRig rig(gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny()),
                manualMetricsConfig());
    auto c = rig.client();
    rig.mon.metricsSamplePass();
    rig.mon.metricsSamplePass();
    rig.mon.metricsSamplePass(); // version == 3

    // A fresh client gets the newest pass, tagged with its id.
    auto first = c.get(
        "/api/v1/metrics/stream?name=akita_engine_events_total&"
        "max_events=1");
    ASSERT_TRUE(first.has_value());
    ASSERT_EQ(first->status, 200);
    EXPECT_NE(first->body.find("retry: 2000"), std::string::npos);
    auto ids = sseIds(first->body);
    ASSERT_EQ(ids.size(), 1u) << first->body;
    EXPECT_EQ(ids[0], 3u);

    // Two passes happen while the client is away; resuming from id 3
    // replays exactly passes 4 and 5 — nothing lost, nothing repeated.
    rig.mon.metricsSamplePass();
    rig.mon.metricsSamplePass();
    auto resumed = c.get(
        "/api/v1/metrics/stream?name=akita_engine_events_total&"
        "max_events=2&last_event_id=3");
    ASSERT_TRUE(resumed.has_value());
    ASSERT_EQ(resumed->status, 200);
    auto ids2 = sseIds(resumed->body);
    ASSERT_EQ(ids2.size(), 2u) << resumed->body;
    EXPECT_EQ(ids2[0], 4u);
    EXPECT_EQ(ids2[1], 5u);
    // Each replayed event carries a data payload.
    std::size_t dataLines = 0;
    for (std::size_t at = 0;
         (at = resumed->body.find("data: ", at)) != std::string::npos;
         at += 6)
        dataLines++;
    EXPECT_EQ(dataLines, 2u);
}

TEST(RtmHttp, SseReconnectAfterSocketKillIsGapFree)
{
    LiveRig rig(gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny()),
                manualMetricsConfig());
    rig.mon.metricsSamplePass();
    rig.mon.metricsSamplePass(); // version == 2

    // Open a raw streaming connection (no max_events: an unbounded
    // dashboard stream), read the first event, then kill the socket
    // mid-stream the way a dropped browser tab would.
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(rig.mon.serverPort());
    ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const char *req =
        "GET /api/v1/metrics/stream?name=akita_engine_events_total "
        "HTTP/1.1\r\nHost: t\r\n\r\n";
    ASSERT_EQ(::send(fd, req, strlen(req), MSG_NOSIGNAL),
              static_cast<ssize_t>(strlen(req)));
    std::string got;
    char buf[2048];
    while (got.find("\ndata: ") == std::string::npos) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0) << "stream ended before the first event";
        got.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd); // Abrupt client death.
    auto ids = sseIds(got);
    ASSERT_FALSE(ids.empty());
    std::uint64_t lastSeen = ids.back();
    EXPECT_EQ(lastSeen, 2u);

    // The samples that arrive while disconnected must all be replayed
    // on reconnect, in order, exactly once.
    rig.mon.metricsSamplePass();
    rig.mon.metricsSamplePass();
    rig.mon.metricsSamplePass(); // versions 3..5
    auto c = rig.client();
    auto resumed = c.get(
        "/api/v1/metrics/stream?name=akita_engine_events_total&"
        "max_events=3&last_event_id=" +
        std::to_string(lastSeen));
    ASSERT_TRUE(resumed.has_value());
    ASSERT_EQ(resumed->status, 200);
    auto ids2 = sseIds(resumed->body);
    ASSERT_EQ(ids2.size(), 3u) << resumed->body;
    for (std::size_t i = 0; i < ids2.size(); i++)
        EXPECT_EQ(ids2[i], lastSeen + 1 + i) << "gap or repeat at " << i;
}
