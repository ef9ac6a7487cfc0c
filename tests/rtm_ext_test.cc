/**
 * @file
 * Tests for the RTM extension views: port throughput, the topology
 * map, and CSV export — plus their HTTP endpoints.
 */

#include <gtest/gtest.h>

#include <atomic>
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

struct Rig
{
    gpu::Platform plat;
    rtm::Monitor mon;

    Rig() : Rig(config()) {}

    explicit Rig(const rtm::MonitorConfig &cfg)
        : plat(gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny())),
          mon(cfg)
    {
        mon.registerEngine(&plat.engine());
        for (auto *c : plat.components())
            mon.registerComponent(c);
        for (auto *conn : plat.connections())
            mon.registerConnection(conn);
        plat.driver().setProgressListener(&mon);
    }

    static rtm::MonitorConfig
    config()
    {
        rtm::MonitorConfig cfg;
        cfg.announceUrl = false;
        return cfg;
    }

    void
    runKernel()
    {
        workloads::MemCopyParams p;
        p.bytes = 1 << 20;
        kernel = workloads::makeMemCopy(p);
        plat.launchKernel(&kernel);
        ASSERT_EQ(plat.run(), gpu::Platform::RunStatus::Completed);
    }

    gpu::KernelDescriptor kernel;
};

} // namespace

TEST(Throughput, TotalsAndRates)
{
    Rig rig;

    // Before any traffic: totals zero, rates zero.
    auto before = rig.mon.portThroughput("GPU[0].SA[0].CU[0]");
    ASSERT_EQ(before.size(), 2u); // CtrlPort + MemPort.
    for (const auto &t : before) {
        EXPECT_EQ(t.totalSent, 0u);
        EXPECT_EQ(t.sendRateSimPerSec, 0.0);
    }

    rig.runKernel();

    auto after = rig.mon.portThroughput("GPU[0].SA[0].CU[0]");
    bool memPortActive = false;
    for (const auto &t : after) {
        if (t.port == "GPU[0].SA[0].CU[0].MemPort") {
            memPortActive = t.totalSent > 0 && t.totalSentBytes > 0 &&
                            t.totalReceived > 0;
            // Virtual time advanced since the first query: a rate must
            // be reported.
            EXPECT_GT(t.sendRateSimPerSec, 0.0);
        }
    }
    EXPECT_TRUE(memPortActive);
}

TEST(Throughput, TwoClientsIndependentCursors)
{
    Rig rig;
    const std::string comp = "GPU[0].SA[0].CU[0]";

    // Both clients establish baselines before any traffic.
    rig.mon.portThroughput(comp, "a");
    rig.mon.portThroughput(comp, "b");

    rig.runKernel();

    // A drains its delta twice; B's cursor must stay untouched.
    auto a1 = rig.mon.portThroughput(comp, "a");
    auto a2 = rig.mon.portThroughput(comp, "a");
    auto b1 = rig.mon.portThroughput(comp, "b");

    double aRate = 0, bRate = 0;
    for (const auto &t : a1)
        aRate += t.sendRateSimPerSec;
    for (const auto &t : b1)
        bRate += t.sendRateSimPerSec;
    EXPECT_GT(aRate, 0.0);
    // The shared-cursor bug zeroed B's first post-run rate because A's
    // queries consumed the delta; per-client cursors keep them equal.
    EXPECT_DOUBLE_EQ(bRate, aRate);
    for (const auto &t : a2)
        EXPECT_EQ(t.sendRateSimPerSec, 0.0)
            << "no virtual time elapsed between A's queries";
    // Totals are absolute and identical for every observer.
    for (std::size_t i = 0; i < a1.size(); i++)
        EXPECT_EQ(a1[i].totalSent, b1[i].totalSent);
}

TEST(Throughput, ClientCursorLruEviction)
{
    Rig rig;
    rig.runKernel();
    const std::string comp = "GPU[0].SA[0].CU[0]";

    rtm::ThroughputTracker tracker(&rig.mon.registry());
    // More clients than the cursor table retains: the oldest fall off
    // but the table never grows unbounded.
    for (int i = 0; i < 300; i++)
        tracker.sample(comp, rig.plat.engine().now(),
                       "client-" + std::to_string(i));
    EXPECT_LE(tracker.numClients(), 256u);
}

TEST(ValueMonitor, HistoryCapConfigurable)
{
    rtm::MonitorConfig cfg;
    cfg.announceUrl = false;
    cfg.autoSample = false;
    Rig rig(cfg);

    auto id = rig.mon.trackValue("GPU[0].RDMA", "transactions");
    ASSERT_GT(id, 0u);
    const std::size_t passes = rtm::ValueMonitor::kMaxPoints + 1;
    for (std::size_t i = 0; i < passes; i++)
        rig.mon.sampleNow();

    // The dashboard ring keeps the paper's fixed 300 points...
    auto s = rig.mon.valueSeries(id);
    EXPECT_EQ(s.samples.size(), rtm::ValueMonitor::kMaxPoints);

    // ...while the metrics store retains the history beyond the ring
    // (no 300-point cliff).
    auto series = rig.mon.metrics().query(
        "akita_tracked_value", {{"component", "GPU[0].RDMA"}}, 0,
        std::numeric_limits<std::int64_t>::max(), 1);
    ASSERT_EQ(series.size(), 1u);
    EXPECT_GE(series[0].points.size(), passes);
}

TEST(ValueMonitor, HttpServesTheStoresNewestRawPoints)
{
    rtm::MonitorConfig cfg;
    cfg.announceUrl = false;
    cfg.autoSample = false;
    Rig rig(cfg);
    ASSERT_TRUE(rig.mon.startServer());
    web::PersistentClient client("127.0.0.1", rig.mon.serverPort());

    auto id = rig.mon.trackValue("Driver", "kernels_completed");
    ASSERT_GT(id, 0u);

    // One pass every 1000 ps on the simulation thread, so each point
    // has its own time; the kernel in between changes the value.
    sim::Engine &eng = rig.plat.engine();
    auto passes = [&](int n) {
        sim::VTime t0 = eng.now();
        for (int i = 1; i <= n; i++) {
            eng.scheduleAt(t0 + static_cast<sim::VTime>(i) * 1000,
                           "sample", [&rig]() { rig.mon.sampleNow(); });
        }
        eng.scheduleAt(t0 + static_cast<sim::VTime>(n) * 1000, "stop",
                       [&eng]() { eng.stop(); });
        eng.run();
    };
    passes(150);
    rig.runKernel();
    passes(160);

    // A step under 1 s serves the store's raw ring, one point a sample.
    auto stored = rig.mon.metrics().query(
        "akita_tracked_value",
        {{"component", "Driver"}, {"field", "kernels_completed"}}, 0,
        std::numeric_limits<std::int64_t>::max(), 1);
    ASSERT_EQ(stored.size(), 1u);
    std::vector<metrics::AggBucket> raw = stored[0].points;
    ASSERT_EQ(raw.size(), 310u);
    raw.erase(raw.begin(), raw.end() - rtm::ValueMonitor::kMaxPoints);
    EXPECT_EQ(raw.front().last, 0.0);
    EXPECT_EQ(raw.back().last, 1.0);

    auto series =
        client.get("/api/v1/monitor/series?id=" + std::to_string(id));
    ASSERT_TRUE(series.has_value());
    ASSERT_EQ(series->status, 200);
    Json points = *Json::parse(series->body).get("points");
    ASSERT_EQ(points.size(), raw.size());
    for (std::size_t i = 0; i < raw.size(); i++) {
        EXPECT_EQ(points.at(i).getInt("t_ps", -1),
                  static_cast<std::int64_t>(raw[i].lastSimPs));
        EXPECT_EQ(points.at(i).getNumber("v", -1), raw[i].last);
    }

    auto csv =
        client.get("/api/v1/monitor/export?id=" + std::to_string(id));
    ASSERT_TRUE(csv.has_value());
    ASSERT_EQ(csv->status, 200);
    std::string want = "t_ps,Driver.kernels_completed\n";
    for (const auto &p : raw) {
        want += std::to_string(p.lastSimPs) + "," +
                std::to_string(p.last) + "\n";
    }
    EXPECT_EQ(csv->body, want);

    rig.mon.stopServer();
}

TEST(ValueMonitor, UntrackRacingReadsIsUnknownOrComplete)
{
    rtm::MonitorConfig cfg;
    cfg.announceUrl = false;
    cfg.autoSample = false;
    Rig rig(cfg);

    // Readers copy the store's rings while a sampler records into them
    // and the main thread tracks and untracks. Every id a reader sees
    // was sampled once before it was published, so a read must return
    // either an unknown id or at least that sample, never an empty
    // series whose store instrument is already gone.
    std::atomic<std::uint64_t> published{0};
    std::atomic<bool> done{false};
    std::atomic<int> emptyReads{0};
    std::thread sampler([&]() {
        while (!done.load())
            rig.mon.sampleNow();
    });
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; r++) {
        readers.emplace_back([&]() {
            while (!done.load()) {
                auto s = rig.mon.valueSeries(published.load());
                if (s.id != 0 && s.samples.empty())
                    emptyReads++;
                for (const auto &a : rig.mon.allValueSeries())
                    EXPECT_LE(a.samples.size(),
                              rtm::ValueMonitor::kMaxPoints);
            }
        });
    }
    for (int i = 0; i < 200; i++) {
        auto id = rig.mon.trackValue("GPU[0].RDMA", "transactions");
        if (id == 0) {
            ADD_FAILURE() << "track refused on pass " << i;
            break; // The threads below must still be joined.
        }
        rig.mon.sampleNow();
        published.store(id);
        std::this_thread::yield();
        EXPECT_TRUE(rig.mon.untrackValue(id));
        EXPECT_EQ(rig.mon.valueSeries(id).id, 0u);
    }
    done.store(true);
    sampler.join();
    for (auto &t : readers)
        t.join();
    EXPECT_EQ(emptyReads.load(), 0);
}

TEST(Throughput, UnknownComponentEmpty)
{
    Rig rig;
    EXPECT_TRUE(rig.mon.portThroughput("Ghost").empty());
}

TEST(Topology, ListsConnectionsAndPorts)
{
    Rig rig;
    Json topo = rig.mon.topology();
    ASSERT_GT(topo.size(), 4u); // Driver conn + network + per-GPU fabrics.

    bool sawNetwork = false, sawSaConn = false;
    for (const auto &entry : topo.items()) {
        std::string name = entry.getStr("connection");
        const Json *ports = entry.get("ports");
        ASSERT_NE(ports, nullptr);
        EXPECT_GT(ports->size(), 0u) << name;
        if (name == "Network") {
            sawNetwork = true;
            // All four RDMA outside ports attach to the network.
            EXPECT_EQ(ports->size(), 4u);
        }
        if (name == "GPU[0].SA[0].Conn")
            sawSaConn = true;
    }
    EXPECT_TRUE(sawNetwork);
    EXPECT_TRUE(sawSaConn);
}

TEST(CsvExport, SeriesRoundTrip)
{
    Rig rig;
    auto id = rig.mon.trackValue("GPU[0].RDMA", "transactions");
    ASSERT_GT(id, 0u);
    rig.mon.sampleNow();
    rig.runKernel();
    rig.mon.sampleNow();

    std::string csv = rig.mon.exportSeriesCsv(id);
    ASSERT_FALSE(csv.empty());
    EXPECT_EQ(csv.rfind("t_ps,GPU[0].RDMA.transactions\n", 0), 0u);
    // Header + at least two sample rows.
    EXPECT_GE(std::count(csv.begin(), csv.end(), '\n'), 3);

    EXPECT_TRUE(rig.mon.exportSeriesCsv(999).empty());
}

TEST(ExtensionEndpoints, OverHttp)
{
    Rig rig;
    ASSERT_TRUE(rig.mon.startServer());
    web::PersistentClient client("127.0.0.1", rig.mon.serverPort());

    rig.runKernel();

    auto topo = client.get("/api/topology");
    ASSERT_TRUE(topo.has_value());
    EXPECT_EQ(topo->status, 200);
    EXPECT_GT(Json::parse(topo->body).size(), 0u);

    auto thr = client.get(
        "/api/throughput?component=GPU%5B0%5D.SA%5B0%5D.CU%5B0%5D");
    ASSERT_TRUE(thr.has_value());
    ASSERT_EQ(thr->status, 200);
    Json ports = Json::parse(thr->body);
    ASSERT_GT(ports.size(), 0u);
    EXPECT_GT(ports.at(1).getInt("total_sent", 0), 0);

    auto missing = client.get("/api/throughput?component=Ghost");
    EXPECT_EQ(missing->status, 404);

    auto track = client.post(
        "/api/monitor/track?component=Driver&field=kernels_completed",
        "");
    ASSERT_EQ(track->status, 200);
    std::int64_t id = Json::parse(track->body).getInt("id", 0);
    rig.mon.sampleNow();

    auto csv = client.get("/api/monitor/export?id=" + std::to_string(id));
    ASSERT_TRUE(csv.has_value());
    EXPECT_EQ(csv->status, 200);
    EXPECT_EQ(csv->body.rfind("t_ps,", 0), 0u);

    auto badCsv = client.get("/api/monitor/export?id=999");
    EXPECT_EQ(badCsv->status, 404);

    rig.mon.stopServer();
}
