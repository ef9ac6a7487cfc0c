/**
 * @file
 * Hang root-cause tests: the wait-for-graph analyzer on the paper's L2
 * write-buffer deadlock (case study 2), HangWatch on a full platform,
 * and the live /api/v1/hang + /api/v1/recorder endpoints with
 * their no-stale-verdict cache behavior.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <thread>

#include "gpu/platform.hh"
#include "json/json.hh"
#include "mem/dram.hh"
#include "mem/l2cache.hh"
#include "mem_harness.hh"
#include "recorder/segment.hh"
#include "rtm/monitor.hh"
#include "rtm/waitfor.hh"
#include "web/client.hh"
#include "workloads/workloads.hh"

using namespace akita;
using namespace akita::mem;
using akita::json::Json;
using akita::test::Requester;

namespace
{

/** The case-study-2 rig: legacy L2 between a requester and a DRAM. */
struct DeadlockRig
{
    sim::Engine eng;
    Requester req{&eng, "Req", 8};
    L2Cache l2;
    DramController dram;
    sim::DirectConnection top{&eng, "Top", sim::kNanosecond};
    sim::DirectConnection bottom{&eng, "Bottom", sim::kNanosecond};

    DeadlockRig()
        : l2(&eng, "L2", sim::Freq::ghz(1), l2Config()),
          dram(&eng, "DRAM", sim::Freq::ghz(1), {})
    {
        top.plugIn(req.out);
        top.plugIn(l2.topPort());
        bottom.plugIn(l2.bottomPort());
        bottom.plugIn(l2.wbPort());
        bottom.plugIn(dram.topPort());
        l2.setDownstream(dram.topPort());
    }

    static L2Cache::Config
    l2Config()
    {
        L2Cache::Config cfg;
        cfg.numSets = 1;
        cfg.ways = 4;
        cfg.mshrCapacity = 16;
        cfg.wbInCapacity = 2;
        cfg.wbFetchedCapacity = 2;
        cfg.installCapacity = 2;
        cfg.dramWriteInflightMax = 1;
        cfg.legacyWriteBufferDeadlock = true;
        return cfg;
    }

    /** Drives the rig into the deadlock and drains the engine. */
    void
    deadlock()
    {
        for (int i = 0; i < 200; i++)
            req.enqueue(0x10000ull + static_cast<std::uint64_t>(i) * 64,
                        true, l2.topPort());
        req.tickLater();
        eng.run();
    }
};

rtm::HangStatus
hangingStatus()
{
    rtm::HangStatus st;
    st.hanging = true;
    st.frozenForSec = 3.0;
    st.queueDrained = true;
    return st;
}

bool
contains(const std::vector<std::string> &v, const std::string &s)
{
    for (const auto &e : v)
        if (e == s)
            return true;
    return false;
}

} // namespace

// ---------------------------------------------------------------------
// The analyzer on a quiesced deadlock
// ---------------------------------------------------------------------

TEST(WaitFor, L2LegacyDeadlockNamesTheCycle)
{
    DeadlockRig rig;
    rig.deadlock();
    ASSERT_TRUE(rig.l2.evictionStalled()) << "rig did not deadlock";

    rtm::ComponentRegistry reg;
    reg.add(&rig.req);
    reg.add(&rig.l2);
    reg.add(&rig.dram);
    std::vector<sim::Connection *> conns{&rig.top, &rig.bottom};

    rtm::HangAnalyzer analyzer(&reg, &conns);
    rtm::HangReport report = analyzer.analyze(hangingStatus());

    EXPECT_EQ(report.verdict, "cycle") << report.summary;
    // The culprit chain is the paper's storage <-> write-buffer loop.
    EXPECT_TRUE(contains(report.cycle, "L2.storage")) << report.summary;
    EXPECT_TRUE(contains(report.cycle, "L2.writeBuffer"))
        << report.summary;
    ASSERT_EQ(report.cycle.size(), report.cycleEdges.size());
    // Each cycle edge names the full buffer it waits through.
    bool viaInBuf = false, viaInstall = false;
    for (const auto &e : report.cycleEdges) {
        if (e.via == "L2.WriteBuf.InBuf")
            viaInBuf = true;
        if (e.via == "L2.InstallBuf")
            viaInstall = true;
        EXPECT_GT(e.fullness, 0.0);
    }
    EXPECT_TRUE(viaInBuf && viaInstall) << report.summary;
    EXPECT_NE(report.summary.find("deadlock cycle"), std::string::npos);
    // The requester is an upstream victim, not part of the cycle.
    EXPECT_FALSE(contains(report.cycle, "Req"));
}

TEST(WaitFor, NotHangingShortCircuits)
{
    rtm::ComponentRegistry reg;
    std::vector<sim::Connection *> conns;
    rtm::HangAnalyzer analyzer(&reg, &conns);

    rtm::HangStatus ok; // hanging = false.
    rtm::HangReport report = analyzer.analyze(ok);
    EXPECT_EQ(report.verdict, "ok");
    EXPECT_TRUE(report.edges.empty());
}

TEST(WaitFor, HangWithoutWaitEdgesIsNoWaits)
{
    // A lost wakeup: everything asleep, nothing blocked on anything.
    sim::Engine eng;
    Requester idle(&eng, "Idle");
    rtm::ComponentRegistry reg;
    reg.add(&idle);
    std::vector<sim::Connection *> conns;

    rtm::HangAnalyzer analyzer(&reg, &conns);
    rtm::HangReport report = analyzer.analyze(hangingStatus());
    EXPECT_EQ(report.verdict, "no-waits");
}

TEST(WaitFor, DeadConsumerIsAStalledSink)
{
    // A sink that never drains its port: senders pile up behind it but
    // no cycle exists — the analyzer must name the sink, not guess.
    struct DeadSink : sim::TickingComponent
    {
        sim::Port *in = nullptr;
        DeadSink(sim::Engine *e)
            : TickingComponent(e, "Sink", sim::Freq::ghz(1))
        {
            in = addPort("In", 4);
        }
        bool tick() override { return false; } // Never retrieves.
    };

    sim::Engine eng;
    Requester req(&eng, "Req", 8);
    DeadSink sink(&eng);
    sim::DirectConnection conn(&eng, "Conn", sim::kNanosecond);
    conn.plugIn(req.out);
    conn.plugIn(sink.in);

    for (int i = 0; i < 30; i++)
        req.enqueue(0x1000ull + static_cast<std::uint64_t>(i) * 64, true,
                    sink.in);
    req.tickLater();
    eng.run();

    rtm::ComponentRegistry reg;
    reg.add(&req);
    reg.add(&sink);
    std::vector<sim::Connection *> conns{&conn};

    rtm::HangAnalyzer analyzer(&reg, &conns);
    rtm::HangReport report = analyzer.analyze(hangingStatus());
    EXPECT_EQ(report.verdict, "stalled-sink") << report.summary;
    EXPECT_EQ(report.sink, "Sink");
    EXPECT_TRUE(contains(report.upstreamBlocked, "Req"));
    EXPECT_NE(report.summary.find("stalled sink"), std::string::npos);
}

TEST(WaitFor, ReportSerializesToJson)
{
    DeadlockRig rig;
    rig.deadlock();

    rtm::ComponentRegistry reg;
    reg.add(&rig.l2);
    std::vector<sim::Connection *> conns{&rig.top, &rig.bottom};
    rtm::HangReport report =
        rtm::HangAnalyzer(&reg, &conns).analyze(hangingStatus());

    std::string out;
    rtm::writeHangReport(out, report);
    Json j = Json::parse(out);
    EXPECT_TRUE(j.getBool("hanging", false));
    EXPECT_EQ(j.getStr("verdict"), "cycle");
    EXPECT_GE(j.get("cycle")->items().size(), 2u);
    EXPECT_GE(j.get("cycle_edges")->items().size(), 2u);
    EXPECT_FALSE(j.getStr("summary").empty());
}

// ---------------------------------------------------------------------
// HangWatch + analyzer on a full platform
// ---------------------------------------------------------------------

namespace
{

gpu::PlatformConfig
deadlockPlatformConfig()
{
    gpu::PlatformConfig cfg =
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    cfg.legacyL2Deadlock = true;
    cfg.gpu.l2.numSets = 1;
    cfg.gpu.l2.ways = 4;
    cfg.gpu.l2.wbInCapacity = 2;
    cfg.gpu.l2.installCapacity = 2;
    cfg.gpu.l2.wbFetchedCapacity = 2;
    cfg.gpu.l2.dramWriteInflightMax = 1;
    return cfg;
}

/** Runs a deadlocking kernel and waits for HangWatch to fire. */
struct HangRig
{
    gpu::Platform plat;
    rtm::Monitor mon;
    gpu::KernelDescriptor kernel;
    std::thread simThread;

    explicit HangRig(const std::string &record_path = "")
        : plat(deadlockPlatformConfig()), mon(monitorConfig(record_path)),
          kernel(makeKernel())
    {
        mon.registerEngine(&plat.engine());
        for (auto *c : plat.components())
            mon.registerComponent(c);
        for (auto *conn : plat.connections())
            mon.registerConnection(conn);
        plat.driver().setProgressListener(&mon);
    }

    static rtm::MonitorConfig
    monitorConfig(const std::string &record_path)
    {
        rtm::MonitorConfig mcfg;
        mcfg.announceUrl = false;
        mcfg.sampleIntervalMs = 10;
        mcfg.hangThresholdSec = 0.2;
        mcfg.recordPath = record_path;
        return mcfg;
    }

    static gpu::KernelDescriptor
    makeKernel()
    {
        workloads::TransposeParams tp;
        tp.n = 128;
        return workloads::makeTranspose(tp);
    }

    void
    run()
    {
        plat.launchKernel(&kernel);
        simThread = std::thread([this]() { plat.run(); });
    }

    /** Polls HangWatch until the hang signature holds (or times out). */
    bool
    waitForHang()
    {
        for (int i = 0; i < 800; i++) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            rtm::HangStatus st = mon.hangStatus();
            if (st.hanging && st.queueDrained)
                return true;
        }
        return false;
    }

    ~HangRig()
    {
        plat.engine().stop();
        if (simThread.joinable())
            simThread.join();
        mon.stopServer();
    }
};

} // namespace

TEST(HangWatch, DeadlockAnalyzed)
{
    HangRig rig;
    rig.run();
    ASSERT_TRUE(rig.waitForHang()) << "HangWatch did not fire";

    rtm::HangReport report = rig.mon.hangReport();
    EXPECT_TRUE(report.status.hanging);
    EXPECT_EQ(report.verdict, "cycle") << report.summary;
    bool namesStorage = false;
    for (const auto &node : report.cycle)
        if (node.find(".storage") != std::string::npos)
            namesStorage = true;
    EXPECT_TRUE(namesStorage) << report.summary;
    EXPECT_FALSE(report.upstreamBlocked.empty())
        << "the CUs upstream of the dead L2 are victims";
}

TEST(HangWatch, NoHangReportsOk)
{
    gpu::PlatformConfig cfg =
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    gpu::Platform plat(cfg);
    rtm::MonitorConfig mcfg;
    mcfg.announceUrl = false;
    mcfg.hangThresholdSec = 0.2;
    rtm::Monitor mon(mcfg);
    mon.registerEngine(&plat.engine());
    for (auto *c : plat.components())
        mon.registerComponent(c);

    rtm::HangReport report = mon.hangReport();
    EXPECT_EQ(report.verdict, "ok");
    EXPECT_FALSE(report.status.hanging);
}

// ---------------------------------------------------------------------
// The live endpoints: /api/v1/hang and /api/v1/recorder/*
// ---------------------------------------------------------------------

namespace
{

Json
getJson(web::PersistentClient &c, const std::string &target)
{
    auto r = c.get(target);
    EXPECT_TRUE(r.has_value()) << target;
    EXPECT_EQ(r->status, 200) << target << ": " << (r ? r->body : "");
    return Json::parse(r->body);
}

std::string
tempSegmentPath()
{
    return "/tmp/akita_hang_test_" + std::to_string(::getpid()) + ".seg";
}

} // namespace

TEST(HangApi, EndpointNamesCycleAndRecorderServes)
{
    std::string seg = tempSegmentPath();
    ::unlink(seg.c_str());

    {
        HangRig rig(seg);
        ASSERT_TRUE(rig.mon.startServer());
        rig.run();
        ASSERT_TRUE(rig.waitForHang()) << "HangWatch did not fire";

        web::PersistentClient c("127.0.0.1", rig.mon.serverPort());

        // The hang endpoint names the actual culprit chain.
        Json hang = getJson(c, "/api/v1/hang");
        EXPECT_TRUE(hang.getBool("hanging", false));
        EXPECT_EQ(hang.getStr("verdict"), "cycle")
            << hang.getStr("summary");
        ASSERT_GE(hang.get("cycle")->items().size(), 2u);
        bool namesStorage = false;
        for (const auto &node : hang.get("cycle")->items())
            if (node.strVal().find(".storage") != std::string::npos)
                namesStorage = true;
        EXPECT_TRUE(namesStorage) << hang.getStr("summary");

        // A hung sim must not serve a stale "not hanging" verdict:
        // x-akita-no-cache forces a rebuild.
        web::PersistentClient pc("127.0.0.1", rig.mon.serverPort());
        auto fresh =
            pc.get("/api/v1/hang", {{"x-akita-no-cache", "1"}});
        ASSERT_TRUE(fresh.has_value());
        EXPECT_EQ(fresh->status, 200);
        EXPECT_FALSE(fresh->headers.count("etag"))
            << "bypassed responses carry no validator";
        EXPECT_TRUE(Json::parse(fresh->body).getBool("hanging", false));

        // The recorder is live: info reflects the segment.
        Json info = getJson(c, "/api/v1/recorder/info");
        EXPECT_EQ(info.getStr("path"), seg);
        EXPECT_GT(info.getInt("next_seq", 0), 0);
        EXPECT_GT(info.getInt("window_records", 0), 0);

        // Range queries answer from memory or fall through to disk.
        Json range = getJson(
            c, "/api/v1/recorder/range?name=akita_rtm_hang_suspected");
        std::string source = range.getStr("source");
        EXPECT_TRUE(source == "memory" || source == "segment") << source;

        // No-cache works on the recorder endpoints too.
        auto rfresh = pc.get("/api/v1/recorder/info",
                             {{"x-akita-no-cache", "1"}});
        ASSERT_TRUE(rfresh.has_value());
        EXPECT_EQ(rfresh->status, 200);
    } // Rig teardown stops the sim and syncs the recorder.

    // Post mortem: the segment recovers, holding the hang report the
    // monitor teed in when the watchdog first fired.
    std::string err;
    auto reader = recorder::SegmentReader::open(seg, &err);
    ASSERT_NE(reader, nullptr) << err;
    bool sawHangReport = false, sawEvent = false;
    for (const auto &rec : reader->records()) {
        if (rec.type == recorder::RecordType::HangReport) {
            sawHangReport = true;
            Json j = Json::parse(std::string(
                reinterpret_cast<const char *>(rec.payload),
                rec.payloadLen));
            EXPECT_EQ(j.getStr("verdict"), "cycle");
        }
        if (rec.type == recorder::RecordType::EngineEvent)
            sawEvent = true;
    }
    EXPECT_TRUE(sawHangReport)
        << "the hang verdict must survive on disk";
    EXPECT_TRUE(sawEvent);
    ::unlink(seg.c_str());
}

TEST(HangApi, RecorderDisabledReturns404)
{
    gpu::PlatformConfig cfg =
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    gpu::Platform plat(cfg);
    rtm::MonitorConfig mcfg;
    mcfg.announceUrl = false;
    rtm::Monitor mon(mcfg); // No recordPath.
    mon.registerEngine(&plat.engine());
    ASSERT_TRUE(mon.startServer());

    web::PersistentClient c("127.0.0.1", mon.serverPort());
    auto r = c.get("/api/v1/recorder/info");
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, 404);
    auto r2 = c.get("/api/v1/recorder/range?name=x");
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->status, 404);
    // The hang endpoint works regardless of the recorder.
    auto r3 = c.get("/api/v1/hang");
    ASSERT_TRUE(r3.has_value());
    EXPECT_EQ(r3->status, 200);
    EXPECT_EQ(Json::parse(r3->body).getStr("verdict"), "ok");
    mon.stopServer();
}
