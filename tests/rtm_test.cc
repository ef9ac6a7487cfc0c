/**
 * @file
 * Unit tests for the RTM core: registry/tree, progress bars, buffer
 * analyzer, value monitor (300-point / 5-series limits), hang watch,
 * resource sampling, and serialization.
 */

#include <gtest/gtest.h>

#include <thread>

#include "rtm/monitor.hh"
#include "rtm/serialize.hh"
#include "sim/sim.hh"

using namespace akita;
using namespace akita::rtm;

namespace
{

class Dummy : public sim::Component
{
  public:
    Dummy(sim::Engine *engine, const std::string &name,
          std::size_t buf_cap = 4)
        : Component(engine, name)
    {
        port = addPort("TopPort", buf_cap);
        declareField("level", [this]() {
            return introspect::Value::ofInt(level);
        });
    }

    sim::Port *port;
    std::int64_t level = 0;
};

} // namespace

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

TEST(Registry, FindAndReplace)
{
    sim::SerialEngine eng;
    Dummy a(&eng, "GPU[0].X");
    ComponentRegistry reg;
    reg.add(&a);
    EXPECT_EQ(reg.find("GPU[0].X"), &a);
    EXPECT_EQ(reg.find("nope"), nullptr);
    EXPECT_EQ(reg.size(), 1u);

    Dummy a2(&eng, "GPU[0].X");
    reg.add(&a2);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.find("GPU[0].X"), &a2);
}

TEST(Registry, TreeFromDottedNames)
{
    sim::SerialEngine eng;
    Dummy a(&eng, "GPU[0].SA[0].CU[0]");
    Dummy b(&eng, "GPU[0].SA[0].CU[1]");
    Dummy c(&eng, "GPU[0].L2[0]");
    Dummy d(&eng, "Driver");
    ComponentRegistry reg;
    reg.add(&a);
    reg.add(&b);
    reg.add(&c);
    reg.add(&d);

    TreeNode root = reg.buildTree();
    ASSERT_EQ(root.children.size(), 2u); // "GPU[0]" and "Driver".
    const auto &gpu = root.children.at("GPU[0]");
    EXPECT_EQ(gpu->children.size(), 2u); // SA[0], L2[0].
    const auto &sa = gpu->children.at("SA[0]");
    EXPECT_EQ(sa->children.size(), 2u);
    EXPECT_EQ(sa->children.at("CU[0]")->componentName,
              "GPU[0].SA[0].CU[0]");
    EXPECT_EQ(root.children.at("Driver")->componentName, "Driver");
}

// ---------------------------------------------------------------------
// Progress bars
// ---------------------------------------------------------------------

TEST(ProgressBars, CreateUpdateDestroy)
{
    ProgressBarRegistry reg;
    auto id = reg.create("kernel fir", 100);
    EXPECT_GT(id, 0u);
    EXPECT_TRUE(reg.update(id, 40, 10));

    auto bars = reg.snapshot();
    ASSERT_EQ(bars.size(), 1u);
    EXPECT_EQ(bars[0].completed, 40u);
    EXPECT_EQ(bars[0].inProgress, 10u);
    EXPECT_EQ(bars[0].notStarted(), 50u);

    EXPECT_TRUE(reg.destroy(id));
    EXPECT_FALSE(reg.destroy(id));
    EXPECT_FALSE(reg.update(id, 1, 1));
    EXPECT_EQ(reg.size(), 0u);
}

TEST(ProgressBars, ThreeSegmentsNeverNegative)
{
    ProgressBarRegistry reg;
    auto id = reg.create("b", 10);
    reg.update(id, 8, 5); // Overshoot: completed+inProgress > total.
    auto bars = reg.snapshot();
    EXPECT_EQ(bars[0].notStarted(), 0u);
}

TEST(ProgressBars, SetTotalForLateKnownCounts)
{
    ProgressBarRegistry reg;
    auto id = reg.create("copy", 0);
    EXPECT_TRUE(reg.setTotal(id, 4096));
    EXPECT_EQ(reg.snapshot()[0].total, 4096u);
}

TEST(ProgressBars, ManyBarsIndependent)
{
    ProgressBarRegistry reg;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 10; i++)
        ids.push_back(reg.create("bar" + std::to_string(i), 100));
    reg.update(ids[3], 33, 0);
    reg.destroy(ids[5]);
    auto bars = reg.snapshot();
    EXPECT_EQ(bars.size(), 9u);
    for (const auto &b : bars) {
        if (b.id == ids[3]) {
            EXPECT_EQ(b.completed, 33u);
        }
        EXPECT_NE(b.id, ids[5]);
    }
}

// ---------------------------------------------------------------------
// Buffer analyzer
// ---------------------------------------------------------------------

TEST(BufferAnalyzerTest, RanksBySizeAndPercent)
{
    sim::SerialEngine eng;
    Dummy big(&eng, "Big", 16);
    Dummy small(&eng, "Small", 2);
    ComponentRegistry reg;
    reg.add(&big);
    reg.add(&small);
    BufferAnalyzer analyzer(&reg);

    auto msg = sim::makeMsg<sim::Msg>();
    for (int i = 0; i < 4; i++)
        big.port->buf().push(sim::makeMsg<sim::Msg>());
    small.port->buf().push(sim::makeMsg<sim::Msg>());
    small.port->buf().push(sim::makeMsg<sim::Msg>());

    auto bySize = analyzer.snapshot(BufferSort::BySize);
    ASSERT_EQ(bySize.size(), 2u);
    EXPECT_EQ(bySize[0].name, "Big.TopPort.Buf"); // 4 > 2.

    auto byPct = analyzer.snapshot(BufferSort::ByPercent);
    EXPECT_EQ(byPct[0].name, "Small.TopPort.Buf"); // 100% > 25%.
    EXPECT_DOUBLE_EQ(byPct[0].percent(), 100.0);

    auto top1 = analyzer.snapshot(BufferSort::BySize, 1);
    EXPECT_EQ(top1.size(), 1u);
}

TEST(BufferAnalyzerTest, NonEmptyFiltersIdleBuffers)
{
    sim::SerialEngine eng;
    Dummy idle(&eng, "Idle", 4);
    Dummy busy(&eng, "Busy", 4);
    ComponentRegistry reg;
    reg.add(&idle);
    reg.add(&busy);
    BufferAnalyzer analyzer(&reg);
    busy.port->buf().push(sim::makeMsg<sim::Msg>());

    auto rows = analyzer.nonEmpty();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].name, "Busy.TopPort.Buf");
}

TEST(BufferAnalyzerTest, SeesRegisteredInternalBuffers)
{
    sim::SerialEngine eng;
    Dummy d(&eng, "L2");
    sim::Buffer internal("L2.WriteBuf.InBuf", 8);
    d.registerBuffer(&internal);
    ComponentRegistry reg;
    reg.add(&d);
    BufferAnalyzer analyzer(&reg);
    auto rows = analyzer.snapshot(BufferSort::BySize);
    EXPECT_EQ(rows.size(), 2u);
}

// ---------------------------------------------------------------------
// Value monitor
// ---------------------------------------------------------------------

TEST(ValueMonitorTest, TracksAndSamples)
{
    ValueMonitor vm;
    int x = 0;
    auto id = vm.track("C", "x", [&x]() {
        return introspect::Value::ofInt(x);
    });
    ASSERT_GT(id, 0u);

    for (int i = 0; i < 10; i++) {
        x = i * i;
        vm.sampleAll(static_cast<sim::VTime>(i) * 1000);
    }
    TrackedSeries s = vm.series(id);
    ASSERT_EQ(s.samples.size(), 10u);
    EXPECT_EQ(s.samples[3].value, 9.0);
    EXPECT_EQ(s.samples[3].simTime, 3000u);
    EXPECT_EQ(s.componentName, "C");
    EXPECT_EQ(s.fieldName, "x");
}

TEST(ValueMonitorTest, RingKeepsMostRecent300)
{
    // Paper: "keep only the most recent 300 data points".
    ValueMonitor vm;
    int x = 0;
    auto id = vm.track("C", "x", [&x]() {
        return introspect::Value::ofInt(x);
    });
    for (int i = 0; i < 1000; i++) {
        x = i;
        vm.sampleAll(static_cast<sim::VTime>(i));
    }
    TrackedSeries s = vm.series(id);
    ASSERT_EQ(s.samples.size(), ValueMonitor::kMaxPoints);
    EXPECT_EQ(s.samples.front().value, 700.0);
    EXPECT_EQ(s.samples.back().value, 999.0);
}

TEST(ValueMonitorTest, FiveSeriesLimit)
{
    // Paper: "plots up to five individual values over time".
    ValueMonitor vm;
    auto getter = []() { return introspect::Value::ofInt(0); };
    for (int i = 0; i < 5; i++)
        EXPECT_GT(vm.track("C", "f" + std::to_string(i), getter), 0u);
    EXPECT_EQ(vm.track("C", "f5", getter), 0u) << "sixth rejected";

    // Untracking frees a slot.
    TrackedSeries first = vm.allSeries()[0];
    EXPECT_TRUE(vm.untrack(first.id));
    EXPECT_GT(vm.track("C", "f6", getter), 0u);
}

TEST(ValueMonitorTest, UnknownIdHandling)
{
    ValueMonitor vm;
    EXPECT_FALSE(vm.untrack(99));
    EXPECT_EQ(vm.series(99).id, 0u);
}

// ---------------------------------------------------------------------
// Hang watch
// ---------------------------------------------------------------------

TEST(HangWatchTest, DetectsFrozenTime)
{
    sim::SerialEngine eng;
    eng.setConcurrentAccess(true);
    eng.setWaitWhenEmpty(true);
    HangWatch watch(&eng, 0.05);

    eng.scheduleAt(10, "e", []() {});
    std::thread runner([&]() { eng.run(); });

    // Let it drain and freeze.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    watch.check(); // Baseline.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    HangStatus st = watch.check();
    EXPECT_TRUE(st.hanging);
    EXPECT_TRUE(st.queueDrained);
    EXPECT_GE(st.frozenForSec, 0.05);

    eng.stop();
    runner.join();
}

TEST(HangWatchTest, NoHangWhileAdvancing)
{
    sim::SerialEngine eng;
    HangWatch watch(&eng, 0.01);
    eng.scheduleAt(5, "e", []() {});
    watch.check();
    eng.run();
    HangStatus st = watch.check();
    EXPECT_FALSE(st.hanging) << "time advanced since last check";
}

TEST(HangWatchTest, PausedIsNotHanging)
{
    sim::SerialEngine eng;
    eng.setConcurrentAccess(true);
    eng.pause();
    HangWatch watch(&eng, 0.01);
    watch.check();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    HangStatus st = watch.check();
    EXPECT_FALSE(st.hanging) << "not running => not a hang";
}

// ---------------------------------------------------------------------
// Resources
// ---------------------------------------------------------------------

TEST(ResourceMonitorTest, ReportsMemoryAndThreads)
{
    ResourceMonitor rm;
    ResourceUsage u = rm.sample();
    EXPECT_GT(u.rssBytes, 1024u * 1024u);
    EXPECT_GE(u.numThreads, 1u);
}

TEST(ResourceMonitorTest, CpuPercentReflectsBusyWork)
{
    ResourceMonitor rm;
    rm.sample(); // Baseline.
    auto end = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(150);
    volatile std::uint64_t sink = 0;
    while (std::chrono::steady_clock::now() < end)
        sink = sink + 1;
    ResourceUsage u = rm.sample();
    EXPECT_GT(u.cpuPercent, 30.0);
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

namespace
{

/** Streams through @p write into a fresh body and parses it back. */
template <typename WriteFn>
json::Json
written(WriteFn write)
{
    std::string body;
    json::Writer w(body);
    write(w);
    return json::Json::parse(body);
}

} // namespace

TEST(Serialize, ValueToJson)
{
    using introspect::Value;
    auto value = [](const Value &v) {
        return written([&](json::Writer &w) { writeValue(w, v); });
    };
    EXPECT_TRUE(value(Value()).isNull());
    EXPECT_EQ(value(Value::ofInt(3)).intVal(), 3);
    EXPECT_DOUBLE_EQ(value(Value::ofFloat(2.5)).numberVal(), 2.5);
    EXPECT_EQ(value(Value::ofStr("s")).strVal(), "s");
    json::Json list = value(Value::ofList({Value::ofInt(1)}));
    ASSERT_TRUE(list.isArray());
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list.at(0).intVal(), 1);
    json::Json dict = value(Value::ofDict({{"k", Value::ofBool(true)}}));
    ASSERT_TRUE(dict.isObject());
    EXPECT_TRUE(dict.getBool("k"));
}

TEST(Serialize, ComponentSnapshotShape)
{
    sim::SerialEngine eng;
    Dummy d(&eng, "GPU[0].X");
    d.level = 9;
    json::Json j =
        written([&](json::Writer &w) { writeComponent(w, d); });
    EXPECT_EQ(j.getStr("name"), "GPU[0].X");
    const json::Json *fields = j.get("fields");
    ASSERT_NE(fields, nullptr);
    ASSERT_GE(fields->size(), 1u);
    EXPECT_EQ(fields->at(0).getStr("name"), "level");
    EXPECT_EQ(fields->at(0).getInt("value", -1), 9);
    EXPECT_DOUBLE_EQ(fields->at(0).getNumber("numeric", 0), 9.0);
    const json::Json *ports = j.get("ports");
    ASSERT_NE(ports, nullptr);
    EXPECT_EQ(ports->at(0).getStr("name"), "TopPort");
    EXPECT_EQ(ports->at(0).getInt("capacity", 0), 4);
    ASSERT_NE(j.get("buffers"), nullptr);
}

TEST(Serialize, BufferTableMatchesFig3Columns)
{
    std::vector<BufferLevel> rows = {
        {"GPU[1].SA[15].L1VROB[0].TopPort.Buf", 8, 8, ""},
        {"GPU[1].SA[7].L1VAddrTrans[1].TopPort.Buf", 4, 4, ""},
    };
    json::Json j =
        written([&](json::Writer &w) { writeBuffers(w, rows); });
    ASSERT_EQ(j.size(), 2u);
    EXPECT_EQ(j.at(0).getStr("buffer"),
              "GPU[1].SA[15].L1VROB[0].TopPort.Buf");
    EXPECT_EQ(j.at(0).getInt("size", 0), 8);
    EXPECT_EQ(j.at(0).getInt("cap", 0), 8);
    EXPECT_DOUBLE_EQ(j.at(0).getNumber("percent", 0), 100.0);
}

TEST(Serialize, SeriesToJson)
{
    TrackedSeries s;
    s.id = 2;
    s.componentName = "C";
    s.fieldName = "f";
    s.samples = {{1000, 3.0}, {2000, 4.0}};
    json::Json j = written([&](json::Writer &w) { writeSeries(w, s); });
    EXPECT_EQ(j.getInt("id", 0), 2);
    EXPECT_EQ(j.getStr("component"), "C");
    EXPECT_EQ(j.get("points")->size(), 2u);
    EXPECT_EQ(j.get("points")->at(1).getInt("t_ps", 0), 2000);
    EXPECT_DOUBLE_EQ(j.get("points")->at(1).getNumber("v", 0), 4.0);
}

TEST(Serialize, ProgressLabelIsEscaped)
{
    std::vector<ProgressBar> bars(1);
    bars[0].id = 1;
    bars[0].label = "kernel \"fir\"\n";
    bars[0].total = 100;
    bars[0].completed = 40;
    bars[0].inProgress = 8;
    json::Json j =
        written([&](json::Writer &w) { writeProgress(w, bars); });
    ASSERT_EQ(j.size(), 1u);
    EXPECT_EQ(j.at(0).getStr("label"), "kernel \"fir\"\n");
    EXPECT_EQ(j.at(0).getInt("completed", 0), 40);
    EXPECT_EQ(j.at(0).getInt("in_progress", 0), 8);
    EXPECT_EQ(j.at(0).getInt("not_started", 0), 52);
}

TEST(Serialize, NestedTree)
{
    TreeNode root;
    root.label = "root";
    auto gpu = std::make_unique<TreeNode>();
    gpu->label = "GPU[0]";
    auto sa = std::make_unique<TreeNode>();
    sa->label = "SA[0]";
    sa->componentName = "GPU[0].SA[0]";
    gpu->children.emplace("SA[0]", std::move(sa));
    root.children.emplace("GPU[0]", std::move(gpu));

    json::Json j = written([&](json::Writer &w) { writeTree(w, root); });
    EXPECT_EQ(j.getStr("label"), "root");
    EXPECT_EQ(j.get("component"), nullptr);
    const json::Json *kids = j.get("children");
    ASSERT_NE(kids, nullptr);
    ASSERT_EQ(kids->size(), 1u);
    EXPECT_EQ(kids->at(0).getStr("label"), "GPU[0]");
    EXPECT_EQ(kids->at(0).get("component"), nullptr);
    const json::Json *leaves = kids->at(0).get("children");
    ASSERT_NE(leaves, nullptr);
    ASSERT_EQ(leaves->size(), 1u);
    EXPECT_EQ(leaves->at(0).getStr("component"), "GPU[0].SA[0]");
    EXPECT_EQ(leaves->at(0).get("children"), nullptr);
}

// ---------------------------------------------------------------------
// Monitor facade basics (no HTTP; see rtm_http_test.cc)
// ---------------------------------------------------------------------

TEST(MonitorFacade, TrackValueByFieldAndBufferMetric)
{
    sim::SerialEngine eng;
    Dummy d(&eng, "GPU[0].X");
    MonitorConfig cfg;
    cfg.announceUrl = false;
    Monitor mon(cfg);
    mon.registerEngine(&eng);
    mon.registerComponent(&d);

    EXPECT_GT(mon.trackValue("GPU[0].X", "level"), 0u);
    EXPECT_GT(mon.trackValue("GPU[0].X", "TopPort.Buf.size"), 0u);
    EXPECT_EQ(mon.trackValue("GPU[0].X", "no_such_field"), 0u);
    EXPECT_EQ(mon.trackValue("NoSuchComponent", "level"), 0u);

    d.level = 5;
    d.port->buf().push(sim::makeMsg<sim::Msg>());
    mon.sampleNow();
    auto series = mon.allValueSeries();
    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series[0].samples.back().value, 5.0);
    EXPECT_EQ(series[1].samples.back().value, 1.0);
}

TEST(MonitorFacade, TickComponentWakesIt)
{
    sim::SerialEngine eng;

    class Sleeper : public sim::TickingComponent
    {
      public:
        explicit Sleeper(sim::Engine *e)
            : TickingComponent(e, "Sleeper", sim::Freq::ghz(1))
        {
        }

        bool
        tick() override
        {
            ticks++;
            return false;
        }

        int ticks = 0;
    } sleeper(&eng);

    MonitorConfig cfg;
    cfg.announceUrl = false;
    Monitor mon(cfg);
    mon.registerEngine(&eng);
    mon.registerComponent(&sleeper);

    EXPECT_TRUE(mon.tickComponent("Sleeper"));
    EXPECT_FALSE(mon.tickComponent("Ghost"));

    // The wake scheduled a tick event; run it (drain mode for a
    // single-threaded test).
    eng.setWaitWhenEmpty(false);
    eng.run();
    EXPECT_EQ(sleeper.ticks, 1);
}
