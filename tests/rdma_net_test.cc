/**
 * @file
 * Tests for the RDMA engine and the switched inter-chiplet network.
 */

#include <gtest/gtest.h>

#include "mem/rdma.hh"
#include "mem_harness.hh"
#include "net/switched.hh"

using namespace akita;
using namespace akita::mem;
using akita::test::FakeMemory;
using akita::test::Requester;

namespace
{

/**
 * Two-chiplet rig: requester on chiplet 0, memory on both; odd pages
 * live on chiplet 1 (page interleaving with 2 devices).
 */
struct TwoChipRig
{
    sim::Engine eng;
    Requester req{&eng, "Req"};
    RdmaEngine rdma0;
    RdmaEngine rdma1;
    FakeMemory mem0{&eng, "Mem0", 4};
    FakeMemory mem1{&eng, "Mem1", 4};
    sim::DirectConnection inside0{&eng, "Inside0", sim::kNanosecond};
    sim::DirectConnection inside1{&eng, "Inside1", sim::kNanosecond};
    net::SwitchedNetwork network;
    SinglePortMapper map0;
    SinglePortMapper map1;
    ChipletInterleaving interleave;

    explicit TwoChipRig(net::SwitchedNetwork::Config netCfg = {})
        : rdma0(&eng, "GPU[0].RDMA", sim::Freq::ghz(1), {}),
          rdma1(&eng, "GPU[1].RDMA", sim::Freq::ghz(1), {}),
          network(&eng, "Network", netCfg), map0(nullptr), map1(nullptr)
    {
        interleave.pageSize = 4096;
        interleave.numDevices = 2;

        inside0.plugIn(req.out);
        inside0.plugIn(rdma0.toInsidePort());
        inside0.plugIn(mem0.top);
        inside1.plugIn(rdma1.toInsidePort());
        inside1.plugIn(mem1.top);
        network.plugIn(rdma0.toOutsidePort());
        network.plugIn(rdma1.toOutsidePort());

        map0 = SinglePortMapper(mem0.top);
        map1 = SinglePortMapper(mem1.top);
        rdma0.setLocalMapper(&map0);
        rdma1.setLocalMapper(&map1);

        auto finder = [this](std::uint64_t addr) -> sim::Port * {
            return interleave.deviceOf(addr) == 0
                       ? rdma0.toOutsidePort()
                       : rdma1.toOutsidePort();
        };
        rdma0.setRemoteFinder(finder);
        rdma1.setRemoteFinder(finder);
    }
};

} // namespace

TEST(RdmaTest, RemoteRequestRoundTrip)
{
    TwoChipRig rig;
    // Page 1 (0x1000) belongs to chiplet 1: must travel via RDMA.
    auto id = rig.req.enqueue(0x1000, false, rig.rdma0.toInsidePort());
    rig.req.tickLater();
    rig.eng.run();

    ASSERT_EQ(rig.req.rspOrder.size(), 1u);
    EXPECT_EQ(rig.req.rspOrder[0], id);
    EXPECT_EQ(rig.mem1.reqsSeen.size(), 1u);
    EXPECT_EQ(rig.mem0.reqsSeen.size(), 0u);
    EXPECT_EQ(rig.rdma0.transactionCount(), 0u) << "tables drained";
    EXPECT_EQ(rig.rdma1.transactionCount(), 0u);
}

TEST(RdmaTest, ManyOutstandingTransactions)
{
    TwoChipRig rig;
    for (int i = 0; i < 64; i++)
        rig.req.enqueue(0x1000ull + static_cast<std::uint64_t>(i) * 8192,
                        i % 4 == 0, rig.rdma0.toInsidePort());
    rig.req.tickLater();
    rig.eng.run();
    EXPECT_EQ(rig.req.rspOrder.size(), 64u);
    EXPECT_EQ(rig.mem1.reqsSeen.size(), 64u);
}

TEST(RdmaTest, TracksInflightDuringFlight)
{
    net::SwitchedNetwork::Config slow;
    slow.latency = 500 * sim::kNanosecond;
    slow.bytesPerSecond = 1e9; // Deliberately slow.
    TwoChipRig rig(slow);

    for (int i = 0; i < 32; i++)
        rig.req.enqueue(0x1000ull + static_cast<std::uint64_t>(i) * 8192,
                        false, rig.rdma0.toInsidePort());
    rig.req.tickLater();

    // Probe the RDMA inflight table mid-simulation: with a slow network
    // the outgoing table must accumulate (the case-study signature).
    std::size_t maxInflight = 0;
    std::function<void()> probe = [&]() {
        maxInflight =
            std::max(maxInflight, rig.rdma0.transactionCount());
        if (rig.req.rspOrder.size() < 32)
            rig.eng.scheduleAt(rig.eng.now() + 10 * sim::kNanosecond,
                               "probe", probe);
    };
    rig.eng.scheduleAt(1, "probe", probe);
    rig.eng.run();

    EXPECT_EQ(rig.req.rspOrder.size(), 32u);
    EXPECT_GE(maxInflight, 8u)
        << "slow network must pile transactions up in the RDMA";
}

TEST(SwitchedNetworkTest, DeliversWithLatency)
{
    sim::Engine eng;
    Requester req(&eng, "Req");
    FakeMemory memory(&eng, "Mem", 1);
    net::SwitchedNetwork::Config cfg;
    cfg.latency = 100 * sim::kNanosecond;
    cfg.bytesPerSecond = 1e12;
    net::SwitchedNetwork net(&eng, "Net", cfg);
    net.plugIn(req.out);
    net.plugIn(memory.top);

    auto id = req.enqueue(0x100, false, memory.top);
    req.tickLater();
    eng.run();
    ASSERT_EQ(req.rspOrder.size(), 1u);
    // Two traversals (request + response): at least 200 ns.
    EXPECT_GE(req.rspTimes[id] - req.sendTimes[id],
              200 * sim::kNanosecond);
}

TEST(SwitchedNetworkTest, BandwidthSerializesMessages)
{
    // Same traffic, 100x less bandwidth: completion must be later.
    sim::VTime fastDone = 0, slowDone = 0;
    for (double bw : {64e9, 0.64e9}) {
        sim::Engine eng;
        Requester req(&eng, "Req");
        FakeMemory memory(&eng, "Mem", 1);
        net::SwitchedNetwork::Config cfg;
        cfg.latency = sim::kNanosecond;
        cfg.bytesPerSecond = bw;
        net::SwitchedNetwork net(&eng, "Net", cfg);
        net.plugIn(req.out);
        net.plugIn(memory.top);
        for (int i = 0; i < 50; i++)
            req.enqueue(0x1000 + i * 64, false, memory.top, 256);
        req.tickLater();
        eng.run();
        EXPECT_EQ(req.rspOrder.size(), 50u);
        (bw > 1e10 ? fastDone : slowDone) = eng.now();
    }
    EXPECT_GT(slowDone, 2 * fastDone);
}

TEST(SwitchedNetworkTest, ReservationPreventsOverflow)
{
    sim::Engine eng;
    Requester req(&eng, "Req");
    // A sink that never drains.
    sim::Engine *ep = &eng;
    class Sink : public sim::TickingComponent
    {
      public:
        explicit Sink(sim::Engine *e)
            : TickingComponent(e, "Sink", sim::Freq::ghz(1))
        {
            in = addPort("In", 4);
        }

        bool tick() override { return false; }

        sim::Port *in;
    } sink(ep);

    net::SwitchedNetwork net(&eng, "Net", {});
    net.plugIn(req.out);
    net.plugIn(sink.in);
    for (int i = 0; i < 20; i++)
        req.enqueue(0x0, false, sink.in);
    req.tickLater();
    eng.run();
    EXPECT_EQ(sink.in->buf().size(), 4u);
    EXPECT_EQ(net.inFlight(), 0u);
}

TEST(SwitchedNetworkTest, CountsTraffic)
{
    sim::Engine eng;
    Requester req(&eng, "Req");
    FakeMemory memory(&eng, "Mem", 1);
    net::SwitchedNetwork net(&eng, "Net", {});
    net.plugIn(req.out);
    net.plugIn(memory.top);
    req.enqueue(0x0, false, memory.top);
    req.tickLater();
    eng.run();
    EXPECT_GT(net.totalBytes(), 0u);
    EXPECT_EQ(net.fields().find("total_msgs")->getter().intVal(), 2);
}
