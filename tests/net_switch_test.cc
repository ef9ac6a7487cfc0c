/**
 * @file
 * Tests for the multi-hop Switch component: routing, drops,
 * loop-guarding, and a three-switch ring topology with a switch-aware
 * responder (endpoints on a switched fabric must set Msg::finalDst).
 */

#include <gtest/gtest.h>

#include "mem/msg.hh"
#include "net/switch.hh"
#include "sim/sim.hh"

using namespace akita;

namespace
{

/**
 * A requester that addresses a switch fabric: requests carry finalDst
 * and a first-hop dst; responses are matched by request id.
 */
class FabricRequester : public sim::TickingComponent
{
  public:
    FabricRequester(sim::Engine *engine, const std::string &name)
        : TickingComponent(engine, name, sim::Freq::ghz(1))
    {
        out = addPort("Out", 16);
    }

    void
    enqueue(std::uint64_t addr, sim::Port *final_dst,
            sim::Port *first_hop)
    {
        auto req = sim::makeMsg<mem::MemReq>(addr, 4, false);
        req->finalDst = final_dst;
        req->dst = first_hop;
        pending_.push_back(req);
    }

    bool
    tick() override
    {
        bool progress = false;
        while (!pending_.empty()) {
            if (out->send(pending_.front()) != sim::SendStatus::Ok)
                break;
            pending_.erase(pending_.begin());
            progress = true;
        }
        while (true) {
            sim::MsgPtr m = out->retrieveIncoming();
            if (m == nullptr)
                break;
            if (auto rsp = sim::msgCast<mem::MemRsp>(m))
                responses.push_back(rsp->reqId);
            progress = true;
        }
        return progress;
    }

    sim::Port *out = nullptr;
    std::vector<std::uint64_t> responses;

  private:
    std::vector<mem::MemReqPtr> pending_;
};

/**
 * A memory endpoint for switched fabrics: replies carry finalDst (the
 * configured requester port) and dst (the local switch port).
 */
class FabricResponder : public sim::TickingComponent
{
  public:
    FabricResponder(sim::Engine *engine, const std::string &name)
        : TickingComponent(engine, name, sim::Freq::ghz(1))
    {
        top = addPort("TopPort", 16);
    }

    sim::Port *top = nullptr;
    sim::Port *replyFinalDst = nullptr;
    sim::Port *replyFirstHop = nullptr;
    std::vector<std::uint64_t> reqsSeen;

    bool
    tick() override
    {
        bool progress = false;
        while (true) {
            sim::MsgPtr m = top->peekIncoming();
            if (m == nullptr)
                break;
            auto req = sim::msgCast<mem::MemReq>(m);
            if (req == nullptr) {
                top->retrieveIncoming();
                continue;
            }
            auto rsp = mem::makeRsp(*req);
            rsp->finalDst = replyFinalDst;
            rsp->dst = replyFirstHop;
            if (top->send(rsp) != sim::SendStatus::Ok)
                break;
            reqsSeen.push_back(req->addr);
            top->retrieveIncoming();
            progress = true;
        }
        return progress;
    }
};

/** Requester -> switch -> responder over two links. */
struct StarRig
{
    sim::Engine eng;
    FabricRequester req{&eng, "Req"};
    FabricResponder mem{&eng, "Mem"};
    net::Switch sw;
    sim::DirectConnection linkA{&eng, "LinkA", sim::kNanosecond};
    sim::DirectConnection linkB{&eng, "LinkB", sim::kNanosecond};
    sim::Port *portA;
    sim::Port *portB;

    StarRig() : sw(&eng, "Switch", sim::Freq::ghz(1), {})
    {
        portA = sw.addLink("PortA");
        portB = sw.addLink("PortB");
        linkA.plugIn(req.out);
        linkA.plugIn(portA);
        linkB.plugIn(portB);
        linkB.plugIn(mem.top);

        // Both endpoints are directly attached to this switch.
        sw.setRoute([](sim::Port *final_dst) { return final_dst; });

        mem.replyFinalDst = req.out;
        mem.replyFirstHop = portB;
    }
};

} // namespace

TEST(SwitchTest, RequestAndResponseRoundTrip)
{
    StarRig rig;
    rig.req.enqueue(0x100, rig.mem.top, rig.portA);
    rig.req.tickLater();
    rig.eng.run();

    ASSERT_EQ(rig.mem.reqsSeen.size(), 1u);
    EXPECT_EQ(rig.mem.reqsSeen[0], 0x100u);
    ASSERT_EQ(rig.req.responses.size(), 1u);
    EXPECT_GE(rig.sw.forwarded(), 2u); // Request + response.
    EXPECT_EQ(rig.sw.dropped(), 0u);
}

TEST(SwitchTest, ManyMessagesNoLossInOrder)
{
    StarRig rig;
    for (int i = 0; i < 64; i++)
        rig.req.enqueue(0x100 + static_cast<std::uint64_t>(i) * 4,
                        rig.mem.top, rig.portA);
    rig.req.tickLater();
    rig.eng.run();
    ASSERT_EQ(rig.mem.reqsSeen.size(), 64u);
    for (int i = 0; i < 64; i++)
        EXPECT_EQ(rig.mem.reqsSeen[static_cast<std::size_t>(i)],
                  0x100u + static_cast<std::uint64_t>(i) * 4);
    EXPECT_EQ(rig.req.responses.size(), 64u);
}

TEST(SwitchTest, UnroutableMessagesDropAndCount)
{
    StarRig rig;
    rig.sw.setRoute([](sim::Port *) -> sim::Port * { return nullptr; });
    rig.req.enqueue(0x200, rig.mem.top, rig.portA);
    rig.req.tickLater();
    rig.eng.run();
    EXPECT_EQ(rig.mem.reqsSeen.size(), 0u);
    EXPECT_EQ(rig.sw.dropped(), 1u);
}

TEST(SwitchTest, RoutingLoopIsDroppedNotLivelocked)
{
    StarRig rig;
    // Malicious route: always back toward the requester's link.
    rig.sw.setRoute(
        [&rig](sim::Port *) -> sim::Port * { return rig.portA; });
    rig.req.enqueue(0x300, rig.mem.top, rig.portA);
    rig.req.tickLater();
    rig.eng.run(); // Must terminate.
    EXPECT_EQ(rig.sw.dropped(), 1u);
}

TEST(SwitchTest, EgressQueueVisibleToAnalyzer)
{
    StarRig rig;
    auto buffers = rig.sw.buffers();
    // 2 link ports + 2 egress queues.
    EXPECT_EQ(buffers.size(), 4u);
    bool sawEgress = false;
    for (auto *b : buffers) {
        if (b->name().find("EgressBuf") != std::string::npos)
            sawEgress = true;
    }
    EXPECT_TRUE(sawEgress);
}

namespace
{

/**
 * Three switches in a ring; requester on SW0, responder on SW2.
 * Clockwise routing for requests (0 -> 1 -> 2) and for responses
 * (2 -> 0 via the 2->0 ring link).
 */
struct RingRig
{
    sim::Engine eng;
    FabricRequester req{&eng, "Req"};
    FabricResponder mem{&eng, "Mem"};
    std::vector<std::unique_ptr<net::Switch>> switches;
    std::vector<std::unique_ptr<sim::DirectConnection>> links;
    sim::Port *host0 = nullptr; // SW0's host-side port.
    sim::Port *host2 = nullptr; // SW2's host-side port.
    sim::Port *entry[3];        // entry[i] = switch (i+1)%3's ingress
                                // port reachable from switch i.

    RingRig()
    {
        for (int i = 0; i < 3; i++) {
            switches.push_back(std::make_unique<net::Switch>(
                &eng, "SW" + std::to_string(i), sim::Freq::ghz(1),
                net::Switch::Config{}));
        }
        auto mkLink = [&](const std::string &name) {
            links.push_back(std::make_unique<sim::DirectConnection>(
                &eng, name, sim::kNanosecond));
            return links.back().get();
        };

        host0 = switches[0]->addLink("Host");
        auto *l0 = mkLink("Host0");
        l0->plugIn(req.out);
        l0->plugIn(host0);

        host2 = switches[2]->addLink("Host");
        auto *l2 = mkLink("Host2");
        l2->plugIn(mem.top);
        l2->plugIn(host2);

        for (int i = 0; i < 3; i++) {
            int j = (i + 1) % 3;
            auto *link =
                mkLink("Ring" + std::to_string(i) + std::to_string(j));
            sim::Port *a = switches[static_cast<std::size_t>(i)]
                               ->addLink("To" + std::to_string(j));
            sim::Port *b = switches[static_cast<std::size_t>(j)]
                               ->addLink("From" + std::to_string(i));
            link->plugIn(a);
            link->plugIn(b);
            entry[i] = b;
        }

        switches[0]->setRoute([this](sim::Port *fd) -> sim::Port * {
            if (fd == req.out)
                return fd;       // Locally attached.
            return entry[0];     // Clockwise toward SW1.
        });
        switches[1]->setRoute([this](sim::Port *fd) -> sim::Port * {
            (void)fd;
            return entry[1];     // Clockwise toward SW2.
        });
        switches[2]->setRoute([this](sim::Port *fd) -> sim::Port * {
            if (fd == mem.top)
                return fd;
            return entry[2];     // Clockwise toward SW0 (responses).
        });

        mem.replyFinalDst = req.out;
        mem.replyFirstHop = host2;
    }
};

} // namespace

TEST(SwitchTest, RingDeliversAcrossMultipleHops)
{
    RingRig rig;
    rig.req.enqueue(0x4000, rig.mem.top, rig.host0);
    rig.req.tickLater();
    rig.eng.run();

    ASSERT_EQ(rig.mem.reqsSeen.size(), 1u);
    ASSERT_EQ(rig.req.responses.size(), 1u);
    // Request crosses SW0, SW1, SW2; response crosses SW2, SW0.
    EXPECT_GE(rig.switches[0]->forwarded(), 2u);
    EXPECT_GE(rig.switches[1]->forwarded(), 1u);
    EXPECT_GE(rig.switches[2]->forwarded(), 2u);
    EXPECT_EQ(rig.switches[1]->dropped(), 0u);
}

TEST(SwitchTest, RingHandlesBurstWithBackpressure)
{
    RingRig rig;
    for (int i = 0; i < 64; i++)
        rig.req.enqueue(0x4000 + static_cast<std::uint64_t>(i) * 64,
                        rig.mem.top, rig.host0);
    rig.req.tickLater();
    rig.eng.run();
    EXPECT_EQ(rig.mem.reqsSeen.size(), 64u);
    EXPECT_EQ(rig.req.responses.size(), 64u);
    EXPECT_EQ(rig.switches[0]->dropped(), 0u);
    EXPECT_EQ(rig.switches[1]->dropped(), 0u);
    EXPECT_EQ(rig.switches[2]->dropped(), 0u);
}

// ---------------------------------------------------------------------
// Ring topology integrated into the full platform
// ---------------------------------------------------------------------

#include "gpu/platform.hh"
#include "workloads/workloads.hh"

TEST(RingPlatform, CompletesAllPaperBenchmarks)
{
    for (const auto &b : akita::workloads::paperSuite(0.02)) {
        akita::gpu::PlatformConfig cfg =
            akita::gpu::PlatformConfig::mcm4(
                akita::gpu::GpuConfig::tiny());
        cfg.topology = akita::gpu::NetworkTopology::Ring;
        akita::gpu::Platform plat(cfg);
        akita::gpu::KernelDescriptor k = b.kernel;
        plat.launchKernel(&k);
        EXPECT_EQ(plat.run(),
                  akita::gpu::Platform::RunStatus::Completed)
            << b.name;
        std::uint64_t dropped = 0;
        for (auto *sw : plat.ringSwitches())
            dropped += sw->dropped();
        EXPECT_EQ(dropped, 0u) << b.name;
    }
}

TEST(RingPlatform, TrafficActuallyCrossesSwitches)
{
    akita::gpu::PlatformConfig cfg =
        akita::gpu::PlatformConfig::mcm4(akita::gpu::GpuConfig::tiny());
    cfg.topology = akita::gpu::NetworkTopology::Ring;
    akita::gpu::Platform plat(cfg);
    // 4 chiplets -> 2 rings x 4 switches.
    EXPECT_EQ(plat.ringSwitches().size(), 8u);

    akita::workloads::MemCopyParams p;
    p.bytes = 1 << 19;
    auto k = akita::workloads::makeMemCopy(p);
    plat.launchKernel(&k);
    plat.run();

    std::uint64_t forwarded = 0;
    for (auto *sw : plat.ringSwitches())
        forwarded += sw->forwarded();
    EXPECT_GT(forwarded, 1000u);
}

TEST(RingPlatform, DeterministicAcrossRuns)
{
    auto once = []() {
        akita::gpu::PlatformConfig cfg =
            akita::gpu::PlatformConfig::mcm4(
                akita::gpu::GpuConfig::tiny());
        cfg.topology = akita::gpu::NetworkTopology::Ring;
        akita::gpu::Platform plat(cfg);
        akita::workloads::FirParams fp;
        fp.numSamples = 1 << 14;
        auto k = akita::workloads::makeFir(fp);
        plat.launchKernel(&k);
        plat.run();
        return plat.engine().now();
    };
    EXPECT_EQ(once(), once());
}

TEST(RingPlatform, SlowerLinksSlowRemoteTraffic)
{
    // Peak RDMA residency is bounded by the upstream MSHR budget, so
    // hop latency shows up as *time spent* at that residency — i.e.
    // completion time — rather than a higher peak.
    auto completionTime = [](akita::sim::VTime hop) {
        akita::gpu::PlatformConfig cfg =
            akita::gpu::PlatformConfig::mcm4(
                akita::gpu::GpuConfig::tiny());
        cfg.topology = akita::gpu::NetworkTopology::Ring;
        cfg.ringLinkLatency = hop;
        akita::gpu::Platform plat(cfg);
        akita::workloads::Im2ColParams p;
        p.batch = 16;
        auto k = akita::workloads::makeIm2Col(p);
        plat.launchKernel(&k);
        EXPECT_EQ(plat.run(),
                  akita::gpu::Platform::RunStatus::Completed);
        return plat.engine().now();
    };

    akita::sim::VTime fast =
        completionTime(5 * akita::sim::kNanosecond);
    akita::sim::VTime slow =
        completionTime(200 * akita::sim::kNanosecond);
    EXPECT_GT(slow, fast);
}
