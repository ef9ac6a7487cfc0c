/**
 * @file
 * Reproduction of the paper's case study 2: the L2 write-buffer
 * deadlock. The legacy configuration must deadlock under write-heavy
 * thrashing; the fixed (default) configuration must complete the same
 * workload. This is the bug that was found with AkitaRTM and patched
 * upstream.
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "mem/l2cache.hh"
#include "mem_harness.hh"

using namespace akita;
using namespace akita::mem;
using akita::test::Requester;

namespace
{

struct Rig
{
    sim::Engine eng;
    Requester req{&eng, "Req", 8};
    L2Cache l2;
    DramController dram;
    sim::DirectConnection top{&eng, "Top", sim::kNanosecond};
    sim::DirectConnection bottom{&eng, "Bottom", sim::kNanosecond};

    explicit Rig(bool legacy)
        : l2(&eng, "L2", sim::Freq::ghz(1), config(legacy)),
          dram(&eng, "DRAM", sim::Freq::ghz(1), dramConfig())
    {
        top.plugIn(req.out);
        top.plugIn(l2.topPort());
        bottom.plugIn(l2.bottomPort());
        bottom.plugIn(l2.wbPort());
        bottom.plugIn(dram.topPort());
        l2.setDownstream(dram.topPort());
    }

    static L2Cache::Config
    config(bool legacy)
    {
        L2Cache::Config cfg;
        cfg.numSets = 1; // Maximum thrash: every line shares the set.
        cfg.ways = 4;
        cfg.mshrCapacity = 16;
        cfg.wbInCapacity = 2;
        cfg.wbFetchedCapacity = 2;
        cfg.installCapacity = 2;
        cfg.dramWriteInflightMax = 1;
        cfg.legacyWriteBufferDeadlock = legacy;
        return cfg;
    }

    static DramController::Config
    dramConfig()
    {
        DramController::Config cfg;
        cfg.accessLatency = 40;
        cfg.reqPerCycle = 1;
        return cfg;
    }

    /** Write-allocate traffic over many lines: every fill evicts a
     * dirty victim, keeping both write-buffer queues under pressure. */
    int
    issueThrashingWrites(int n)
    {
        for (int i = 0; i < n; i++)
            req.enqueue(0x10000ull + static_cast<std::uint64_t>(i) * 64,
                        true, l2.topPort());
        req.tickLater();
        return n;
    }
};

} // namespace

TEST(L2Deadlock, FixedConfigurationCompletes)
{
    Rig rig(/*legacy=*/false);
    int n = rig.issueThrashingWrites(200);
    rig.eng.run();
    EXPECT_EQ(rig.req.rspOrder.size(), static_cast<std::size_t>(n));
    EXPECT_FALSE(rig.l2.evictionStalled());
}

TEST(L2Deadlock, LegacyConfigurationDeadlocks)
{
    Rig rig(/*legacy=*/true);
    int n = rig.issueThrashingWrites(200);
    rig.eng.run(); // Drains: every component asleep, work incomplete.

    EXPECT_LT(rig.req.rspOrder.size(), static_cast<std::size_t>(n))
        << "legacy write buffer should deadlock before completion";

    // The hang signature the paper's case study reads off the
    // bottleneck analyzer: residue in the L2's internal queues.
    std::size_t residue = 0;
    for (sim::Buffer *b : rig.l2.buffers())
        residue += b->size();
    EXPECT_GT(residue, 0u);
    EXPECT_TRUE(rig.l2.evictionStalled());
}

TEST(L2Deadlock, LegacyDeadlockIsStableUnderKicks)
{
    // Waking the components (the dashboard "Tick" button) must NOT
    // resolve a true deadlock — ticks run, no progress happens. This is
    // what distinguishes a deadlock from a sleeping-but-healthy state
    // in the debugging workflow.
    Rig rig(/*legacy=*/true);
    rig.issueThrashingWrites(200);
    rig.eng.run();

    std::size_t before = rig.req.rspOrder.size();
    for (int kick = 0; kick < 5; kick++) {
        rig.l2.wake();
        rig.dram.wake();
        rig.req.wake();
        rig.eng.run();
    }
    EXPECT_EQ(rig.req.rspOrder.size(), before);
}

TEST(L2Deadlock, FixedHandlesReadWriteMix)
{
    Rig rig(/*legacy=*/false);
    for (int i = 0; i < 100; i++) {
        bool write = (i % 3) != 0;
        rig.req.enqueue(0x20000ull + static_cast<std::uint64_t>(i) * 64,
                        write, rig.l2.topPort());
    }
    rig.req.tickLater();
    rig.eng.run();
    EXPECT_EQ(rig.req.rspOrder.size(), 100u);
}

TEST(L2Deadlock, LegacyIdenticalToFixedWithoutPressure)
{
    // With a large, non-thrashing working set the legacy code path is
    // never exercised; both variants must produce identical traffic.
    for (bool legacy : {false, true}) {
        L2Cache::Config cfg;
        cfg.numSets = 64;
        cfg.ways = 8;
        cfg.legacyWriteBufferDeadlock = legacy;

        sim::Engine eng;
        Requester req(&eng, "Req");
        L2Cache l2(&eng, "L2", sim::Freq::ghz(1), cfg);
        DramController dram(&eng, "DRAM", sim::Freq::ghz(1), {});
        sim::DirectConnection top(&eng, "Top", sim::kNanosecond);
        sim::DirectConnection bottom(&eng, "Bottom", sim::kNanosecond);
        top.plugIn(req.out);
        top.plugIn(l2.topPort());
        bottom.plugIn(l2.bottomPort());
        bottom.plugIn(l2.wbPort());
        bottom.plugIn(dram.topPort());
        l2.setDownstream(dram.topPort());

        for (int i = 0; i < 50; i++)
            req.enqueue(0x1000ull + static_cast<std::uint64_t>(i) * 64,
                        i % 2 == 0, l2.topPort());
        req.tickLater();
        eng.run();
        EXPECT_EQ(req.rspOrder.size(), 50u) << "legacy=" << legacy;
    }
}
