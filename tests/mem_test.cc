/**
 * @file
 * Unit tests for the memory hierarchy: directory/TLB structures, the
 * reorder buffer, address translator, L1 cache (MSHR behavior), DRAM
 * controller, and the L2 cache's write-back path.
 */

#include <gtest/gtest.h>

#include <map>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/l2cache.hh"
#include "mem/rob.hh"
#include "mem/translator.hh"
#include "mem_harness.hh"

using namespace akita;
using namespace akita::mem;
using akita::test::FakeMemory;
using akita::test::Requester;

// ---------------------------------------------------------------------
// Directory
// ---------------------------------------------------------------------

TEST(Directory, MissThenHit)
{
    Directory dir(4, 2, 64);
    EXPECT_FALSE(dir.lookup(0x100));
    bool ed;
    std::uint64_t va;
    dir.install(0x100, false, ed, va);
    EXPECT_TRUE(dir.lookup(0x100));
    EXPECT_TRUE(dir.lookup(0x13f)); // Same 64 B line.
    EXPECT_FALSE(dir.lookup(0x140)); // Next line.
    EXPECT_EQ(dir.hits(), 2u);
    EXPECT_EQ(dir.misses(), 2u);
}

TEST(Directory, LruEviction)
{
    Directory dir(1, 2, 64); // One set, two ways.
    bool ed;
    std::uint64_t va;
    dir.install(0x000, false, ed, va);
    dir.install(0x040, false, ed, va);
    dir.lookup(0x000); // Touch A: B becomes LRU.
    bool evicted = dir.install(0x080, false, ed, va);
    EXPECT_TRUE(evicted);
    EXPECT_TRUE(dir.lookup(0x000));
    EXPECT_FALSE(dir.lookup(0x040)); // B was evicted.
    EXPECT_TRUE(dir.lookup(0x080));
}

TEST(Directory, DirtyEvictionReportsVictimAddress)
{
    Directory dir(2, 1, 64); // Two sets, direct-mapped.
    bool ed;
    std::uint64_t va;
    dir.install(0x000, true, ed, va); // Set 0, dirty.
    // 0x080 maps to set 0 too (line 2 % 2 == 0).
    dir.install(0x080, false, ed, va);
    EXPECT_TRUE(ed);
    EXPECT_EQ(va, 0x000u);
}

TEST(Directory, PeekVictimMatchesInstall)
{
    Directory dir(2, 2, 64);
    bool ed;
    std::uint64_t va;
    dir.install(0x000, true, ed, va);
    dir.install(0x100, false, ed, va); // Same set 0 (line 4 % 2 == 0).

    bool peekDirty;
    std::uint64_t peekVa;
    bool wouldEvict = dir.peekVictim(0x200, peekDirty, peekVa);
    EXPECT_TRUE(wouldEvict);

    dir.install(0x200, false, ed, va);
    EXPECT_EQ(ed, peekDirty);
    EXPECT_EQ(va, peekVa);
}

TEST(Directory, PeekVictimNoEvictionWhenPresent)
{
    Directory dir(2, 2, 64);
    bool ed;
    std::uint64_t va;
    dir.install(0x000, false, ed, va);
    bool d;
    std::uint64_t v;
    EXPECT_FALSE(dir.peekVictim(0x000, d, v));
}

TEST(Directory, MarkDirtyAffectsEviction)
{
    Directory dir(1, 1, 64);
    bool ed;
    std::uint64_t va;
    dir.install(0x000, false, ed, va);
    dir.markDirty(0x020); // Same line.
    dir.install(0x040, false, ed, va);
    EXPECT_TRUE(ed);
}

// ---------------------------------------------------------------------
// TLB
// ---------------------------------------------------------------------

TEST(TlbTest, HitAfterInstall)
{
    Tlb tlb(4, 4096);
    EXPECT_FALSE(tlb.lookup(0x1000));
    tlb.install(0x1000);
    EXPECT_TRUE(tlb.lookup(0x1fff)); // Same page.
    EXPECT_FALSE(tlb.lookup(0x2000));
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(TlbTest, LruCapacity)
{
    Tlb tlb(2, 4096);
    tlb.install(0x0000);
    tlb.install(0x1000);
    EXPECT_TRUE(tlb.lookup(0x0000)); // Page 0 is now MRU.
    tlb.install(0x2000);             // Evicts page 1.
    EXPECT_TRUE(tlb.lookup(0x0000));
    EXPECT_FALSE(tlb.lookup(0x1000));
    EXPECT_TRUE(tlb.lookup(0x2000));
    EXPECT_EQ(tlb.occupancy(), 2u);
}

// ---------------------------------------------------------------------
// ReorderBuffer
// ---------------------------------------------------------------------

namespace
{

struct RobRig
{
    sim::Engine eng;
    Requester req{&eng, "Req"};
    ReorderBuffer rob;
    FakeMemory memory;
    sim::DirectConnection top{&eng, "Top", sim::kNanosecond};
    sim::DirectConnection bottom{&eng, "Bottom", sim::kNanosecond};

    explicit RobRig(ReorderBuffer::Config cfg = {}, bool lifo = true)
        : rob(&eng, "ROB", sim::Freq::ghz(1), cfg),
          memory(&eng, "Mem", 4, lifo)
    {
        top.plugIn(req.out);
        top.plugIn(rob.topPort());
        bottom.plugIn(rob.bottomPort());
        bottom.plugIn(memory.top);
        rob.setDownstream(memory.top);
    }
};

} // namespace

TEST(ReorderBufferTest, RetiresInOrderDespiteOutOfOrderResponses)
{
    RobRig rig; // LIFO memory: responses come back reversed.
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 12; i++)
        ids.push_back(rig.req.enqueue(0x1000 + i * 64, false,
                                      rig.rob.topPort()));
    rig.req.tickLater();
    rig.eng.run();

    ASSERT_EQ(rig.req.rspOrder.size(), ids.size());
    EXPECT_EQ(rig.req.rspOrder, ids) << "must retire in program order";
    EXPECT_EQ(rig.rob.transactionCount(), 0u);
}

TEST(ReorderBufferTest, CapacityBoundsWindow)
{
    ReorderBuffer::Config cfg;
    cfg.capacity = 4;
    RobRig rig(cfg);
    for (int i = 0; i < 40; i++)
        rig.req.enqueue(0x2000 + i * 64, false, rig.rob.topPort());
    rig.req.tickLater();
    rig.eng.run();
    EXPECT_EQ(rig.req.rspOrder.size(), 40u);
}

TEST(ReorderBufferTest, WritesFlowThrough)
{
    RobRig rig;
    auto id = rig.req.enqueue(0x3000, true, rig.rob.topPort());
    rig.req.tickLater();
    rig.eng.run();
    ASSERT_EQ(rig.req.rspOrder.size(), 1u);
    EXPECT_EQ(rig.req.rspOrder[0], id);
}

TEST(ReorderBufferTest, TransactionsFieldVisible)
{
    RobRig rig;
    const auto *f = rig.rob.fields().find("transactions");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->getter().numeric(), 0.0);
}

// ---------------------------------------------------------------------
// AddressTranslator
// ---------------------------------------------------------------------

namespace
{

struct AtRig
{
    sim::Engine eng;
    Requester req{&eng, "Req"};
    AddressTranslator at;
    FakeMemory memory;
    sim::DirectConnection top{&eng, "Top", sim::kNanosecond};
    sim::DirectConnection bottom{&eng, "Bottom", sim::kNanosecond};

    explicit AtRig(AddressTranslator::Config cfg = {})
        : at(&eng, "AT", sim::Freq::ghz(1), cfg),
          memory(&eng, "Mem", 2, false)
    {
        top.plugIn(req.out);
        top.plugIn(at.topPort());
        bottom.plugIn(at.bottomPort());
        bottom.plugIn(memory.top);
        at.setDownstream(memory.top);
    }
};

} // namespace

TEST(AddressTranslatorTest, TlbMissPaysWalkLatency)
{
    AddressTranslator::Config cfg;
    cfg.walkLatency = 50;
    AtRig rig(cfg);

    auto missId = rig.req.enqueue(0x10000, false, rig.at.topPort());
    rig.req.tickLater();
    rig.eng.run();

    auto hitId = rig.req.enqueue(0x10040, false, rig.at.topPort());
    rig.req.wake();
    rig.eng.run();

    ASSERT_EQ(rig.req.rspOrder.size(), 2u);
    sim::VTime missLat =
        rig.req.rspTimes[missId] - rig.req.sendTimes[missId];
    sim::VTime hitLat =
        rig.req.rspTimes[hitId] - rig.req.sendTimes[hitId];
    EXPECT_GT(missLat, hitLat + 40 * sim::kNanosecond);
    EXPECT_EQ(rig.at.tlb().misses(), 1u);
    EXPECT_EQ(rig.at.tlb().hits(), 1u);
}

TEST(AddressTranslatorTest, ReqsMarkedTranslated)
{
    AtRig rig;
    rig.req.enqueue(0x20000, false, rig.at.topPort());
    rig.req.tickLater();
    rig.eng.run();
    EXPECT_EQ(rig.memory.reqsSeen.size(), 1u);
}

TEST(AddressTranslatorTest, ManyPagesBoundedByWalkers)
{
    AddressTranslator::Config cfg;
    cfg.maxWalkers = 2;
    cfg.walkLatency = 30;
    AtRig rig(cfg);
    for (int i = 0; i < 16; i++)
        rig.req.enqueue(0x100000ull + i * 0x1000, false,
                        rig.at.topPort());
    rig.req.tickLater();
    rig.eng.run();
    EXPECT_EQ(rig.req.rspOrder.size(), 16u);
    EXPECT_EQ(rig.at.tlb().misses(), 16u);
    EXPECT_EQ(rig.at.transactionCount(), 0u);
}

// ---------------------------------------------------------------------
// L1 Cache
// ---------------------------------------------------------------------

namespace
{

struct CacheRig
{
    sim::Engine eng;
    Requester req{&eng, "Req"};
    Cache cache;
    FakeMemory memory;
    SinglePortMapper mapper;
    sim::DirectConnection top{&eng, "Top", sim::kNanosecond};
    sim::DirectConnection bottom{&eng, "Bottom", sim::kNanosecond};

    explicit CacheRig(Cache::Config cfg = {},
                      std::uint64_t mem_delay = 20)
        : cache(&eng, "L1", sim::Freq::ghz(1), cfg),
          memory(&eng, "Mem", mem_delay, false), mapper(nullptr)
    {
        top.plugIn(req.out);
        top.plugIn(cache.topPort());
        bottom.plugIn(cache.bottomPort());
        bottom.plugIn(memory.top);
        mapper = SinglePortMapper(memory.top);
        cache.setMapper(&mapper);
    }
};

} // namespace

TEST(CacheTest, MissThenHitLatency)
{
    CacheRig rig;
    auto missId = rig.req.enqueue(0x4000, false, rig.cache.topPort());
    rig.req.tickLater();
    rig.eng.run();

    auto hitId = rig.req.enqueue(0x4004, false, rig.cache.topPort());
    rig.req.wake();
    rig.eng.run();

    sim::VTime missLat =
        rig.req.rspTimes[missId] - rig.req.sendTimes[missId];
    sim::VTime hitLat =
        rig.req.rspTimes[hitId] - rig.req.sendTimes[hitId];
    EXPECT_GT(missLat, hitLat);
    EXPECT_EQ(rig.cache.directory().hits(), 1u);
    EXPECT_EQ(rig.memory.reqsSeen.size(), 1u);
}

TEST(CacheTest, CoalescesSameLineMisses)
{
    CacheRig rig;
    for (int i = 0; i < 8; i++)
        rig.req.enqueue(0x5000 + i * 4, false, rig.cache.topPort());
    rig.req.tickLater();
    rig.eng.run();
    EXPECT_EQ(rig.req.rspOrder.size(), 8u);
    // All eight hit the same 64 B line: exactly one fetch downstream.
    EXPECT_EQ(rig.memory.reqsSeen.size(), 1u);
}

TEST(CacheTest, MshrLimitsOutstandingTransactions)
{
    Cache::Config cfg;
    cfg.mshrCapacity = 4;
    CacheRig rig(cfg, /*mem_delay=*/200);

    for (int i = 0; i < 32; i++)
        rig.req.enqueue(0x10000ull + i * 64, false,
                        rig.cache.topPort());
    rig.req.tickLater();

    // Observe the cap mid-flight via an engine probe.
    std::size_t maxSeen = 0;
    std::function<void()> probe = [&]() {
        maxSeen = std::max(maxSeen, rig.cache.transactionCount());
        if (rig.eng.queueLength() > 0 &&
            rig.req.rspOrder.size() < 32)
            rig.eng.scheduleAt(rig.eng.now() + sim::kNanosecond,
                               "probe", probe);
    };
    rig.eng.scheduleAt(1, "probe", probe);
    rig.eng.run();

    EXPECT_EQ(rig.req.rspOrder.size(), 32u);
    EXPECT_LE(maxSeen, 4u);
    EXPECT_GE(maxSeen, 3u) << "MSHR should saturate under load";
}

TEST(CacheTest, WriteThroughForwardsWrites)
{
    CacheRig rig;
    rig.req.enqueue(0x6000, true, rig.cache.topPort());
    rig.req.enqueue(0x6004, true, rig.cache.topPort());
    rig.req.tickLater();
    rig.eng.run();
    EXPECT_EQ(rig.req.rspOrder.size(), 2u);
    EXPECT_EQ(rig.memory.reqsSeen.size(), 2u); // No write combining.
}

TEST(CacheTest, EvictionKeepsServingCorrectly)
{
    Cache::Config cfg;
    cfg.numSets = 1;
    cfg.ways = 2;
    CacheRig rig(cfg);
    // Touch 4 distinct lines mapping to the single set, then re-touch.
    for (int round = 0; round < 2; round++) {
        for (int i = 0; i < 4; i++)
            rig.req.enqueue(0x8000ull + i * 64, false,
                            rig.cache.topPort());
    }
    rig.req.tickLater();
    rig.eng.run();
    EXPECT_EQ(rig.req.rspOrder.size(), 8u);
    EXPECT_GE(rig.memory.reqsSeen.size(), 4u);
}

TEST(CacheTest, DroppedForeignMessagesStillAdmitTheRequest)
{
    // Four messages the L1 does not serve land in one cycle ahead of a
    // read and use up the whole admit width. Dropping them changes
    // state, so the tick must count as progress: a tick that reported
    // none would put the cache to sleep with the read still buffered.
    Cache::Config cfg;
    cfg.topBufCapacity = 8;
    cfg.width = 4;
    CacheRig rig(cfg);
    for (int i = 0; i < 4; i++) {
        auto foreign = sim::makeMsg<MemRsp>(0, false, 4);
        foreign->dst = rig.cache.topPort();
        ASSERT_EQ(rig.req.out->send(foreign), sim::SendStatus::Ok);
    }
    auto req = sim::makeMsg<MemReq>(0x4000, 4, false);
    req->dst = rig.cache.topPort();
    ASSERT_EQ(rig.req.out->send(req), sim::SendStatus::Ok);
    rig.eng.run();
    EXPECT_EQ(rig.req.rspOrder, std::vector<std::uint64_t>{req->id()});
    EXPECT_EQ(rig.cache.topPort()->buf().size(), 0u);
}

namespace
{

/**
 * A one-slot memory that takes nothing while closed, so every fetch
 * after the first is refused until open(). Once open it answers each
 * request at once and counts the requests per address.
 */
class GatedMemory : public sim::TickingComponent
{
  public:
    explicit GatedMemory(sim::Engine *engine)
        : TickingComponent(engine, "Gate", sim::Freq::ghz(1))
    {
        top = addPort("TopPort", 1);
    }

    void
    open()
    {
        open_ = true;
        wake();
    }

    bool
    tick() override
    {
        if (!open_)
            return false;
        bool progress = false;
        while (true) {
            if (rsp_ == nullptr) {
                const sim::MsgPtr &msg = top->peekIncoming();
                if (msg == nullptr)
                    break;
                auto *req = sim::msgCast<MemReq>(msg);
                seen[req->addr]++;
                rsp_ = makeRsp(*req);
                rsp_->dst = msg->src;
                top->retrieveIncoming();
                progress = true;
            }
            if (top->send(rsp_) != sim::SendStatus::Ok)
                break;
            rsp_ = nullptr;
            progress = true;
        }
        return progress;
    }

    sim::Port *top = nullptr;
    /** Requests taken, by address. */
    std::map<std::uint64_t, int> seen;

  private:
    bool open_ = false;
    MemRspPtr rsp_;
};

constexpr int kGatedLines = 8;

/** Reads kGatedLines distinct lines from 0x20000 through @p dst. */
void
enqueueGatedReads(Requester &req, sim::Port *dst)
{
    for (int i = 0; i < kGatedLines; i++)
        req.enqueue(0x20000ull + i * 64, false, dst);
    req.tickLater();
}

/** Every line was fetched exactly once. */
void
expectEachLineFetchedOnce(const GatedMemory &gate)
{
    ASSERT_EQ(gate.seen.size(), static_cast<std::size_t>(kGatedLines));
    for (const auto &kv : gate.seen)
        EXPECT_EQ(kv.second, 1) << "line " << kv.first;
}

} // namespace

TEST(CacheTest, RefusedFetchesAreEachSentOnce)
{
    // The downstream port holds one fetch and refuses the rest until
    // it opens: the MSHR keeps seven fetches unsent, then sends each
    // once as slots free.
    sim::Engine eng;
    Requester req(&eng, "Req");
    Cache cache(&eng, "L1", sim::Freq::ghz(1), Cache::Config{});
    GatedMemory gate(&eng);
    SinglePortMapper mapper(gate.top);
    cache.setMapper(&mapper);
    sim::DirectConnection top(&eng, "Top", sim::kNanosecond);
    sim::DirectConnection bottom(&eng, "Bottom", sim::kNanosecond);
    top.plugIn(req.out);
    top.plugIn(cache.topPort());
    bottom.plugIn(cache.bottomPort());
    bottom.plugIn(gate.top);

    enqueueGatedReads(req, cache.topPort());
    eng.run();
    EXPECT_EQ(cache.transactionCount(),
              static_cast<std::size_t>(kGatedLines));
    EXPECT_EQ(cache.unsentFetches(),
              static_cast<std::size_t>(kGatedLines - 1));
    EXPECT_GT(cache.bottomPort()->totalSendRejections(), 0u);
    EXPECT_EQ(gate.top->buf().size(), 1u);

    gate.open();
    eng.run();
    EXPECT_EQ(req.rspOrder.size(), static_cast<std::size_t>(kGatedLines));
    expectEachLineFetchedOnce(gate);
    EXPECT_EQ(cache.bottomPort()->totalSent(),
              static_cast<std::uint64_t>(kGatedLines));
    EXPECT_EQ(cache.unsentFetches(), 0u);
    EXPECT_EQ(cache.transactionCount(), 0u);
}

// ---------------------------------------------------------------------
// DRAM
// ---------------------------------------------------------------------

namespace
{

struct DramRig
{
    sim::Engine eng;
    Requester req{&eng, "Req"};
    DramController dram;
    sim::DirectConnection conn{&eng, "Conn", sim::kNanosecond};

    explicit DramRig(DramController::Config cfg = {})
        : dram(&eng, "DRAM", sim::Freq::ghz(1), cfg)
    {
        conn.plugIn(req.out);
        conn.plugIn(dram.topPort());
    }
};

} // namespace

TEST(DramTest, AccessLatencyApplied)
{
    DramController::Config cfg;
    cfg.accessLatency = 100;
    DramRig rig(cfg);
    auto id = rig.req.enqueue(0x1000, false, rig.dram.topPort());
    rig.req.tickLater();
    rig.eng.run();
    ASSERT_EQ(rig.req.rspOrder.size(), 1u);
    sim::VTime lat = rig.req.rspTimes[id] - rig.req.sendTimes[id];
    EXPECT_GE(lat, 100 * sim::kNanosecond);
    EXPECT_LT(lat, 120 * sim::kNanosecond);
}

TEST(DramTest, BandwidthThrottlesAdmission)
{
    DramController::Config slow;
    slow.reqPerCycle = 1;
    DramController::Config fast;
    fast.reqPerCycle = 8;

    sim::VTime slowDone, fastDone;
    for (auto *pair : {&slowDone, &fastDone}) {
        DramRig rig(pair == &slowDone ? slow : fast);
        for (int i = 0; i < 64; i++)
            rig.req.enqueue(0x1000 + i * 64, false,
                            rig.dram.topPort());
        rig.req.tickLater();
        rig.eng.run();
        EXPECT_EQ(rig.req.rspOrder.size(), 64u);
        *pair = rig.eng.now();
    }
    EXPECT_GT(slowDone, fastDone);
}

TEST(DramTest, CountsReadsAndWrites)
{
    DramRig rig;
    rig.req.enqueue(0x0, false, rig.dram.topPort());
    rig.req.enqueue(0x40, true, rig.dram.topPort());
    rig.req.enqueue(0x80, true, rig.dram.topPort());
    rig.req.tickLater();
    rig.eng.run();
    EXPECT_EQ(rig.dram.totalReads(), 1u);
    EXPECT_EQ(rig.dram.totalWrites(), 2u);
}

// ---------------------------------------------------------------------
// L2 Cache (write-back path; the deadlock itself is covered in
// l2_deadlock_test.cc)
// ---------------------------------------------------------------------

namespace
{

struct L2Rig
{
    sim::Engine eng;
    Requester req{&eng, "Req"};
    L2Cache l2;
    DramController dram;
    sim::DirectConnection top{&eng, "Top", sim::kNanosecond};
    sim::DirectConnection bottom{&eng, "Bottom", sim::kNanosecond};

    explicit L2Rig(L2Cache::Config cfg = {})
        : l2(&eng, "L2", sim::Freq::ghz(1), cfg),
          dram(&eng, "DRAM", sim::Freq::ghz(1), {})
    {
        top.plugIn(req.out);
        top.plugIn(l2.topPort());
        bottom.plugIn(l2.bottomPort());
        bottom.plugIn(l2.wbPort());
        bottom.plugIn(dram.topPort());
        l2.setDownstream(dram.topPort());
    }
};

} // namespace

TEST(L2CacheTest, ReadMissFillsAndHits)
{
    L2Rig rig;
    auto missId = rig.req.enqueue(0x9000, false, rig.l2.topPort());
    rig.req.tickLater();
    rig.eng.run();
    auto hitId = rig.req.enqueue(0x9008, false, rig.l2.topPort());
    rig.req.wake();
    rig.eng.run();

    sim::VTime missLat =
        rig.req.rspTimes[missId] - rig.req.sendTimes[missId];
    sim::VTime hitLat =
        rig.req.rspTimes[hitId] - rig.req.sendTimes[hitId];
    EXPECT_GT(missLat, hitLat);
}

TEST(L2CacheTest, WriteAllocateMarksDirtyAndWritesBack)
{
    L2Cache::Config cfg;
    cfg.numSets = 1;
    cfg.ways = 2;
    L2Rig rig(cfg);

    // Write to 2 lines (fills + dirty), then read 2 more lines mapping
    // to the same set to force dirty evictions.
    rig.req.enqueue(0xA000, true, rig.l2.topPort());
    rig.req.enqueue(0xA040, true, rig.l2.topPort());
    rig.req.tickLater();
    rig.eng.run();

    rig.req.enqueue(0xA080, false, rig.l2.topPort());
    rig.req.enqueue(0xA0C0, false, rig.l2.topPort());
    rig.req.wake();
    rig.eng.run();

    EXPECT_EQ(rig.req.rspOrder.size(), 4u);
    EXPECT_GE(rig.dram.totalWrites(), 2u) << "dirty lines written back";
}

TEST(L2CacheTest, CoalescesReadsAndWritesToSameLine)
{
    L2Rig rig;
    rig.req.enqueue(0xB000, false, rig.l2.topPort());
    rig.req.enqueue(0xB004, true, rig.l2.topPort());
    rig.req.enqueue(0xB008, false, rig.l2.topPort());
    rig.req.tickLater();
    rig.eng.run();
    EXPECT_EQ(rig.req.rspOrder.size(), 3u);
    EXPECT_EQ(rig.dram.totalReads(), 1u) << "one fill for the line";
}

TEST(L2CacheTest, RefusedFetchesAreEachSentOnce)
{
    // As CacheTest.RefusedFetchesAreEachSentOnce, through the L2's
    // write-buffer fetch stage.
    sim::Engine eng;
    Requester req(&eng, "Req");
    L2Cache l2(&eng, "L2", sim::Freq::ghz(1), L2Cache::Config{});
    GatedMemory gate(&eng);
    sim::DirectConnection top(&eng, "Top", sim::kNanosecond);
    sim::DirectConnection bottom(&eng, "Bottom", sim::kNanosecond);
    top.plugIn(req.out);
    top.plugIn(l2.topPort());
    bottom.plugIn(l2.bottomPort());
    bottom.plugIn(l2.wbPort());
    bottom.plugIn(gate.top);
    l2.setDownstream(gate.top);

    enqueueGatedReads(req, l2.topPort());
    eng.run();
    EXPECT_EQ(l2.transactionCount(), static_cast<std::size_t>(kGatedLines));
    EXPECT_EQ(l2.unsentFetches(),
              static_cast<std::size_t>(kGatedLines - 1));
    EXPECT_GT(l2.bottomPort()->totalSendRejections(), 0u);
    EXPECT_EQ(gate.top->buf().size(), 1u);

    gate.open();
    eng.run();
    EXPECT_EQ(req.rspOrder.size(), static_cast<std::size_t>(kGatedLines));
    expectEachLineFetchedOnce(gate);
    EXPECT_EQ(l2.bottomPort()->totalSent(),
              static_cast<std::uint64_t>(kGatedLines));
    EXPECT_EQ(l2.unsentFetches(), 0u);
    EXPECT_EQ(l2.transactionCount(), 0u);
}
