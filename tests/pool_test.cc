/**
 * @file
 * Tests for the hot-path memory model (DESIGN.md §10): the per-thread
 * slab pool (reuse ordering, oversize fallback, cross-thread frees,
 * stats), the intrusive refcounted MsgPtr, and the RTTI-free msgCast
 * kind-tag dispatch.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "rtm/monitor.hh"
#include "sim/sim.hh"

using namespace akita;
using namespace akita::sim;

namespace
{

/** Tagged test message; uses one of the kinds reserved for tests. */
class AlphaMsg : public Msg
{
  public:
    static constexpr MsgKind kKind = MsgKind::TestA;

    explicit AlphaMsg(int v = 0) : Msg(kKind), value(v) { liveCount++; }
    ~AlphaMsg() override { liveCount--; }

    const char *kind() const override { return "Alpha"; }

    int value;
    static int liveCount;
};

int AlphaMsg::liveCount = 0;

/** A second tagged kind, to prove tags do not cross-match. */
class BetaMsg : public Msg
{
  public:
    static constexpr MsgKind kKind = MsgKind::TestB;

    BetaMsg() : Msg(kKind) {}

    const char *kind() const override { return "Beta"; }
};

/**
 * Ticking endpoint: sends @p to_send fresh messages to its target, one
 * per tick, and drops whatever it receives.
 */
class PingNode : public TickingComponent
{
  public:
    PingNode(Engine *engine, const std::string &name, int to_send)
        : TickingComponent(engine, name, Freq::ghz(1)), toSend_(to_send)
    {
        port = addPort("Port", 4);
    }

    bool
    tick() override
    {
        bool progress = false;
        if (toSend_ > 0) {
            MsgPtr m = makeMsg<BetaMsg>();
            m->dst = target;
            if (port->send(m) == SendStatus::Ok) {
                toSend_--;
                progress = true;
            }
        }
        while (port->retrieveIncoming() != nullptr) {
            received++;
            progress = true;
        }
        return progress;
    }

    Port *port = nullptr;
    Port *target = nullptr;
    int received = 0;

  private:
    int toSend_;
};

} // namespace

// ---------------------------------------------------------------------
// Raw pool behavior
// ---------------------------------------------------------------------

TEST(Pool, ReusesFreedBlockLifo)
{
    // Warm the freelist so the allocations below cannot be satisfied by
    // fresh slab carves in some interleavings.
    void *warm = poolAlloc(48);
    poolFree(warm);

    void *a = poolAlloc(48);
    poolFree(a);
    void *b = poolAlloc(48);
    // Same size class, freed last: the freelist hands the block back.
    EXPECT_EQ(b, a);
    poolFree(b);
}

TEST(Pool, DistinctLiveBlocksDoNotAlias)
{
    std::vector<void *> blocks;
    for (int i = 0; i < 100; i++) {
        void *p = poolAlloc(40);
        std::memset(p, i, 40);
        blocks.push_back(p);
    }
    for (int i = 0; i < 100; i++) {
        auto *bytes = static_cast<unsigned char *>(blocks[i]);
        for (int j = 0; j < 40; j++)
            ASSERT_EQ(bytes[j], static_cast<unsigned char>(i));
    }
    for (void *p : blocks)
        poolFree(p);
}

TEST(Pool, OversizeFallsBackToHeap)
{
    PoolStats before = poolStats();
    void *p = poolAlloc(64 * 1024); // Larger than any size class.
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xab, 64 * 1024);
    poolFree(p);
    PoolStats after = poolStats();
    EXPECT_GE(after.oversizeAllocs, before.oversizeAllocs + 1);
}

TEST(Pool, StatsTrackAllocAndFreeDeltas)
{
    PoolStats before = poolStats();
    std::vector<void *> blocks;
    for (int i = 0; i < 64; i++)
        blocks.push_back(poolAlloc(48));
    PoolStats mid = poolStats();
    EXPECT_GE(mid.allocs, before.allocs + 64);
    EXPECT_GE(mid.liveBlocks, 64u);
    EXPECT_GT(mid.slabBytes, 0u);

    for (void *p : blocks)
        poolFree(p);
    PoolStats after = poolStats();
    EXPECT_GE(after.frees, before.frees + 64);
    // Everything this test allocated came back.
    EXPECT_EQ(after.allocs - (after.frees + after.remoteFrees),
              before.allocs - (before.frees + before.remoteFrees));
}

TEST(Pool, CrossThreadFreeTakesRemotePath)
{
    PoolStats before = poolStats();
    void *p = poolAlloc(48);
    std::thread t([p]() { poolFree(p); });
    t.join();
    PoolStats after = poolStats();
    EXPECT_GE(after.remoteFrees, before.remoteFrees + 1);

    // The remotely-freed block is drained back onto the owner's
    // freelist and becomes reusable here.
    std::vector<void *> again;
    for (int i = 0; i < 8; i++)
        again.push_back(poolAlloc(48));
    for (void *q : again)
        poolFree(q);
}

TEST(Pool, DomainEngineFreesCrossDomainAllocationsRemotely)
{
    // A and B are pinned to different domains. A's worker allocates
    // each message and its delivery event; B's worker executes the
    // delivery and drops the message, so both are freed on a thread
    // that does not own them.
    PoolStats before = poolStats();
    DomainEngine eng(2);
    PingNode a(&eng, "A", 200), b(&eng, "B", 0);
    DirectConnection conn(&eng, "Conn", 5 * kNanosecond);
    conn.plugIn(a.port);
    conn.plugIn(b.port);
    eng.pinComponent(&a, 0);
    eng.pinComponent(&b, 1);
    a.target = b.port;
    a.tickLater();
    EXPECT_EQ(eng.run(), RunResult::Drained);
    EXPECT_EQ(b.received, 200);
    PoolStats after = poolStats();
    EXPECT_GT(after.allocs, before.allocs);
    EXPECT_GT(after.remoteFrees, before.remoteFrees);
}

#if defined(__SANITIZE_ADDRESS__)
#define AKITA_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AKITA_TEST_ASAN 1
#endif
#endif

#ifdef AKITA_TEST_ASAN
// Only AddressSanitizer builds poison freed pool blocks.

/** Reads a borrowed message after the retrieve that freed it. */
void
useBorrowedAfterRetrieve()
{
    // Ownerless ports: nothing ticks and consumes the delivery.
    SerialEngine eng;
    Port a(nullptr, "A", 4);
    Port b(nullptr, "B", 4);
    DirectConnection conn(&eng, "Conn", kNanosecond);
    conn.plugIn(&a);
    conn.plugIn(&b);
    auto m = makeMsg<AlphaMsg>(5);
    m->dst = &b;
    a.send(m);
    m.reset(); // The hop's reference is now the only one.
    eng.run();
    auto *borrowed = msgCast<AlphaMsg>(b.peekIncoming());
    b.retrieveIncoming(); // Drops the last reference.
    std::fprintf(stderr, "%d\n", borrowed->value);
}

TEST(PoolAsanDeathTest, BorrowedMessageUsedAfterRetrieveFaults)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(useBorrowedAfterRetrieve(), "use-after-poison");
}
#endif

// ---------------------------------------------------------------------
// Intrusive message pointer
// ---------------------------------------------------------------------

TEST(IntrusiveMsg, RefcountSharedAcrossCopies)
{
    ASSERT_EQ(AlphaMsg::liveCount, 0);
    {
        auto a = makeMsg<AlphaMsg>(7);
        EXPECT_EQ(AlphaMsg::liveCount, 1);
        MsgPtr base = a; // Derived-to-base copy retains.
        IntrusivePtr<AlphaMsg> b = a;
        a.reset();
        EXPECT_EQ(AlphaMsg::liveCount, 1); // Two refs remain.
        EXPECT_EQ(b->value, 7);
        base = nullptr;
        EXPECT_EQ(AlphaMsg::liveCount, 1); // b still holds it.
    }
    EXPECT_EQ(AlphaMsg::liveCount, 0); // Last ref deleted it.
}

TEST(IntrusiveMsg, MoveDoesNotDoubleFree)
{
    auto a = makeMsg<AlphaMsg>(1);
    auto b = std::move(a);
    EXPECT_EQ(a.get(), nullptr);
    ASSERT_NE(b.get(), nullptr);
    EXPECT_EQ(AlphaMsg::liveCount, 1);
    b.reset();
    EXPECT_EQ(AlphaMsg::liveCount, 0);
}

// ---------------------------------------------------------------------
// Kind-tag dispatch (the dynamic_pointer_cast replacement)
// ---------------------------------------------------------------------

TEST(MsgCast, WrongKindReturnsNull)
{
    MsgPtr alpha = makeMsg<AlphaMsg>(3);
    MsgPtr beta = makeMsg<BetaMsg>();
    MsgPtr generic = makeMsg<Msg>();

    EXPECT_EQ(msgCast<BetaMsg>(alpha), nullptr);
    EXPECT_EQ(msgCast<AlphaMsg>(beta), nullptr);
    EXPECT_EQ(msgCast<AlphaMsg>(generic), nullptr);
    EXPECT_EQ(msgCast<AlphaMsg>(MsgPtr{}), nullptr);

    auto back = msgCast<AlphaMsg>(alpha);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->value, 3);
    EXPECT_EQ(back, alpha.get()); // Borrowed: the same object.
}

TEST(MsgCast, TagsSurviveTransportFields)
{
    auto req = makeMsg<AlphaMsg>(9);
    req->sendTime = 42;
    req->trafficBytes = 64;
    MsgPtr asBase = req;
    EXPECT_EQ(asBase->kindTag(), MsgKind::TestA);
    EXPECT_STREQ(asBase->kind(), "Alpha");
    auto cast = msgCast<AlphaMsg>(asBase);
    ASSERT_NE(cast, nullptr);
    EXPECT_EQ(cast->sendTime, 42u);
}

// ---------------------------------------------------------------------
// Pool counters on the monitor's metrics surface
// ---------------------------------------------------------------------

TEST(PoolMetrics, ExposedAsAkitaSimPoolFamily)
{
    sim::SerialEngine eng;
    rtm::MonitorConfig cfg;
    cfg.announceUrl = false;
    cfg.autoSample = false;
    rtm::Monitor mon(cfg);
    mon.registerEngine(&eng);

    // Touch the pool so the counters are non-trivial.
    auto m = makeMsg<AlphaMsg>(1);
    m.reset();

    std::string text = mon.metrics().renderPrometheus();
    for (const char *name :
         {"akita_sim_pool_allocs_total", "akita_sim_pool_frees_total",
          "akita_sim_pool_remote_frees_total",
          "akita_sim_pool_oversize_allocs_total",
          "akita_sim_pool_slab_bytes", "akita_sim_pool_live_blocks"}) {
        EXPECT_NE(text.find(name), std::string::npos) << name;
    }
}
