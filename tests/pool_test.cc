/**
 * @file
 * Tests for the hot-path memory model (DESIGN.md §10): the per-thread
 * freelists (reuse order, cross-thread frees, adoption at thread exit,
 * the oversize bypass), events and messages released through them, the
 * intrusive refcounted MsgPtr, and the RTTI-free msgCast kind-tag
 * dispatch.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "gpu/platform.hh"
#include "net/switched.hh"
#include "sim/sim.hh"
#include "workloads/workloads.hh"

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

} // namespace

#if defined(__SANITIZE_ADDRESS__)
#define AKITA_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AKITA_TEST_ASAN 1
#endif
#endif

// ---------------------------------------------------------------------
// Per-thread freelists
// ---------------------------------------------------------------------

#ifdef AKITA_TEST_ASAN
// AddressSanitizer builds serve every block from ::operator new, so
// there are no lists whose reuse order could be checked.
#define SKIP_WITHOUT_LISTS()                                               \
    GTEST_SKIP() << "AddressSanitizer build: the pool forwards to "        \
                    "::operator new"
#else
#define SKIP_WITHOUT_LISTS() (void)0
#endif

TEST(Pool, ReusesFreedBlockLifo)
{
    SKIP_WITHOUT_LISTS();
    void *a = poolAlloc(48);
    void *b = poolAlloc(48);
    poolFree(a, 48);
    poolFree(b, 48);
    // One class holds every size from 1 to 64 bytes: the block freed
    // last comes back first, whatever size asks for it.
    void *c = poolAlloc(40);
    void *d = poolAlloc(64);
    EXPECT_EQ(c, b);
    EXPECT_EQ(d, a);
    poolFree(c, 40);
    poolFree(d, 64);
}

TEST(Pool, DistinctLiveBlocksDoNotAlias)
{
    // Sizes across several classes, each block filled to its size.
    std::vector<std::pair<unsigned char *, std::size_t>> blocks;
    for (int i = 0; i < 300; i++) {
        std::size_t n = 8 + (i * 37) % 1017;
        auto *p = static_cast<unsigned char *>(poolAlloc(n));
        std::memset(p, i & 0xff, n);
        blocks.push_back({p, n});
    }
    for (int i = 0; i < 300; i++) {
        auto [p, n] = blocks[i];
        for (std::size_t j = 0; j < n; j++)
            ASSERT_EQ(p[j], static_cast<unsigned char>(i & 0xff));
    }
    for (auto [p, n] : blocks)
        poolFree(p, n);
}

TEST(Pool, BlockFreedOnAnotherThreadIsReusedThere)
{
    SKIP_WITHOUT_LISTS();
    void *p = poolAlloc(200);
    void *reused = nullptr;
    std::thread t([p, &reused]() {
        poolFree(p, 200);
        reused = poolAlloc(200);
        poolFree(reused, 200);
    });
    t.join();
    EXPECT_EQ(reused, p);
}

TEST(Pool, NewThreadAdoptsExitedThreadsLists)
{
    SKIP_WITHOUT_LISTS();
    void *freed = nullptr;
    std::thread first([&freed]() {
        freed = poolAlloc(700);
        poolFree(freed, 700);
    });
    first.join();
    // The first thread parked its lists at exit; the next new thread
    // takes them over, freed block included.
    void *adopted = nullptr;
    std::thread second([&adopted]() {
        adopted = poolAlloc(700);
        poolFree(adopted, 700);
    });
    second.join();
    EXPECT_EQ(adopted, freed);
}

TEST(Pool, BlocksOverOneKibBypassTheLists)
{
    SKIP_WITHOUT_LISTS();
    // The largest class still pools.
    void *top = poolAlloc(1024);
    poolFree(top, 1024);
    void *again = poolAlloc(1024);
    EXPECT_EQ(again, top);
    poolFree(again, 1024);

    constexpr std::size_t kBig = 1025;
    void *big = poolAlloc(kBig);
    ASSERT_NE(big, nullptr);
    std::memset(big, 0xab, kBig);
    poolFree(big, kBig);
    // Went back to ::operator delete: no class hands it out again.
    std::vector<std::pair<void *, std::size_t>> blocks;
    for (std::size_t n = 64; n <= 1024; n += 64) {
        void *q = poolAlloc(n);
        EXPECT_NE(q, big) << n;
        blocks.push_back({q, n});
    }
    for (auto [q, n] : blocks)
        poolFree(q, n);
}

// ---------------------------------------------------------------------
// Events and messages through the pool
// ---------------------------------------------------------------------

TEST(Pool, MonitorScheduledEventsFreeRemotely)
{
    // The external-thread handoff: this thread allocates each event
    // and schedules it into a running engine, and the simulation
    // thread executes and frees it, so every event is freed on a
    // thread that did not allocate it.
    std::uint64_t before = poolAllocCount();
    auto token = std::make_shared<int>(0);
    Engine eng;
    eng.setConcurrentAccess(true);
    eng.setWaitWhenEmpty(true);
    std::atomic<int> fired{0};
    std::thread sim([&eng]() { eng.run(); });
    for (int i = 0; i < 200; i++)
        eng.scheduleAt(0, "remote", [&fired, token]() { fired++; });
    EXPECT_GE(poolAllocCount(), before + 200);
    while (fired.load() < 200)
        std::this_thread::yield();
    eng.stop();
    sim.join();
    // Every event, and the callable copy it held, was destroyed.
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Pool, EngineDestructionReleasesQueuedEntries)
{
    // Ticks, deliveries over both connection types, and primary and
    // secondary owned events stay queued when the engine is destroyed
    // unrun: every message reference and event must be released.
    int liveBefore = AlphaMsg::liveCount;
    auto token = std::make_shared<int>(0);
    {
        Engine eng;
        class Idle : public TickingComponent
        {
          public:
            Idle(Engine *e, const char *name)
                : TickingComponent(e, name, Freq::ghz(1))
            {
            }
            bool tick() override { return false; }
        } a(&eng, "A"), b(&eng, "B");
        Port *aOut = a.addPort("Out", 4);
        Port *aNet = a.addPort("Net", 4);
        Port *bIn = b.addPort("In", 4);
        Port *bNet = b.addPort("Net", 4);
        DirectConnection conn(&eng, "Conn", kNanosecond);
        conn.plugIn(aOut);
        conn.plugIn(bIn);
        net::SwitchedNetwork network(&eng, "Net", {});
        network.plugIn(aNet);
        network.plugIn(bNet);

        a.wake();
        b.scheduleTickAt(10 * kNanosecond);
        for (int i = 0; i < 3; i++) {
            auto direct = makeMsg<AlphaMsg>(i);
            direct->dst = bIn;
            ASSERT_EQ(aOut->send(direct), SendStatus::Ok);
            auto switched = makeMsg<AlphaMsg>(i);
            switched->dst = bNet;
            ASSERT_EQ(aNet->send(switched), SendStatus::Ok);
        }
        eng.scheduleAt(5, "primary", [token]() {});
        eng.schedule(std::make_unique<FuncEvent>(
            5, "secondary", [token]() {}, true));
        EXPECT_EQ(AlphaMsg::liveCount, liveBefore + 6);
        EXPECT_EQ(eng.queueLength(), 10u);
        // The test's token plus one copy in each queued event.
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(AlphaMsg::liveCount, liveBefore);
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Pool, TicksAndDeliveriesAllocateNoBlocks)
{
    // Ticks and deliveries are queue entries, not pooled objects, so a
    // FIR run allocates blocks for its messages only: far fewer than
    // the events it executes. The run is on this thread, so this
    // thread's poolAlloc count sees every block it takes.
    gpu::Platform plat(gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny()));
    workloads::FirParams params;
    params.numSamples = 1u << 14;
    gpu::KernelDescriptor kernel = workloads::makeFir(params);
    plat.launchKernel(&kernel);
    std::uint64_t before = poolAllocCount();
    ASSERT_EQ(plat.run(), gpu::Platform::RunStatus::Completed);
    std::uint64_t allocs = poolAllocCount() - before;
    std::uint64_t events = plat.engine().eventCount();
    EXPECT_GT(events, 10000u);
    // Messages do come from the pool, so the count cannot read 0 by
    // going around it.
    EXPECT_GT(allocs, 0u);
    EXPECT_LT(allocs, events / 2) << allocs << " blocks for " << events
                                  << " events";
}

#ifdef AKITA_TEST_ASAN
// AddressSanitizer sees every message, because the pool forwards to
// ::operator new and delete in these builds.

/** Reads a borrowed message after the retrieve that freed it. */
void
useBorrowedAfterRetrieve()
{
    // Ownerless ports: nothing ticks and consumes the delivery.
    Engine eng;
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
    EXPECT_DEATH(useBorrowedAfterRetrieve(), "heap-use-after-free");
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
