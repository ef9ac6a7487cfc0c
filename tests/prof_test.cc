/**
 * @file
 * Tests for the instrumentation profiler (the pprof substitute that
 * feeds the arc-diagram view).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "sim/prof.hh"

using akita::sim::ProfScope;
using akita::sim::Profiler;
using akita::sim::ProfSnapshot;

namespace
{

void
spin(int us)
{
    auto end = std::chrono::steady_clock::now() +
               std::chrono::microseconds(us);
    while (std::chrono::steady_clock::now() < end) {
    }
}

const akita::sim::ProfEntry *
findEntry(const ProfSnapshot &s, const std::string &name)
{
    for (const auto &e : s.entries) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

} // namespace

class ProfilerTest : public ::testing::Test
{
  protected:
    void SetUp() override { Profiler::instance().setEnabled(true); }

    void TearDown() override { Profiler::instance().setEnabled(false); }
};

TEST_F(ProfilerTest, DisabledCollectsNothing)
{
    Profiler::instance().setEnabled(false);
    {
        ProfScope s("ghost");
        spin(100);
    }
    Profiler::instance().setEnabled(true); // Resets data.
    ProfSnapshot snap = Profiler::instance().snapshot();
    EXPECT_EQ(findEntry(snap, "ghost"), nullptr);
}

TEST_F(ProfilerTest, RecordsCallsAndTime)
{
    for (int i = 0; i < 3; i++) {
        ProfScope s("work");
        spin(200);
    }
    ProfSnapshot snap = Profiler::instance().snapshot();
    const auto *e = findEntry(snap, "work");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->calls, 3u);
    EXPECT_GE(e->totalNs, 3u * 200u * 1000u / 2); // Allow slack.
    EXPECT_EQ(e->selfNs, e->totalNs); // No children.
}

TEST_F(ProfilerTest, SelfTimeExcludesChildren)
{
    {
        ProfScope outer("outer");
        spin(300);
        {
            ProfScope inner("inner");
            spin(600);
        }
    }
    ProfSnapshot snap = Profiler::instance().snapshot();
    const auto *outer = findEntry(snap, "outer");
    const auto *inner = findEntry(snap, "inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_GT(outer->totalNs, inner->totalNs);
    EXPECT_LT(outer->selfNs, outer->totalNs);
    // The inner scope ran longer than the outer's own work.
    EXPECT_GT(inner->selfNs, outer->selfNs);
}

TEST_F(ProfilerTest, EdgesCarryCallerCalleeWeights)
{
    for (int i = 0; i < 4; i++) {
        ProfScope a("caller");
        ProfScope b("callee");
        spin(100);
    }
    ProfSnapshot snap = Profiler::instance().snapshot();
    bool found = false;
    for (const auto &e : snap.edges) {
        if (e.caller == "caller" && e.callee == "callee") {
            found = true;
            EXPECT_EQ(e.calls, 4u);
            EXPECT_GT(e.totalNs, 0u);
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(ProfilerTest, TopNLimitsEntriesSortedBySelfTime)
{
    for (int i = 0; i < 40; i++) {
        ProfScope s("fn" + std::to_string(i));
        spin(10 + i * 5); // Later functions are slower.
    }
    ProfSnapshot snap = Profiler::instance().snapshot(10);
    ASSERT_EQ(snap.entries.size(), 10u);
    for (std::size_t i = 1; i < snap.entries.size(); i++)
        EXPECT_GE(snap.entries[i - 1].selfNs, snap.entries[i].selfNs);
    // The slowest function must be present.
    EXPECT_NE(findEntry(snap, "fn39"), nullptr);
}

TEST_F(ProfilerTest, ResetClearsData)
{
    {
        ProfScope s("tmp");
        spin(50);
    }
    Profiler::instance().reset();
    ProfSnapshot snap = Profiler::instance().snapshot();
    EXPECT_TRUE(snap.entries.empty());
}

TEST_F(ProfilerTest, WallTimeAdvances)
{
    spin(1000);
    ProfSnapshot snap = Profiler::instance().snapshot();
    EXPECT_GE(snap.wallNs, 500u * 1000u);
}

TEST_F(ProfilerTest, MergesPerThreadTables)
{
    // Simulations on separate threads profile concurrently into
    // thread-local tables; a snapshot must merge every thread's calls for the same
    // name into one entry.
    constexpr int kThreads = 4;
    constexpr int kCallsPerThread = 25;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([t]() {
            for (int i = 0; i < kCallsPerThread; i++) {
                ProfScope shared("shared_work");
                ProfScope own("thread_fn" + std::to_string(t));
                spin(20);
            }
        });
    }
    for (auto &th : threads)
        th.join();

    ProfSnapshot snap = Profiler::instance().snapshot(100);
    const auto *shared = findEntry(snap, "shared_work");
    ASSERT_NE(shared, nullptr);
    EXPECT_EQ(shared->calls,
              static_cast<std::uint64_t>(kThreads * kCallsPerThread));
    for (int t = 0; t < kThreads; t++) {
        const auto *own =
            findEntry(snap, "thread_fn" + std::to_string(t));
        ASSERT_NE(own, nullptr) << "thread " << t;
        EXPECT_EQ(own->calls,
                  static_cast<std::uint64_t>(kCallsPerThread));
    }
    // Nesting stayed thread-local: every shared->own edge is intact.
    std::uint64_t edgeCalls = 0;
    for (const auto &e : snap.edges) {
        if (e.caller == "shared_work")
            edgeCalls += e.calls;
    }
    EXPECT_EQ(edgeCalls,
              static_cast<std::uint64_t>(kThreads * kCallsPerThread));
}

TEST_F(ProfilerTest, ConcurrentSnapshotsDoNotCorruptCollection)
{
    std::atomic<bool> stop{false};
    std::thread snapper([&]() {
        while (!stop.load())
            Profiler::instance().snapshot(10);
    });
    for (int i = 0; i < 200; i++) {
        ProfScope s("hot");
        spin(5);
    }
    stop.store(true);
    snapper.join();
    ProfSnapshot snap = Profiler::instance().snapshot();
    const auto *e = findEntry(snap, "hot");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->calls, 200u);
}

TEST_F(ProfilerTest, RecursiveScopesDoNotUnderflow)
{
    std::function<void(int)> rec = [&](int depth) {
        ProfScope s("recursive");
        if (depth > 0)
            rec(depth - 1);
    };
    rec(20);
    ProfSnapshot snap = Profiler::instance().snapshot();
    const auto *e = findEntry(snap, "recursive");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->calls, 21u);
    EXPECT_GE(e->totalNs, e->selfNs);
}
