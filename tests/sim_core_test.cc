/**
 * @file
 * Unit tests for the simulation core: time, frequencies, the event
 * queue, and the serial engine (including pause/resume, stop,
 * wait-when-empty, and concurrent access).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "sim/component.hh"
#include "sim/connection.hh"
#include "sim/engine.hh"
#include "sim/event.hh"
#include "sim/parse.hh"
#include "sim/time.hh"

using namespace akita::sim;

TEST(ParseNumber, WholeStringInRangeOrThrows)
{
    EXPECT_EQ(parseNumber<std::uint16_t>("--port", "8080"), 8080);
    EXPECT_EQ(parseNumber<std::uint16_t>("--port", "65535"), 65535);
    EXPECT_EQ(parseNumber<int>("watch", "-3"), -3);
    EXPECT_DOUBLE_EQ(parseNumber<double>("AKITA_SCALE", "0.25"), 0.25);
    // Junk must not wrap, truncate or default: 70000 is not port 4464,
    // "abc" is not port 0, "8M" is not 8.
    for (const char *bad : {"70000", "-1", "abc", "8M", "", " 80", "80 "}) {
        try {
            parseNumber<std::uint16_t>("--port", bad);
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const std::invalid_argument &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find("--port"), std::string::npos) << msg;
            EXPECT_NE(msg.find("65535"), std::string::npos) << msg;
        }
    }
    for (const char *bad : {"abc", "8M", "", "99999999999"})
        EXPECT_THROW(parseNumber<int>("AKITA_RUNS", bad),
                     std::invalid_argument)
            << bad;
    for (const char *bad : {"abc", "0.5x", "", "inf", "nan"})
        EXPECT_THROW(parseNumber<double>("AKITA_SCALE", bad),
                     std::invalid_argument)
            << bad;
}

TEST(Time, Constants)
{
    EXPECT_EQ(kNanosecond, 1000u);
    EXPECT_EQ(kSecond, 1000000000000ull);
    EXPECT_DOUBLE_EQ(toSeconds(kSecond), 1.0);
    EXPECT_DOUBLE_EQ(toSeconds(kMillisecond), 1e-3);
}

TEST(Time, Format)
{
    EXPECT_EQ(formatTime(500), "500 ps");
    EXPECT_EQ(formatTime(1500), "1.500 ns");
    EXPECT_EQ(formatTime(2 * kMicrosecond), "2.000 us");
    EXPECT_EQ(formatTime(3 * kMillisecond), "3.000 ms");
    EXPECT_EQ(formatTime(kSecond), "1.000000 s");
}

TEST(Freq, GhzPeriod)
{
    EXPECT_EQ(Freq::ghz(1).period(), 1000u);
    EXPECT_EQ(Freq::ghz(2).period(), 500u);
    EXPECT_EQ(Freq::mhz(500).period(), 2000u);
    EXPECT_DOUBLE_EQ(Freq::ghz(1).hz(), 1e9);
}

TEST(Freq, TickAlignment)
{
    Freq f = Freq::ghz(1); // 1000 ps period.
    EXPECT_EQ(f.thisTick(0), 0u);
    EXPECT_EQ(f.thisTick(999), 0u);
    EXPECT_EQ(f.thisTick(1000), 1000u);
    EXPECT_EQ(f.nextTick(0), 1000u);
    EXPECT_EQ(f.nextTick(1000), 2000u);
    EXPECT_EQ(f.nextTick(1001), 2000u);
    EXPECT_EQ(f.nCyclesLater(1500, 3), 4000u);
    EXPECT_EQ(f.cycles(5500), 5u);
}

TEST(Freq, ReciprocalMatchesDivisionExactly)
{
    // Freq divides by multiplying with a precomputed reciprocal; it
    // must agree with the `%` definition for every period and time,
    // including powers of two, periods above 2^63 and times near 2^64
    // (where nextTick wraps identically in both).
    const VTime kMax = ~VTime{0};
    const std::vector<VTime> periods = {
        1,           2,           3,           7,
        333,         1000,        1024,        1001,
        999999937,   VTime{1} << 32,           (VTime{1} << 32) + 15,
        VTime{1} << 63,           (VTime{1} << 63) + 1,
        (VTime{1} << 63) - 25,    kMax - 1,    kMax};
    std::uint64_t state = 77;
    auto rnd = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state ^ (state >> 29);
    };
    for (VTime p : periods) {
        Freq f = Freq::fromPeriod(p);
        ASSERT_EQ(f.period(), p);
        std::vector<VTime> times = {0, 1, p - 1, p, p + 1, kMax, kMax - 1,
                                    kMax - p, kMax - p + 1};
        for (VTime k : {VTime{2}, VTime{3}, VTime{1000}, kMax / p}) {
            VTime kp = k * p; // Wraps for large p; still an edge case.
            times.insert(times.end(), {kp - 1, kp, kp + 1});
        }
        for (int i = 0; i < 2000; i++) {
            times.push_back(rnd());
            times.push_back(rnd() % (1u << 20));
        }
        for (VTime t : times) {
            ASSERT_EQ(f.cycles(t), t / p) << "p=" << p << " t=" << t;
            ASSERT_EQ(f.thisTick(t), t - t % p) << "p=" << p << " t=" << t;
            ASSERT_EQ(f.nextTick(t), t - t % p + p)
                << "p=" << p << " t=" << t;
        }
    }
}

TEST(Freq, ZeroSafe)
{
    EXPECT_GE(Freq::ghz(0).period(), 1u);
    EXPECT_GE(Freq::mhz(0).period(), 1u);
    EXPECT_GE(Freq::fromPeriod(0).period(), 1u);
}

namespace
{

class Recorder : public EventHandler
{
  public:
    void handle(Event &e) override { times.push_back(e.time()); }

    std::string handlerName() const override { return "Recorder"; }

    std::vector<VTime> times;
};

/**
 * Pops the earliest entry, which must be an owned event, and takes
 * ownership of it; its time must be the entry's.
 */
EventPtr
popEvent(EventQueue &q)
{
    EventQueue::Popped p = q.pop();
    EXPECT_EQ(p.entry.kind(), QueueEntry::Kind::Owned);
    EventPtr e(p.entry.event());
    EXPECT_EQ(e->time(), p.time);
    return e;
}

} // namespace

TEST(EventQueue, OrdersByTime)
{
    EventQueue q;
    Recorder r;
    q.push(std::make_unique<Event>(30, &r));
    q.push(std::make_unique<Event>(10, &r));
    q.push(std::make_unique<Event>(20, &r));
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(popEvent(q)->time(), 10u);
    EXPECT_EQ(popEvent(q)->time(), 20u);
    EXPECT_EQ(popEvent(q)->time(), 30u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FifoAmongEqualTimes)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; i++) {
        q.push(std::make_unique<FuncEvent>(
            100, "f", [&order, i]() { order.push_back(i); }));
    }
    while (!q.empty()) {
        EventPtr e = popEvent(q);
        e->handler()->handle(*e);
    }
    for (int i = 0; i < 8; i++)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, SecondaryAfterPrimary)
{
    EventQueue q;
    std::vector<char> order;
    q.push(std::make_unique<FuncEvent>(
        100, "s", [&order]() { order.push_back('s'); }, true));
    q.push(std::make_unique<FuncEvent>(
        100, "p", [&order]() { order.push_back('p'); }, false));
    while (!q.empty()) {
        EventPtr e = popEvent(q);
        e->handler()->handle(*e);
    }
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 'p');
    EXPECT_EQ(order[1], 's');
}

TEST(EventQueue, StressOrderingProperty)
{
    // Pseudo-random times must come out sorted.
    EventQueue q;
    Recorder r;
    std::uint64_t state = 12345;
    for (int i = 0; i < 2000; i++) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        q.push(std::make_unique<Event>(state % 1000, &r));
    }
    VTime prev = 0;
    while (!q.empty()) {
        VTime t = popEvent(q)->time();
        EXPECT_GE(t, prev);
        prev = t;
    }
}

TEST(Engine, RunsEventsInOrder)
{
    Engine eng;
    std::vector<VTime> seen;
    for (VTime t : {400u, 100u, 300u, 200u}) {
        eng.scheduleAt(t, "t", [&seen, &eng]() {
            seen.push_back(eng.now());
        });
    }
    EXPECT_EQ(eng.run(), RunResult::Drained);
    ASSERT_EQ(seen.size(), 4u);
    EXPECT_EQ(seen, (std::vector<VTime>{100, 200, 300, 400}));
    EXPECT_EQ(eng.now(), 400u);
    EXPECT_EQ(eng.eventCount(), 4u);
}

TEST(Engine, HandlersCanScheduleMoreEvents)
{
    Engine eng;
    int fired = 0;
    std::function<void()> chain = [&]() {
        fired++;
        if (fired < 10)
            eng.scheduleAt(eng.now() + 10, "chain", chain);
    };
    eng.scheduleAt(0, "chain", chain);
    eng.run();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(eng.now(), 90u);
}

TEST(Engine, SchedulingInPastThrows)
{
    Engine eng;
    eng.scheduleAt(100, "x", []() {});
    eng.run();
    EXPECT_THROW(eng.scheduleAt(50, "late", []() {}),
                 std::runtime_error);
    // Scheduling at exactly now() is allowed.
    EXPECT_NO_THROW(eng.scheduleAt(100, "now", []() {}));
}

TEST(Engine, StopAbortsRun)
{
    Engine eng;
    int fired = 0;
    for (int i = 1; i <= 100; i++) {
        eng.scheduleAt(static_cast<VTime>(i * 10), "n", [&]() {
            fired++;
            if (fired == 5)
                eng.stop();
        });
    }
    EXPECT_EQ(eng.run(), RunResult::Stopped);
    EXPECT_EQ(fired, 5);
    // A later run (after the implicit stop-flag reset) continues.
    EXPECT_EQ(eng.run(), RunResult::Drained);
    EXPECT_EQ(fired, 100);
}

TEST(Engine, PauseAndResumeFromAnotherThread)
{
    Engine eng;
    eng.setConcurrentAccess(true);

    std::atomic<int> fired{0};
    std::function<void()> chain = [&]() {
        fired++;
        if (fired < 10000)
            eng.scheduleAt(eng.now() + 1, "c", chain);
    };
    eng.scheduleAt(0, "c", chain);

    std::thread runner([&]() { eng.run(); });

    // Pause mid-run, observe that progress stops.
    while (fired.load() < 100)
        std::this_thread::yield();
    eng.pause();
    while (!eng.paused() || false)
        break;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    int atPause = fired.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // At most one in-flight event finishes after pause.
    EXPECT_LE(fired.load(), atPause + 1);

    eng.resume();
    runner.join();
    EXPECT_EQ(fired.load(), 10000);
}

TEST(Engine, WaitWhenEmptyBlocksAndExternalScheduleRevives)
{
    Engine eng;
    eng.setConcurrentAccess(true);
    eng.setWaitWhenEmpty(true);

    std::atomic<int> fired{0};
    eng.scheduleAt(10, "a", [&]() { fired++; });

    std::thread runner([&]() { eng.run(); });

    while (fired.load() < 1)
        std::this_thread::yield();
    // Queue drained; engine must block rather than return.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_TRUE(eng.running());
    EXPECT_TRUE(eng.drainedWaiting());

    // The RTM "Tick"/kick-start path: an external schedule revives it.
    eng.scheduleAt(eng.now() + 5, "b", [&]() {
        fired++;
        eng.stop();
    });
    runner.join();
    EXPECT_EQ(fired.load(), 2);
}

TEST(Engine, WithLockGivesConsistentSnapshots)
{
    Engine eng;
    eng.setConcurrentAccess(true);

    // Two counters incremented in the same event must never be observed
    // out of sync under the lock.
    std::int64_t a = 0, b = 0;
    std::function<void()> chain = [&]() {
        a++;
        b++;
        if (a < 20000)
            eng.scheduleAt(eng.now() + 1, "c", chain);
    };
    eng.scheduleAt(0, "c", chain);

    std::thread runner([&]() { eng.run(); });
    for (int i = 0; i < 200; i++) {
        eng.withLock([&]() { EXPECT_EQ(a, b); });
    }
    runner.join();
    EXPECT_EQ(a, 20000);
}

TEST(Engine, InspectableFields)
{
    Engine eng;
    eng.scheduleAt(5, "e", []() {});
    const auto &fields = eng.fields();
    EXPECT_NE(fields.find("now_ps"), nullptr);
    EXPECT_EQ(fields.find("queue_len")->getter().intVal(), 1);
    eng.run();
    EXPECT_EQ(fields.find("queue_len")->getter().intVal(), 0);
    EXPECT_EQ(fields.find("total_events")->getter().intVal(), 1);
    EXPECT_EQ(fields.find("now_ps")->getter().intVal(), 5);
}

TEST(FuncEvent, CarriesNameForProfiler)
{
    FuncEvent e(0, "MyHandler", []() {});
    EXPECT_EQ(e.handlerName(), "MyHandler");
}

// ---- Ordering invariants of the two-level queue ----

TEST(EventQueue, FifoPreservedAcrossInterleavedPushPop)
{
    // Pops interleaved with pushes at the same timestamp must still
    // return the events in scheduling order.
    EventQueue q;
    std::vector<int> order;
    auto mk = [&order](int i) {
        return std::make_unique<FuncEvent>(
            50, "f", [&order, i]() { order.push_back(i); });
    };
    q.push(mk(0));
    q.push(mk(1));
    EventPtr e = popEvent(q);
    e->handler()->handle(*e);
    q.push(mk(2));
    q.push(mk(3));
    while (!q.empty()) {
        e = popEvent(q);
        e->handler()->handle(*e);
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, SecondaryAfterPrimaryWithInterleavedPushes)
{
    // A primary pushed *after* a co-timed secondary still pops first,
    // even when the secondary phase was pushed across several calls.
    EventQueue q;
    std::vector<std::string> order;
    auto mk = [&order, &q](const std::string &tag, bool secondary) {
        q.push(std::make_unique<FuncEvent>(
            70, tag, [&order, tag]() { order.push_back(tag); },
            secondary));
    };
    mk("s0", true);
    mk("p0", false);
    mk("s1", true);
    mk("p1", false);
    EventPtr e = popEvent(q);
    e->handler()->handle(*e); // p0
    mk("p2", false);          // Pushed mid-drain, same time, primary.
    while (!q.empty()) {
        e = popEvent(q);
        e->handler()->handle(*e);
    }
    EXPECT_EQ(order, (std::vector<std::string>{"p0", "p1", "p2", "s0",
                                               "s1"}));
}

TEST(EventQueue, FifoAcrossEntryKindsPerPhase)
{
    // Ticks and deliveries are primary entries; owned events choose
    // their phase. Pushed at one time, each phase pops in push order
    // whatever the kind.
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
    DirectConnection conn(&eng, "Conn", 0);
    Recorder r;
    int destroyed = 0;
    class Tracked : public Msg
    {
      public:
        explicit Tracked(int *destroyed) : destroyed_(destroyed) {}
        ~Tracked() override { ++*destroyed_; }

      private:
        int *destroyed_;
    };
    MsgPtr m1 = makeMsg<Tracked>(&destroyed);
    MsgPtr m2 = makeMsg<Tracked>(&destroyed);
    Msg *raw1 = m1.get(), *raw2 = m2.get();
    auto owned = [&r](bool secondary) {
        return std::make_unique<Event>(500, &r, secondary);
    };
    EventQueue q;
    Event *s1 = owned(true).release();
    q.push(EventPtr(s1));
    q.pushTick(500, &a);
    q.pushDelivery(500, &conn, std::move(m1));
    Event *p1 = owned(false).release();
    q.push(EventPtr(p1));
    Event *s2 = owned(true).release();
    q.push(EventPtr(s2));
    q.pushDelivery(500, &conn, std::move(m2));
    q.pushTick(500, &b);
    Event *p2 = owned(false).release();
    q.push(EventPtr(p2));

    std::vector<QueueEntry> got;
    while (!q.empty()) {
        EventQueue::Popped p = q.pop();
        EXPECT_EQ(p.time, 500u);
        got.push_back(p.entry);
    }
    using K = QueueEntry::Kind;
    ASSERT_EQ(got.size(), 8u);
    EXPECT_EQ(got[0].kind(), K::Tick);
    EXPECT_EQ(got[0].ticker(), &a);
    EXPECT_EQ(got[1].kind(), K::Delivery);
    EXPECT_EQ(got[1].msg(), raw1);
    EXPECT_EQ(got[1].connection(), &conn);
    EXPECT_EQ(got[2].kind(), K::Owned);
    EXPECT_EQ(got[2].event(), p1);
    EXPECT_EQ(got[3].msg(), raw2);
    EXPECT_EQ(got[4].ticker(), &b);
    EXPECT_EQ(got[5].event(), p2);
    EXPECT_EQ(got[6].event(), s1);
    EXPECT_EQ(got[7].event(), s2);
    // The popped entries own the messages' only references.
    EXPECT_EQ(destroyed, 0);
    for (const QueueEntry &e : got)
        e.dispose();
    EXPECT_EQ(destroyed, 2);
}

// ---- Differential test against a reference (time, phase, FIFO) model ----

namespace
{

/** An event that remembers its scheduling sequence number. */
class SeqEvent : public Event
{
  public:
    SeqEvent(VTime t, EventHandler *h, bool secondary, std::uint64_t seq)
        : Event(t, h, secondary), seq(seq)
    {
    }

    std::uint64_t seq;
};

/**
 * The queue's contract written the slow, obvious way: every live event
 * in one list, popped by the smallest (time, secondary, seq).
 */
struct ReferenceQueue
{
    struct Entry
    {
        VTime time;
        bool secondary;
        std::uint64_t seq;
    };

    void push(VTime t, bool secondary, std::uint64_t seq)
    {
        live.push_back({t, secondary, seq});
    }

    Entry
    pop()
    {
        auto it = std::min_element(
            live.begin(), live.end(), [](const Entry &a, const Entry &b) {
                return std::tie(a.time, a.secondary, a.seq) <
                       std::tie(b.time, b.secondary, b.seq);
            });
        Entry e = *it;
        live.erase(it);
        return e;
    }

    std::size_t
    distinctTimes() const
    {
        std::vector<VTime> ts;
        for (const Entry &e : live)
            ts.push_back(e.time);
        std::sort(ts.begin(), ts.end());
        return static_cast<std::size_t>(
            std::unique(ts.begin(), ts.end()) - ts.begin());
    }

    std::vector<Entry> live;
};

/** Pops one event from both queues and checks they agree. */
void
popBoth(EventQueue &q, ReferenceQueue &ref)
{
    ASSERT_FALSE(q.empty());
    ReferenceQueue::Entry want = ref.pop();
    EXPECT_EQ(q.peekTime(), want.time);
    EventPtr got = popEvent(q);
    auto &ev = static_cast<SeqEvent &>(*got);
    ASSERT_EQ(ev.time(), want.time);
    ASSERT_EQ(ev.isSecondary(), want.secondary);
    ASSERT_EQ(ev.seq, want.seq);
}

} // namespace

TEST(EventQueue, MatchesReferenceModelUnderRandomTraffic)
{
    // Pushes land anywhere in a 400-ps window past the last pop, so the
    // queue holds well over 100 distinct timestamps at once, drained
    // buckets are reused for later times, and many pushes land ahead
    // of the cached front.
    EventQueue q;
    ReferenceQueue ref;
    Recorder r;
    std::uint64_t state = 2024;
    auto rnd = [&state](std::uint64_t n) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return (state >> 33) % n;
    };
    std::uint64_t seq = 0;
    VTime base = 0;
    std::size_t peakDistinct = 0;
    for (int round = 0; round < 20000; round++) {
        int pushes = static_cast<int>(rnd(4));
        for (int i = 0; i < pushes; i++) {
            VTime t = base + rnd(400);
            bool secondary = rnd(4) == 0;
            q.push(std::make_unique<SeqEvent>(t, &r, secondary, seq));
            ref.push(t, secondary, seq);
            seq++;
        }
        if (round % 500 == 0)
            peakDistinct = std::max(peakDistinct, ref.distinctTimes());
        // Pop a little faster than the pushes once ~300 are queued.
        int pops = static_cast<int>(ref.live.size() > 300 ? rnd(5)
                                                           : rnd(3));
        for (int i = 0; i < pops && !ref.live.empty(); i++)
            ASSERT_NO_FATAL_FAILURE(popBoth(q, ref));
        ASSERT_EQ(q.size(), ref.live.size());
        if (!ref.live.empty())
            base = std::max(base, q.peekTime() > 200 ? q.peekTime() - 200
                                                     : VTime{0});
    }
    EXPECT_GT(peakDistinct, 100u);
    while (!ref.live.empty())
        ASSERT_NO_FATAL_FAILURE(popBoth(q, ref));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DrainedBucketIsReusedForALaterTime)
{
    EventQueue q;
    ReferenceQueue ref;
    Recorder r;
    std::uint64_t seq = 0;
    auto push = [&](VTime t, bool secondary) {
        q.push(std::make_unique<SeqEvent>(t, &r, secondary, seq));
        ref.push(t, secondary, seq);
        seq++;
    };
    // Drain time 10 completely, then push to 10 again (the drained
    // bucket may still be indexed) and to a fresh time that takes the
    // recycled bucket once 10 is pruned.
    push(10, false);
    push(10, true);
    push(20, false);
    popBoth(q, ref);
    popBoth(q, ref);
    push(10, true);
    push(10, false);
    popBoth(q, ref);
    popBoth(q, ref);
    popBoth(q, ref); // 20: prunes 10 and recycles its bucket.
    push(30, true);
    push(30, false);
    push(25, false);
    while (!ref.live.empty())
        popBoth(q, ref);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PushEarlierThanCachedFrontBecomesFront)
{
    EventQueue q;
    Recorder r;
    q.push(std::make_unique<Event>(100, &r));
    q.push(std::make_unique<Event>(200, &r));
    EXPECT_EQ(q.peekTime(), 100u); // Caches the front bucket.
    q.push(std::make_unique<Event>(50, &r));
    EXPECT_EQ(q.peekTime(), 50u);
    EXPECT_EQ(popEvent(q)->time(), 50u);
    EXPECT_EQ(popEvent(q)->time(), 100u);
    q.push(std::make_unique<Event>(150, &r)); // Ahead of front 200.
    EXPECT_EQ(popEvent(q)->time(), 150u);
    EXPECT_EQ(popEvent(q)->time(), 200u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MatchesReferenceModelAcrossWheelTurns)
{
    // The queue's wheel has 256 slots of 1024 ps, so times one turn
    // (262,144 ps) apart share a slot. Each phase below pops against
    // the reference model.
    constexpr VTime kQuantum = 1024;
    constexpr VTime kTurn = 256 * kQuantum;
    EventQueue q;
    ReferenceQueue ref;
    Recorder r;
    std::uint64_t seq = 0;
    auto push = [&](VTime t, bool secondary) {
        q.push(std::make_unique<SeqEvent>(t, &r, secondary, seq));
        ref.push(t, secondary, seq);
        seq++;
    };
    auto drain = [&]() {
        while (!ref.live.empty())
            ASSERT_NO_FATAL_FAILURE(popBoth(q, ref));
        ASSERT_TRUE(q.empty());
    };

    // One slot shared by three turns, the latest pushed first, and
    // several off-grid times inside one quantum, pushed out of order.
    push(5 * kQuantum + 3 + 2 * kTurn, false);
    push(5 * kQuantum + 3 + kTurn, true);
    push(5 * kQuantum + 7, false);
    for (VTime off : {900, 17, 512, 1, 1023, 17, 0})
        push(9 * kQuantum + off, off % 2 == 0);
    push(6 * kQuantum + 11 + kTurn, false);
    ASSERT_NO_FATAL_FAILURE(popBoth(q, ref)); // 5q + 7
    // The slot's head is now a later turn's: the front must move on to
    // quantum 9 first.
    EXPECT_EQ(q.peekTime(), 9 * kQuantum);
    ASSERT_NO_FATAL_FAILURE(drain());

    // A push at the current time after its bucket has drained: once
    // while the drained bucket is still indexed, once after the front
    // has moved a turn ahead and recycled it.
    VTime now = 3 * kTurn + 500;
    VTime later = now + kTurn + 5 * kQuantum;
    push(now, false);
    push(later, false);
    ASSERT_NO_FATAL_FAILURE(popBoth(q, ref));
    push(now, true);
    push(now, false);
    ASSERT_NO_FATAL_FAILURE(popBoth(q, ref));
    ASSERT_NO_FATAL_FAILURE(popBoth(q, ref));
    EXPECT_EQ(q.peekTime(), later);
    push(now, false);
    ASSERT_NO_FATAL_FAILURE(drain());

    // Random traffic spread over four turns ahead of the front, mixed
    // with the simulation's cycle-aligned pushes.
    std::uint64_t state = 7;
    auto rnd = [&state](std::uint64_t n) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return (state >> 33) % n;
    };
    VTime base = 10 * kTurn;
    for (int round = 0; round < 20000; round++) {
        for (int i = static_cast<int>(rnd(4)); i > 0; i--) {
            VTime t = rnd(3) == 0 ? base + rnd(4 * kTurn)
                                  : base + 1000 * (1 + rnd(3));
            push(t, rnd(5) == 0);
        }
        int pops = static_cast<int>(ref.live.size() > 200 ? rnd(5)
                                                           : rnd(3));
        for (int i = 0; i < pops && !ref.live.empty(); i++)
            ASSERT_NO_FATAL_FAILURE(popBoth(q, ref));
        ASSERT_EQ(q.size(), ref.live.size());
        if (!ref.live.empty())
            base = std::max(base, q.peekTime());
    }
    ASSERT_NO_FATAL_FAILURE(drain());

    // A sparse phase: one far-future event alone on the wheel, in the
    // slot of the first near event; near events in every part of the
    // wheel pushed and popped ahead of it; then the far one reached
    // across thousands of turns.
    VTime first = (base / kTurn + 1) * kTurn + 10 * kQuantum + 5;
    VTime far = first + 5000 * kTurn - 2;
    push(far, false);
    for (VTime t = first; t < first + 5 * kTurn; t += 37 * kQuantum) {
        push(t, false);
        ASSERT_NO_FATAL_FAILURE(popBoth(q, ref));
        EXPECT_EQ(q.peekTime(), far);
    }
    EXPECT_EQ(q.peekTime(), far);
    push(far + 1, false);
    push(far - kTurn, false);
    ASSERT_NO_FATAL_FAILURE(drain());
}

TEST(EventQueue, ReservedTimeIsRejected)
{
    EventQueue q;
    Recorder r;
    EXPECT_THROW(q.push(std::make_unique<Event>(EventQueue::kReservedTime,
                                                &r)),
                 std::runtime_error);
    EXPECT_TRUE(q.empty());
    q.push(std::make_unique<Event>(EventQueue::kReservedTime - 1, &r));
    EXPECT_EQ(popEvent(q)->time(), EventQueue::kReservedTime - 1);

    Engine eng;
    EXPECT_THROW(
        eng.scheduleAt(EventQueue::kReservedTime, "never", []() {}),
        std::runtime_error);
    EXPECT_EQ(eng.scheduledCount(), 0u);
    EXPECT_EQ(eng.queueLength(), 0u);
    eng.scheduleAt(5, "ok", []() {});
    eng.run();
    EXPECT_EQ(eng.eventCount(), 1u);
}

// ---- Satellite fixes: schedule() race and withLock() starvation ----

TEST(Engine, CrossThreadScheduleNeverLandsInPast)
{
    // Hammer cross-thread schedules while the engine advances time; the
    // past-check under the lock must make every accepted event legal and
    // every illegal event throw (instead of corrupting the queue).
    Engine eng;
    eng.setConcurrentAccess(true);
    eng.setWaitWhenEmpty(true);

    std::atomic<bool> done{false};
    std::function<void()> chain = [&]() {
        if (eng.now() < 200000)
            eng.scheduleAt(eng.now() + 1, "c", chain);
        else
            done.store(true);
    };
    eng.scheduleAt(0, "c", chain);

    std::thread runner([&]() { eng.run(); });

    // Near targets are deliberately racy: time may advance past them
    // between the read and the schedule call, so they may throw. Far
    // targets lie many lock batches (one time unit per event) ahead; an
    // announced schedule() waits out at most the running batch, so they
    // land unless this thread stalls between the read and the call.
    const VTime far = 16 * static_cast<VTime>(eng.lockBatch());
    std::atomic<int> nearAccepted{0}, rejected{0}, farAccepted{0},
        farRejected{0};
    std::thread scheduler([&]() {
        for (bool near = true; !done.load(); near = !near) {
            VTime target = eng.now() + (near ? 2 : far);
            try {
                eng.scheduleAt(target, "ext", []() {});
                (near ? nearAccepted : farAccepted)++;
            } catch (const std::runtime_error &) {
                (near ? rejected : farRejected)++;
            }
        }
    });

    scheduler.join();
    eng.stop();
    runner.join();
    EXPECT_GT(farAccepted.load(), 0);
    EXPECT_LE(farRejected.load(), farAccepted.load());
    // The key assertion is implicit: no crash, no event executed out of
    // order (the engine would throw from its own pop path otherwise).
}

TEST(Engine, WithLockNotStarvedByBusyEventLoop)
{
    // Regression for monitor starvation: with a hot event loop and a
    // large batch size, a withLock() caller must still get the lock in
    // bounded time (the loop yields to announced waiters between
    // batches).
    Engine eng;
    eng.setConcurrentAccess(true);
    eng.setLockBatch(4096);

    std::atomic<bool> done{false};
    std::function<void()> chain = [&]() {
        if (!done.load())
            eng.scheduleAt(eng.now() + 1, "c", chain);
    };
    eng.scheduleAt(0, "c", chain);

    std::thread runner([&]() { eng.run(); });

    int completed = 0;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 50; i++) {
        eng.withLock([&completed]() { completed++; });
    }
    auto elapsed = std::chrono::steady_clock::now() - start;

    done.store(true);
    eng.withLock([]() {}); // Ensure the chain sees the flag.
    runner.join();

    EXPECT_EQ(completed, 50);
    // Generous bound: 50 acquisitions must not take anywhere near
    // seconds. Pre-fix, each could wait for the whole queue to drain.
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  elapsed)
                  .count(),
              5000);
}

TEST(TickingComponent, DeadlineSurvivesSameCycleWakeRearm)
{
    // Regression: scheduleTickAt used to suppress a LATER target when an
    // earlier tick was pending. A wake arming next-cycle between the
    // handler clearing its flag and tick() arming a service deadline
    // would swallow the deadline event: the next-cycle tick finds no
    // work, sleeps, and the component freezes mid-service. The dedup
    // must only absorb exact-time duplicates.
    Engine eng;

    class DeadlineComp : public TickingComponent
    {
      public:
        explicit DeadlineComp(Engine *e)
            : TickingComponent(e, "DL", Freq::ghz(1))
        {
        }
        std::vector<VTime> tickTimes;
        bool
        tick() override
        {
            tickTimes.push_back(engine()->now());
            return false; // Never re-arms on its own.
        }
    } comp(&eng);

    // Interleaving forced deterministically: wake (next cycle) first,
    // then the deadline five cycles out — the order the race produces.
    comp.wake();                                     // t = 1 cycle
    comp.scheduleTickAt(6 * Freq::ghz(1).period()); // the deadline
    eng.run();

    ASSERT_EQ(comp.tickTimes.size(), 2u);
    EXPECT_EQ(comp.tickTimes[0], Freq::ghz(1).period());
    EXPECT_EQ(comp.tickTimes[1], 6 * Freq::ghz(1).period());
}
