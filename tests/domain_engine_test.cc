/**
 * @file
 * Tests for the conservative-PDES domain engine: the latency-derived
 * partitioner, bit-identical event order against the serial engine at
 * one domain, cross-domain message ordering under backpressure,
 * zero-lookahead rejection, the full monitor contract, and the RTM
 * monitor surface driving a GPU platform split across domains.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "gpu/platform.hh"
#include "json/json.hh"
#include "net/switched.hh"
#include "rtm/monitor.hh"
#include "sim/sim.hh"
#include "web/client.hh"
#include "workloads/workloads.hh"

using namespace akita;
using namespace akita::sim;

namespace
{

/** Records the (time, handler) sequence of executed events. */
class OrderHook : public Hook
{
  public:
    void
    func(HookCtx &ctx) override
    {
        if (ctx.pos != &hookPosBeforeEvent)
            return;
        auto *e = static_cast<Event *>(ctx.item);
        std::lock_guard<std::mutex> lk(mu_);
        order.emplace_back(e->time(), e->handler());
    }

    std::vector<std::pair<VTime, EventHandler *>> order;

  private:
    std::mutex mu_;
};

/** A handler that re-schedules itself a fixed number of times. */
class ChainHandler : public EventHandler
{
  public:
    ChainHandler(Engine *eng, int id, VTime period, int count)
        : eng_(eng), id_(id), period_(period), remaining_(count)
    {
    }

    void
    handle(Event &e) override
    {
        fired_++;
        times_.push_back(e.time());
        if (--remaining_ > 0)
            eng_->schedule(
                std::make_unique<Event>(e.time() + period_, this));
    }

    std::string
    handlerName() const override
    {
        return "Chain" + std::to_string(id_);
    }

    int id() const { return id_; }
    int fired() const { return fired_; }
    const std::vector<VTime> &times() const { return times_; }

  private:
    Engine *eng_;
    int id_;
    VTime period_;
    int remaining_;
    int fired_ = 0;
    std::vector<VTime> times_;
};

/**
 * A deterministic multi-handler workload: several chains with clashing
 * periods so many events share timestamps.
 */
std::vector<std::unique_ptr<ChainHandler>>
buildScenario(Engine &eng)
{
    std::vector<std::unique_ptr<ChainHandler>> handlers;
    const VTime periods[] = {2, 3, 5, 2, 3, 5, 4, 6};
    for (int i = 0; i < 8; i++) {
        handlers.push_back(std::make_unique<ChainHandler>(
            &eng, i, periods[i], 50));
        eng.schedule(std::make_unique<Event>(
            static_cast<VTime>(i % 2), handlers.back().get()));
    }
    return handlers;
}

std::vector<std::pair<VTime, int>>
normalize(const std::vector<std::pair<VTime, EventHandler *>> &trace,
          const std::vector<std::unique_ptr<ChainHandler>> &handlers)
{
    std::map<EventHandler *, int> ids;
    for (const auto &h : handlers)
        ids[h.get()] = h->id();
    std::vector<std::pair<VTime, int>> out;
    out.reserve(trace.size());
    for (const auto &rec : trace)
        out.emplace_back(rec.first, ids.at(rec.second));
    return out;
}

/** Runs a callback per event; unlike FuncEvent, assignable to a domain. */
class CallbackHandler : public EventHandler
{
  public:
    explicit CallbackHandler(std::function<void()> fn) : fn_(std::move(fn))
    {
    }

    void handle(Event &) override { fn_(); }

    std::string handlerName() const override { return "Callback"; }

  private:
    std::function<void()> fn_;
};

class TestMsg : public Msg
{
  public:
    static constexpr MsgKind kKind = MsgKind::TestA;

    explicit TestMsg(int v) : Msg(kKind), value(v) {}

    const char *kind() const override { return "TestMsg"; }

    int value;
};

/** Scripted node: re-sends its outbox, drains its inbox at a rate. */
class Node : public TickingComponent
{
  public:
    Node(Engine *engine, const std::string &name, std::size_t buf_cap)
        : TickingComponent(engine, name, Freq::ghz(1))
    {
        in = addPort("In", buf_cap);
    }

    bool
    tick() override
    {
        bool progress = false;
        while (!outbox.empty()) {
            MsgPtr m = outbox.front();
            m->dst = target;
            if (in->send(m) != SendStatus::Ok)
                break;
            outbox.erase(outbox.begin());
            progress = true;
        }
        for (std::size_t i = 0; i < drainPerTick; i++) {
            MsgPtr m = in->retrieveIncoming();
            if (m == nullptr)
                break;
            received.push_back(msgCast<TestMsg>(m)->value);
            progress = true;
        }
        return progress;
    }

    Port *in = nullptr;
    Port *target = nullptr;
    std::vector<MsgPtr> outbox;
    std::vector<int> received;
    std::size_t drainPerTick = 4;
};

} // namespace

// ---- The partitioner ----

TEST(DomainPartitioner, ZeroLatencyEdgesNeverCut)
{
    DomainEngine eng(3);
    Node a(&eng, "A", 4), b(&eng, "B", 4), c(&eng, "C", 4),
        d(&eng, "D", 4);
    DirectConnection ab(&eng, "AB", 0);
    ab.plugIn(a.in);
    ab.plugIn(b.in);
    DirectConnection bc(&eng, "BC", 10 * kNanosecond);
    bc.plugIn(b.in);
    bc.plugIn(c.in);
    DirectConnection cd(&eng, "CD", 20 * kNanosecond);
    cd.plugIn(c.in);
    cd.plugIn(d.in);

    const DomainPartition &part = eng.partition();
    EXPECT_EQ(part.numDomains, 3);
    // The zero-latency pair is inseparable; everything else splits.
    EXPECT_EQ(part.domainOf.at(&a), part.domainOf.at(&b));
    EXPECT_NE(part.domainOf.at(&b), part.domainOf.at(&c));
    EXPECT_NE(part.domainOf.at(&c), part.domainOf.at(&d));
    // Domain 0 holds the earliest-registered component.
    EXPECT_EQ(part.domainOf.at(&a), 0);
    // Every cross edge carries the crossing connection's latency.
    for (const auto &e : part.edges)
        EXPECT_GT(e.lookahead, 0u);
}

TEST(DomainPartitioner, AgglomeratesCheapestEdgesFirst)
{
    DomainEngine eng(2);
    Node a(&eng, "A", 4), b(&eng, "B", 4), c(&eng, "C", 4),
        d(&eng, "D", 4);
    // A-B and C-D are tightly coupled (1ns); the B-C bridge is 50ns.
    DirectConnection ab(&eng, "AB", kNanosecond);
    ab.plugIn(a.in);
    ab.plugIn(b.in);
    DirectConnection cd(&eng, "CD", kNanosecond);
    cd.plugIn(c.in);
    cd.plugIn(d.in);
    DirectConnection bridge(&eng, "Bridge", 50 * kNanosecond);
    bridge.plugIn(b.in);
    bridge.plugIn(c.in);

    const DomainPartition &part = eng.partition();
    EXPECT_EQ(part.numDomains, 2);
    EXPECT_EQ(part.domainOf.at(&a), part.domainOf.at(&b));
    EXPECT_EQ(part.domainOf.at(&c), part.domainOf.at(&d));
    EXPECT_NE(part.domainOf.at(&a), part.domainOf.at(&c));
    // The only cut is the bridge: lookahead 50ns each way.
    ASSERT_EQ(part.edges.size(), 2u);
    for (const auto &e : part.edges)
        EXPECT_EQ(e.lookahead, 50 * kNanosecond);
}

TEST(DomainPartitioner, PinsWinOverTheTarget)
{
    DomainEngine eng(1);
    Node a(&eng, "A", 4), b(&eng, "B", 4);
    DirectConnection ab(&eng, "AB", 5 * kNanosecond);
    ab.plugIn(a.in);
    ab.plugIn(b.in);
    eng.pinComponent(&a, 0);
    eng.pinComponent(&b, 1);

    const DomainPartition &part = eng.partition();
    EXPECT_EQ(part.numDomains, 2);
    EXPECT_EQ(part.domainOf.at(&a), 0);
    EXPECT_EQ(part.domainOf.at(&b), 1);
}

// ---- Core engine contract (one domain) ----

TEST(DomainEngineCore, RunsEventsInTimeOrder)
{
    DomainEngine eng(1);
    std::mutex mu;
    std::vector<VTime> seen;
    for (VTime t : {400u, 100u, 300u, 200u}) {
        eng.scheduleAt(t, "t", [&seen, &mu, &eng]() {
            std::lock_guard<std::mutex> lk(mu);
            seen.push_back(eng.now());
        });
    }
    EXPECT_EQ(eng.run(), RunResult::Drained);
    EXPECT_EQ(seen, (std::vector<VTime>{100, 200, 300, 400}));
    EXPECT_EQ(eng.now(), 400u);
    EXPECT_EQ(eng.eventCount(), 4u);
    EXPECT_EQ(eng.scheduledCount(), 4u);
}

TEST(DomainEngineCore, OneDomainMatchesSerialEngineOrderExactly)
{
    SerialEngine serial;
    OrderHook serialHook;
    serial.acceptHook(&serialHook);
    auto serialHandlers = buildScenario(serial);
    EXPECT_EQ(serial.run(), RunResult::Drained);

    DomainEngine dom(1);
    OrderHook domHook;
    dom.acceptHook(&domHook);
    auto domHandlers = buildScenario(dom);
    EXPECT_EQ(dom.run(), RunResult::Drained);

    auto a = normalize(serialHook.order, serialHandlers);
    auto b = normalize(domHook.order, domHandlers);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a, b) << "1-domain order diverged from serial";
    EXPECT_EQ(dom.eventCount(), serial.eventCount());
    EXPECT_EQ(dom.now(), serial.now());
}

TEST(DomainEngineCore, SecondaryObservesAllCoTimedPrimaries)
{
    // The phase order within a domain: a secondary event at time T runs
    // only after every primary at T completed, while a second domain's
    // worker runs alongside.
    DomainEngine eng(2);
    std::atomic<int> primaries{0};
    int observed = -1;
    CallbackHandler primary([&primaries]() { primaries++; });
    CallbackHandler secondary(
        [&observed, &primaries]() { observed = primaries.load(); });
    ChainHandler other(&eng, 0, 1, 200);
    eng.assignHandler(&primary, 1);
    eng.assignHandler(&secondary, 1);
    eng.assignHandler(&other, 0);
    for (int i = 0; i < 8; i++)
        eng.schedule(std::make_unique<Event>(100, &primary));
    eng.schedule(std::make_unique<Event>(100, &secondary, true));
    eng.schedule(std::make_unique<Event>(0, &other));
    EXPECT_EQ(eng.run(), RunResult::Drained);
    EXPECT_EQ(eng.numDomains(), 2);
    EXPECT_EQ(observed, 8);
    EXPECT_EQ(other.fired(), 200);
}

TEST(DomainEngineCore, QueueLengthFromHandlerMatchesSerialEngine)
{
    // A handler's queueLength() excludes itself and the already
    // executed events of its batch, as on the serial engine — the
    // "probe while other work remains" idiom must terminate.
    auto lengths = [](Engine &eng) {
        std::vector<std::size_t> seen;
        for (VTime t : {10u, 20u, 30u}) {
            eng.scheduleAt(t, "len",
                           [&]() { seen.push_back(eng.queueLength()); });
        }
        EXPECT_EQ(eng.run(), RunResult::Drained);
        EXPECT_EQ(eng.queueLength(), 0u);
        return seen;
    };
    SerialEngine serial;
    DomainEngine dom(2);
    const std::vector<std::size_t> expected{2, 1, 0};
    EXPECT_EQ(lengths(serial), expected);
    EXPECT_EQ(lengths(dom), expected);
}

TEST(DomainEngineCore, HandlersScheduleMoreEvents)
{
    DomainEngine eng(1);
    std::atomic<int> fired{0};
    std::function<void()> chain = [&]() {
        if (fired.fetch_add(1) + 1 < 10)
            eng.scheduleAt(eng.now() + 10, "chain", chain);
    };
    eng.scheduleAt(0, "chain", chain);
    eng.run();
    EXPECT_EQ(fired.load(), 10);
    EXPECT_EQ(eng.now(), 90u);
}

TEST(DomainEngineCore, SchedulingInPastThrows)
{
    DomainEngine eng(1);
    eng.scheduleAt(100, "x", []() {});
    eng.run();
    // Idle engine: external schedules obey the serial-engine contract.
    EXPECT_THROW(eng.scheduleAt(50, "late", []() {}),
                 std::runtime_error);
    EXPECT_NO_THROW(eng.scheduleAt(100, "now", []() {}));

    // From a handler (the domain's own context) the past is also
    // rejected — this is the exact serial semantics 1-domain preserves.
    DomainEngine eng2(1);
    bool threw = false;
    eng2.scheduleAt(100, "h", [&eng2, &threw]() {
        try {
            eng2.scheduleAt(50, "late", []() {});
        } catch (const std::runtime_error &) {
            threw = true;
        }
    });
    eng2.run();
    EXPECT_TRUE(threw);
}

TEST(DomainEngineCore, HandlerExceptionPropagatesFromRun)
{
    DomainEngine eng(1);
    eng.scheduleAt(10, "boom", []() {
        throw std::runtime_error("handler failure");
    });
    EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(DomainEngineCore, StopAbortsRun)
{
    DomainEngine eng(1);
    std::atomic<int> fired{0};
    for (int i = 1; i <= 100; i++) {
        eng.scheduleAt(static_cast<VTime>(i * 10), "n", [&]() {
            if (fired.fetch_add(1) + 1 == 5)
                eng.stop();
        });
    }
    EXPECT_EQ(eng.run(), RunResult::Stopped);
    EXPECT_LT(fired.load(), 100);
    EXPECT_EQ(eng.run(), RunResult::Drained);
    EXPECT_EQ(fired.load(), 100);
}

TEST(DomainEngineCore, PauseAndResumeFromAnotherThread)
{
    DomainEngine eng(1);
    std::atomic<int> fired{0};
    std::function<void()> chain = [&]() {
        if (fired.fetch_add(1) + 1 < 10000)
            eng.scheduleAt(eng.now() + 1, "c", chain);
    };
    eng.scheduleAt(0, "c", chain);

    std::thread runner([&]() { eng.run(); });

    while (fired.load() < 100)
        std::this_thread::yield();
    eng.pause();
    EXPECT_TRUE(eng.paused());
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    int atPause = fired.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // At most the in-flight event finishes after pause lands.
    EXPECT_LE(fired.load(), atPause + 1);

    eng.resume();
    runner.join();
    EXPECT_EQ(fired.load(), 10000);
}

TEST(DomainEngineCore, WaitWhenEmptyBlocksAndExternalScheduleRevives)
{
    DomainEngine eng(1);
    eng.setWaitWhenEmpty(true);

    std::atomic<int> fired{0};
    eng.scheduleAt(10, "a", [&]() { fired++; });

    std::thread runner([&]() { eng.run(); });

    while (fired.load() < 1)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_TRUE(eng.running());
    EXPECT_TRUE(eng.drainedWaiting());

    // RTM's Tick / kick-start path: an external schedule revives it.
    eng.scheduleAt(eng.now() + 5, "b", [&]() {
        fired++;
        eng.stop();
    });
    runner.join();
    EXPECT_EQ(fired.load(), 2);
    EXPECT_FALSE(eng.running());
}

TEST(DomainEngineCore, WithLockGivesConsistentSnapshots)
{
    DomainEngine eng(1);

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

TEST(DomainEngineCore, WithLockFromHandlerRunsInline)
{
    DomainEngine eng(1);
    bool ran = false;
    eng.scheduleAt(10, "h", [&]() {
        eng.withLock([&ran]() { ran = true; });
    });
    eng.run();
    EXPECT_TRUE(ran);
}

TEST(DomainEngineCore, InspectableFieldsAndHooks)
{
    DomainEngine eng(1);
    eng.scheduleAt(5, "e", []() {});
    const auto &fields = eng.fields();
    EXPECT_NE(fields.find("now_ps"), nullptr);
    EXPECT_EQ(fields.find("queue_len")->getter().intVal(), 1);

    class CountingHook : public Hook
    {
      public:
        void
        func(HookCtx &ctx) override
        {
            if (ctx.pos == &hookPosBeforeEvent)
                before++;
            if (ctx.pos == &hookPosAfterEvent)
                after++;
            if (ctx.pos == &hookPosQueueDrained)
                drained++;
        }

        std::atomic<int> before{0}, after{0}, drained{0};
    };

    CountingHook hook;
    eng.acceptHook(&hook);
    for (int i = 0; i < 7; i++)
        eng.scheduleAt(static_cast<VTime>(10 + i), "e", []() {});
    eng.run();
    EXPECT_EQ(hook.before.load(), 8);
    EXPECT_EQ(hook.after.load(), 8);
    EXPECT_EQ(hook.drained.load(), 1);
    EXPECT_EQ(fields.find("queue_len")->getter().intVal(), 0);
    EXPECT_EQ(fields.find("total_events")->getter().intVal(), 8);
    EXPECT_EQ(fields.find("domains")->getter().intVal(), 1);
}

// ---- Cross-domain execution ----

TEST(DomainEngineCross, MessagesArriveInOrderUnderBackpressure)
{
    // Sender and receiver pinned to different domains; the receiver's
    // two-slot buffer forces backpressure, so wake events cross the
    // domain boundary in both directions (delivery one way, buffer-
    // freed wakes the other). Conservation and FIFO must hold — this
    // is the ordering regression the safe-window protocol guarantees.
    DomainEngine eng(2);
    Node a(&eng, "A", 4), b(&eng, "B", 2);
    DirectConnection conn(&eng, "Conn", 5 * kNanosecond);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    eng.pinComponent(&a, 0);
    eng.pinComponent(&b, 1);

    a.target = b.in;
    b.drainPerTick = 1;
    for (int i = 0; i < 20; i++)
        a.outbox.push_back(makeMsg<TestMsg>(i));
    a.tickLater();

    EXPECT_EQ(eng.numDomains(), 2);
    EXPECT_EQ(eng.run(), RunResult::Drained);

    ASSERT_EQ(b.received.size(), 20u);
    for (int i = 0; i < 20; i++)
        EXPECT_EQ(b.received[i], i);
}

TEST(DomainEngineCross, EndStateMatchesSerialEngine)
{
    // Same rig on the serial engine and on a 2-domain engine: the
    // delivered data must be identical (the end-state determinism bar;
    // wall-clock interleaving and wake alignment may differ).
    auto runRig = [](Engine &eng, DomainEngine *de) {
        Node a(&eng, "A", 4), b(&eng, "B", 2);
        DirectConnection conn(&eng, "Conn", 5 * kNanosecond);
        conn.plugIn(a.in);
        conn.plugIn(b.in);
        if (de != nullptr) {
            de->pinComponent(&a, 0);
            de->pinComponent(&b, 1);
        }
        a.target = b.in;
        b.drainPerTick = 1;
        for (int i = 0; i < 30; i++)
            a.outbox.push_back(makeMsg<TestMsg>(i));
        a.tickLater();
        EXPECT_EQ(eng.run(), RunResult::Drained);
        return b.received;
    };

    SerialEngine serial;
    std::vector<int> serialRx = runRig(serial, nullptr);

    DomainEngine dom(2);
    std::vector<int> domRx = runRig(dom, &dom);

    EXPECT_EQ(domRx, serialRx);
}

TEST(DomainEngineCross, ZeroLookaheadRejectedAtRunByName)
{
    // A pin-forced cut across a zero-latency connection has no safe
    // window; run() must refuse up front, naming the connection —
    // not deadlock, not silently serialize.
    DomainEngine eng(2);
    Node a(&eng, "A", 4), b(&eng, "B", 4);
    DirectConnection conn(&eng, "ZeroLatConn", 0);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    eng.pinComponent(&a, 0);
    eng.pinComponent(&b, 1);
    a.tickLater();

    try {
        eng.run();
        FAIL() << "expected run() to reject the zero-lookahead cut";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("ZeroLatConn"),
                  std::string::npos)
            << "message must name the connection: " << e.what();
    }
}

TEST(DomainEngineCross, PerDomainStatusSumsToTotals)
{
    DomainEngine eng(2);
    Node a(&eng, "A", 8), b(&eng, "B", 8);
    DirectConnection conn(&eng, "Conn", 5 * kNanosecond);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    eng.pinComponent(&a, 0);
    eng.pinComponent(&b, 1);
    a.target = b.in;
    for (int i = 0; i < 10; i++)
        a.outbox.push_back(makeMsg<TestMsg>(i));
    a.tickLater();
    EXPECT_EQ(eng.run(), RunResult::Drained);

    std::uint64_t sum = 0;
    for (int i = 0; i < eng.numDomains(); i++) {
        DomainEngine::DomainStatus st = eng.domainStatus(i);
        sum += st.events;
        EXPECT_EQ(st.queueLen, 0u);
        // All clocks synchronized at global drain.
        EXPECT_EQ(st.clock, eng.now());
    }
    EXPECT_EQ(sum, eng.eventCount());
    // One full-size ring per cross-domain edge, all drained dry.
    std::size_t caps = 0, occ = 0;
    for (int i = 0; i < eng.numDomains(); i++) {
        caps += eng.domainStatus(i).ringCapacity;
        occ += eng.domainStatus(i).ringOccupancy;
    }
    EXPECT_EQ(caps, eng.edgeInfos().size() * 256);
    EXPECT_EQ(occ, 0u);
    ASSERT_EQ(eng.domainMemberNames().size(), 2u);
    EXPECT_EQ(eng.domainMemberNames()[0][0], "A");
    EXPECT_EQ(eng.domainMemberNames()[1][0], "B");
}

namespace
{

/**
 * Four senders pinned to four domains flood one two-slot sink through
 * @p conn: every send races the sink's pops from another domain on the
 * port's slot claim and waiter list. Returns what the sink received.
 */
std::vector<int>
hammerOneSink(DomainEngine &eng, Connection &conn, int perSender)
{
    constexpr int kSenders = 4;
    Node sink(&eng, "Sink", 2);
    sink.drainPerTick = 1;
    conn.plugIn(sink.in);
    eng.pinComponent(&sink, 0);
    std::vector<std::unique_ptr<Node>> senders;
    for (int s = 0; s < kSenders; s++) {
        senders.push_back(
            std::make_unique<Node>(&eng, "S" + std::to_string(s), 1));
        Node &n = *senders.back();
        conn.plugIn(n.in);
        eng.pinComponent(&n, s);
        n.target = sink.in;
        for (int i = 0; i < perSender; i++)
            n.outbox.push_back(makeMsg<TestMsg>(s * 1000000 + i));
        n.tickLater();
    }
    EXPECT_EQ(eng.numDomains(), kSenders);
    // A push into a full buffer throws out of run(); a lost wake leaves
    // a sender asleep with its outbox non-empty when the run drains.
    EXPECT_EQ(eng.run(), RunResult::Drained);
    for (const auto &n : senders)
        EXPECT_TRUE(n->outbox.empty()) << n->name() << " never woken";
    EXPECT_EQ(sink.in->claimed(), 0u);
    EXPECT_EQ(conn.inFlight(), 0u);
    EXPECT_EQ(sink.in->blockedSenders().size(), 0u);
    EXPECT_LE(sink.in->buf().peakSize(), 2u);
    return sink.received;
}

/** Every message exactly once, each sender's in send order. */
void
expectExactlyOnceInOrder(const std::vector<int> &rx, int perSender)
{
    ASSERT_EQ(rx.size(), static_cast<std::size_t>(4 * perSender));
    std::map<int, int> next;
    for (int v : rx) {
        int s = v / 1000000;
        EXPECT_EQ(v % 1000000, next[s]) << "sender " << s;
        next[s] = v % 1000000 + 1;
    }
    for (int s = 0; s < 4; s++)
        EXPECT_EQ(next[s], perSender) << "sender " << s;
}

} // namespace

TEST(DomainEngineCross, FourDomainsHammerOneSinkThroughDirectConnection)
{
    DomainEngine eng(4);
    DirectConnection conn(&eng, "Conn", 2 * kNanosecond);
    expectExactlyOnceInOrder(hammerOneSink(eng, conn, 300), 300);
}

TEST(DomainEngineCross, FourDomainsHammerOneSinkThroughSwitchedNetwork)
{
    DomainEngine eng(4);
    net::SwitchedNetwork::Config cfg;
    cfg.latency = 2 * kNanosecond;
    net::SwitchedNetwork net(&eng, "Net", cfg);
    expectExactlyOnceInOrder(hammerOneSink(eng, net, 300), 300);
}

// ---- The RTM monitor surface against a domain-engine platform ----

namespace
{

gpu::KernelDescriptor
smallKernel(std::uint32_t wgs)
{
    gpu::KernelDescriptor k;
    k.name = "small";
    k.numWorkGroups = wgs;
    k.wavefrontsPerWG = 2;
    k.trace = [](std::uint32_t wg, std::uint32_t wf) {
        std::vector<gpu::WfOp> ops;
        for (int i = 0; i < 4; i++) {
            ops.push_back(gpu::WfOp::load(
                0x10000ull + (wg * 64 + wf * 16 + i) * 4096, 64, 2));
        }
        return ops;
    };
    return k;
}

} // namespace

TEST(DomainEngineRtm, PlatformSelectsEngineKindAndPartitions)
{
    gpu::PlatformConfig cfg =
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    cfg.engineKind = gpu::EngineKind::Domain;
    cfg.domains = 4;
    gpu::Platform plat(cfg);
    auto *de = dynamic_cast<DomainEngine *>(&plat.engine());
    ASSERT_NE(de, nullptr);
    EXPECT_EQ(de->requestedDomains(), 4);
    EXPECT_EQ(de->numDomains(), 4);
    // Domain 0 contains the first-built component: the driver.
    const auto &members = de->domainMemberNames();
    ASSERT_FALSE(members.empty());
    bool driverInZero = false;
    for (const auto &name : members[0])
        driverInZero = driverInZero || name == "Driver";
    EXPECT_TRUE(driverInZero);
    // Every cross-domain edge has positive lookahead on this topology.
    for (const auto &e : de->partition().edges)
        EXPECT_GT(e.lookahead, 0u);
}

TEST(DomainEngineRtm, ApplyEngineArgsParsesFlags)
{
    gpu::PlatformConfig cfg;
    const char *argvConst[] = {"prog", "--engine=domain",
                               "--domains=3"};
    gpu::applyEngineArgs(cfg, 3, const_cast<char **>(argvConst));
    EXPECT_EQ(cfg.engineKind, gpu::EngineKind::Domain);
    EXPECT_EQ(cfg.domains, 3);

    // Unknown engine names are rejected, not silently run serial.
    const char *argvParallel[] = {"prog", "--engine=parallel"};
    try {
        gpu::applyEngineArgs(cfg, 2, const_cast<char **>(argvParallel));
        ADD_FAILURE() << "--engine=parallel was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("parallel"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("serial|domain"),
                  std::string::npos);
    }
    ::setenv("AKITA_ENGINE", "bogus", 1);
    EXPECT_THROW(gpu::applyEngineEnv(cfg), std::invalid_argument);
    ::unsetenv("AKITA_ENGINE");
}

TEST(DomainEngineRtm, PlatformRunMatchesSerialCompletion)
{
    auto serialCfg = gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    gpu::Platform serialPlat(serialCfg);
    auto k1 = smallKernel(16);
    serialPlat.launchKernel(&k1);
    ASSERT_EQ(serialPlat.run(), gpu::Platform::RunStatus::Completed);

    auto domCfg = gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    domCfg.engineKind = gpu::EngineKind::Domain;
    domCfg.domains = 4;
    gpu::Platform domPlat(domCfg);
    auto k2 = smallKernel(16);
    domPlat.launchKernel(&k2);
    ASSERT_EQ(domPlat.run(), gpu::Platform::RunStatus::Completed);

    EXPECT_GT(domPlat.engine().now(), 0u);
    EXPECT_GT(domPlat.engine().eventCount(), 0u);
}

TEST(DomainEngineRtm, FullMonitorSurface)
{
    gpu::PlatformConfig cfg =
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    cfg.engineKind = gpu::EngineKind::Domain;
    cfg.domains = 4;
    gpu::Platform plat(cfg);

    rtm::MonitorConfig mcfg;
    mcfg.announceUrl = false;
    mcfg.sampleIntervalMs = 10;
    mcfg.hangThresholdSec = 0.15;
    rtm::Monitor mon(mcfg);
    mon.registerEngine(&plat.engine());
    for (auto *c : plat.components())
        mon.registerComponent(c);
    plat.driver().setProgressListener(&mon);
    plat.driver().setAutoStop(false);

    auto k = smallKernel(32);
    plat.launchKernel(&k);
    std::thread runner([&]() { plat.run(); });

    // Virtual time and events advance while the monitor watches.
    VTime t0 = plat.engine().now();
    for (int i = 0; i < 500 && !plat.driver().allKernelsDone(); i++) {
        mon.status();
        mon.bufferLevels(rtm::BufferSort::ByPercent, 5);
        mon.metricsSamplePass();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_TRUE(plat.driver().allKernelsDone());
    EXPECT_GT(plat.engine().now(), t0);

    // Pause / resume through the monitor.
    mon.pause();
    EXPECT_TRUE(mon.paused());
    mon.resume();
    EXPECT_FALSE(mon.paused());

    // Hang detection: drained-waiting freezes the global time floor.
    rtm::HangStatus hang;
    for (int i = 0; i < 600; i++) {
        hang = mon.hangStatus();
        if (hang.hanging && hang.queueDrained)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(hang.hanging);
    EXPECT_TRUE(hang.queueDrained);

    // The per-component Tick button schedules into the live engine
    // cross-thread; the mailbox floor makes this legal at any clock.
    ASSERT_FALSE(plat.components().empty());
    EXPECT_TRUE(mon.tickComponent(plat.components().back()->name()));
    EXPECT_FALSE(mon.tickComponent("NoSuchComponent"));

    plat.engine().stop();
    runner.join();
}

TEST(DomainEngineRtm, SequentialKernelsComplete)
{
    // Driver auto-stop ends every GPU run Stopped, which leaves the
    // domain clocks unsynchronized. The next launch schedules the
    // driver's tick at now() + 1 cycle from outside the engine, so
    // now() must name a time no domain has passed yet, or the launch
    // throws "cannot schedule event in the past".
    workloads::FirParams fp;
    fp.numSamples = 4096;
    for (int rep = 0; rep < 5; rep++) {
        for (int domains : {2, 4}) {
            auto cfg = gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
            cfg.engineKind = gpu::EngineKind::Domain;
            cfg.domains = domains;
            gpu::Platform plat(cfg);
            for (int k = 0; k < 3; k++) {
                gpu::KernelDescriptor fir = workloads::makeFir(fp);
                plat.launchKernel(&fir);
                ASSERT_EQ(plat.run(), gpu::Platform::RunStatus::Completed)
                    << "d=" << domains << " kernel " << k << " rep "
                    << rep;
            }
        }
    }
}

TEST(DomainEngineRtm, DomainsEndpointIsCachedAndComplete)
{
    // /api/v1/domains serves the partition, per-domain clocks and ring
    // state behind the coalesced cache (ETag + 304, x-akita-no-cache
    // bypass).
    DomainEngine eng(2);
    Node a(&eng, "A", 4), b(&eng, "B", 4);
    DirectConnection conn(&eng, "Conn", 5 * kNanosecond);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    eng.pinComponent(&a, 0);
    eng.pinComponent(&b, 1);
    a.target = b.in;
    for (int i = 0; i < 8; i++)
        a.outbox.push_back(makeMsg<TestMsg>(i));
    a.tickLater();
    ASSERT_EQ(eng.run(), RunResult::Drained);

    rtm::MonitorConfig mcfg;
    mcfg.announceUrl = false;
    mcfg.domainsTtlFloorMs = 60 * 1000; // One build for this test.
    rtm::Monitor mon(mcfg);
    mon.registerEngine(&eng);
    ASSERT_TRUE(mon.startServer());

    web::PersistentClient client("127.0.0.1", mon.serverPort());
    auto first = client.get("/api/v1/domains");
    ASSERT_TRUE(first.has_value());
    ASSERT_EQ(first->status, 200);
    ASSERT_TRUE(first->headers.count("etag"));

    json::Json doc = json::Json::parse(first->body);
    EXPECT_EQ(doc.getInt("num_domains", 0), 2);
    EXPECT_EQ(static_cast<std::uint64_t>(
                  doc.getInt("mailbox_fast_total", 0) +
                  doc.getInt("mailbox_slow_total", 0)),
              eng.mailboxFastTotal() + eng.mailboxSlowTotal());
    const json::Json *doms = doc.get("domains");
    ASSERT_NE(doms, nullptr);
    ASSERT_EQ(doms->items().size(), 2u);
    for (const auto &dom : doms->items()) {
        EXPECT_EQ(static_cast<VTime>(dom.getInt("clock_ps", 0)),
                  eng.now());
        EXPECT_EQ(dom.getInt("lag_ps", -1), 0);
        EXPECT_EQ(dom.getInt("ring_capacity", 0), 256);
        ASSERT_NE(dom.get("members"), nullptr);
        EXPECT_EQ(dom.get("members")->items().size(), 1u);
    }
    const json::Json *edges = doc.get("edges");
    ASSERT_NE(edges, nullptr);
    ASSERT_EQ(edges->items().size(), 2u);
    for (const auto &e : edges->items()) {
        EXPECT_EQ(static_cast<VTime>(e.getInt("lookahead_ps", 0)),
                  5 * kNanosecond);
        EXPECT_EQ(e.getStr("connection"), "Conn");
    }

    // Replaying the ETag within the TTL gets a 304.
    auto second = client.get(
        "/api/v1/domains",
        {{"If-None-Match", first->headers.at("etag")}});
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->status, 304);

    // The bypass header skips the cache and carries no validator.
    auto third =
        client.get("/api/v1/domains", {{"x-akita-no-cache", "1"}});
    ASSERT_TRUE(third.has_value());
    EXPECT_EQ(third->status, 200);
    EXPECT_FALSE(third->headers.count("etag"));
}

// ---- Multi-run behaviour on a ring of forwarders ----

namespace
{

/** Ring-capable forwarder: separate In/Out ports so node i can send
 * to node i+1 while also receiving from node i-1. Records the values
 * it drains, at a configurable rate (for backpressure). */
class FwdNode : public TickingComponent
{
  public:
    FwdNode(Engine *engine, const std::string &name,
            std::size_t buf_cap)
        : TickingComponent(engine, name, Freq::ghz(1))
    {
        in = addPort("In", buf_cap);
        out = addPort("Out", 16);
    }

    bool
    tick() override
    {
        bool progress = false;
        while (!outbox.empty()) {
            MsgPtr m = outbox.front();
            m->dst = next;
            if (out->send(m) != SendStatus::Ok)
                break;
            outbox.erase(outbox.begin());
            progress = true;
        }
        for (std::size_t i = 0; i < drainPerTick; i++) {
            MsgPtr m = in->retrieveIncoming();
            if (m == nullptr)
                break;
            received.push_back(msgCast<TestMsg>(m)->value);
            progress = true;
        }
        return progress;
    }

    Port *in = nullptr;
    Port *out = nullptr;
    Port *next = nullptr;
    std::vector<MsgPtr> outbox;
    std::vector<int> received;
    std::size_t drainPerTick = 4;
};

/** An unpinned ring of `n` forwarders on long-latency wires, where
 * node i sends to node i+1. The equal-latency static cut packs nodes
 * 0..n-3 into domain 0. */
struct FwdRing
{
    FwdRing(Engine &eng, int n, std::size_t buf_cap = 16)
    {
        for (int i = 0; i < n; i++) {
            nodes.push_back(std::make_unique<FwdNode>(
                &eng, "R" + std::to_string(i), buf_cap));
        }
        for (int i = 0; i < n; i++) {
            int j = (i + 1) % n;
            wires.push_back(std::make_unique<DirectConnection>(
                &eng, "W" + std::to_string(i), 500 * kNanosecond));
            wires.back()->plugIn(
                nodes[static_cast<std::size_t>(i)]->out);
            wires.back()->plugIn(
                nodes[static_cast<std::size_t>(j)]->in);
            nodes[static_cast<std::size_t>(i)]->next =
                nodes[static_cast<std::size_t>(j)]->in;
        }
    }

    FwdNode &operator[](std::size_t i) { return *nodes[i]; }

    std::vector<std::unique_ptr<FwdNode>> nodes;
    std::vector<std::unique_ptr<DirectConnection>> wires;
};

} // namespace

TEST(DomainEngineCross, StoppedRunResumesWithEveryMessageInOrder)
{
    // A Stopped run leaves events in per-domain queues and the domain
    // clocks apart. The next run() must pick up where it stopped and
    // deliver everything in order, and between the runs now() must be
    // the furthest clock, as on the serial engine.
    class StopHandler : public EventHandler
    {
      public:
        explicit StopHandler(Engine *e) : eng_(e) {}
        void handle(Event &) override { eng_->stop(); }
        std::string handlerName() const override { return "stop"; }

      private:
        Engine *eng_;
    };

    DomainEngine eng(2);
    FwdRing ring(eng, 4);
    // Keep the stop away from the busy pair (external schedules would
    // otherwise land in domain 0 with it).
    StopHandler stopH(&eng);
    eng.assignHandler(&stopH, 1);
    eng.partition();
    ASSERT_EQ(eng.domainOfComponent(&ring[0]),
              eng.domainOfComponent(&ring[1]));
    ASSERT_NE(eng.domainOfComponent(&ring[0]),
              eng.domainOfComponent(&ring[3]));

    // R0 floods R1 (intra-domain: sends at 1..60 ns, deliveries at
    // 501..560 ns). The stop at 1020 ns cannot execute until the busy
    // domain passed 520 ns, so the run stops mid-stream.
    for (int i = 0; i < 60; i++)
        ring[0].outbox.push_back(makeMsg<TestMsg>(i));
    ring[0].tickLater();
    eng.schedule(
        std::make_unique<Event>(1020 * kNanosecond, &stopH));
    ASSERT_EQ(eng.run(), RunResult::Stopped);
    for (int i = 0; i < eng.numDomains(); i++)
        EXPECT_GE(eng.now(), eng.domainStatus(i).clock) << "domain " << i;

    ASSERT_EQ(eng.run(), RunResult::Drained);
    ASSERT_EQ(ring[1].received.size(), 60u);
    for (int i = 0; i < 60; i++)
        EXPECT_EQ(ring[1].received[static_cast<std::size_t>(i)], i);
}

TEST(DomainEngineCore, LateRegisteredComponentRoutesToDomainZero)
{
    // A component registered after the partition is fixed joins
    // domain 0 and keeps that route across runs.
    DomainEngine eng(2);
    FwdRing ring(eng, 4);
    eng.partition(); // Fix the cut: anything registered now is late.
    FwdNode late(&eng, "Late", 16);
    ASSERT_EQ(eng.domainOfComponent(&late), 0);
    EXPECT_EQ(eng.domainOfComponent(nullptr), -1);

    for (int phase = 0; phase < 4; phase++) {
        FwdNode &hot = phase % 2 == 0 ? ring[0] : ring[2];
        for (int i = 0; i < 24; i++)
            hot.outbox.push_back(makeMsg<TestMsg>(i));
        hot.tickLater();
        late.tickLater();
        ASSERT_EQ(eng.run(), RunResult::Drained) << "phase " << phase;
    }
    EXPECT_EQ(eng.domainOfComponent(&late), 0);
    EXPECT_EQ(ring[1].received.size(), 48u);
    EXPECT_EQ(ring[3].received.size(), 48u);
}

TEST(DomainEngineCross, RingEndStateMatchesSerialAcrossRuns)
{
    // A phased workload over several drained runs on the serial engine
    // and on a 2-domain engine: identical delivered data and final
    // virtual time.
    auto driveRing = [](Engine &eng, FwdRing &ring) {
        std::vector<std::vector<int>> rx;
        int seq = 0;
        for (int phase = 0; phase < 6; phase++) {
            FwdNode &hot = ring[static_cast<std::size_t>(
                (phase % 2) * 2)];
            for (int i = 0; i < 16; i++)
                hot.outbox.push_back(makeMsg<TestMsg>(seq++));
            hot.tickLater();
            EXPECT_EQ(eng.run(), RunResult::Drained);
        }
        for (auto &n : ring.nodes)
            rx.push_back(n->received);
        return rx;
    };

    SerialEngine serial;
    FwdRing sring(serial, 4);
    auto serialRx = driveRing(serial, sring);

    DomainEngine dom(2);
    FwdRing ring(dom, 4);
    auto domRx = driveRing(dom, ring);

    EXPECT_EQ(domRx, serialRx);
    EXPECT_EQ(dom.now(), serial.now());
}
