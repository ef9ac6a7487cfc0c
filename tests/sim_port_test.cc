/**
 * @file
 * Unit and property tests for buffers, ports, connections, and ticking
 * components — the message-passing substrate whose backpressure makes
 * the buffer analyzer meaningful.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "net/switched.hh"
#include "sim/sim.hh"

using namespace akita::sim;

// Every message passes through a Port; a virtual base would add a vtable
// pointer to each port and invite virtual dispatch on that path.
static_assert(!std::is_polymorphic_v<Port>,
              "Port must stay a plain, non-virtual class");

namespace
{

/** Minimal message type with a payload for identity checks. */
class TestMsg : public Msg
{
  public:
    static constexpr MsgKind kKind = MsgKind::TestA;

    explicit TestMsg(int v) : Msg(kKind), value(v) {}

    const char *kind() const override { return "TestMsg"; }

    int value;
};

MsgPtr
mkMsg(int v)
{
    return makeMsg<TestMsg>(v);
}

} // namespace

TEST(Buffer, PushPopFifo)
{
    Buffer buf("b", 4);
    buf.push(mkMsg(1));
    buf.push(mkMsg(2));
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_EQ(msgCast<TestMsg>(buf.pop())->value, 1);
    EXPECT_EQ(msgCast<TestMsg>(buf.pop())->value, 2);
    EXPECT_EQ(buf.pop(), nullptr);
}

TEST(Buffer, CapacityEnforced)
{
    Buffer buf("b", 2);
    buf.push(mkMsg(1));
    buf.push(mkMsg(2));
    EXPECT_TRUE(buf.full());
    EXPECT_FALSE(buf.canPush());
    EXPECT_THROW(buf.push(mkMsg(3)), std::runtime_error);
}

TEST(Buffer, StatsTrackPeakAndTotal)
{
    Buffer buf("b", 4);
    buf.push(mkMsg(1));
    buf.push(mkMsg(2));
    buf.push(mkMsg(3));
    buf.pop();
    buf.pop();
    buf.push(mkMsg(4));
    EXPECT_EQ(buf.totalPushed(), 4u);
    EXPECT_EQ(buf.peakSize(), 3u);
    EXPECT_DOUBLE_EQ(buf.fullness(), 0.5);
}

TEST(Buffer, PopMatchingBypassesHeadOfLine)
{
    Buffer buf("b", 4);
    buf.push(mkMsg(10));
    buf.push(mkMsg(20));
    buf.push(mkMsg(30));
    MsgPtr m = buf.popMatching([](const Msg &msg) {
        return static_cast<const TestMsg &>(msg).value == 20;
    });
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(msgCast<TestMsg>(m)->value, 20);
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_EQ(msgCast<TestMsg>(buf.peek())->value, 10);
    EXPECT_EQ(buf.popMatching([](const Msg &) { return false; }),
              nullptr);
}

// ---- The fixed ring behind Buffer ----

namespace
{

/** Pops everything left in @p buf, oldest first. */
std::vector<int>
drain(Buffer &buf)
{
    std::vector<int> out;
    while (MsgPtr m = buf.pop())
        out.push_back(msgCast<TestMsg>(m)->value);
    return out;
}

bool
valueIs(const Msg &m, int v)
{
    return static_cast<const TestMsg &>(m).value == v;
}

} // namespace

TEST(BufferRing, WrapsAroundKeepingFifo)
{
    // Push/pop cycles walk the head around a 3-slot ring many times.
    Buffer buf("b", 3);
    int next = 0, expect = 0;
    for (int round = 0; round < 10; round++) {
        while (buf.canPush())
            buf.push(mkMsg(next++));
        EXPECT_TRUE(buf.full());
        EXPECT_EQ(msgCast<TestMsg>(buf.peek())->value, expect);
        for (int i = 0; i < 2; i++)
            EXPECT_EQ(msgCast<TestMsg>(buf.pop())->value, expect++);
    }
    std::vector<int> rest = drain(buf);
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0], expect);
    EXPECT_EQ(buf.peek(), nullptr);
}

TEST(BufferRing, PopMatchingFromTheMiddleOfAWrappedRingKeepsOrder)
{
    Buffer buf("b", 5);
    for (int v = 0; v < 4; v++)
        buf.push(mkMsg(v));
    buf.pop();
    buf.pop(); // Head is now at slot 2; the next pushes wrap.
    for (int v = 4; v < 7; v++)
        buf.push(mkMsg(v)); // Holds 2 3 4 5 6, across the wrap.
    ASSERT_TRUE(buf.full());
    MsgPtr m = buf.popMatching([](const Msg &x) { return valueIs(x, 4); });
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(msgCast<TestMsg>(m)->value, 4);
    m = buf.popMatching([](const Msg &x) { return valueIs(x, 6); });
    ASSERT_NE(m, nullptr); // The youngest.
    m = buf.popMatching([](const Msg &x) { return valueIs(x, 2); });
    ASSERT_NE(m, nullptr); // The oldest.
    EXPECT_EQ(buf.size(), 2u);
    buf.push(mkMsg(7));
    buf.push(mkMsg(8));
    buf.push(mkMsg(9));
    EXPECT_EQ(drain(buf), (std::vector<int>{3, 5, 7, 8, 9}));
}

TEST(BufferRing, ClearReleasesMessagesAndResetsOccupancy)
{
    struct Counted : Msg
    {
        explicit Counted(int *live) : live(live) { ++*live; }
        ~Counted() override { --*live; }
        int *live;
    };
    int live = 0;
    Buffer buf("b", 4);
    buf.push(mkMsg(0));
    buf.pop();
    buf.push(makeMsg<Counted>(&live));
    buf.push(makeMsg<Counted>(&live));
    buf.push(makeMsg<Counted>(&live));
    buf.push(makeMsg<Counted>(&live)); // Slot 0: wrapped.
    EXPECT_EQ(live, 4);
    buf.clear();
    EXPECT_EQ(live, 0) << "clear() must drop the ring's references";
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.approxSize(), 0u);
    EXPECT_EQ(buf.peek(), nullptr);
    for (int v = 10; v < 14; v++)
        buf.push(mkMsg(v));
    EXPECT_EQ(drain(buf), (std::vector<int>{10, 11, 12, 13}));
}

TEST(BufferRing, PeakAndTotalSurviveWrapAndClear)
{
    Buffer buf("b", 2);
    for (int i = 0; i < 7; i++) {
        if (buf.full())
            buf.pop();
        buf.push(mkMsg(i));
    }
    // Sizes after each push: 1 2 2 2 2 2 2, walking the ring around.
    EXPECT_EQ(buf.totalPushed(), 7u);
    EXPECT_EQ(buf.peakSize(), 2u);
    buf.clear();
    EXPECT_EQ(buf.totalPushed(), 7u);
    EXPECT_EQ(buf.peakSize(), 2u);
}

TEST(BufferRing, OverflowStillThrowsAfterWrap)
{
    Buffer buf("b", 2);
    buf.push(mkMsg(1));
    buf.push(mkMsg(2));
    buf.pop();
    buf.push(mkMsg(3)); // Wraps.
    EXPECT_THROW(buf.push(mkMsg(4)), std::runtime_error);
    EXPECT_EQ(drain(buf), (std::vector<int>{2, 3}));
}

TEST(Buffer, InspectableFields)
{
    Buffer buf("GPU[0].X.TopPort.Buf", 8);
    buf.push(mkMsg(1));
    EXPECT_EQ(buf.fields().find("size")->getter().intVal(), 1);
    EXPECT_EQ(buf.fields().find("capacity")->getter().intVal(), 8);
}

namespace
{

/**
 * A scripted component for port tests: it retrieves everything
 * delivered to its port and re-sends queued outgoing messages.
 */
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
        // Send queued messages.
        while (!outbox.empty()) {
            MsgPtr m = outbox.front();
            m->dst = target;
            if (in->send(m) != SendStatus::Ok)
                break;
            outbox.erase(outbox.begin());
            sent++;
            progress = true;
        }
        // Drain incoming at the configured rate.
        for (std::size_t i = 0; i < drainPerTick; i++) {
            MsgPtr m = in->retrieveIncoming();
            if (m == nullptr)
                break;
            received.push_back(msgCast<TestMsg>(m)->value);
            receivedAt.push_back(engine()->now());
            progress = true;
        }
        return progress;
    }

    Port *in = nullptr;
    Port *target = nullptr;
    std::vector<MsgPtr> outbox;
    std::vector<int> received;
    std::vector<VTime> receivedAt;
    std::size_t drainPerTick = 4;
    int sent = 0;
};

} // namespace

TEST(PortConnection, DeliversWithLatency)
{
    Engine eng;
    Node a(&eng, "A", 4), b(&eng, "B", 4);
    DirectConnection conn(&eng, "Conn", 5 * kNanosecond);
    conn.plugIn(a.in);
    conn.plugIn(b.in);

    a.target = b.in;
    a.outbox.push_back(mkMsg(42));
    a.tickLater();
    eng.run();

    ASSERT_EQ(b.received.size(), 1u);
    EXPECT_EQ(b.received[0], 42);
}

TEST(PortConnection, MessagesArriveInSendOrder)
{
    Engine eng;
    Node a(&eng, "A", 16), b(&eng, "B", 16);
    DirectConnection conn(&eng, "Conn", kNanosecond);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    a.target = b.in;
    for (int i = 0; i < 10; i++)
        a.outbox.push_back(mkMsg(i));
    a.tickLater();
    eng.run();
    ASSERT_EQ(b.received.size(), 10u);
    for (int i = 0; i < 10; i++)
        EXPECT_EQ(b.received[i], i);
}

TEST(PortConnection, BackpressureAndWakeRecovery)
{
    Engine eng;
    Node a(&eng, "A", 4), b(&eng, "B", 2);
    DirectConnection conn(&eng, "Conn", kNanosecond);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    a.target = b.in;
    b.drainPerTick = 1; // B drains slower than A sends.
    for (int i = 0; i < 20; i++)
        a.outbox.push_back(mkMsg(i));
    a.tickLater();
    eng.run();

    // Despite B's two-slot buffer, every message must arrive exactly
    // once and in order (conservation under backpressure).
    ASSERT_EQ(b.received.size(), 20u);
    for (int i = 0; i < 20; i++)
        EXPECT_EQ(b.received[i], i);
    EXPECT_GT(a.in->totalSendRejections(), 0u);
}

TEST(PortConnection, ReservationPreventsOverflow)
{
    // Even with zero drain, in-flight messages must never overflow the
    // destination buffer (capacity is reserved at send time).
    Engine eng;
    Node a(&eng, "A", 4), b(&eng, "B", 3);
    DirectConnection conn(&eng, "Conn", 100 * kNanosecond);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    a.target = b.in;
    b.drainPerTick = 0;
    for (int i = 0; i < 10; i++)
        a.outbox.push_back(mkMsg(i));
    a.tickLater();
    eng.run();
    EXPECT_EQ(b.in->buf().size(), 3u);
    EXPECT_EQ(a.sent, 3);
}

TEST(PortConnection, SendWithoutConnectionThrows)
{
    Engine eng;
    Node a(&eng, "A", 4), b(&eng, "B", 4);
    MsgPtr m = mkMsg(1);
    m->dst = b.in;
    EXPECT_THROW(a.in->send(m), std::runtime_error);
}

TEST(PortConnection, SendWithoutDestinationThrows)
{
    Engine eng;
    Node a(&eng, "A", 4);
    DirectConnection conn(&eng, "Conn", 0);
    conn.plugIn(a.in);
    EXPECT_THROW(a.in->send(mkMsg(1)), std::runtime_error);
}

TEST(PortConnection, UnreachableDestinationThrows)
{
    Engine eng;
    Node a(&eng, "A", 4), b(&eng, "B", 4);
    DirectConnection c1(&eng, "C1", 0), c2(&eng, "C2", 0);
    c1.plugIn(a.in);
    c2.plugIn(b.in);
    MsgPtr m = mkMsg(1);
    m->dst = b.in;
    EXPECT_THROW(a.in->send(m), std::runtime_error);
}

TEST(Port, FailedSendRestoresSource)
{
    // A component that forwards a message it received must still see
    // the original src when a send fails and it re-peeks the message.
    Engine eng;
    Node a(&eng, "A", 4), b(&eng, "B", 1), c(&eng, "C", 1);
    DirectConnection conn(&eng, "Conn", 0);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    conn.plugIn(c.in);

    // Fill C's single slot so the next send is rejected.
    MsgPtr fill = mkMsg(0);
    fill->dst = c.in;
    ASSERT_EQ(a.in->send(fill), SendStatus::Ok);

    MsgPtr m = mkMsg(7);
    m->src = b.in; // Simulates "received from B".
    m->dst = c.in;
    EXPECT_EQ(a.in->send(m), SendStatus::Busy);
    EXPECT_EQ(m->src, b.in); // Restored, not clobbered to a.in.
}

namespace
{

/** A TestMsg that counts constructions and destructions. */
class CountedMsg : public TestMsg
{
  public:
    explicit CountedMsg(int v) : TestMsg(v) { made++; }
    ~CountedMsg() override { destroyed++; }

    static inline int made = 0;
    static inline int destroyed = 0;
};

/**
 * send -> deliver -> retrieve -> drop over @p conn: the message lives
 * while in flight and buffered, and is destroyed exactly once, when
 * the retrieved reference drops.
 */
void
expectDestroyedOnceAfterRetrieve(Engine &eng, Connection &conn)
{
    CountedMsg::made = CountedMsg::destroyed = 0;
    Node a(&eng, "A", 4), b(&eng, "B", 4);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    a.target = b.in;
    b.drainPerTick = 0; // Leave it buffered.
    a.outbox.push_back(makeMsg<CountedMsg>(5));
    a.tickLater();
    eng.run();
    ASSERT_EQ(a.sent, 1);
    ASSERT_EQ(b.in->buf().size(), 1u);
    EXPECT_EQ(CountedMsg::destroyed, 0); // The buffer holds it.

    MsgPtr m = b.in->retrieveIncoming();
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(msgCast<TestMsg>(m)->value, 5);
    EXPECT_EQ(CountedMsg::destroyed, 0);
    m.reset();
    EXPECT_EQ(CountedMsg::made, 1);
    EXPECT_EQ(CountedMsg::destroyed, 1);
}

/**
 * A refused send takes no reference: the sender's pointer stays the
 * only owner, so dropping it destroys the message at once.
 */
void
expectRefusedSendKeepsSenderReference(Engine &eng, Connection &conn)
{
    CountedMsg::made = CountedMsg::destroyed = 0;
    Node a(&eng, "A", 4), b(&eng, "B", 1);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    auto fill = makeMsg<CountedMsg>(1);
    fill->dst = b.in;
    ASSERT_EQ(a.in->send(fill), SendStatus::Ok);
    fill.reset(); // The hop's reference keeps it alive.
    EXPECT_EQ(CountedMsg::destroyed, 0);

    auto refused = makeMsg<CountedMsg>(2);
    refused->dst = b.in;
    ASSERT_EQ(a.in->send(refused), SendStatus::Busy);
    EXPECT_EQ(CountedMsg::destroyed, 0);
    refused.reset();
    EXPECT_EQ(CountedMsg::destroyed, 1); // Only ours was holding it.

    b.drainPerTick = 1;
    eng.run();
    EXPECT_EQ(b.received, (std::vector<int>{1}));
    EXPECT_EQ(CountedMsg::made, 2);
    EXPECT_EQ(CountedMsg::destroyed, 2);
}

} // namespace

TEST(MsgLifetime, DestroyedOnceAfterRetrieveOverDirectConnection)
{
    Engine eng;
    DirectConnection conn(&eng, "Conn", kNanosecond);
    expectDestroyedOnceAfterRetrieve(eng, conn);
}

TEST(MsgLifetime, DestroyedOnceAfterRetrieveOverSwitchedNetwork)
{
    Engine eng;
    akita::net::SwitchedNetwork net(&eng, "Net", {});
    expectDestroyedOnceAfterRetrieve(eng, net);
}

TEST(MsgLifetime, RefusedSendKeepsSenderReferenceDirect)
{
    Engine eng;
    DirectConnection conn(&eng, "Conn", kNanosecond);
    expectRefusedSendKeepsSenderReference(eng, conn);
}

TEST(MsgLifetime, RefusedSendKeepsSenderReferenceSwitched)
{
    Engine eng;
    akita::net::SwitchedNetwork net(&eng, "Net", {});
    expectRefusedSendKeepsSenderReference(eng, net);
}

TEST(Ticking, SleepsWithoutWorkAndWakesOnDelivery)
{
    Engine eng;
    Node a(&eng, "A", 4), b(&eng, "B", 4);
    DirectConnection conn(&eng, "Conn", kNanosecond);
    conn.plugIn(a.in);
    conn.plugIn(b.in);
    a.target = b.in;
    a.tickLater();
    eng.run(); // A has nothing to do: ticks once, sleeps.
    EXPECT_TRUE(a.asleep());
    std::uint64_t ticksBefore = b.totalTicks();

    // Delivery wakes B.
    a.outbox.push_back(mkMsg(1));
    a.wake();
    eng.run();
    EXPECT_EQ(b.received.size(), 1u);
    EXPECT_GT(b.totalTicks(), ticksBefore);
}

TEST(Ticking, ProgressCountsTracked)
{
    Engine eng;
    Node a(&eng, "A", 4);
    a.tickLater();
    eng.run();
    EXPECT_EQ(a.totalTicks(), 1u);
    EXPECT_EQ(a.progressTicks(), 0u);
}

TEST(Ticking, ScheduleTickAtDeduplicatesSameCycle)
{
    Engine eng;

    class Counter : public TickingComponent
    {
      public:
        Counter(Engine *e)
            : TickingComponent(e, "Counter", Freq::ghz(1))
        {
        }

        bool
        tick() override
        {
            ticks++;
            return false;
        }

        int ticks = 0;
    } c(&eng);

    // Multiple schedules landing on the same cycle must tick once.
    c.scheduleTickAt(5000);
    c.scheduleTickAt(5000);
    c.scheduleTickAt(2000); // An earlier one is allowed in addition.
    eng.run();
    EXPECT_EQ(c.ticks, 2); // Once at 2000, once at 5000.
}

TEST(Component, PortAndBufferEnumeration)
{
    Engine eng;
    Node a(&eng, "GPU[0].X", 4);
    Buffer internal("GPU[0].X.Internal.Buf", 2);
    a.registerBuffer(&internal);

    EXPECT_EQ(a.port("In"), a.in);
    EXPECT_EQ(a.port("Nope"), nullptr);
    auto bufs = a.buffers();
    ASSERT_EQ(bufs.size(), 2u);
    EXPECT_EQ(bufs[0]->name(), "GPU[0].X.In.Buf");
    EXPECT_EQ(bufs[1]->name(), "GPU[0].X.Internal.Buf");
}

// ---- Slot claims and blocked senders (Port::claimSlot) ----

namespace
{

int
valueOf(const MsgPtr &m)
{
    return m == nullptr ? -1 : msgCast<TestMsg>(m)->value;
}

/** A component that logs its wakes by name instead of ticking. */
class WakeLogger : public Component
{
  public:
    WakeLogger(Engine *engine, const std::string &name,
               std::vector<std::string> *log)
        : Component(engine, name), log_(log)
    {
        out = addPort("Out", 1);
    }

    void wake() override { log_->push_back(name()); }

    SendStatus
    sendTo(Port *dst, int v)
    {
        MsgPtr m = mkMsg(v);
        m->dst = dst;
        return out->send(m);
    }

    Port *out = nullptr;

  private:
    std::vector<std::string> *log_;
};

} // namespace

TEST(PortClaim, ClaimedIsBufferedPlusInFlight)
{
    Engine eng;
    std::vector<std::string> log;
    WakeLogger a(&eng, "A", &log), b(&eng, "B", &log);
    Port *in = b.addPort("In", 4);
    DirectConnection conn(&eng, "Conn", kNanosecond);
    conn.plugIn(a.out);
    conn.plugIn(in);

    // Nothing ticks here, so every queued event is a delivery: the
    // queue length is the number of messages in flight.
    auto check = [&](std::size_t buffered, std::size_t inFlight) {
        EXPECT_EQ(in->buf().size(), buffered);
        EXPECT_EQ(eng.queueLength(), inFlight);
        EXPECT_EQ(in->claimed(), buffered + inFlight);
        EXPECT_EQ(conn.inFlight(), inFlight);
    };
    check(0, 0);
    for (int v = 1; v <= 3; v++)
        ASSERT_EQ(a.sendTo(in, v), SendStatus::Ok);
    check(0, 3);
    eng.run();
    check(3, 0);
    ASSERT_EQ(a.sendTo(in, 4), SendStatus::Ok);
    check(3, 1);
    // Three buffered plus one in flight fill the four slots.
    EXPECT_EQ(a.sendTo(in, 5), SendStatus::Busy);
    check(3, 1);
    EXPECT_EQ(valueOf(in->retrieveIncoming()), 1);
    check(2, 1);
    EXPECT_EQ(valueOf(in->retrieveIncomingMatching([](const Msg &m) {
                  return static_cast<const TestMsg &>(m).value == 3;
              })),
              3);
    check(1, 1);
    // A retrieve that finds nothing frees nothing.
    EXPECT_EQ(in->retrieveIncomingMatching([](const Msg &) {
        return false;
    }),
              nullptr);
    check(1, 1);
    eng.run();
    check(2, 0);
    EXPECT_EQ(valueOf(in->retrieveIncoming()), 2);
    EXPECT_EQ(valueOf(in->retrieveIncoming()), 4);
    EXPECT_EQ(in->retrieveIncoming(), nullptr);
    check(0, 0);
}

TEST(PortClaim, RepeatedBusySendsRegisterOnce)
{
    Engine eng;
    std::vector<std::string> log;
    WakeLogger a(&eng, "A", &log), c(&eng, "C", &log), b(&eng, "B", &log);
    Port *in = b.addPort("In", 1);
    DirectConnection conn(&eng, "Conn", kNanosecond);
    conn.plugIn(a.out);
    conn.plugIn(c.out);
    conn.plugIn(in);

    ASSERT_EQ(a.sendTo(in, 0), SendStatus::Ok);
    for (int i = 0; i < 5; i++)
        EXPECT_EQ(a.sendTo(in, 1), SendStatus::Busy);
    EXPECT_EQ(in->blockedSenders(), std::vector<Component *>{&a});
    for (int i = 0; i < 3; i++)
        EXPECT_EQ(c.sendTo(in, 2), SendStatus::Busy);
    // A retries after C registered: found in the list, not re-added.
    EXPECT_EQ(a.sendTo(in, 1), SendStatus::Busy);
    EXPECT_EQ(in->blockedSenders(), (std::vector<Component *>{&a, &c}));
    EXPECT_EQ(a.out->totalSendRejections(), 6u);
    EXPECT_TRUE(log.empty());
}

TEST(PortClaim, SenderListedOnTwoPortsRegistersOncePerPort)
{
    // A sender waiting on two full ports is listed once on each. A wake
    // of one port ends that listing only: the sender lists anew there
    // and stays listed, once, on the other.
    Engine eng;
    std::vector<std::string> log;
    WakeLogger a(&eng, "A", &log), c(&eng, "C", &log),
        b(&eng, "B", &log), d(&eng, "D", &log);
    Port *p1 = b.addPort("In", 1);
    Port *p2 = d.addPort("In", 1);
    DirectConnection conn(&eng, "Conn", kNanosecond);
    conn.plugIn(a.out);
    conn.plugIn(c.out);
    conn.plugIn(p1);
    conn.plugIn(p2);

    ASSERT_EQ(a.sendTo(p1, 0), SendStatus::Ok);
    ASSERT_EQ(a.sendTo(p2, 1), SendStatus::Ok);
    EXPECT_EQ(a.sendTo(p1, 2), SendStatus::Busy);
    EXPECT_EQ(c.sendTo(p1, 3), SendStatus::Busy);
    EXPECT_EQ(a.sendTo(p2, 4), SendStatus::Busy);
    // A is not P1's last waiter, so this retry checks its listing.
    EXPECT_EQ(a.sendTo(p1, 2), SendStatus::Busy);
    EXPECT_EQ(p1->blockedSenders(), (std::vector<Component *>{&a, &c}));
    EXPECT_EQ(p2->blockedSenders(), std::vector<Component *>{&a});
    eng.run();
    ASSERT_EQ(log, (std::vector<std::string>{"B", "D"}));

    // P1 frees a slot: A and C wake; A stays listed on P2.
    EXPECT_EQ(valueOf(p1->retrieveIncoming()), 0);
    EXPECT_EQ(log, (std::vector<std::string>{"B", "D", "A", "C"}));
    EXPECT_TRUE(p1->blockedSenders().empty());
    EXPECT_EQ(p2->blockedSenders(), std::vector<Component *>{&a});

    // C takes the slot; A's retry lists it on P1 again, once.
    ASSERT_EQ(c.sendTo(p1, 3), SendStatus::Ok);
    EXPECT_EQ(a.sendTo(p1, 2), SendStatus::Busy);
    EXPECT_EQ(c.sendTo(p2, 5), SendStatus::Busy);
    EXPECT_EQ(a.sendTo(p2, 4), SendStatus::Busy);
    EXPECT_EQ(c.sendTo(p1, 6), SendStatus::Busy);
    EXPECT_EQ(a.sendTo(p1, 2), SendStatus::Busy);
    EXPECT_EQ(p1->blockedSenders(), (std::vector<Component *>{&a, &c}));
    EXPECT_EQ(p2->blockedSenders(), (std::vector<Component *>{&a, &c}));

    // Each port wakes its own waiters, in registration order.
    eng.run();
    log.clear();
    EXPECT_EQ(valueOf(p2->retrieveIncoming()), 1);
    EXPECT_EQ(log, (std::vector<std::string>{"A", "C"}));
    EXPECT_TRUE(p2->blockedSenders().empty());
    EXPECT_EQ(p1->blockedSenders(), (std::vector<Component *>{&a, &c}));
    EXPECT_EQ(valueOf(p1->retrieveIncoming()), 3);
    EXPECT_EQ(log, (std::vector<std::string>{"A", "C", "A", "C"}));
    EXPECT_TRUE(p1->blockedSenders().empty());
}

TEST(PortClaim, WaitersWakeInInsertionOrder)
{
    Engine eng;
    std::vector<std::string> log;
    WakeLogger a(&eng, "A", &log), b(&eng, "B", &log),
        c(&eng, "C", &log), d(&eng, "D", &log);
    Port *in = d.addPort("In", 1);
    DirectConnection conn(&eng, "Conn", kNanosecond);
    for (WakeLogger *w : {&a, &b, &c})
        conn.plugIn(w->out);
    conn.plugIn(in);

    ASSERT_EQ(a.sendTo(in, 0), SendStatus::Ok);
    EXPECT_EQ(c.sendTo(in, 1), SendStatus::Busy);
    EXPECT_EQ(a.sendTo(in, 2), SendStatus::Busy);
    EXPECT_EQ(b.sendTo(in, 3), SendStatus::Busy);
    eng.run();
    // The delivery wakes the owner only.
    ASSERT_EQ(log, std::vector<std::string>{"D"});

    // The retrieve that frees the slot wakes the blocked senders,
    // oldest registration first, exactly once.
    EXPECT_EQ(valueOf(in->retrieveIncoming()), 0);
    EXPECT_EQ(log, (std::vector<std::string>{"D", "C", "A", "B"}));
    EXPECT_TRUE(in->blockedSenders().empty());
    ASSERT_EQ(b.sendTo(in, 3), SendStatus::Ok);
    eng.run();
    EXPECT_EQ(valueOf(in->retrieveIncoming()), 3);
    EXPECT_EQ(log,
              (std::vector<std::string>{"D", "C", "A", "B", "D"}));
}

TEST(PortClaim, BlockedSnapshotListsEveryPortsWaiters)
{
    // The hang analyzer's wait-for edges: one entry per blocked
    // (sender, destination) pair, each port's senders in registration
    // order, as the per-connection tables used to report them. Ports
    // are walked in plug-in order, on both connection types.
    auto run = [](Engine &eng, Connection &conn) {
        std::vector<std::string> log;
        WakeLogger s1(&eng, "S1", &log), s2(&eng, "S2", &log),
            s3(&eng, "S3", &log), sink(&eng, "Sink", &log);
        Port *d1 = sink.addPort("In1", 1);
        Port *d2 = sink.addPort("In2", 1);
        for (WakeLogger *w : {&s1, &s2, &s3})
            conn.plugIn(w->out);
        conn.plugIn(d1);
        conn.plugIn(d2);

        EXPECT_TRUE(conn.blockedSnapshot().empty());
        EXPECT_EQ(s1.sendTo(d1, 0), SendStatus::Ok);
        EXPECT_EQ(s1.sendTo(d2, 0), SendStatus::Ok);
        EXPECT_EQ(s3.sendTo(d2, 1), SendStatus::Busy);
        EXPECT_EQ(s2.sendTo(d1, 2), SendStatus::Busy);
        EXPECT_EQ(s1.sendTo(d2, 3), SendStatus::Busy);

        std::vector<std::pair<Port *, Component *>> got;
        for (const Connection::BlockedSender &bs : conn.blockedSnapshot())
            got.emplace_back(bs.dst, bs.sender);
        EXPECT_EQ(got, (std::vector<std::pair<Port *, Component *>>{
                           {d1, &s2}, {d2, &s3}, {d2, &s1}}));
        eng.run();
        EXPECT_NE(d2->retrieveIncoming(), nullptr);
        ASSERT_EQ(conn.blockedSnapshot().size(), 1u);
        EXPECT_EQ(conn.blockedSnapshot()[0].sender, &s2);
        EXPECT_EQ(log, (std::vector<std::string>{"Sink", "Sink", "S3",
                                                 "S1"}));
    };
    Engine e1;
    DirectConnection direct(&e1, "Conn", kNanosecond);
    run(e1, direct);
    Engine e2;
    akita::net::SwitchedNetwork net(&e2, "Net", {});
    run(e2, net);
}

TEST(PortClaim, HerdOnOneSlotKeepsDeliveryOrderAndTimes)
{
    // Eight senders blocked on a one-slot port drained once a cycle:
    // every retrieve wakes the whole herd, the first woken sender takes
    // the slot and the rest find it refilled. Order and times are
    // pinned from the engine that ran every one of those ticks.
    Engine eng;
    DirectConnection conn(&eng, "Conn", kNanosecond);
    Node sink(&eng, "Sink", 1);
    conn.plugIn(sink.in);
    sink.drainPerTick = 1;
    std::vector<std::unique_ptr<Node>> senders;
    for (int s = 0; s < 8; s++) {
        auto n = std::make_unique<Node>(&eng, "S" + std::to_string(s), 1);
        conn.plugIn(n->in);
        n->target = sink.in;
        for (int i = 0; i < 3; i++)
            n->outbox.push_back(mkMsg(s * 10 + i));
        n->tickLater();
        senders.push_back(std::move(n));
    }
    eng.run();

    const std::vector<int> order{0,  1,  2,  10, 11, 12, 20, 21,
                                 22, 30, 31, 32, 40, 41, 42, 50,
                                 51, 52, 60, 61, 62, 70, 71, 72};
    EXPECT_EQ(sink.received, order);
    std::vector<VTime> at;
    for (VTime ns = 3; ns <= 72; ns += 3)
        at.push_back(ns * kNanosecond);
    EXPECT_EQ(sink.receivedAt, at);
    EXPECT_EQ(eng.eventCount(), 204u);
    EXPECT_EQ(eng.now(), 73 * kNanosecond);

    // The refilled-slot wakes were dispatched but skipped their body.
    std::uint64_t skipped = 0;
    for (const auto &n : senders)
        skipped += n->skippedTicks();
    EXPECT_GT(skipped, 0u);
}

struct FanParams
{
    std::size_t senders;
    std::size_t bufCap;
    int msgsPerSender;
};

class FanInConservation : public ::testing::TestWithParam<FanParams>
{
};

TEST_P(FanInConservation, NoLossNoDuplication)
{
    // Property: under arbitrary fan-in contention, the receiver gets
    // exactly the multiset of sent messages.
    const FanParams p = GetParam();
    Engine eng;
    DirectConnection conn(&eng, "Conn", kNanosecond);

    Node sink(&eng, "Sink", p.bufCap);
    conn.plugIn(sink.in);
    sink.drainPerTick = 2;

    std::vector<std::unique_ptr<Node>> senders;
    for (std::size_t s = 0; s < p.senders; s++) {
        auto n = std::make_unique<Node>(
            &eng, "S" + std::to_string(s), 2);
        conn.plugIn(n->in);
        n->target = sink.in;
        for (int i = 0; i < p.msgsPerSender; i++)
            n->outbox.push_back(
                mkMsg(static_cast<int>(s) * 1000000 + i));
        n->tickLater();
        senders.push_back(std::move(n));
    }
    eng.run();

    ASSERT_EQ(sink.received.size(), p.senders * p.msgsPerSender);
    std::set<int> uniq(sink.received.begin(), sink.received.end());
    EXPECT_EQ(uniq.size(), sink.received.size()) << "duplicates";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FanInConservation,
    ::testing::Values(FanParams{1, 1, 50}, FanParams{2, 1, 40},
                      FanParams{4, 2, 30}, FanParams{8, 3, 25},
                      FanParams{16, 1, 10}, FanParams{3, 16, 100}));
