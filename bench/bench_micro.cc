/**
 * @file
 * google-benchmark microbenchmarks for the substrate hot paths: event
 * scheduling (with and without the monitor's concurrency mode), buffer
 * operations, JSON round trips, component serialization, and profiler
 * scope overhead — the costs behind Fig. 7's overhead story.
 */

#include <benchmark/benchmark.h>

#include <unordered_map>

#include "json/json.hh"
#include "rtm/serialize.hh"
#include "sim/sim.hh"

using namespace akita;

namespace
{

/**
 * Pre-interned handler label for the scheduling hot loops: the id is
 * resolved once here, so the measured loop pays a 32-bit copy instead
 * of a hash-map intern per event (the satellite fast path of ISSUE 5).
 */
const sim::NameRef kChainName("c");

void
BM_EventQueuePushPop(benchmark::State &state)
{
    sim::EventQueue q;
    class Nop : public sim::EventHandler
    {
      public:
        void handle(sim::Event &) override {}
    } nop;

    std::uint64_t t = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; i++)
            q.push(std::make_unique<sim::Event>(t + (i * 37) % 64, &nop));
        while (!q.empty())
            benchmark::DoNotOptimize(q.pop());
        t += 64;
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPop);

void
runEngineThroughput(benchmark::State &state, bool concurrent)
{
    for (auto _ : state) {
        sim::SerialEngine eng;
        eng.setConcurrentAccess(concurrent);
        std::uint64_t count = 0;
        std::function<void()> chain = [&]() {
            if (++count < 10000)
                eng.scheduleAt(eng.now() + 1, kChainName, chain);
        };
        eng.scheduleAt(0, kChainName, chain);
        eng.run();
        benchmark::DoNotOptimize(count);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}

void
BM_EngineThroughputSingleThread(benchmark::State &state)
{
    runEngineThroughput(state, false);
}
BENCHMARK(BM_EngineThroughputSingleThread);

void
BM_EngineThroughputConcurrentMode(benchmark::State &state)
{
    // The cost of the engine lock taken per event once a monitor
    // attaches (Fig. 7 scenario 2's intrinsic cost).
    runEngineThroughput(state, true);
}
BENCHMARK(BM_EngineThroughputConcurrentMode);

void
BM_EngineLockBatchSweep(benchmark::State &state)
{
    // Design-parameter ablation: events per lock acquisition. Batch 1
    // is the naive lock-per-event design; the default is 256.
    const int batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::SerialEngine eng;
        eng.setConcurrentAccess(true);
        eng.setLockBatch(batch);
        std::uint64_t count = 0;
        std::function<void()> chain = [&]() {
            if (++count < 10000)
                eng.scheduleAt(eng.now() + 1, kChainName, chain);
        };
        eng.scheduleAt(0, kChainName, chain);
        eng.run();
        benchmark::DoNotOptimize(count);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EngineLockBatchSweep)->Arg(1)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

namespace
{

/** Self-rescheduling spin chain as a named handler, so it can be
 * routed to a specific domain with assignHandler(). */
class SpinChain : public sim::EventHandler
{
  public:
    explicit SpinChain(sim::Engine *eng) : eng_(eng) {}

    void
    handle(sim::Event &ev) override
    {
        volatile std::uint64_t h = 0;
        for (int j = 0; j < 200; j++)
            h = h * 31 + static_cast<std::uint64_t>(j);
        if (++fired < limit) {
            eng_->schedule(
                std::make_unique<sim::Event>(ev.time() + 1, this));
        }
    }

    int fired = 0;
    int limit = 0;

  private:
    sim::Engine *eng_;
};

} // namespace

void
BM_DomainEngineSingleChain(benchmark::State &state)
{
    // One chain in one domain: the conservative engine's sequential
    // fast path (no cross-domain edges, safe window unbounded).
    // Compare against BM_EngineThroughputSingleThread for the cost of
    // the domain bookkeeping.
    sim::DomainEngine eng(1);
    SpinChain chain(&eng);
    for (auto _ : state) {
        chain.fired = 0;
        chain.limit = 10000;
        eng.schedule(
            std::make_unique<sim::Event>(eng.now() + 1, &chain));
        eng.run();
        benchmark::DoNotOptimize(chain.fired);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_DomainEngineSingleChain);

void
BM_DomainEngineFanout(benchmark::State &state)
{
    // Eight independent chains spread round-robin over N domains.
    // With no cross-domain edges every domain free-runs its whole
    // queue — the embarrassingly-parallel upper bound for the
    // conservative engine (needs real cores to show speedup; on one
    // core it bounds the synchronization overhead).
    const int domains = static_cast<int>(state.range(0));
    constexpr int kChains = 8;
    constexpr int kFires = 500;
    sim::DomainEngine eng(domains);
    std::vector<std::unique_ptr<SpinChain>> chains;
    for (int i = 0; i < kChains; i++) {
        chains.push_back(std::make_unique<SpinChain>(&eng));
        eng.assignHandler(chains.back().get(), i % domains);
    }
    for (auto _ : state) {
        sim::VTime start = eng.now() + 1;
        for (auto &c : chains) {
            c->fired = 0;
            c->limit = kFires;
            eng.schedule(
                std::make_unique<sim::Event>(start, c.get()));
        }
        eng.run();
        benchmark::DoNotOptimize(chains[0]->fired);
    }
    state.SetItemsProcessed(state.iterations() * kChains * kFires);
}
BENCHMARK(BM_DomainEngineFanout)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

namespace
{

/** Token with a hop budget for the mailbox micro-cells. */
class BounceMsg : public sim::Msg
{
  public:
    static constexpr sim::MsgKind kKind = sim::MsgKind::TestA;

    explicit BounceMsg(int ttl) : Msg(kKind), ttl(ttl) {}

    const char *kind() const override { return "BounceMsg"; }

    int ttl;
};

/** Forwards every received token to `next` until its ttl dies; no
 * handler work, so the cell prices pure cross-domain delivery. */
class BounceNode : public sim::TickingComponent
{
  public:
    BounceNode(sim::Engine *eng, const std::string &name)
        : TickingComponent(eng, name, sim::Freq::ghz(1))
    {
        in = addPort("In", 64);
        out = addPort("Out", 64);
    }

    bool
    tick() override
    {
        bool progress = false;
        while (!outbox.empty()) {
            sim::MsgPtr m = outbox.front();
            m->dst = next;
            if (out->send(m) != sim::SendStatus::Ok)
                break;
            outbox.erase(outbox.begin());
            progress = true;
        }
        for (;;) {
            sim::MsgPtr m = in->retrieveIncoming();
            if (m == nullptr)
                break;
            hops++;
            auto bm = sim::msgCast<BounceMsg>(m);
            if (--bm->ttl > 0)
                outbox.push_back(m);
            progress = true;
        }
        return progress;
    }

    sim::Port *in = nullptr;
    sim::Port *out = nullptr;
    sim::Port *next = nullptr;
    std::vector<sim::MsgPtr> outbox;
    std::uint64_t hops = 0;
};

} // namespace

void
BM_DomainEngineMailboxPingPong(benchmark::State &state)
{
    // Two domains joined by a long-latency wire pair with K tokens
    // bouncing between them: every hop is one cross-domain delivery,
    // steady-state on the SPSC ring fast path. items/sec is the
    // mailbox hop rate; the fast/slow counters pin the path split.
    constexpr int kTokens = 8;
    constexpr int kTtl = 200;
    sim::DomainEngine eng(2);
    BounceNode a(&eng, "PingA");
    BounceNode b(&eng, "PingB");
    eng.pinComponent(&a, 0);
    eng.pinComponent(&b, 1);
    sim::DirectConnection w0(&eng, "PingWire0",
                             500 * sim::kNanosecond);
    sim::DirectConnection w1(&eng, "PingWire1",
                             500 * sim::kNanosecond);
    w0.plugIn(a.out);
    w0.plugIn(b.in);
    w1.plugIn(b.out);
    w1.plugIn(a.in);
    a.next = b.in;
    b.next = a.in;
    for (auto _ : state) {
        for (int t = 0; t < kTokens; t++)
            a.outbox.push_back(sim::makeMsg<BounceMsg>(kTtl));
        a.tickLater();
        eng.run();
        benchmark::DoNotOptimize(a.hops);
    }
    state.SetItemsProcessed(state.iterations() * kTokens * kTtl);
    state.counters["fast"] = benchmark::Counter(
        static_cast<double>(eng.mailboxFastTotal()));
    state.counters["slow"] = benchmark::Counter(
        static_cast<double>(eng.mailboxSlowTotal()));
}
BENCHMARK(BM_DomainEngineMailboxPingPong);

void
BM_DomainEngineMailboxStorm(benchmark::State &state)
{
    // One node per domain, every token forwarded to the next domain
    // around the full circle of N: all workers produce and consume
    // cross-domain traffic at once, so ring drains, horizon wakes,
    // and the safe-window scan are all contended.
    const int domains = static_cast<int>(state.range(0));
    constexpr int kTokens = 8;
    constexpr int kTtl = 100;
    sim::DomainEngine eng(domains);
    std::vector<std::unique_ptr<BounceNode>> nodes;
    std::vector<std::unique_ptr<sim::DirectConnection>> wires;
    for (int i = 0; i < domains; i++) {
        nodes.push_back(std::make_unique<BounceNode>(
            &eng, "Storm" + std::to_string(i)));
        eng.pinComponent(nodes.back().get(), i);
    }
    for (int i = 0; i < domains; i++) {
        int j = (i + 1) % domains;
        wires.push_back(std::make_unique<sim::DirectConnection>(
            &eng, "StormWire" + std::to_string(i),
            500 * sim::kNanosecond));
        wires.back()->plugIn(nodes[static_cast<std::size_t>(i)]->out);
        wires.back()->plugIn(nodes[static_cast<std::size_t>(j)]->in);
        nodes[static_cast<std::size_t>(i)]->next =
            nodes[static_cast<std::size_t>(j)]->in;
    }
    for (auto _ : state) {
        for (auto &n : nodes) {
            for (int t = 0; t < kTokens; t++)
                n->outbox.push_back(sim::makeMsg<BounceMsg>(kTtl));
            n->tickLater();
        }
        eng.run();
        benchmark::DoNotOptimize(nodes[0]->hops);
    }
    state.SetItemsProcessed(state.iterations() * domains * kTokens *
                            kTtl);
    state.counters["fast"] = benchmark::Counter(
        static_cast<double>(eng.mailboxFastTotal()));
    state.counters["slow"] = benchmark::Counter(
        static_cast<double>(eng.mailboxSlowTotal()));
}
BENCHMARK(BM_DomainEngineMailboxStorm)->Arg(2)->Arg(4);

void
BM_BufferPushPop(benchmark::State &state)
{
    sim::Buffer buf("b", 64);
    auto msg = sim::makeMsg<sim::Msg>();
    for (auto _ : state) {
        for (int i = 0; i < 32; i++)
            buf.push(msg);
        for (int i = 0; i < 32; i++)
            benchmark::DoNotOptimize(buf.pop());
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_BufferPushPop);

void
BM_JsonDump(benchmark::State &state)
{
    json::Json obj = json::Json::object();
    for (int i = 0; i < 20; i++) {
        json::Json f = json::Json::object();
        f.set("name", "field" + std::to_string(i));
        f.set("value", i * 1000);
        obj.set("k" + std::to_string(i), std::move(f));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(obj.dump());
}
BENCHMARK(BM_JsonDump);

void
BM_JsonParse(benchmark::State &state)
{
    json::Json obj = json::Json::object();
    for (int i = 0; i < 20; i++)
        obj.set("k" + std::to_string(i), i);
    std::string text = obj.dump();
    for (auto _ : state)
        benchmark::DoNotOptimize(json::Json::parse(text));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_JsonParse);

void
BM_SerializeComponent(benchmark::State &state)
{
    // The per-request cost of the monitor's fine-grained snapshot.
    sim::SerialEngine eng;
    class Comp : public sim::Component
    {
      public:
        explicit Comp(sim::Engine *e) : Component(e, "GPU[0].X")
        {
            addPort("TopPort", 8);
            addPort("BottomPort", 8);
            for (int i = 0; i < 8; i++) {
                declareField("field" + std::to_string(i), [i]() {
                    return introspect::Value::ofInt(i);
                });
            }
        }
    } comp(&eng);

    for (auto _ : state) {
        std::string body;
        json::Writer w(body);
        rtm::writeComponent(w, comp);
        benchmark::DoNotOptimize(body.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_SerializeComponent);

void
BM_ProfScopeDisabled(benchmark::State &state)
{
    sim::Profiler::instance().setEnabled(false);
    for (auto _ : state) {
        sim::ProfScope scope("bench");
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_ProfScopeDisabled);

void
BM_ProfScopeEnabled(benchmark::State &state)
{
    // String path: pays a global-table intern (shared lock + hash) per
    // scope. Kept for ad-hoc scopes; hot paths use the interned id.
    sim::Profiler::instance().setEnabled(true);
    for (auto _ : state) {
        sim::ProfScope scope("bench");
        benchmark::ClobberMemory();
    }
    sim::Profiler::instance().setEnabled(false);
}
BENCHMARK(BM_ProfScopeEnabled);

void
BM_ProfScopeEnabledInterned(benchmark::State &state)
{
    // Id path, what both engines use per event: no string build, no
    // table lookup — an array-indexed frame push/pop.
    sim::Profiler::instance().setEnabled(true);
    const sim::NameRef name("bench");
    for (auto _ : state) {
        sim::ProfScope scope(name);
        benchmark::ClobberMemory();
    }
    sim::Profiler::instance().setEnabled(false);
}
BENCHMARK(BM_ProfScopeEnabledInterned);

void
BM_PortSendDeliver(benchmark::State &state)
{
    sim::SerialEngine eng;
    class Sink : public sim::Component
    {
      public:
        explicit Sink(sim::Engine *e) : Component(e, "Sink")
        {
            in = addPort("In", 1024);
        }
        sim::Port *in;
    } src(&eng), dst(&eng);

    sim::DirectConnection conn(&eng, "Conn", 0);
    conn.plugIn(src.in);
    conn.plugIn(dst.in);

    for (auto _ : state) {
        for (int i = 0; i < 64; i++) {
            auto m = sim::makeMsg<sim::Msg>();
            m->dst = dst.in;
            src.in->send(m);
        }
        eng.run();
        while (dst.in->retrieveIncoming() != nullptr) {
        }
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PortSendDeliver);

void
BM_PortSendBusy(benchmark::State &state)
{
    // A send rejected by a full port whose sender is already registered
    // for a wake: the common case on the GPU platform, where most sends
    // are retries against a full buffer.
    sim::SerialEngine eng;
    sim::Component a(&eng, "A"), b(&eng, "B");
    sim::Port *out = a.addPort("Out", 1);
    sim::Port *in = b.addPort("In", 1);
    sim::DirectConnection conn(&eng, "Conn", 1);
    conn.plugIn(out);
    conn.plugIn(in);
    auto fill = sim::makeMsg<sim::Msg>();
    fill->dst = in;
    out->send(fill);
    auto msg = sim::makeMsg<sim::Msg>();
    msg->dst = in;
    for (auto _ : state)
        benchmark::DoNotOptimize(out->send(msg));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PortSendBusy);

/** A sender that keeps one message ready and retries it each tick. */
class HerdSender : public sim::TickingComponent
{
  public:
    HerdSender(sim::Engine *e, const std::string &name, sim::Port *dst)
        : TickingComponent(e, name, sim::Freq::ghz(1)), dst_(dst)
    {
        out = addPort("Out", 1);
    }

    bool
    tick() override
    {
        bool progress = false;
        while (pending > 0) {
            if (next_ == nullptr) {
                next_ = sim::makeMsg<sim::Msg>();
                next_->dst = dst_;
            }
            if (out->send(next_) != sim::SendStatus::Ok)
                break;
            next_ = nullptr;
            pending--;
            progress = true;
        }
        return progress;
    }

    sim::Port *out;
    int pending = 0;

  private:
    sim::Port *dst_;
    sim::MsgPtr next_;
};

/** Retrieves one message per cycle. */
class HerdSink : public sim::TickingComponent
{
  public:
    explicit HerdSink(sim::Engine *e)
        : TickingComponent(e, "Sink", sim::Freq::ghz(1))
    {
        in = addPort("In", 4);
    }

    bool tick() override { return in->retrieveIncoming() != nullptr; }

    sim::Port *in;
};

void
BM_PortReleaseHerd(benchmark::State &state)
{
    // Sixteen senders blocked on a four-slot port drained once a
    // cycle: every retrieve wakes the whole herd, and all but the
    // first woken sender find the slot refilled.
    sim::SerialEngine eng;
    HerdSink sink(&eng);
    sim::DirectConnection conn(&eng, "Conn", sim::kNanosecond);
    conn.plugIn(sink.in);
    std::vector<std::unique_ptr<HerdSender>> senders;
    for (int i = 0; i < 16; i++) {
        senders.push_back(std::make_unique<HerdSender>(
            &eng, "S" + std::to_string(i), sink.in));
        conn.plugIn(senders.back()->out);
    }
    constexpr int kPerSender = 8;
    for (auto _ : state) {
        for (auto &s : senders) {
            s->pending = kPerSender;
            s->tickLater();
        }
        benchmark::DoNotOptimize(eng.run());
    }
    state.SetItemsProcessed(state.iterations() * 16 * kPerSender);
}
BENCHMARK(BM_PortReleaseHerd);

void
BM_EventQueueCycleAligned(benchmark::State &state)
{
    // The GPU platform's queue shape: a few dozen components each pop
    // their tick and push the next cycle's, so every timestamp holds a
    // cohort and every push lands in the bucket the previous one used.
    sim::EventQueue q;
    class Nop : public sim::EventHandler
    {
      public:
        void handle(sim::Event &) override {}
    } nop;
    constexpr sim::VTime kCycle = 1000;
    for (int i = 0; i < 32; i++)
        q.push(std::make_unique<sim::Event>(kCycle, &nop));
    for (auto _ : state) {
        sim::EventPtr ev = q.pop();
        benchmark::DoNotOptimize(ev.get());
        q.push(std::make_unique<sim::Event>(ev->time() + kCycle, &nop));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCycleAligned);

void
BM_PortForwardHop(benchmark::State &state)
{
    // The forwarding pattern of every memory component: borrow the head
    // of a port, send it on, retrieve it. 64 messages bounce between
    // two ports; one item is one hop, delivery event included.
    sim::SerialEngine eng;
    sim::Component a(&eng, "A"), b(&eng, "B");
    sim::Port *pa = a.addPort("P", 128);
    sim::Port *pb = b.addPort("P", 128);
    sim::DirectConnection conn(&eng, "Conn", 0);
    conn.plugIn(pa);
    conn.plugIn(pb);
    for (int i = 0; i < 64; i++) {
        auto m = sim::makeMsg<sim::Msg>();
        m->dst = pb;
        pa->send(m);
    }
    eng.run();
    auto forward = [](sim::Port *from, sim::Port *to) {
        while (const sim::MsgPtr &m = from->peekIncoming()) {
            m->dst = to;
            from->send(m);
            from->retrieveIncoming();
        }
    };
    for (auto _ : state) {
        forward(pb, pa);
        eng.run();
        forward(pa, pb);
        eng.run();
    }
    state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_PortForwardHop);

/**
 * The in-flight table pattern (ROB, translator, caches, RDMA): a
 * window of Arg live request ids; each step inserts the next id, looks
 * up and erases the oldest one.
 */
template <typename Map, typename Find>
void
idChurn(benchmark::State &state, Map &m, Find find)
{
    const auto window = static_cast<std::uint64_t>(state.range(0));
    std::uint64_t next = 0;
    for (; next < window; next++)
        m[next] = next;
    for (auto _ : state) {
        m[next] = next;
        std::uint64_t old = next - window;
        benchmark::DoNotOptimize(find(m, old));
        m.erase(old);
        next++;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_IdMapChurn(benchmark::State &state)
{
    sim::IdMap<std::uint64_t> m;
    idChurn(state, m, [](auto &t, std::uint64_t k) { return t.find(k); });
}
BENCHMARK(BM_IdMapChurn)->Arg(16)->Arg(256)->Arg(4096);

void
BM_UnorderedMapChurn(benchmark::State &state)
{
    // Baseline for BM_IdMapChurn: the table the id maps replaced.
    std::unordered_map<std::uint64_t, std::uint64_t> m;
    idChurn(state, m, [](auto &t, std::uint64_t k) {
        return t.find(k) != t.end();
    });
}
BENCHMARK(BM_UnorderedMapChurn)->Arg(16)->Arg(256)->Arg(4096);

} // namespace

BENCHMARK_MAIN();
