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
    // Tick entries: the queue mechanics alone (a tick's target is never
    // dereferenced by the queue).
    sim::EventQueue q;
    std::uint64_t t = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; i++)
            q.pushTick(t + (i * 37) % 64, nullptr);
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
        sim::Engine eng;
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
        sim::Engine eng;
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
    sim::Engine eng;
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
    sim::Engine eng;
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
    sim::Engine eng;
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
    sim::Engine eng;
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
    constexpr sim::VTime kCycle = 1000;
    for (int i = 0; i < 32; i++)
        q.pushTick(kCycle, nullptr);
    for (auto _ : state) {
        sim::EventQueue::Popped p = q.pop();
        benchmark::DoNotOptimize(p);
        q.pushTick(p.time + kCycle, p.entry.ticker());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCycleAligned);

void
BM_EventQueueGpuMix(benchmark::State &state)
{
    // The push distances of a bare im2col run on mcm4: of 1.04M pushes,
    // 64% are ticks one 1 GHz cycle ahead, 22% deliveries one cycle
    // ahead and 6% two cycles ahead, and the rest deadlines further
    // out. Each pop pushes one entry at the next distance of this
    // 25-step cycle, so a push often misses the last-pushed bucket and
    // the front walks the wheel through every turn, as it does there.
    static constexpr sim::VTime kMix[] = {
        1000, 1000, 2000, 1000, 1000, 1000, 7000,  1000, 1000,
        1000, 1000, 1000, 2000, 1000, 1000, 16000, 1000, 1000,
        1000, 1000, 1000, 1000, 1000, 1000, 1000};
    constexpr std::size_t kSteps = sizeof(kMix) / sizeof(kMix[0]);
    sim::EventQueue q;
    for (int i = 0; i < 64; i++)
        q.pushTick(kMix[i % kSteps], nullptr);
    std::size_t k = 0;
    for (auto _ : state) {
        sim::EventQueue::Popped p = q.pop();
        benchmark::DoNotOptimize(p);
        q.pushTick(p.time + kMix[k], nullptr);
        k = k + 1 == kSteps ? 0 : k + 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueGpuMix);

void
BM_PortForwardHop(benchmark::State &state)
{
    // The forwarding pattern of every memory component: borrow the head
    // of a port, send it on, retrieve it. 64 messages bounce between
    // two ports; one item is one hop, delivery event included.
    sim::Engine eng;
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
