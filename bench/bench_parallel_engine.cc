/**
 * @file
 * Head-to-head engine benchmark: SerialEngine vs DomainEngine, swept
 * over 1/2/4/8 domains. Scenarios:
 *
 *   - compute: K co-timed handler chains each burning deterministic
 *     CPU work per event. Parallel speedup here requires real cores;
 *     on a single-core host the sweep documents the coordination
 *     overhead instead. The chains are independent, so the domain
 *     engine free-runs them with no synchronization at all.
 *   - latency_bound: K co-timed handlers each blocking ~200 us per
 *     event (stand-in for co-simulation / external-process stalls,
 *     where the handler waits rather than computes). Worker overlap
 *     wins even on one core because the blocked time is concurrent.
 *   - ring_lookahead: K ticking components in a ring joined by
 *     long-latency connections (500 ns wires, 1 GHz cores), spinning
 *     per forwarded message. The latency/period ratio gives the
 *     conservative engine a 500-cycle safe window per boundary: the
 *     domain engine synchronizes once per 500 cycles. This is the
 *     lookahead case the domain engine exists for.
 *   - mailbox_storm: all-to-all small-message traffic — every node
 *     sends a burst to every other node each round and starts the next
 *     round when the previous one fully arrived. No spin work: the
 *     cell is purely the cross-domain delivery path, so it prices the
 *     mailbox machinery (SPSC fast path vs. locked slow path) itself.
 *
 * Prints a JSON document (BENCH_parallel_engine.json) to stdout;
 * human-readable progress goes to stderr. AKITA_RUNS (default 3)
 * repetitions, minimum taken.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "json/json.hh"
#include "sim/sim.hh"

using namespace akita;

namespace
{

/** Deterministic CPU burn shared by all scenarios. */
inline std::uint64_t
spin(std::uint64_t seed, std::uint64_t iters)
{
    std::uint64_t h = 1469598103934665603ull ^ seed;
    for (std::uint64_t i = 0; i < iters; i++) {
        h ^= i;
        h *= 1099511628211ull;
    }
    return h;
}

/** A self-rescheduling handler: fires `limit` times at a fixed period,
 * doing `spinIters` of hash work and/or `sleepUs` of blocking per
 * event. All chains share the same period, so every step is a cohort
 * of K independent partitions. */
class ChainHandler : public sim::EventHandler
{
  public:
    ChainHandler(sim::Engine *eng, int limit, std::uint64_t spin_iters,
                 int sleep_us)
        : eng_(eng), limit_(limit), spinIters_(spin_iters),
          sleepUs_(sleep_us)
    {
    }

    void
    handle(sim::Event &ev) override
    {
        sink += spin(ev.time(), spinIters_);
        if (sleepUs_ > 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(sleepUs_));
        }
        if (++fired_ < limit_) {
            eng_->schedule(std::make_unique<sim::Event>(
                ev.time() + sim::kNanosecond, this));
        }
    }

    volatile std::uint64_t sink = 0;

  private:
    sim::Engine *eng_;
    int fired_ = 0;
    int limit_;
    std::uint64_t spinIters_;
    int sleepUs_;
};

struct Scenario
{
    const char *name;
    int chains;
    int fires;
    std::uint64_t spinIters;
    int sleepUs;
};

/** Which engine a sweep cell runs. */
enum class Kind
{
    Serial,
    Domain
};

std::unique_ptr<sim::Engine>
makeEngine(Kind kind, int width)
{
    if (kind == Kind::Serial)
        return std::make_unique<sim::SerialEngine>();
    return std::make_unique<sim::DomainEngine>(width);
}

double
runChains(Kind kind, int width, const Scenario &sc)
{
    std::unique_ptr<sim::Engine> eng = makeEngine(kind, width);
    std::vector<std::unique_ptr<ChainHandler>> handlers;
    handlers.reserve(static_cast<std::size_t>(sc.chains));
    sim::VTime start = sim::kNanosecond;
    for (int i = 0; i < sc.chains; i++) {
        handlers.push_back(std::make_unique<ChainHandler>(
            eng.get(), sc.fires, sc.spinIters, sc.sleepUs));
        if (kind == Kind::Domain) {
            static_cast<sim::DomainEngine *>(eng.get())->assignHandler(
                handlers.back().get(), i % width);
        }
        eng->schedule(
            std::make_unique<sim::Event>(start, handlers.back().get()));
    }
    bench::Stopwatch sw;
    eng->run();
    return sw.seconds();
}

/** Ring node: forwards received messages to the next node with spin
 * work per hop; each message dies after `ttl` hops. */
class HopMsg : public sim::Msg
{
  public:
    static constexpr sim::MsgKind kKind = sim::MsgKind::TestA;

    explicit HopMsg(int ttl) : Msg(kKind), ttl(ttl) {}

    const char *kind() const override { return "HopMsg"; }

    int ttl;
};

class RingNode : public sim::TickingComponent
{
  public:
    RingNode(sim::Engine *eng, const std::string &name,
             std::uint64_t spin_iters)
        : TickingComponent(eng, name, sim::Freq::ghz(1)),
          spinIters_(spin_iters)
    {
        in = addPort("In", 16);
        out = addPort("Out", 16);
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
            sink += spin(engine()->now(), spinIters_);
            auto hm = sim::msgCast<HopMsg>(m);
            if (--hm->ttl > 0)
                outbox.push_back(m);
            progress = true;
        }
        return progress;
    }

    sim::Port *in = nullptr;
    sim::Port *out = nullptr;
    sim::Port *next = nullptr;
    std::vector<sim::MsgPtr> outbox;
    volatile std::uint64_t sink = 0;

  private:
    std::uint64_t spinIters_;
};

struct RingScenario
{
    const char *name;
    int nodes;
    int msgsPerNode;
    int ttl;
    std::uint64_t spinIters;
    sim::VTime wireLatency;
};

double
runRing(Kind kind, int width, const RingScenario &sc)
{
    std::unique_ptr<sim::Engine> eng = makeEngine(kind, width);
    std::vector<std::unique_ptr<RingNode>> nodes;
    std::vector<std::unique_ptr<sim::DirectConnection>> wires;
    for (int i = 0; i < sc.nodes; i++) {
        nodes.push_back(std::make_unique<RingNode>(
            eng.get(), "Ring" + std::to_string(i), sc.spinIters));
        if (kind == Kind::Domain) {
            // Contiguous arcs of the ring per domain.
            static_cast<sim::DomainEngine *>(eng.get())->pinComponent(
                nodes.back().get(), i * width / sc.nodes);
        }
    }
    for (int i = 0; i < sc.nodes; i++) {
        int j = (i + 1) % sc.nodes;
        wires.push_back(std::make_unique<sim::DirectConnection>(
            eng.get(), "Wire" + std::to_string(i), sc.wireLatency));
        wires.back()->plugIn(nodes[static_cast<std::size_t>(i)]->out);
        wires.back()->plugIn(nodes[static_cast<std::size_t>(j)]->in);
        nodes[static_cast<std::size_t>(i)]->next =
            nodes[static_cast<std::size_t>(j)]->in;
    }
    for (auto &n : nodes) {
        for (int m = 0; m < sc.msgsPerNode; m++)
            n->outbox.push_back(sim::makeMsg<HopMsg>(sc.ttl));
        n->tickLater();
    }
    bench::Stopwatch sw;
    eng->run();
    return sw.seconds();
}

/** All-to-all exchanger: one burst to every peer per round, next round
 * gated on the previous one fully arriving. Messages die on receipt —
 * the scenario measures delivery plumbing, not handler work. */
class StormNode : public sim::TickingComponent
{
  public:
    StormNode(sim::Engine *eng, const std::string &name, int rounds,
              int msgs_per_peer)
        : TickingComponent(eng, name, sim::Freq::ghz(1)),
          roundsLeft_(rounds), msgsPerPeer_(msgs_per_peer)
    {
        in = addPort("In", 256);
        out = addPort("Out", 256);
    }

    bool
    tick() override
    {
        bool progress = false;
        if (outbox.empty() && roundsLeft_ > 0 &&
            received_ >= expected_) {
            roundsLeft_--;
            received_ = 0;
            expected_ =
                static_cast<int>(peers.size()) * msgsPerPeer_;
            for (sim::Port *p : peers) {
                for (int m = 0; m < msgsPerPeer_; m++) {
                    sim::MsgPtr msg = sim::makeMsg<HopMsg>(1);
                    msg->dst = p;
                    outbox.push_back(msg);
                }
            }
            progress = true;
        }
        while (!outbox.empty()) {
            if (out->send(outbox.front()) != sim::SendStatus::Ok)
                break;
            outbox.erase(outbox.begin());
            progress = true;
        }
        for (;;) {
            sim::MsgPtr m = in->retrieveIncoming();
            if (m == nullptr)
                break;
            received_++;
            progress = true;
        }
        return progress;
    }

    sim::Port *in = nullptr;
    sim::Port *out = nullptr;
    std::vector<sim::Port *> peers;
    std::vector<sim::MsgPtr> outbox;

  private:
    int roundsLeft_;
    int msgsPerPeer_;
    int received_ = 0;
    int expected_ = 0;
};

struct StormScenario
{
    const char *name;
    int nodes;
    int rounds;
    int msgsPerPeer;
    sim::VTime wireLatency;
};

struct StormResult
{
    double sec = 0;
    std::uint64_t mailFast = 0;
    std::uint64_t mailSlow = 0;
};

StormResult
runStorm(Kind kind, int width, const StormScenario &sc)
{
    std::unique_ptr<sim::Engine> eng = makeEngine(kind, width);
    std::vector<std::unique_ptr<StormNode>> nodes;
    for (int i = 0; i < sc.nodes; i++) {
        nodes.push_back(std::make_unique<StormNode>(
            eng.get(), "Storm" + std::to_string(i), sc.rounds,
            sc.msgsPerPeer));
        if (kind == Kind::Domain) {
            static_cast<sim::DomainEngine *>(eng.get())->pinComponent(
                nodes.back().get(), i * width / sc.nodes);
        }
    }
    // One shared bus: DirectConnection routes by msg->dst, so a single
    // connection carries the full bipartite traffic while still giving
    // the partitioner one (cross-cut) latency per edge.
    sim::DirectConnection bus(eng.get(), "StormBus", sc.wireLatency);
    for (auto &n : nodes) {
        bus.plugIn(n->out);
        bus.plugIn(n->in);
    }
    for (int i = 0; i < sc.nodes; i++) {
        for (int j = 0; j < sc.nodes; j++) {
            if (i != j)
                nodes[static_cast<std::size_t>(i)]->peers.push_back(
                    nodes[static_cast<std::size_t>(j)]->in);
        }
    }
    for (auto &n : nodes)
        n->tickLater();
    StormResult res;
    bench::Stopwatch sw;
    eng->run();
    res.sec = sw.seconds();
    if (kind == Kind::Domain) {
        auto *de = static_cast<sim::DomainEngine *>(eng.get());
        res.mailFast = de->mailboxFastTotal();
        res.mailSlow = de->mailboxSlowTotal();
    }
    return res;
}

template <typename F>
double
minOfRuns(int runs, F &&once)
{
    double best = 1e18;
    for (int r = 0; r < runs; r++)
        best = std::min(best, once());
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseCli(argc, argv);
    int runs = bench::envInt("AKITA_RUNS", 3);
    const int sweep[] = {1, 2, 4, 8};

    const Scenario scenarios[] = {
        {"compute", 16, 400, 4000, 0},
        {"latency_bound", 8, 50, 0, 200},
    };
    const RingScenario ring = {"ring_lookahead", 8,   4,
                               400,             2000, 500 * sim::kNanosecond};

    json::Json doc = json::Json::object();
    doc.set("bench", "parallel_engine");
    doc.set("host_cores",
            static_cast<std::int64_t>(
                std::thread::hardware_concurrency()));
    doc.set("runs_per_cell", runs);

    json::Json byScenario = json::Json::object();
    for (const Scenario &sc : scenarios) {
        std::fprintf(stderr, "%s: serial...\n", sc.name);
        double serial = minOfRuns(
            runs, [&]() { return runChains(Kind::Serial, 1, sc); });
        json::Json row = json::Json::object();
        row.set("chains", sc.chains);
        row.set("events", sc.chains * sc.fires);
        row.set("serial_sec", serial);
        double best = serial;
        json::Json cells = json::Json::object();
        for (int w : sweep) {
            std::fprintf(stderr, "%s: domain %d...\n", sc.name, w);
            double t = minOfRuns(runs, [&]() {
                return runChains(Kind::Domain, w, sc);
            });
            cells.set(std::to_string(w), t);
            best = std::min(best, t);
        }
        row.set("domain_sec", std::move(cells));
        row.set("best_speedup", serial / best);
        byScenario.set(sc.name, std::move(row));
    }

    {
        std::fprintf(stderr, "%s: serial...\n", ring.name);
        double serial = minOfRuns(
            runs, [&]() { return runRing(Kind::Serial, 1, ring); });
        json::Json row = json::Json::object();
        row.set("nodes", ring.nodes);
        row.set("hops", ring.nodes * ring.msgsPerNode * ring.ttl);
        row.set("wire_latency_ps",
                static_cast<std::int64_t>(ring.wireLatency));
        row.set("serial_sec", serial);
        double bestDomain = 1e18;
        json::Json cells = json::Json::object();
        for (int w : sweep) {
            std::fprintf(stderr, "%s: domain %d...\n", ring.name, w);
            double t = minOfRuns(runs, [&]() {
                return runRing(Kind::Domain, w, ring);
            });
            cells.set(std::to_string(w), t);
            bestDomain = std::min(bestDomain, t);
        }
        row.set("domain_sec", std::move(cells));
        row.set("best_speedup", serial / std::min(serial, bestDomain));
        row.set("domain_best_speedup", serial / bestDomain);
        byScenario.set(ring.name, std::move(row));
    }

    {
        const StormScenario storm = {"mailbox_storm", 8, 24, 2,
                                     500 * sim::kNanosecond};
        std::fprintf(stderr, "%s: serial...\n", storm.name);
        double serial = minOfRuns(runs, [&]() {
            return runStorm(Kind::Serial, 1, storm).sec;
        });
        json::Json row = json::Json::object();
        row.set("nodes", storm.nodes);
        row.set("rounds", storm.rounds);
        row.set("msgs", storm.nodes * (storm.nodes - 1) *
                            storm.msgsPerPeer * storm.rounds);
        row.set("wire_latency_ps",
                static_cast<std::int64_t>(storm.wireLatency));
        row.set("serial_sec", serial);
        double bestDomain = 1e18;
        std::uint64_t fast = 0, slow = 0;
        json::Json cells = json::Json::object();
        for (int w : sweep) {
            std::fprintf(stderr, "%s: domain %d...\n", storm.name, w);
            double t = 1e18;
            for (int r = 0; r < runs; r++) {
                StormResult sr = runStorm(Kind::Domain, w, storm);
                t = std::min(t, sr.sec);
                if (w == 8) {
                    fast = sr.mailFast;
                    slow = sr.mailSlow;
                }
            }
            cells.set(std::to_string(w), t);
            bestDomain = std::min(bestDomain, t);
        }
        row.set("domain_sec", std::move(cells));
        row.set("best_speedup", serial / std::min(serial, bestDomain));
        row.set("domain_best_speedup", serial / bestDomain);
        row.set("mailbox_fast_at_8",
                static_cast<std::int64_t>(fast));
        row.set("mailbox_slow_at_8",
                static_cast<std::int64_t>(slow));
        byScenario.set(storm.name, std::move(row));
    }

    doc.set("scenarios", std::move(byScenario));

    std::printf("%s\n", doc.dump(2).c_str());
    return 0;
}
