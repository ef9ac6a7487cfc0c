/**
 * @file
 * Conservative parallel-discrete-event engine over latency domains.
 */

#ifndef AKITA_SIM_DOMAIN_ENGINE_HH
#define AKITA_SIM_DOMAIN_ENGINE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sim/domain.hh"
#include "sim/engine.hh"
#include "sim/spsc.hh"

namespace akita
{
namespace sim
{

/**
 * Conservative PDES engine: the component graph is partitioned into
 * domains (see domain.hh), each with its own event queue, clock, and
 * worker thread. A domain advances freely inside its *safe window* —
 * the minimum over incoming cross-domain edges of the source domain's
 * published horizon plus the edge's lookahead (its minimum connection
 * latency) — and synchronizes with other domains only when a message
 * actually crosses a boundary. There is no per-tick barrier: with long
 * inter-domain latencies, domains run thousands of events ahead of each
 * other (Chandy-Misra-Bryant, shared-memory style).
 *
 * Safety argument, in terms of the two per-domain times:
 *
 *  - clock: the time of the domain's last executed event. Handlers
 *    observe it as now().
 *  - horizon: a published promise — "this domain will emit no
 *    cross-domain message stamped below horizon + edge latency". While
 *    executing events at time h, horizon == clock == h and outputs are
 *    stamped >= h + connection latency. While idle or blocked, the
 *    worker raises horizon to min(queue head, own safe window, earliest
 *    mailbox stamp): no earlier output can exist, because any event it
 *    could still receive is itself bounded by the safe window. Horizons
 *    are monotone, so a reader's stale value is merely conservative.
 *
 *  - A worker computes its safe window (acquire-reads of upstream
 *    horizons) *before* draining its mailbox; senders enqueue to the
 *    mailbox *before* raising their horizon (release). A message can
 *    therefore never slip under an already-computed window.
 *
 * Cross-domain delivery is two-tier (DESIGN.md §15). The steady-state
 * fast path is a bounded SPSC ring per directed partition edge: the
 * source domain's worker pushes (release on the ring tail), the
 * destination's worker drains whole segments per safe-window
 * recomputation, and the enqueue-before-horizon-raise ordering above
 * carries over because the tail store is program-ordered before the
 * producer's next horizon release. The locked mailbox remains as the
 * slow path for external threads, edges without a ring, and full-ring
 * spills (per-edge FIFO is preserved across the spill by an epoch
 * handshake — see EdgeRing). Idle workers spin briefly and then park
 * on a per-domain channel; a horizon raise wakes only the domains whose
 * safe window actually moved.
 *
 * Cross-domain wakes (sleep/wake ticking, monitor Tick) are scheduled
 * from the waker's clock and may land below the destination's horizon;
 * they are floored up to it at mailbox drain — physically, backpressure
 * release travels with the wire latency of the connection it crosses.
 * Cross-domain *message deliveries* can never need flooring (their
 * stamp carries the connection latency); one arriving below the horizon
 * means a zero-lookahead cut and throws. run() rejects partitions with
 * zero-lookahead cross edges up front, naming the offending connection.
 *
 * Monitor contract: pause/resume/stop work as on the other engines;
 * withLock() acquires every domain's execution mutex in domain order,
 * yielding a causally-consistent cut at event boundaries; now() from an
 * external thread is, while running, the minimum published horizon (the
 * global virtual-time floor, monotone) and, between runs, the maximum
 * domain clock — the serial engine's "time of the last executed event",
 * so now() + x is a legal external schedule into every domain even
 * after a stopped run left the clocks unsynchronized. A globally
 * drained engine synchronizes all clocks to the maximum before
 * reporting "drained", so wait-when-empty revival behaves exactly like
 * the serial engine.
 *
 * With a single domain, the worker is the run() caller and pops events
 * one at a time from one queue: event order is bit-identical to
 * SerialEngine (enforced by test).
 *
 * The partition is computed once, from connection latencies, and never
 * changes: the topology (domain count, members, edges, rings) is
 * written in partitionOnce() before the partitioned_ release-store
 * and is immutable afterwards, so any reader that has acquired
 * partitioned_ needs no lock to read it.
 */
class DomainEngine : public Engine
{
  public:
    /** @param domains Target domain count; 0 = hardware concurrency. */
    explicit DomainEngine(int domains = 0);
    ~DomainEngine() override;

    void schedule(EventPtr event) override;
    VTime now() const override;
    RunResult run() override;
    void stop() override;

    std::uint64_t
    eventCount() const override
    {
        return totalEvents_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    scheduledCount() const override
    {
        std::uint64_t n =
            totalScheduled_.load(std::memory_order_relaxed);
        if (partitioned_.load(std::memory_order_acquire))
            for (const auto &d : doms_)
                n += d->sched.load(std::memory_order_relaxed);
        return n;
    }

    void setConcurrentAccess(bool on) override { concurrent_ = on; }

    bool concurrentAccess() const override { return concurrent_; }

    void setWaitWhenEmpty(bool on) override { waitWhenEmpty_ = on; }

    void pause() override;
    void resume() override;

    bool
    paused() const override
    {
        return paused_.load(std::memory_order_relaxed);
    }

    bool
    running() const override
    {
        return running_.load(std::memory_order_relaxed);
    }

    bool
    drainedWaiting() const override
    {
        return drainedWaiting_.load(std::memory_order_relaxed);
    }

    std::size_t queueLength() const override;

    void withLock(const std::function<void()> &fn) const override;

    void noteComponent(Component *c) override;
    void noteComponentDestroyed(Component *c) override;
    void noteConnection(Connection *c) override;
    void noteConnectionDestroyed(Connection *c) override;

    // ---- Partition surface ----

    /** Target domain count this engine was configured with. */
    int requestedDomains() const { return requested_; }

    /**
     * Pins @p c to domain @p d, overriding the partitioner (tests,
     * tuning experiments). Must be called before the partition is
     * computed; pins win over the mandatory zero-latency merge, and
     * run() then rejects the resulting zero-lookahead cut by name.
     */
    void pinComponent(Component *c, int d);

    /**
     * Routes events addressed to @p h — a handler that is not a
     * component, e.g. a bench workload — to domain @p d. Must be called
     * before the partition is computed.
     */
    void assignHandler(EventHandler *h, int d);

    /**
     * Computes the partition if not yet computed (idempotent,
     * thread-safe). Every component/connection must be registered by
     * the first call; the platform guarantees this by construction.
     */
    const DomainPartition &partition();

    /** Domains in the computed partition (computes it on first use). */
    int numDomains() { return static_cast<int>(partition().numDomains); }

    /** Component names per domain (computes the partition). */
    const std::vector<std::vector<std::string>> &domainMemberNames();

    /** One cross-domain edge of the current cut, with diagnostics. */
    struct EdgeInfo
    {
        int src = 0;
        int dst = 0;
        VTime lookahead = 0;
        std::string connection;
    };

    /** The partition's cross-domain edges, with diagnostics. */
    std::vector<EdgeInfo> edgeInfos();

    /**
     * Domain of @p c, or -1 when unknown. Components registered after
     * the partition was computed report domain 0.
     */
    int domainOfComponent(const Component *c) const;

    /** Thread-safe per-domain counters for metrics/RTM. */
    struct DomainStatus
    {
        VTime clock = 0;
        VTime horizon = 0;
        std::uint64_t events = 0;
        std::size_t queueLen = 0;
        /** Events sitting in this domain's in-rings (approximate). */
        std::size_t ringOccupancy = 0;
        /** Summed capacity of this domain's in-rings. */
        std::size_t ringCapacity = 0;
    };

    /** @p d must be < numDomains(). */
    DomainStatus domainStatus(int d) const;

    /** Events executed per safe-window batch (cf. SerialEngine). */
    void
    setBatch(int n)
    {
        batch_ = n < 1 ? 1 : n;
    }

    /**
     * Per-edge fast-path ring capacity (rounded up to a power of two).
     * Must be set before the partition is computed; a full ring spills
     * to the slow mailbox, so small rings only cost throughput, never
     * correctness. Tests use 1-2 slot rings to force the spill path.
     */
    void setRingCapacity(int n);

    /** Cross-domain events delivered through the SPSC fast path. */
    std::uint64_t
    mailboxFastTotal() const
    {
        std::uint64_t n = 0;
        if (partitioned_.load(std::memory_order_acquire))
            for (const auto &d : doms_)
                n += d->fastPushed.load(std::memory_order_relaxed);
        return n;
    }

    /**
     * Cross-domain events that took the locked slow path: external
     * threads, edges without a ring, and full-ring spills.
     */
    std::uint64_t
    mailboxSlowTotal() const
    {
        return mailSlow_.load(std::memory_order_relaxed);
    }

  private:
    static constexpr VTime kTimeMax = ~static_cast<VTime>(0);

    struct InEdge
    {
        std::size_t src = 0;
        VTime lookahead = 0;
    };

    /**
     * One domain's published horizon, isolated on its own cache line
     * in a flat array (horizons_). The safe-window min-scan is the
     * hottest cross-domain read; keeping it a linear pass over padded
     * atomics means it never bounces lines the owning worker is
     * concurrently writing (clock, qlen).
     */
    struct alignas(64) HorizonSlot
    {
        std::atomic<VTime> v{0};
    };

    /**
     * Fast-path state of one directed cross-domain edge: the SPSC
     * ring (producer = the source domain's worker, consumer = the
     * destination's) plus the spill-epoch counters that keep per-edge
     * FIFO exact across the ring/mailbox boundary. A full ring spills
     * to the slow mailbox; from then on the producer stays on the
     * slow path (spillIssued ahead of spillAck) until the consumer
     * has pushed every spilled event into its queue and acknowledged
     * — so ring traffic and mailbox traffic for one edge never
     * interleave, and same-timestamp FIFO survives the overflow.
     */
    struct EdgeRing
    {
        EdgeRing(std::size_t src_, VTime lookahead_, std::size_t cap)
            : src(src_), lookahead(lookahead_), ring(cap)
        {
        }

        std::size_t src;
        /** The edge's lookahead, for the producer's wake filter. */
        VTime lookahead;
        SpscRing<EventPtr> ring;
        /** Spills issued by the producer (written under mailMu). */
        std::atomic<std::uint64_t> spillIssued{0};
        /** Spills the consumer has drained into its queue. */
        std::atomic<std::uint64_t> spillAck{0};
        /** Consumer scratch: spillIssued as read at the last swap. */
        std::uint64_t spillSeen = 0;
    };

    /** One domain's runtime state, grouped by writer to keep the
     * producer-facing wake line and the slow-mailbox lock off the
     * worker's own hot line. */
    struct alignas(64) Dom
    {
        std::size_t id = 0;
        /** Worker-owned between barriers; never touched externally. */
        EventQueue queue;
        /** Time of the last executed event (handlers' now()). */
        std::atomic<VTime> clock{0};
        std::atomic<std::uint64_t> events{0};
        /** Events of the running batch not yet settled into pending_,
         * the executing one included (worker-only). */
        std::uint64_t inFlight = 0;
        /** Events scheduled by this worker (single-writer: load+store
         * instead of a locked RMW on a shared engine counter). */
        std::atomic<std::uint64_t> sched{0};
        /** Ring pushes issued by this worker (single-writer). */
        std::atomic<std::uint64_t> fastPushed{0};
        /** queue.size() mirror for external readers. */
        std::atomic<std::size_t> qlen{0};
        /** Incoming cross-domain edges (the safe-window scan). */
        std::vector<InEdge> in;
        /** In-rings, one per in-edge (same order as `in`). */
        std::vector<std::unique_ptr<EdgeRing>> inRings;
        /** Out-rings indexed by destination domain; null = no edge. */
        std::vector<EdgeRing *> outRing;
        /** Domains whose safe window reads our horizon (targets of
         * the horizon-raise wake). */
        std::vector<std::size_t> outNbr;
        /** Consumer scratch for mailbox swaps (steady-state no-alloc). */
        std::vector<EventPtr> drainScratch;

        /** Spin-then-park wake channel, written by producers: a
         * horizon raise or enqueue bumps the generation and notifies
         * only when the owning worker is actually parked. */
        alignas(64) std::atomic<std::uint64_t> wakeGen{0};
        std::atomic<bool> parkedFlag{false};
        std::mutex parkMu;
        std::condition_variable parkCv;

        /** Guards mail/mailMin/spillIssued; leaf lock (slow path). */
        alignas(64) std::mutex mailMu;
        std::vector<EventPtr> mail;
        /** Earliest stamp in mail (kTimeMax when empty). */
        VTime mailMin = kTimeMax;
        std::atomic<std::size_t> mailCount{0};
        /** Held while executing a batch; withLock takes all in order. */
        mutable std::mutex execMu;
    };

    Dom *routeOf(const Event &ev);
    Dom *lookupDom(const Event &ev) const;
    void enqueueRemote(Dom &d, EventPtr ev, bool countScheduled,
                       EdgeRing *spill = nullptr);
    void drainMail(Dom &d);
    /** Creates the per-edge rings from the in-edge lists. */
    void buildRings();
    /** Bumps @p d's wake generation; notifies only if parked. */
    void wakeDom(Dom &d);
    /** Wakes the domains whose safe window reads @p d's horizon. */
    void wakeNeighbors(Dom &d);
    void wakeAllDoms();
    /** Spin-then-park until the wake generation moves past @p wgen
     * or a global signal (stop/pause/exit/drain) fires. */
    void idleWait(Dom &d, std::uint64_t wgen);
    VTime safeWindow(const Dom &d) const;
    void publishIdleHorizon(Dom &d, VTime bound);
    void executeBatch(Dom &d, VTime bound);
    void executeEvent(Dom &d, Event &ev);
    void workerLoop(Dom &d, bool coordinator);
    /** Coordinator-side drained handling; true = leave the run loop. */
    bool coordinateDrain(Dom &d);
    void parkWhileDrained();
    void recordError();
    void bumpProgress();
    void partitionOnce();

    int requested_;
    int batch_ = 256;

    // Registration (guarded by setupMu_ until partitioned). Recursive
    // so a pre-partition withLock() body can schedule(); the partition
    // flip happens under this lock before any event executes, which is
    // what makes the pre-partition withLock fast path sound.
    mutable std::recursive_mutex setupMu_;
    std::vector<Component *> components_;
    std::vector<Connection *> connections_;
    std::unordered_map<const Component *, int> pins_;
    std::unordered_map<const EventHandler *, int> handlerPins_;
    /** Events scheduled before the partition existed. */
    std::vector<EventPtr> setup_;
    std::atomic<bool> partitioned_{false};

    DomainPartition part_;
    std::vector<std::unique_ptr<Dom>> doms_;
    /** Published horizons, one padded slot per domain (see
     * HorizonSlot). Allocated once at partition time. */
    std::unique_ptr<HorizonSlot[]> horizons_;
    /** Per-edge ring capacity (power of two; see setRingCapacity). */
    int ringCapacity_ = 256;
    /** Cross-domain events through the locked slow path. */
    std::atomic<std::uint64_t> mailSlow_{0};
    std::unordered_map<const Component *, std::size_t> componentDom_;
    std::unordered_map<const EventHandler *, std::size_t> handlerDom_;
    /**
     * Partition tag for Port::routeHint_ memoization; a process-unique
     * value assigned by buildRings().
     */
    std::uint32_t routeEpoch_ = 0;
    /**
     * Component -> its EventHandler subobject, so the destructor hook
     * can drop the handler's route: in ~Component the dynamic type is
     * already Component and a dynamic_cast would find nothing.
     */
    std::unordered_map<const Component *, const EventHandler *>
        componentHandler_;
    std::vector<std::vector<std::string>> memberNames_;
    std::vector<std::string> edgeConnNames_;

    std::atomic<std::uint64_t> pending_{0};
    std::atomic<std::uint64_t> totalEvents_{0};
    std::atomic<std::uint64_t> totalScheduled_{0};

    bool concurrent_ = false;
    bool waitWhenEmpty_ = false;
    std::atomic<bool> paused_{false};
    std::atomic<bool> running_{false};
    std::atomic<bool> stopRequested_{false};
    std::atomic<bool> drainedWaiting_{false};
    /** Internal per-run exit signal (drained / error). */
    std::atomic<bool> exitWorkers_{false};
    mutable std::atomic<int> lockWaiters_{0};

    /**
     * The cold-path monitor: pause, drained-parking, and blocked
     * workers all wait here; any progress (horizon raise, mailbox
     * enqueue, pending reaching zero, state change) bumps the
     * generation and notifies. The hot path only touches atomics.
     */
    mutable std::mutex waitMu_;
    mutable std::condition_variable waitCv_;
    std::atomic<std::uint64_t> progressGen_{0};
    mutable std::atomic<int> waiters_{0};
    /** Workers parked on global drain (under waitMu_). */
    int parked_ = 0;

    std::vector<std::thread> threads_;
    std::mutex errMu_;
    std::exception_ptr error_;
    bool drainedResult_ = false;
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_DOMAIN_ENGINE_HH
