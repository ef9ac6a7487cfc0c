#include "sim/domain_engine.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/component.hh"
#include "sim/connection.hh"
#include "sim/name.hh"
#include "sim/port.hh"
#include "sim/prof.hh"

namespace akita
{
namespace sim
{

namespace
{

/**
 * Which engine/domain the current thread is a worker of. Lets
 * schedule() from a running handler take the lock-free own-queue path,
 * now() return the exact local clock, and withLock() from a handler
 * run inline (the caller is already at a consistent point of its own
 * domain).
 */
struct TlsDom
{
    const DomainEngine *eng = nullptr;
    void *dom = nullptr;
};

thread_local TlsDom tlsDom;

[[noreturn]] void
throwPast(VTime t, VTime now)
{
    throw std::runtime_error("cannot schedule event in the past (t=" +
                             std::to_string(t) +
                             ", now=" + std::to_string(now) + ")");
}

/**
 * Iterations of the pre-park spin. Steady-state cross-domain traffic
 * usually re-arms a blocked window within a handful of upstream batch
 * publications; a short spin rides that out without a futex round
 * trip, and parking keeps an under-subscribed host from burning a
 * timeslice. On a single-hardware-thread host the spin can never
 * succeed — no producer runs while we hold the core — so it is pure
 * added latency on every park and is disabled outright.
 */
inline int
idleSpinCount()
{
    static const int n =
        std::thread::hardware_concurrency() > 1 ? 128 : 0;
    return n;
}

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#else
    std::this_thread::yield();
#endif
}

} // namespace

DomainEngine::DomainEngine(int domains)
    : requested_(domains > 0
                     ? domains
                     : static_cast<int>(
                           std::max(1u, std::thread::hardware_concurrency())))
{
    declareField("now_ps", [this]() {
        return introspect::Value::ofInt(static_cast<std::int64_t>(now()));
    });
    declareField("queue_len", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(queueLength()));
    });
    declareField("total_events", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(eventCount()));
    });
    declareField("total_scheduled", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(scheduledCount()));
    });
    declareField("domains", [this]() {
        return introspect::Value::ofInt(
            partitioned_.load(std::memory_order_acquire)
                ? static_cast<std::int64_t>(doms_.size())
                : requested_);
    });
    declareField("paused",
                 [this]() { return introspect::Value::ofBool(paused()); });
    declareField("running",
                 [this]() { return introspect::Value::ofBool(running()); });
    declareField("mailbox_fast_total", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(mailboxFastTotal()));
    });
    declareField("mailbox_slow_total", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(mailboxSlowTotal()));
    });
}

DomainEngine::~DomainEngine() = default;

// ---- Registration ----

void
DomainEngine::noteComponent(Component *c)
{
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    if (!partitioned_.load(std::memory_order_relaxed)) {
        components_.push_back(c);
        return;
    }
    // Late registration (after the partition is fixed): the component
    // joins domain 0. Build the full graph before the first run (or
    // partition() call) to get a real placement.
    componentDom_.emplace(c, 0);
}

void
DomainEngine::noteComponentDestroyed(Component *c)
{
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    components_.erase(
        std::remove(components_.begin(), components_.end(), c),
        components_.end());
    pins_.erase(c);
    componentDom_.erase(c);
    auto it = componentHandler_.find(c);
    if (it != componentHandler_.end()) {
        handlerDom_.erase(it->second);
        componentHandler_.erase(it);
    }
}

void
DomainEngine::noteConnection(Connection *c)
{
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    if (!partitioned_.load(std::memory_order_relaxed))
        connections_.push_back(c);
}

void
DomainEngine::noteConnectionDestroyed(Connection *c)
{
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    connections_.erase(
        std::remove(connections_.begin(), connections_.end(), c),
        connections_.end());
}

void
DomainEngine::pinComponent(Component *c, int d)
{
    if (d < 0)
        throw std::invalid_argument("domain pin must be >= 0");
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    if (partitioned_.load(std::memory_order_relaxed))
        throw std::logic_error(
            "pinComponent: partition already computed");
    pins_[c] = d;
}

void
DomainEngine::assignHandler(EventHandler *h, int d)
{
    if (d < 0)
        throw std::invalid_argument("domain assignment must be >= 0");
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    if (partitioned_.load(std::memory_order_relaxed))
        throw std::logic_error(
            "assignHandler: partition already computed");
    handlerPins_[h] = d;
}

void
DomainEngine::setRingCapacity(int n)
{
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    if (partitioned_.load(std::memory_order_relaxed))
        throw std::logic_error(
            "setRingCapacity: partition already computed");
    ringCapacity_ = n < 1 ? 1 : n;
}

const DomainPartition &
DomainEngine::partition()
{
    partitionOnce();
    return part_;
}

void
DomainEngine::partitionOnce()
{
    if (partitioned_.load(std::memory_order_acquire))
        return;
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    if (partitioned_.load(std::memory_order_relaxed))
        return;

    part_ = partitionDomains(components_, connections_, requested_, pins_);

    // Handler assignments may name domains the component graph did not
    // produce (e.g. a component-less bench rig); create them.
    int numDoms = std::max(part_.numDomains, 1);
    for (const auto &kv : handlerPins_)
        numDoms = std::max(numDoms, kv.second + 1);
    part_.numDomains = numDoms;
    part_.members.resize(numDoms);
    part_.incoming.resize(numDoms);

    doms_.clear();
    doms_.reserve(numDoms);
    for (int i = 0; i < numDoms; i++) {
        doms_.push_back(std::make_unique<Dom>());
        Dom &d = *doms_.back();
        d.id = static_cast<std::size_t>(i);
        for (const auto &e : part_.incoming[i])
            d.in.push_back({static_cast<std::size_t>(e.src),
                            e.lookahead});
    }
    horizons_ = std::make_unique<HorizonSlot[]>(
        static_cast<std::size_t>(numDoms));
    buildRings();

    componentDom_.clear();
    handlerDom_.clear();
    componentHandler_.clear();
    for (Component *c : components_) {
        auto it = part_.domainOf.find(c);
        std::size_t dom =
            it != part_.domainOf.end()
                ? static_cast<std::size_t>(it->second)
                : 0;
        componentDom_.emplace(c, dom);
        if (auto *h = dynamic_cast<EventHandler *>(c)) {
            handlerDom_.emplace(h, dom);
            componentHandler_.emplace(c, h);
        }
    }
    for (const auto &kv : handlerPins_)
        handlerDom_[kv.first] = static_cast<std::size_t>(kv.second);

    memberNames_.assign(static_cast<std::size_t>(numDoms), {});
    for (int i = 0; i < numDoms; i++) {
        for (Component *c : part_.members[i])
            memberNames_[i].push_back(c->name());
    }
    edgeConnNames_.clear();
    for (const auto &e : part_.edges)
        edgeConnNames_.push_back(e.via ? e.via->connectionName()
                                       : std::string("?"));

    // Events scheduled before the partition existed (pending_ and
    // totalScheduled_ already counted them) now land in mailboxes; the
    // owning worker picks them up at its first drain.
    for (EventPtr &ev : setup_) {
        Dom *d = routeOf(*ev);
        std::lock_guard<std::mutex> mk(d->mailMu);
        if (ev->time() < d->mailMin)
            d->mailMin = ev->time();
        d->mail.push_back(std::move(ev));
        d->mailCount.fetch_add(1, std::memory_order_release);
    }
    setup_.clear();

    partitioned_.store(true, std::memory_order_release);
}

void
DomainEngine::buildRings()
{
    // A fresh routing epoch per partition: a Port::routeHint_ cached by
    // any other engine instance never validates here, because the
    // counter is shared by all engines in the process.
    static std::atomic<std::uint32_t> gRouteEpoch{1};
    routeEpoch_ = gRouteEpoch.fetch_add(1, std::memory_order_relaxed);
    const std::size_t n = doms_.size();
    for (auto &dp : doms_)
        dp->outRing.assign(n, nullptr);
    for (std::size_t i = 0; i < n; i++) {
        Dom &d = *doms_[i];
        for (const InEdge &e : d.in) {
            d.inRings.push_back(std::make_unique<EdgeRing>(
                e.src, e.lookahead,
                static_cast<std::size_t>(ringCapacity_)));
            doms_[e.src]->outRing[i] = d.inRings.back().get();
            doms_[e.src]->outNbr.push_back(i);
        }
    }
}

// ---- Targeted wakes (spin-then-park) ----

void
DomainEngine::wakeDom(Dom &d)
{
    // seq_cst on the generation bump and the parked-flag read pairs
    // with the consumer's flag store and generation read in
    // idleWait(): either the sleeper re-checks and sees the new
    // generation, or we see its parked flag and take the cv lock —
    // a wake can never fall between the two.
    d.wakeGen.fetch_add(1, std::memory_order_seq_cst);
    if (d.parkedFlag.load(std::memory_order_seq_cst) &&
        d.parkedFlag.exchange(false, std::memory_order_seq_cst)) {
        // The exchange claims the wake: a burst of pushes to one
        // parked domain pays for a single futex notify (the first
        // bump already satisfied the sleeper's predicate; once
        // notified it is guaranteed to wake and re-check). Without
        // the claim every message of a convoy would notify again.
        std::lock_guard<std::mutex> lk(d.parkMu);
        d.parkCv.notify_one();
    }
}

void
DomainEngine::wakeNeighbors(Dom &d)
{
    for (std::size_t i : d.outNbr)
        wakeDom(*doms_[i]);
}

void
DomainEngine::wakeAllDoms()
{
    if (!partitioned_.load(std::memory_order_acquire))
        return;
    for (auto &dp : doms_)
        wakeDom(*dp);
}

void
DomainEngine::idleWait(Dom &d, std::uint64_t wgen)
{
    auto ready = [&]() {
        return d.wakeGen.load(std::memory_order_seq_cst) != wgen ||
               stopRequested_.load(std::memory_order_relaxed) ||
               exitWorkers_.load(std::memory_order_relaxed) ||
               paused_.load(std::memory_order_relaxed) ||
               pending_.load(std::memory_order_relaxed) == 0;
    };
    for (int i = idleSpinCount(); i > 0; i--) {
        if (ready())
            return;
        cpuRelax();
    }
    // Donate the timeslice before paying for a futex park. When the
    // host is oversubscribed (more domains than cores) the producer
    // this domain is blocked on is runnable-but-not-running, and a
    // yield hands it the core for the price of the context switch a
    // park/wake cycle would force anyway — minus the futex wait and
    // notify syscalls. With no runnable peer, yield returns almost
    // immediately, so the ladder adds negligible latency to a real
    // park.
    for (int i = 0; i < 32; i++) {
        if (ready())
            return;
        std::this_thread::yield();
    }
    {
        std::unique_lock<std::mutex> lk(d.parkMu);
        // Re-arm the flag before every wait, not once: a waker whose
        // generation bump predates our snapshot can still claim the
        // flag and notify. Waiting again with the flag cleared would
        // hide the sleeper from every later wakeDom(), stop() included.
        while (!ready()) {
            d.parkedFlag.store(true, std::memory_order_seq_cst);
            if (ready())
                break;
            d.parkCv.wait(lk);
        }
    }
    d.parkedFlag.store(false, std::memory_order_relaxed);
}

// ---- Scheduling ----

DomainEngine::Dom *
DomainEngine::lookupDom(const Event &ev) const
{
    if (Port *p = ev.deliveryDst()) {
        // Epoch-tagged memo of the component hash lookup: valid for
        // the lifetime of the partition (the epoch counter is process-
        // global, so a hint written under any other engine can never
        // validate here).
        const std::uint64_t hint =
            p->routeHint_.load(std::memory_order_relaxed);
        if ((hint >> 32) == routeEpoch_)
            return doms_[static_cast<std::uint32_t>(hint)].get();
        auto it = componentDom_.find(p->owner());
        if (it != componentDom_.end()) {
            p->routeHint_.store(
                (static_cast<std::uint64_t>(routeEpoch_) << 32) |
                    static_cast<std::uint32_t>(it->second),
                std::memory_order_relaxed);
            return doms_[it->second].get();
        }
    }
    if (!handlerDom_.empty()) {
        auto it = handlerDom_.find(ev.handler());
        if (it != handlerDom_.end())
            return doms_[it->second].get();
    }
    return nullptr;
}

DomainEngine::Dom *
DomainEngine::routeOf(const Event &ev)
{
    if (Dom *d = lookupDom(ev))
        return d;
    // Unknown handler (ad-hoc FuncEvent, bench rig without
    // assignHandler): affinity to the scheduling worker's own domain
    // keeps it causally local; external threads feed domain 0.
    if (tlsDom.eng == this && tlsDom.dom != nullptr)
        return static_cast<Dom *>(tlsDom.dom);
    return doms_[0].get();
}

void
DomainEngine::schedule(EventPtr event)
{
    if (!partitioned_.load(std::memory_order_acquire)) {
        std::unique_lock<std::recursive_mutex> lk(setupMu_);
        if (!partitioned_.load(std::memory_order_relaxed)) {
            totalScheduled_.fetch_add(1, std::memory_order_relaxed);
            pending_.fetch_add(1, std::memory_order_acq_rel);
            setup_.push_back(std::move(event));
            return;
        }
    }
    if (tlsDom.eng == this) {
        // Worker context: the partition never changes once computed,
        // so no lock is needed on this, the hot path.
        Dom *d = routeOf(*event);
        if (tlsDom.dom == d) {
            // Own-domain schedule from a running handler: the queue is
            // worker-owned, no lock needed. Past-check against the
            // exact local clock — identical to the serial engine.
            VTime c = d->clock.load(std::memory_order_relaxed);
            if (event->time() < c)
                throwPast(event->time(), c);
            // Single writer (this worker): load+store, no locked RMW.
            d->sched.store(
                d->sched.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
            pending_.fetch_add(1, std::memory_order_acq_rel);
            d->queue.push(std::move(event));
            d->qlen.store(d->queue.size(), std::memory_order_relaxed);
            return;
        }
        // Cross-domain from the one worker owning the source domain:
        // the SPSC fast path, when this edge has a ring and no spill
        // epoch is open. Count first — pending_ must cover the event
        // before the consumer can possibly execute it.
        Dom *src = static_cast<Dom *>(tlsDom.dom);
        EdgeRing *r = src != nullptr && d->id < src->outRing.size()
                          ? src->outRing[d->id]
                          : nullptr;
        if (r != nullptr &&
            r->spillIssued.load(std::memory_order_relaxed) ==
                r->spillAck.load(std::memory_order_acquire)) {
            src->sched.store(
                src->sched.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
            pending_.fetch_add(1, std::memory_order_acq_rel);
            const VTime stamp = event->time();
            if (r->ring.tryPush(event)) {
                src->fastPushed.store(
                    src->fastPushed.load(std::memory_order_relaxed) +
                        1,
                    std::memory_order_relaxed);
                // Wake the consumer only if the event is executable
                // under the window our *published* horizon already
                // grants it (stamp <= horizon + lookahead). Anything
                // later is gated on our next horizon raise, and every
                // raise wakes the out-neighbors — so the wake is
                // deferred, not lost, and a convoy of pushes costs
                // one wake at the batch settle instead of one each.
                const VTime h = horizons_[src->id].v.load(
                    std::memory_order_relaxed);
                if (kTimeMax - h < r->lookahead ||
                    stamp <= h + r->lookahead)
                    wakeDom(*d);
                return;
            }
            // Ring full: spill to the mailbox and open the epoch; the
            // edge stays on the slow path until the consumer acks.
            enqueueRemote(*d, std::move(event), /*counted=*/true, r);
            return;
        }
        enqueueRemote(*d, std::move(event), /*counted=*/false, r);
        return;
    }
    // External thread (monitor control, setup between runs): route
    // under setupMu_, which serializes the lookup against late
    // component registration and destruction. Cold path; monitors
    // schedule rarely.
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    Dom *d = routeOf(*event);
    enqueueRemote(*d, std::move(event), false);
}

void
DomainEngine::enqueueRemote(Dom &d, EventPtr ev, bool counted,
                            EdgeRing *spill)
{
    if (!running_.load(std::memory_order_acquire)) {
        // Engine idle between runs: enforce the serial contract. While
        // running, cross-thread events are floored to the destination's
        // safe horizon at mailbox drain instead (a wake may legally
        // originate from a domain whose clock lags the destination).
        VTime c = d.clock.load(std::memory_order_relaxed);
        if (ev->time() < c)
            throwPast(ev->time(), c);
    }
    {
        std::lock_guard<std::mutex> lk(d.mailMu);
        if (!counted) {
            totalScheduled_.fetch_add(1, std::memory_order_relaxed);
            pending_.fetch_add(1, std::memory_order_acq_rel);
        }
        if (spill != nullptr) {
            // Under mailMu so the consumer's swap-time read of
            // spillIssued can never see the count without the event.
            spill->spillIssued.fetch_add(1, std::memory_order_relaxed);
        }
        if (ev->time() < d.mailMin)
            d.mailMin = ev->time();
        d.mail.push_back(std::move(ev));
        d.mailCount.fetch_add(1, std::memory_order_release);
    }
    mailSlow_.fetch_add(1, std::memory_order_relaxed);
    wakeDom(d);
    bumpProgress();
}

// ---- Time ----

std::size_t
DomainEngine::queueLength() const
{
    // pending_ settles once per batch, so from a handler it still
    // counts the caller's own executed batch; subtract it so handlers
    // see what the serial engine reports (the current event excluded).
    std::uint64_t n = pending_.load(std::memory_order_relaxed);
    if (tlsDom.eng == this && tlsDom.dom != nullptr) {
        std::uint64_t own =
            static_cast<const Dom *>(tlsDom.dom)->inFlight;
        n = n > own ? n - own : 0;
    }
    return static_cast<std::size_t>(n);
}

VTime
DomainEngine::now() const
{
    if (tlsDom.eng == this && tlsDom.dom != nullptr)
        return static_cast<const Dom *>(tlsDom.dom)
            ->clock.load(std::memory_order_relaxed);
    if (!partitioned_.load(std::memory_order_acquire))
        return 0;
    // Between runs: the time of the last executed event anywhere, as on
    // the serial engine. A stopped run leaves the domain clocks apart,
    // and only the maximum makes now() + x schedulable into every
    // domain (the idle-engine past check compares against the
    // destination's own clock).
    //
    // While running: the global virtual-time floor, the minimum
    // published horizon. Domains that promised "nothing ever"
    // (kTimeMax: idle with no incoming edges) don't drag the estimate;
    // all-idle engines sync clocks at drain, so the fallback is the max
    // clock.
    const bool live = running_.load(std::memory_order_acquire);
    VTime m = kTimeMax;
    VTime maxClock = 0;
    for (const auto &d : doms_) {
        VTime h = horizons_[d->id].v.load(std::memory_order_acquire);
        if (h != kTimeMax && h < m)
            m = h;
        VTime c = d->clock.load(std::memory_order_relaxed);
        if (c > maxClock)
            maxClock = c;
    }
    return live && m != kTimeMax ? m : maxClock;
}

// ---- Safe-window machinery ----

VTime
DomainEngine::safeWindow(const Dom &d) const
{
    // Linear pass over the padded horizon array: every in-edge read
    // touches its own cache line, so the scan never bounces a line a
    // producer is writing clock/queue state into.
    VTime b = kTimeMax;
    for (const InEdge &e : d.in) {
        VTime h = horizons_[e.src].v.load(std::memory_order_acquire);
        VTime w = kTimeMax - h < e.lookahead ? kTimeMax
                                             : h + e.lookahead;
        if (w < b)
            b = w;
    }
    return b;
}

void
DomainEngine::drainMail(Dom &d)
{
    bool ringsLoaded = false;
    for (const auto &r : d.inRings) {
        if (!r->ring.empty()) {
            ringsLoaded = true;
            break;
        }
    }
    const bool mailLoaded =
        d.mailCount.load(std::memory_order_acquire) != 0;
    if (!ringsLoaded && !mailLoaded)
        return;

    // Mailbox first, rings second, and within the pass ring events are
    // queued before mail events. Per-edge FIFO across the fast/slow
    // split hangs on this order: a spill epoch only opens after the
    // ring stopped accepting, so whatever the ring still holds for an
    // edge was sent before anything the mailbox holds for it — and the
    // producer stays on the slow path until spillAck (stored below,
    // after the queue pushes) catches up, so no fresh ring traffic can
    // overtake a spilled message either. The mailMu acquire also
    // publishes the producer's earlier ring tail stores to our drain.
    std::vector<EventPtr> &local = d.drainScratch;
    if (mailLoaded) {
        std::lock_guard<std::mutex> lk(d.mailMu);
        local.swap(d.mail);
        d.mailMin = kTimeMax;
        d.mailCount.store(0, std::memory_order_relaxed);
        for (auto &r : d.inRings)
            r->spillSeen =
                r->spillIssued.load(std::memory_order_relaxed);
    }

    const VTime hz = horizons_[d.id].v.load(std::memory_order_relaxed);
    const VTime clk = d.clock.load(std::memory_order_relaxed);
    auto admit = [&](EventPtr ev) {
        if (ev->time() >= hz && ev->time() > clk) {
            // Above the horizon and the last executed cycle: no floor
            // can apply (both branches below only rewrite stamps under
            // max(hz, clk + 1)), so skip the TickingComponent probe —
            // a dynamic_cast per steady-state cross-domain event is
            // measurable.
            d.queue.push(std::move(ev));
            return;
        }
        if (ev->time() < hz && ev->deliveryDst() != nullptr) {
            // A message delivery can only land below the horizon
            // when a cross-domain connection's latency undercuts
            // the partition's lookahead — a partition bug run()
            // should have rejected.
            throw std::runtime_error(
                "cross-domain delivery below the safe horizon "
                "(t=" + std::to_string(ev->time()) +
                ", horizon=" + std::to_string(hz) + ") via '" +
                ev->handler()->handlerName() +
                "': zero-lookahead partition");
        }
        if (auto *tc =
                dynamic_cast<TickingComponent *>(ev->handler())) {
            // Wake/tick from a domain whose clock lags ours: floor it
            // to the horizon, and strictly above the last executed
            // cycle — a wake landing on an already-ticked cycle would
            // be eaten by handle()'s same-cycle duplicate guard and
            // the sleeping component would never retry. Physically the
            // wake crosses the boundary with the wire's latency.
            VTime floor = std::max(hz, clk + 1);
            if (ev->time() < floor) {
                VTime t = floor;
                if (t % tc->freq().period() != 0)
                    t = tc->freq().nextTick(t);
                ev->setTime(t);
            }
        } else if (ev->time() < hz) {
            ev->setTime(hz);
        }
        d.queue.push(std::move(ev));
    };
    try {
        for (auto &r : d.inRings)
            r->ring.drain([&](EventPtr ev) { admit(std::move(ev)); });
        for (EventPtr &ev : local)
            admit(std::move(ev));
    } catch (...) {
        // The scratch must be empty at the next swap — a half-drained
        // pass would otherwise inject its leftovers into the mailbox.
        local.clear();
        throw;
    }
    if (mailLoaded) {
        local.clear();
        // Everything seen at swap time is now in the queue: close the
        // spill epochs so the producers may return to their rings.
        for (auto &r : d.inRings)
            r->spillAck.store(r->spillSeen, std::memory_order_release);
    }
    d.qlen.store(d.queue.size(), std::memory_order_relaxed);
}

void
DomainEngine::publishIdleHorizon(Dom &d, VTime bound)
{
    VTime head = d.queue.empty() ? kTimeMax : d.queue.peekTime();
    bool raised = false;
    {
        // Under mailMu so the published promise can never race past a
        // mailbox stamp an enqueuer is concurrently adding. Ring
        // contents need no scan: this runs right after drainMail, so
        // anything still in a ring was pushed after our safe-window
        // read and is stamped >= that bound >= the promise below
        // (DESIGN.md §15).
        std::lock_guard<std::mutex> lk(d.mailMu);
        VTime hz = std::min(head, bound);
        if (d.mailMin < hz)
            hz = d.mailMin;
        std::atomic<VTime> &slot = horizons_[d.id].v;
        if (hz > slot.load(std::memory_order_relaxed)) {
            slot.store(hz, std::memory_order_release);
            raised = true;
        }
    }
    if (raised)
        wakeNeighbors(d);
}

// ---- Execution ----

void
DomainEngine::executeEvent(Dom &d, Event &event)
{
    invokeHook(hookPosBeforeEvent, &event);
    if (Profiler::instance().enabled()) {
        ProfScope scope(event.handler()->profName());
        event.handler()->handle(event);
    } else {
        event.handler()->handle(event);
    }
    invokeHook(hookPosAfterEvent, &event);
    // Single writer per domain: load+store beats fetch_add. The
    // shared totalEvents_ counter settles once per batch instead.
    d.events.store(d.events.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
}

void
DomainEngine::executeBatch(Dom &d, VTime bound)
{
    std::lock_guard<std::mutex> lk(d.execMu);
    int n = 0;
    int done = 0;
    VTime last = 0;
    // The horizon raise, neighbor wake, and global counters settle
    // once per batch, not once per event. Safety is the §15 ordering
    // argument: every output of the batch was enqueued (ring-tail /
    // mailbox store) before the release store below, so a consumer
    // that acquires the raised horizon and then drains sees them all.
    // Per-event raises are what the serial construction needed; here
    // they just wake each neighbor once per tick.
    auto settle = [&]() {
        if (done == 0)
            return;
        std::atomic<VTime> &hz = horizons_[d.id].v;
        if (hz.load(std::memory_order_relaxed) < last) {
            hz.store(last, std::memory_order_release);
            wakeNeighbors(d);
        }
        d.qlen.store(d.queue.size(), std::memory_order_relaxed);
        totalEvents_.fetch_add(static_cast<std::uint64_t>(done),
                               std::memory_order_relaxed);
        d.inFlight = 0;
        if (pending_.fetch_sub(done, std::memory_order_acq_rel) ==
            done) {
            // Possibly globally drained: wake the drain detectors and
            // every idle-parked worker so they can reach the barrier.
            bumpProgress();
            wakeAllDoms();
        }
    };
    while (n < batch_ && !d.queue.empty()) {
        if (stopRequested_.load(std::memory_order_relaxed) ||
            paused_.load(std::memory_order_relaxed) ||
            exitWorkers_.load(std::memory_order_relaxed))
            break;
        VTime t = d.queue.peekTime();
        if (t > bound)
            break;
        // Advance the local clock before executing — handlers observe
        // it through now(). Only this domain's worker writes it, and
        // remote readers (status, lag) tolerate batch-grained skew.
        if (d.clock.load(std::memory_order_relaxed) != t)
            d.clock.store(t, std::memory_order_release);
        EventPtr ev = d.queue.pop();
        last = t;
        d.inFlight = static_cast<std::uint64_t>(done) + 1;
        try {
            executeEvent(d, *ev);
        } catch (...) {
            // pending_ survives run() (events may be queued while
            // stopped), so the decrements owed by this batch must not
            // be lost to a throwing handler.
            done++;
            settle();
            throw;
        }
        done++;
        n++;
    }
    settle();
}

// ---- The worker loop ----

void
DomainEngine::bumpProgress()
{
    progressGen_.fetch_add(1);
    if (waiters_.load() > 0) {
        std::lock_guard<std::mutex> lk(waitMu_);
        waitCv_.notify_all();
    }
}

void
DomainEngine::recordError()
{
    {
        std::lock_guard<std::mutex> lk(errMu_);
        if (!error_)
            error_ = std::current_exception();
    }
    exitWorkers_.store(true);
    bumpProgress();
    wakeAllDoms();
    std::lock_guard<std::mutex> lk(waitMu_);
    waitCv_.notify_all();
}

void
DomainEngine::parkWhileDrained()
{
    waiters_.fetch_add(1);
    {
        std::unique_lock<std::mutex> lk(waitMu_);
        if (pending_.load(std::memory_order_relaxed) == 0 &&
            !stopRequested_.load(std::memory_order_relaxed) &&
            !exitWorkers_.load(std::memory_order_relaxed)) {
            parked_++;
            waitCv_.notify_all(); // The coordinator counts us.
            waitCv_.wait(lk, [&]() {
                return pending_.load(std::memory_order_relaxed) != 0 ||
                       stopRequested_.load(std::memory_order_relaxed) ||
                       exitWorkers_.load(std::memory_order_relaxed);
            });
            parked_--;
        }
    }
    waiters_.fetch_sub(1);
}

bool
DomainEngine::coordinateDrain(Dom &)
{
    const int others = static_cast<int>(doms_.size()) - 1;
    bool finished = false;
    bool drained = false;
    waiters_.fetch_add(1);
    {
        std::unique_lock<std::mutex> lk(waitMu_);
        waitCv_.wait(lk, [&]() {
            return parked_ == others ||
                   pending_.load(std::memory_order_relaxed) != 0 ||
                   stopRequested_.load(std::memory_order_relaxed) ||
                   exitWorkers_.load(std::memory_order_relaxed);
        });
        drained = parked_ == others &&
                  pending_.load(std::memory_order_relaxed) == 0 &&
                  !stopRequested_.load(std::memory_order_relaxed) &&
                  !exitWorkers_.load(std::memory_order_relaxed);
    }
    waiters_.fetch_sub(1);
    if (!drained)
        return false;

    // Globally drained: no event exists anywhere, every other worker is
    // parked. Synchronize all clocks to the furthest one — from here on
    // the engine behaves like the serial engine at its final time, so
    // wait-when-empty revival (the monitor's Tick button) is sane.
    VTime maxClock = 0;
    for (const auto &dm : doms_)
        maxClock =
            std::max(maxClock, dm->clock.load(std::memory_order_relaxed));
    for (const auto &dm : doms_) {
        dm->clock.store(maxClock, std::memory_order_release);
        horizons_[dm->id].v.store(maxClock, std::memory_order_release);
    }
    invokeHook(hookPosQueueDrained, nullptr);

    if (!waitWhenEmpty_) {
        drainedResult_ = true;
        exitWorkers_.store(true);
        bumpProgress();
        std::lock_guard<std::mutex> lk(waitMu_);
        waitCv_.notify_all();
        return true;
    }

    drainedWaiting_.store(true);
    notifyState("drained");
    waiters_.fetch_add(1);
    {
        std::unique_lock<std::mutex> lk(waitMu_);
        waitCv_.wait(lk, [&]() {
            return pending_.load(std::memory_order_relaxed) != 0 ||
                   stopRequested_.load(std::memory_order_relaxed) ||
                   exitWorkers_.load(std::memory_order_relaxed);
        });
    }
    waiters_.fetch_sub(1);
    drainedWaiting_.store(false);
    return finished;
}

void
DomainEngine::workerLoop(Dom &d, bool coordinator)
{
    tlsDom = {this, &d};
    while (!exitWorkers_.load(std::memory_order_relaxed) &&
           !stopRequested_.load(std::memory_order_relaxed)) {
        try {
            if (paused_.load(std::memory_order_relaxed)) {
                waiters_.fetch_add(1);
                {
                    std::unique_lock<std::mutex> lk(waitMu_);
                    waitCv_.wait(lk, [&]() {
                        return !paused_.load(
                                   std::memory_order_relaxed) ||
                               stopRequested_.load(
                                   std::memory_order_relaxed) ||
                               exitWorkers_.load(
                                   std::memory_order_relaxed);
                    });
                }
                waiters_.fetch_sub(1);
                continue;
            }
            if (lockWaiters_.load(std::memory_order_acquire) > 0) {
                // Monitor-fairness handoff (cf. SerialEngine): we hold
                // no execMu here, so an announced withLock() can take
                // every domain's mutex without starving.
                std::this_thread::yield();
                continue;
            }
            // Order matters: snapshot the wake generation, read
            // upstream horizons, and only then drain the rings and
            // mailbox — a message enqueued (or a horizon raised) after
            // the snapshot either lands in the drain or re-wakes us
            // via the generation.
            std::uint64_t wgen =
                d.wakeGen.load(std::memory_order_seq_cst);
            VTime bound = safeWindow(d);
            drainMail(d);
            if (!d.queue.empty() && d.queue.peekTime() <= bound) {
                executeBatch(d, bound);
                continue;
            }
            publishIdleHorizon(d, bound);
            if (pending_.load(std::memory_order_acquire) == 0) {
                if (coordinator) {
                    if (coordinateDrain(d))
                        break;
                } else {
                    parkWhileDrained();
                }
                continue;
            }
            idleWait(d, wgen);
        } catch (...) {
            recordError();
            break;
        }
    }
    tlsDom = {};
}

// ---- Topology (immutable once partitioned; see the class comment) ----

const std::vector<std::vector<std::string>> &
DomainEngine::domainMemberNames()
{
    partition();
    return memberNames_;
}

std::vector<DomainEngine::EdgeInfo>
DomainEngine::edgeInfos()
{
    partition();
    std::vector<EdgeInfo> out;
    out.reserve(part_.edges.size());
    for (std::size_t i = 0; i < part_.edges.size(); i++)
        out.push_back({part_.edges[i].src, part_.edges[i].dst,
                       part_.edges[i].lookahead, edgeConnNames_[i]});
    return out;
}

int
DomainEngine::domainOfComponent(const Component *c) const
{
    std::lock_guard<std::recursive_mutex> lk(setupMu_);
    auto it = componentDom_.find(c);
    return it == componentDom_.end() ? -1
                                     : static_cast<int>(it->second);
}

// ---- Control surface ----

void
DomainEngine::stop()
{
    stopRequested_.store(true);
    bumpProgress();
    wakeAllDoms();
    {
        std::lock_guard<std::mutex> lk(waitMu_);
        waitCv_.notify_all();
    }
    notifyState("stop");
}

void
DomainEngine::pause()
{
    paused_.store(true);
    bumpProgress();
    notifyState("pause");
}

void
DomainEngine::resume()
{
    paused_.store(false);
    bumpProgress();
    {
        std::lock_guard<std::mutex> lk(waitMu_);
        waitCv_.notify_all();
    }
    notifyState("resume");
}

void
DomainEngine::withLock(const std::function<void()> &fn) const
{
    if (tlsDom.eng == this) {
        // A handler is already at a consistent point of its own domain;
        // taking the domain locks from here would deadlock on our own.
        fn();
        return;
    }
    if (!partitioned_.load(std::memory_order_acquire)) {
        // Pre-partition (setup phase). Hold setupMu_ so a concurrent
        // first run() cannot flip the partition and start executing
        // events mid-fn — the flip happens under setupMu_ before any
        // worker exists. Re-check: if the partition landed while we
        // waited for the lock, fall through to the domain locks.
        std::unique_lock<std::recursive_mutex> lk(setupMu_);
        if (!partitioned_.load(std::memory_order_relaxed)) {
            fn();
            return;
        }
    }
    lockWaiters_.fetch_add(1, std::memory_order_acq_rel);
    {
        // All domain locks in id order: a causally-consistent cut at
        // event boundaries across the whole simulation.
        std::vector<std::unique_lock<std::mutex>> locks;
        locks.reserve(doms_.size());
        for (const auto &d : doms_)
            locks.emplace_back(d->execMu);
        fn();
    }
    lockWaiters_.fetch_sub(1, std::memory_order_acq_rel);
}

DomainEngine::DomainStatus
DomainEngine::domainStatus(int d) const
{
    DomainStatus s;
    if (!partitioned_.load(std::memory_order_acquire) || d < 0 ||
        static_cast<std::size_t>(d) >= doms_.size())
        return s;
    const Dom &dm = *doms_[d];
    s.clock = dm.clock.load(std::memory_order_relaxed);
    s.horizon = horizons_[dm.id].v.load(std::memory_order_relaxed);
    s.events = dm.events.load(std::memory_order_relaxed);
    // The rings themselves are immutable once partitioned; only their
    // indices move, and size() reads those atomically.
    std::size_t inFlight = 0;
    std::size_t cap = 0;
    for (const auto &r : dm.inRings) {
        inFlight += r->ring.size();
        cap += r->ring.capacity();
    }
    s.ringOccupancy = inFlight;
    s.ringCapacity = cap;
    s.queueLen = dm.qlen.load(std::memory_order_relaxed) +
                 dm.mailCount.load(std::memory_order_relaxed) +
                 inFlight;
    return s;
}

RunResult
DomainEngine::run()
{
    partitionOnce();
    for (std::size_t i = 0; i < part_.edges.size(); i++) {
        if (part_.edges[i].lookahead != 0)
            continue;
        throw std::runtime_error(
            "domain partition has zero lookahead on edge " +
            std::to_string(part_.edges[i].src) + " -> " +
            std::to_string(part_.edges[i].dst) + " via connection '" +
            edgeConnNames_[i] +
            "': a cut connection needs latency > 0 (unpin components "
            "or lower the domain count)");
    }

    stopRequested_.store(false);
    exitWorkers_.store(false);
    drainedResult_ = false;
    {
        std::lock_guard<std::mutex> lk(errMu_);
        error_ = nullptr;
    }
    running_.store(true);
    notifyState("run_start");

    threads_.clear();
    threads_.reserve(doms_.size() > 0 ? doms_.size() - 1 : 0);
    for (std::size_t i = 1; i < doms_.size(); i++) {
        threads_.emplace_back(
            [this, i]() { workerLoop(*doms_[i], false); });
    }
    workerLoop(*doms_[0], true);

    // The coordinator is done (stop, drain, or error): release everyone.
    exitWorkers_.store(true);
    bumpProgress();
    wakeAllDoms();
    {
        std::lock_guard<std::mutex> lk(waitMu_);
        waitCv_.notify_all();
    }
    for (std::thread &t : threads_)
        t.join();
    threads_.clear();

    running_.store(false);
    notifyState("run_end");

    {
        std::lock_guard<std::mutex> lk(errMu_);
        if (error_) {
            std::exception_ptr err = error_;
            error_ = nullptr;
            std::rethrow_exception(err);
        }
    }
    if (stopRequested_.load(std::memory_order_relaxed))
        return RunResult::Stopped;
    return RunResult::Drained;
}

} // namespace sim
} // namespace akita
