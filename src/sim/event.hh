/**
 * @file
 * Events, event handlers, and the time-ordered event queue.
 */

#ifndef AKITA_SIM_EVENT_HH
#define AKITA_SIM_EVENT_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/msg.hh"
#include "sim/name.hh"
#include "sim/pool.hh"
#include "sim/time.hh"

namespace akita
{
namespace sim
{

class Connection;
class Event;
class TickingComponent;

/** Receiver of scheduled events. */
class EventHandler
{
  public:
    virtual ~EventHandler() = default;

    /** Invoked by the engine when the event's time arrives. */
    virtual void handle(Event &event) = 0;

    /**
     * Interned name used by the built-in profiler to attribute
     * event-handling time. Implementers intern once at construction;
     * the per-event cost is copying a 32-bit id. The default refers to
     * the generic "EventHandler" entry.
     */
    virtual NameRef profName() const { return NameRef(); }

    /**
     * Display name. Kept for logs and tests; the engines never call it
     * on the hot path (they key the profiler on profName()).
     */
    virtual std::string handlerName() const { return profName().str(); }
};

/**
 * A unit of work scheduled at a virtual time.
 *
 * Secondary events run after all primary events of the same time; the
 * engine otherwise preserves scheduling (FIFO) order among equal times.
 *
 * Ticks and message deliveries are not Events: they are queue entries
 * (QueueEntry) with no object behind them. Events are the cold path —
 * ad-hoc callables and custom handlers — and are allocated from the
 * per-thread pool (class-scope operator new and sized delete below).
 */
class Event
{
  public:
    /**
     * @param time Virtual time at which the event fires.
     * @param handler Receiver; must outlive the event.
     * @param secondary Run after primary events of the same time.
     */
    Event(VTime time, EventHandler *handler, bool secondary = false)
        : time_(time), handler_(handler), secondary_(secondary)
    {
    }

    virtual ~Event() = default;

    static void *operator new(std::size_t n) { return poolAlloc(n); }

    /** Sized: the virtual destructor passes the concrete type's size. */
    static void
    operator delete(void *p, std::size_t n) noexcept
    {
        poolFree(p, n);
    }

    VTime time() const { return time_; }
    EventHandler *handler() const { return handler_; }
    bool isSecondary() const { return secondary_; }

  private:
    VTime time_;
    EventHandler *handler_;
    bool secondary_;
};

using EventPtr = std::unique_ptr<Event>;

/**
 * An event that invokes a captured callable, for ad-hoc scheduling.
 *
 * The event is its own handler, so the callable runs regardless of which
 * component scheduled it.
 */
class FuncEvent : public Event, public EventHandler
{
  public:
    /**
     * @param name Pre-interned profiler attribution label. Callers on
     *        the hot path intern once and reuse the ref.
     */
    FuncEvent(VTime time, NameRef name, std::function<void()> fn,
              bool secondary = false)
        : Event(time, this, secondary), name_(name), fn_(std::move(fn))
    {
    }

    /** Convenience: interns @p name per call (setup/test paths). */
    FuncEvent(VTime time, const std::string &name,
              std::function<void()> fn, bool secondary = false)
        : FuncEvent(time, NameRef(name), std::move(fn), secondary)
    {
    }

    void handle(Event &) override { fn_(); }

    NameRef profName() const override { return name_; }

    std::string handlerName() const override { return name_.str(); }

  private:
    NameRef name_;
    std::function<void()> fn_;
};

/**
 * One queued unit of work, held by value in its timestamp's bucket (the
 * time is the bucket's, not the entry's). Three kinds:
 *
 *  - a tick: the TickingComponent to tick, no payload;
 *  - a delivery: the Connection the message crossed and the message,
 *    which holds the hop's one reference;
 *  - an owned Event (FuncEvent, Engine::schedule callers, tests).
 *
 * Ticks and deliveries are the bulk of every simulation, and as entries
 * they allocate, construct and destroy nothing. An entry is 16 plain
 * bytes: a tick has no payload, and an owned event has no target (its
 * handler travels in the event).
 *
 * Whoever holds an entry owns its payload: the queue while it is
 * queued, the caller of EventQueue::pop() afterwards. Engine runs and
 * releases it; dispose() releases an entry nobody will run.
 */
class QueueEntry
{
  public:
    enum class Kind : std::uint8_t
    {
        Tick,
        Delivery,
        Owned,
    };

    static QueueEntry
    tick(TickingComponent *comp)
    {
        return QueueEntry(comp, nullptr);
    }

    /** @p msg carries one reference, which the entry now owns. */
    static QueueEntry
    delivery(Connection *conn, Msg *msg)
    {
        return QueueEntry(conn, msg);
    }

    /** @p event is heap-allocated; the entry now owns it. */
    static QueueEntry owned(Event *event) { return QueueEntry(nullptr, event); }

    Kind
    kind() const
    {
        if (payload_ == nullptr)
            return Kind::Tick;
        return target_ != nullptr ? Kind::Delivery : Kind::Owned;
    }

    TickingComponent *
    ticker() const
    {
        return static_cast<TickingComponent *>(target_);
    }

    Connection *
    connection() const
    {
        return static_cast<Connection *>(target_);
    }

    Msg *msg() const { return static_cast<Msg *>(payload_); }

    Event *event() const { return static_cast<Event *>(payload_); }

    /** Releases the payload without running it. */
    void dispose() const;

  private:
    QueueEntry(void *target, void *payload)
        : target_(target), payload_(payload)
    {
    }

    void *target_;
    void *payload_;
};

/**
 * Time-ordered queue of entries: (time, primary-before-secondary, FIFO).
 *
 * Entries land in per-timestamp buckets (append-only vectors, one for
 * each phase). A calendar wheel (Brown's calendar queue) indexes the
 * buckets: kSlots slots of 2^kQuantumBits ps, each holding a singly
 * linked, time-sorted list of the buckets whose quantum
 * (time >> kQuantumBits) falls on it, so buckets of later turns share
 * a slot behind the earlier ones. A 1 GHz simulation pushes almost
 * everything one or two cycles ahead, so a push walks a list of one or
 * two buckets: no hash, no division and no heap. The front advances
 * quantum by quantum, skipping empty slots with an occupancy bitmap,
 * and takes a slot's head when the head's quantum is the current one;
 * when nothing lies within one turn it jumps to the earliest head.
 * Ticks and deliveries are primary; FIFO order holds across the three
 * entry kinds.
 *
 * Buckets live in a stable pool: the wheel holds pointers, so a bucket
 * never moves, and a drained bucket returns to a spare list with its
 * vectors' capacity, so a steady-state simulation (e.g. an event chain
 * marching one timestamp at a time) allocates nothing per timestamp.
 *
 * The front bucket and the last-pushed bucket are cached, so a
 * cycle-aligned simulation — pop the front, push the next cycle's
 * ticks — looks up once per timestamp, not twice per event. Both
 * caches drop a bucket when it returns to the pool.
 *
 * Time ~0 is reserved (TickingComponent's "no tick armed"); a push
 * throws on it and keeps nothing.
 *
 * Not internally synchronized: the engine serializes access with its
 * run lock. Destroying the queue releases every queued payload.
 */
class EventQueue
{
  public:
    /** The one time no event may carry. */
    static constexpr VTime kReservedTime = ~VTime{0};

    /** pop()'s result: the entry and its time. */
    struct Popped
    {
        VTime time;
        QueueEntry entry;
    };

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /**
     * Inserts an owned event, in the phase it asks for.
     *
     * @throws std::runtime_error when the event's time is
     *         kReservedTime.
     */
    void
    push(EventPtr event)
    {
        insert(event->time(), event->isSecondary(),
               QueueEntry::owned(event.get()));
        event.release();
    }

    /** Inserts a tick of @p comp at @p t (primary phase). */
    void
    pushTick(VTime t, TickingComponent *comp)
    {
        insert(t, false, QueueEntry::tick(comp));
    }

    /** Inserts the delivery of @p msg at @p t (primary phase). */
    void
    pushDelivery(VTime t, Connection *conn, MsgPtr msg)
    {
        insert(t, false, QueueEntry::delivery(conn, msg.get()));
        msg.detach();
    }

    /**
     * Removes and returns the earliest entry; queue must be non-empty.
     * The caller owns the entry's payload.
     *
     * Order: time ascending; at equal times every primary entry pops
     * before any secondary entry; within the same (time, phase), FIFO.
     */
    Popped pop();

    /** Time of the earliest entry; queue must be non-empty. */
    VTime peekTime() const { return frontBucket()->time; }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

  private:
    /** All entries at one timestamp, split by phase, consumed by head. */
    struct Bucket
    {
        std::vector<QueueEntry> primary;
        std::vector<QueueEntry> secondary;
        std::size_t primaryHead = 0;
        std::size_t secondaryHead = 0;
        VTime time = 0;
        /** The next bucket of the same slot (a later time). */
        Bucket *next = nullptr;

        bool livePrimary() const { return primaryHead < primary.size(); }

        bool liveSecondary() const
        {
            return secondaryHead < secondary.size();
        }

        bool live() const { return livePrimary() || liveSecondary(); }
    };

    /** 1024 ps per slot: a 1 GHz cycle spans one or two slots. */
    static constexpr unsigned kQuantumBits = 10;
    /** One turn of the wheel covers kSlots quanta (262,144 ps). */
    static constexpr std::size_t kSlots = 256;
    static constexpr std::size_t kWords = kSlots / 64;

    static VTime quantum(VTime t) { return t >> kQuantumBits; }

    static std::size_t
    slotOf(VTime q)
    {
        return static_cast<std::size_t>(q) & (kSlots - 1);
    }

    /**
     * Appends @p e at @p t. Throws before keeping anything, so the
     * caller still owns the payload when it throws.
     */
    void
    insert(VTime t, bool secondary, QueueEntry e)
    {
        if (last_ == nullptr || last_->time != t)
            last_ = bucketAt(t);
        (secondary ? last_->secondary : last_->primary).push_back(e);
        // A push ahead of the cached front becomes the new front.
        if (front_ != nullptr && t < front_->time)
            front_ = nullptr;
        size_++;
    }

    /** The bucket of time @p t, taken from the pool if it is new. */
    Bucket *bucketAt(VTime t);

    /**
     * Bucket of the earliest live time, returning drained buckets to
     * the pool; nullptr when the queue is empty.
     */
    Bucket *frontBucket() const;

    /**
     * First occupied slot at or after @p from, wrapping around the
     * wheel; kSlots when every slot is empty.
     */
    std::size_t nextOccupied(std::size_t from) const;

    /** Earliest bucket time on the wheel (every slot's head). */
    VTime earliestHead() const;

    // Mutable: peekTime() lazily prunes drained buckets.
    /** Head of each slot's time-sorted bucket list. */
    mutable Bucket *slots_[kSlots] = {};
    /** One bit per slot, set while the slot's list is non-empty. */
    mutable std::uint64_t occupied_[kWords] = {};
    /** Quantum of the front; no bucket on the wheel is earlier. */
    mutable VTime cursor_ = 0;
    /** Owns every bucket ever made; addresses never change. */
    std::vector<std::unique_ptr<Bucket>> pool_;
    /** Drained buckets ready for reuse (capacity preserved). */
    mutable std::vector<Bucket *> spare_;
    /** Earliest live bucket, or nullptr to search the wheel. */
    mutable Bucket *front_ = nullptr;
    /** Bucket of the most recent push (nullptr once recycled). */
    mutable Bucket *last_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_EVENT_HH
