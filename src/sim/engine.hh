/**
 * @file
 * The discrete-event simulation engine.
 */

#ifndef AKITA_SIM_ENGINE_HH
#define AKITA_SIM_ENGINE_HH

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>

#include "introspect/field.hh"
#include "sim/event.hh"
#include "sim/time.hh"

namespace akita
{
namespace sim
{

/** Why Engine::run returned. */
enum class RunResult
{
    /** The event queue drained naturally. */
    Drained,
    /** Engine::stop was called. */
    Stopped,
};

/**
 * The discrete-event engine (mirrors Akita's Engine): one simulation
 * thread executes events in time order.
 *
 * Beyond the core schedule/run surface, the engine carries the *monitor
 * contract* RTM's registerEngine relies on: concurrent-access mode,
 * pause/resume, wait-when-empty, drained-waiting (the hang signature),
 * and withLock — the consistent snapshot point every RTM view borrows.
 *
 * Concurrency model: by default the engine assumes it is the only thread
 * touching simulation state and takes no locks. When a monitor attaches,
 * it calls setConcurrentAccess(true); the engine then holds an internal
 * lock while executing each event, and external threads use withLock() to
 * obtain a consistent snapshot point *between* events. This is the
 * paper's "fine serialization granularity ... avoids the requirement for
 * global synchronization": a monitor request borrows the lock for one
 * component's worth of serialization and releases it.
 *
 * Pause/resume (the dashboard's simulation controls) and wait-when-empty
 * (which turns a drained queue into an inspectable hang instead of a
 * silent exit) are also provided here.
 */
class Engine : public introspect::Inspectable
{
  public:
    Engine();

    /** Schedules an event; its time must not precede now(). */
    void schedule(EventPtr event);

    /**
     * Schedules the delivery of @p msg into msg->dst at @p time, on
     * behalf of @p conn (the profiler's "<conn>::deliver" label). The
     * queue entry holds @p msg's reference until the delivery runs.
     */
    void scheduleDelivery(VTime time, Connection *conn, MsgPtr msg);

    /**
     * Convenience: schedules a callable at an absolute time, with a
     * pre-interned profiler label (the hot-path overload).
     */
    void
    scheduleAt(VTime time, NameRef name, std::function<void()> fn)
    {
        schedule(std::make_unique<FuncEvent>(time, name, std::move(fn)));
    }

    /** Convenience overload that interns @p name per call. */
    void
    scheduleAt(VTime time, const std::string &name,
               std::function<void()> fn)
    {
        scheduleAt(time, NameRef(name), std::move(fn));
    }

    /** Current virtual time. Safe to call from any thread. */
    VTime now() const { return now_.load(std::memory_order_relaxed); }

    /** Runs events until the queue drains or stop() is called. */
    RunResult run();

    /** Requests run() to return as soon as possible. Thread-safe. */
    void stop();

    /** Total number of events executed so far. Thread-safe. */
    std::uint64_t
    eventCount() const
    {
        return totalEvents_.load(std::memory_order_relaxed);
    }

    /** Total number of events ever scheduled. Thread-safe. */
    std::uint64_t
    scheduledCount() const
    {
        return totalScheduled_.load(std::memory_order_relaxed);
    }

    // ---- The monitor contract ----

    /**
     * Enables cross-thread access (monitor attached). Must be called
     * before run(); switching modes mid-run is not supported.
     */
    void setConcurrentAccess(bool on) { concurrent_ = on; }

    /** True when cross-thread access is safe. */
    bool concurrentAccess() const { return concurrent_; }

    /**
     * When true, a drained queue blocks run() instead of returning, so a
     * deadlocked simulation stays alive for inspection (and can be
     * revived by scheduling new events, e.g. RTM's Tick button).
     */
    void setWaitWhenEmpty(bool on) { waitWhenEmpty_ = on; }

    /**
     * Events executed per engine-lock acquisition in concurrent mode.
     *
     * Larger batches amortize the lock on the event loop; smaller
     * batches reduce the worst-case wait of a monitor request. The
     * default (256) makes the monitored event loop run within a few
     * percent of the unmonitored one (see bench_micro's sweep).
     */
    void
    setLockBatch(int n)
    {
        lockBatch_ = n < 1 ? 1 : n;
    }

    int lockBatch() const { return lockBatch_; }

    /** Pauses execution before the next event. Thread-safe. */
    void pause();

    /** Resumes a paused engine ("Kick Start"). Thread-safe. */
    void resume();

    bool
    paused() const
    {
        return paused_.load(std::memory_order_relaxed);
    }

    /** True while run() is executing (possibly blocked). */
    bool
    running() const
    {
        return running_.load(std::memory_order_relaxed);
    }

    /** True when run() is blocked on an empty queue (hang signature). */
    bool
    drainedWaiting() const
    {
        return drainedWaiting_.load(std::memory_order_relaxed);
    }

    /** Number of events currently queued. Thread-safe. */
    std::size_t queueLength() const;

    /**
     * Runs @p fn at a consistent point (no event mid-execution).
     *
     * Requires concurrent access mode when called from a non-simulation
     * thread. May be called from event handlers.
     */
    void withLock(const std::function<void()> &fn) const;

    /**
     * Observes cold lifecycle transitions: "run_start", "run_end",
     * "pause", "resume", "drained", "stop". This is the engine's one
     * lifecycle seam: it fires only at state changes — never per event
     * or per message — so attaching an observer costs the hot path
     * nothing. The callback runs on whichever thread caused the
     * transition and must not re-enter the engine. Set before run();
     * pass nullptr to detach.
     */
    void
    setStateObserver(std::function<void(const char *)> fn)
    {
        stateObserver_ = std::move(fn);
    }

  private:
    class ExternalLock;
    // arm() is the one path that schedules ticks.
    friend class TickingComponent;

    /** Schedules a tick of @p comp at @p time. */
    void scheduleTick(VTime time, TickingComponent *comp);

    /**
     * Runs @p push (a queue insertion at @p time) with the past-time
     * check, the scheduled count and, for an external thread, the
     * engine lock.
     */
    template <typename Push> void enqueue(VTime time, Push &&push);

    /** Notifies the observer of a lifecycle transition, if attached. */
    void
    notifyState(const char *kind)
    {
        if (stateObserver_)
            stateObserver_(kind);
    }

    /**
     * True when the caller must take the engine lock: concurrent mode,
     * and not the thread inside run(), which already holds it while it
     * executes events.
     */
    bool external() const;

    RunResult runLocked();
    RunResult runUnlocked();
    /** Runs one popped entry and releases its payload. */
    void execute(QueueEntry entry);

    EventQueue queue_;
    std::atomic<VTime> now_{0};
    std::atomic<std::uint64_t> totalEvents_{0};
    std::atomic<std::uint64_t> totalScheduled_{0};

    bool concurrent_ = false;
    bool waitWhenEmpty_ = false;
    int lockBatch_ = 256;
    std::atomic<bool> paused_{false};
    std::atomic<bool> running_{false};
    std::atomic<bool> stopRequested_{false};
    std::atomic<bool> drainedWaiting_{false};
    /** External threads currently waiting for (or holding) the lock. */
    mutable std::atomic<int> lockWaiters_{0};

    mutable std::recursive_mutex mu_;
    mutable std::condition_variable_any cv_;

    std::function<void(const char *)> stateObserver_;
};

/** Kept because perfbench/bench.cc constructs sim::SerialEngine. */
using SerialEngine = Engine;

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_ENGINE_HH
