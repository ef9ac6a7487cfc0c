#include "sim/engine.hh"

#include <thread>

#include "sim/component.hh"
#include "sim/connection.hh"
#include "sim/prof.hh"

namespace akita
{
namespace sim
{

Engine::Engine()
{
    declareField("now_ps", [this]() {
        return introspect::Value::ofInt(static_cast<std::int64_t>(now()));
    });
    declareField("queue_len", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(queue_.size()));
    });
    declareField("total_events", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(eventCount()));
    });
    declareField("total_scheduled", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(scheduledCount()));
    });
    declareField("paused",
                 [this]() { return introspect::Value::ofBool(paused()); });
    declareField("running",
                 [this]() { return introspect::Value::ofBool(running()); });
}

namespace
{

/** The Engine whose run() is executing on this thread. */
thread_local const Engine *tlsRunning = nullptr;

/** Marks @p eng as running on this thread for one run() call. */
struct RunningScope
{
    explicit RunningScope(const Engine *eng) { tlsRunning = eng; }
    ~RunningScope() { tlsRunning = nullptr; }
};

} // namespace

/**
 * The engine lock as an external thread takes it. The announcement in
 * lockWaiters_ makes the event loop yield between batches instead of
 * re-acquiring at once (fairness); it stays up until the lock is
 * released, so the loop cannot starve a queue of waiting threads.
 */
class Engine::ExternalLock
{
  public:
    explicit ExternalLock(const Engine &eng) : eng_(eng)
    {
        eng_.lockWaiters_.fetch_add(1, std::memory_order_acq_rel);
        eng_.mu_.lock();
    }

    ~ExternalLock()
    {
        eng_.mu_.unlock();
        eng_.lockWaiters_.fetch_sub(1, std::memory_order_acq_rel);
    }

  private:
    const Engine &eng_;
};

bool
Engine::external() const
{
    return concurrent_ && tlsRunning != this;
}

template <typename Push>
void
Engine::enqueue(VTime time, Push &&push)
{
    auto checked = [&]() {
        if (time < now()) {
            throw std::runtime_error(
                "cannot schedule event in the past (t=" +
                std::to_string(time) + ", now=" + std::to_string(now()) +
                ")");
        }
        // Throws on the reserved time ~0 before counting the event.
        push();
        // One writer at a time (the run lock): see execute().
        totalScheduled_.store(
            totalScheduled_.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
    };
    if (external()) {
        // The past-check must run under the lock: a cross-thread
        // schedule could otherwise pass the check against a stale now()
        // and still land in the past once the simulation thread
        // advances time.
        ExternalLock lk(*this);
        checked();
        cv_.notify_all();
    } else {
        // No lock: either nothing else runs, or this is the simulation
        // thread inside its batch, which already holds the lock — and
        // the loop is not waiting, so there is no one to notify.
        checked();
    }
}

void
Engine::schedule(EventPtr event)
{
    VTime time = event->time();
    enqueue(time, [&]() { queue_.push(std::move(event)); });
}

void
Engine::scheduleTick(VTime time, TickingComponent *comp)
{
    enqueue(time, [&]() { queue_.pushTick(time, comp); });
}

void
Engine::scheduleDelivery(VTime time, Connection *conn, MsgPtr msg)
{
    enqueue(time,
            [&]() { queue_.pushDelivery(time, conn, std::move(msg)); });
}

void
Engine::stop()
{
    {
        // Under the run lock: set outside it, the flag could land
        // between the loop's wait predicate and the wait itself, and
        // the loop would sleep through the notification.
        ExternalLock lk(*this);
        stopRequested_.store(true);
    }
    cv_.notify_all();
    notifyState("stop");
}

void
Engine::pause()
{
    paused_.store(true);
    notifyState("pause");
}

void
Engine::resume()
{
    {
        ExternalLock lk(*this); // As in stop().
        paused_.store(false);
    }
    cv_.notify_all();
    notifyState("resume");
}

std::size_t
Engine::queueLength() const
{
    if (external()) {
        ExternalLock lk(*this);
        return queue_.size();
    }
    return queue_.size();
}

void
Engine::withLock(const std::function<void()> &fn) const
{
    if (external()) {
        ExternalLock lk(*this);
        fn();
    } else {
        fn();
    }
}

namespace
{

/** The profiler label of @p entry's work (pre-interned ids). */
NameRef
profNameOf(QueueEntry entry)
{
    switch (entry.kind()) {
    case QueueEntry::Kind::Tick:
        return entry.ticker()->profName();
    case QueueEntry::Kind::Delivery:
        return entry.connection()->deliverName();
    case QueueEntry::Kind::Owned:
        break;
    }
    return entry.event()->handler()->profName();
}

} // namespace

void
Engine::execute(QueueEntry entry)
{
    // Runs the entry's work and consumes its payload.
    auto run = [entry]() {
        switch (entry.kind()) {
        case QueueEntry::Kind::Tick:
            entry.ticker()->handleTick();
            break;
        case QueueEntry::Kind::Delivery: {
            Msg *msg = entry.msg();
            msg->dst->deliver(MsgPtr::adopt(msg));
            break;
        }
        case QueueEntry::Kind::Owned: {
            EventPtr event(entry.event());
            event->handler()->handle(*event);
            break;
        }
        }
    };
    if (Profiler::enabled()) {
        ProfScope scope(profNameOf(entry));
        run();
    } else {
        run();
    }
    // Single-writer counter (only the sim thread executes events): a
    // load+store pair compiles to plain MOVs, unlike fetch_add's
    // lock-prefixed RMW, and stays readable from monitor threads.
    totalEvents_.store(
        totalEvents_.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
}

RunResult
Engine::runUnlocked()
{
    while (!stopRequested_.load(std::memory_order_relaxed)) {
        if (queue_.empty()) {
            return RunResult::Drained;
        }
        EventQueue::Popped next = queue_.pop();
        now_.store(next.time, std::memory_order_relaxed);
        execute(next.entry);
    }
    return RunResult::Stopped;
}

RunResult
Engine::runLocked()
{
    std::unique_lock<std::recursive_mutex> lk(mu_);
    while (!stopRequested_.load(std::memory_order_relaxed)) {
        if (paused_.load(std::memory_order_relaxed)) {
            cv_.wait(lk, [this]() {
                return !paused_.load() || stopRequested_.load();
            });
            continue;
        }
        if (queue_.empty()) {
            if (!waitWhenEmpty_)
                return RunResult::Drained;
            drainedWaiting_.store(true);
            notifyState("drained");
            cv_.wait(lk, [this]() {
                return !queue_.empty() || stopRequested_.load();
            });
            drainedWaiting_.store(false);
            continue;
        }
        // Execute a batch of events per lock acquisition: taking the
        // lock per event would cost a measurable fraction of the event
        // loop, while a monitor request only needs *a* consistent
        // point, not the very next one. Pause/stop are honored between
        // batches, and the lock is released after each batch so
        // monitor threads get a turn.
        for (int i = 0; i < lockBatch_; i++) {
            if (queue_.empty() ||
                stopRequested_.load(std::memory_order_relaxed) ||
                paused_.load(std::memory_order_relaxed))
                break;
            EventQueue::Popped next = queue_.pop();
            now_.store(next.time, std::memory_order_relaxed);
            execute(next.entry);
        }
        lk.unlock();
        // Handoff: a bare unlock/lock on a mutex gives waiting monitor
        // threads no fairness guarantee — the loop usually re-acquires
        // immediately and a withLock() caller can starve for thousands
        // of batches. Spin-yield until the announced waiters drain.
        while (lockWaiters_.load(std::memory_order_acquire) > 0 &&
               !stopRequested_.load(std::memory_order_relaxed)) {
            std::this_thread::yield();
        }
        lk.lock();
    }
    return RunResult::Stopped;
}

RunResult
Engine::run()
{
    stopRequested_.store(false);
    running_.store(true);
    notifyState("run_start");
    RunResult result;
    {
        RunningScope scope(this);
        result = concurrent_ ? runLocked() : runUnlocked();
    }
    running_.store(false);
    if (concurrent_)
        cv_.notify_all();
    notifyState("run_end");
    return result;
}

} // namespace sim
} // namespace akita
