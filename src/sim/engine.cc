#include "sim/engine.hh"

#include <thread>

#include "sim/prof.hh"

namespace akita
{
namespace sim
{

const HookPos hookPosBeforeEvent{"BeforeEvent"};
const HookPos hookPosAfterEvent{"AfterEvent"};
const HookPos hookPosQueueDrained{"QueueDrained"};
const HookPos hookPosPortDeliver{"PortDeliver"};
const HookPos hookPosPortRetrieve{"PortRetrieve"};

SerialEngine::SerialEngine()
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

/** The SerialEngine whose run() is executing on this thread. */
thread_local const SerialEngine *tlsRunning = nullptr;

/** Marks @p eng as running on this thread for one run() call. */
struct RunningScope
{
    explicit RunningScope(const SerialEngine *eng) { tlsRunning = eng; }
    ~RunningScope() { tlsRunning = nullptr; }
};

} // namespace

/**
 * The engine lock as an external thread takes it. The announcement in
 * lockWaiters_ makes the event loop yield between batches instead of
 * re-acquiring at once (fairness); it stays up until the lock is
 * released, so the loop cannot starve a queue of waiting threads.
 */
class SerialEngine::ExternalLock
{
  public:
    explicit ExternalLock(const SerialEngine &eng) : eng_(eng)
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
    const SerialEngine &eng_;
};

bool
SerialEngine::external() const
{
    return concurrent_ && tlsRunning != this;
}

void
SerialEngine::schedule(EventPtr event)
{
    auto push = [&]() {
        if (event->time() < now()) {
            throw std::runtime_error(
                "cannot schedule event in the past (t=" +
                std::to_string(event->time()) +
                ", now=" + std::to_string(now()) + ")");
        }
        totalScheduled_.fetch_add(1, std::memory_order_relaxed);
        queue_.push(std::move(event));
    };
    if (external()) {
        // The past-check must run under the lock: a cross-thread
        // schedule could otherwise pass the check against a stale now()
        // and still land in the past once the simulation thread
        // advances time.
        ExternalLock lk(*this);
        push();
        cv_.notify_all();
    } else {
        // No lock: either nothing else runs, or this is the simulation
        // thread inside its batch, which already holds the lock — and
        // the loop is not waiting, so there is no one to notify.
        push();
    }
}

void
SerialEngine::stop()
{
    stopRequested_.store(true);
    if (concurrent_)
        cv_.notify_all();
    notifyState("stop");
}

void
SerialEngine::pause()
{
    paused_.store(true);
    notifyState("pause");
}

void
SerialEngine::resume()
{
    paused_.store(false);
    if (concurrent_)
        cv_.notify_all();
    notifyState("resume");
}

std::size_t
SerialEngine::queueLength() const
{
    if (external()) {
        ExternalLock lk(*this);
        return queue_.size();
    }
    return queue_.size();
}

void
SerialEngine::withLock(const std::function<void()> &fn) const
{
    if (external()) {
        ExternalLock lk(*this);
        fn();
    } else {
        fn();
    }
}

void
SerialEngine::executeEvent(Event &event)
{
    invokeHook(hookPosBeforeEvent, &event);
    if (Profiler::instance().enabled()) {
        // profName() is a pre-interned id: no string build, no lookup.
        ProfScope scope(event.handler()->profName());
        event.handler()->handle(event);
    } else {
        event.handler()->handle(event);
    }
    invokeHook(hookPosAfterEvent, &event);
    // Single-writer counter (only the sim thread executes events in
    // the serial engine): a load+store pair compiles to plain MOVs,
    // unlike fetch_add's lock-prefixed RMW, and stays readable from
    // monitor threads. The domain engine's workers share their counter
    // and settle it with a real RMW once per batch instead.
    totalEvents_.store(
        totalEvents_.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
}

RunResult
SerialEngine::runUnlocked()
{
    while (!stopRequested_.load(std::memory_order_relaxed)) {
        if (queue_.empty()) {
            invokeHook(hookPosQueueDrained, nullptr);
            return RunResult::Drained;
        }
        EventPtr ev = queue_.pop();
        now_.store(ev->time(), std::memory_order_relaxed);
        executeEvent(*ev);
    }
    return RunResult::Stopped;
}

RunResult
SerialEngine::runLocked()
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
            invokeHook(hookPosQueueDrained, nullptr);
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
            EventPtr ev = queue_.pop();
            now_.store(ev->time(), std::memory_order_relaxed);
            executeEvent(*ev);
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
SerialEngine::run()
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
