/**
 * @file
 * Ports: the endpoints through which components exchange messages.
 */

#ifndef AKITA_SIM_PORT_HH
#define AKITA_SIM_PORT_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "metrics/instrument.hh"
#include "sim/buffer.hh"
#include "sim/msg.hh"

namespace akita
{
namespace sim
{

class Component;
class Connection;

/** Result of Port::send. */
enum class SendStatus
{
    /** Message accepted; delivery is scheduled. */
    Ok,
    /** Destination cannot accept more traffic; retry after wake. */
    Busy,
};

/**
 * A named endpoint owned by a component.
 *
 * Each port has a bounded incoming buffer; the buffer is automatically
 * visible to the bottleneck analyzer (the Go original discovers it via
 * reflection; here the component base class enumerates its ports).
 *
 * Single-owner: only the simulation thread touches a port, or a
 * monitor thread under Engine::withLock. The slot claim and the
 * traffic counters are relaxed atomics written by load plus store, so
 * monitor threads may read them without the lock; nothing on the
 * send path takes a lock or a locked read-modify-write.
 */
class Port
{
  public:
    /**
     * @param owner Owning component; receives wake notifications.
     * @param name Port name relative to the owner, e.g. "TopPort".
     * @param buf_capacity Incoming-buffer capacity.
     */
    Port(Component *owner, std::string name, std::size_t buf_capacity);

    Component *owner() const { return owner_; }
    const std::string &name() const { return name_; }

    /** Hierarchical name: "<owner>.<port>". */
    const std::string &fullName() const { return fullName_; }

    /**
     * Wires this port to a connection (done by the connection's
     * plugIn), as its attachedPorts()[@p slot].
     */
    void
    setConnection(Connection *conn, std::size_t slot)
    {
        conn_ = conn;
        connSlot_ = slot;
    }

    Connection *connection() const { return conn_; }

    /** This port's index in connection()->attachedPorts(). */
    std::size_t connectionSlot() const { return connSlot_; }

    /**
     * Sends a message; msg->dst must identify the destination port.
     *
     * The message is borrowed: on Ok the connection takes the one
     * reference the hop holds until delivery; on Busy nothing is
     * retained or released, and the caller's reference (or buffer
     * slot) still owns the message for a retry.
     *
     * On Busy the sender's component is registered for a wake when the
     * destination frees space, so sleeping senders are re-ticked.
     */
    SendStatus send(Msg *msg);

    /** send() of an owned message, with no converting MsgPtr copy. */
    template <typename T>
    SendStatus
    send(const IntrusivePtr<T> &msg)
    {
        return send(static_cast<Msg *>(msg.get()));
    }

    /** Incoming buffer (exposed for monitoring and tests). */
    Buffer &buf() { return buf_; }
    const Buffer &buf() const { return buf_; }

    /**
     * The oldest delivered message without consuming it. Borrowed:
     * never use it (or a msgCast of it) after retrieveIncoming*().
     */
    const MsgPtr &peekIncoming() const { return buf_.peek(); }

    /**
     * Consumes the oldest delivered message.
     *
     * Frees the message's slot and wakes the senders blocked on this
     * port.
     */
    MsgPtr retrieveIncoming();

    /**
     * Consumes the oldest delivered message satisfying @p pred,
     * bypassing head-of-line blocking (virtual-channel semantics).
     */
    MsgPtr
    retrieveIncomingMatching(const std::function<bool(const Msg &)> &pred);

    /**
     * Delivers a message into the incoming buffer (connection side) and
     * wakes the owning component.
     */
    void deliver(MsgPtr msg);

    /**
     * Claims one incoming-buffer slot for a message about to be sent
     * here; connections call it on send. The slot stays claimed while
     * the message is in flight and buffered, and retrieveIncoming*()
     * releases it, so claimed() never exceeds the capacity and a
     * delivery can never overflow the buffer.
     *
     * On failure @p sender (when non-null) is registered for a wake
     * once a slot frees.
     *
     * @return True when a slot was claimed.
     */
    bool
    claimSlot(Component *sender)
    {
        const std::size_t c = claimed_.load(std::memory_order_relaxed);
        if (c < buf_.capacity()) {
            claimed_.store(c + 1, std::memory_order_relaxed);
            return true;
        }
        if (sender != nullptr)
            addWaiter(sender);
        return false;
    }

    /**
     * Registers @p sender for a wake once a slot frees, without
     * claiming one: TickingComponent's skipped tick re-registers this
     * way.
     *
     * @return True when the port is full and @p sender is registered;
     *         false when a slot is free.
     */
    bool
    waitForSlot(Component *sender)
    {
        if (claimed_.load(std::memory_order_relaxed) < buf_.capacity())
            return false;
        addWaiter(sender);
        return true;
    }

    /** Buffered plus in-flight messages addressed to this port. */
    std::size_t
    claimed() const
    {
        return claimed_.load(std::memory_order_relaxed);
    }

    /** Senders waiting for a free slot, in registration order. */
    const std::vector<Component *> &blockedSenders() const
    {
        return waiters_;
    }

    /**
     * Traffic counters. Backed by relaxed atomics so monitor threads
     * (throughput view, metrics sampler) read them without taking the
     * engine lock.
     */
    /** Total messages ever sent from this port. */
    std::uint64_t totalSent() const { return totalSent_.value(); }

    /** Total sends rejected with Busy (backpressure indicator). */
    std::uint64_t totalSendRejections() const { return totalRejected_.value(); }

    /** Total bytes successfully sent from this port. */
    std::uint64_t totalSentBytes() const { return totalSentBytes_.value(); }

    /** Total messages ever delivered into this port. */
    std::uint64_t totalReceived() const { return totalReceived_.value(); }

  private:
    /** Lists @p sender (once) for a wake when a slot frees. */
    void
    addWaiter(Component *sender)
    {
        // A sender retrying a full port is usually the one listed last.
        if (lastWaiter_ == sender)
            return;
        addWaiterSlow(sender);
    }

    void addWaiterSlow(Component *sender);

    /** Frees the slot of a retrieved message and wakes the waiters. */
    void
    releaseSlot()
    {
        claimed_.store(claimed_.load(std::memory_order_relaxed) - 1,
                       std::memory_order_relaxed);
        if (!waiters_.empty())
            wakeWaiters();
    }

    void wakeWaiters();

    Component *owner_;
    std::string name_;
    std::string fullName_;
    Buffer buf_;
    Connection *conn_ = nullptr;
    std::size_t connSlot_ = 0;
    metrics::Counter totalSent_;
    metrics::Counter totalRejected_;
    metrics::Counter totalSentBytes_;
    metrics::Counter totalReceived_;
    /** Buffered plus in-flight messages (see claimSlot). */
    std::atomic<std::size_t> claimed_{0};
    /**
     * Senders to wake when a slot frees. Insertion-ordered (not a set):
     * wake order must be deterministic.
     */
    std::vector<Component *> waiters_;
    /**
     * The waiters releaseSlot() is waking, swapped out of waiters_.
     * Owner only; both vectors keep their capacity, so a wait
     * allocates nothing once the two have grown.
     */
    std::vector<Component *> waking_;
    /**
     * The most recently registered waiter while it is still listed, so
     * a sender retrying a full port skips the listing lookup.
     */
    Component *lastWaiter_ = nullptr;
    /**
     * Bumped by every wakeWaiters(): a sender's listing of this port
     * (Component::listOn) is live only while it carries this epoch.
     */
    std::uint64_t wakeEpoch_ = 0;
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_PORT_HH
