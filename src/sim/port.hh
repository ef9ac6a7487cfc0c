/**
 * @file
 * Ports: the endpoints through which components exchange messages.
 */

#ifndef AKITA_SIM_PORT_HH
#define AKITA_SIM_PORT_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "metrics/instrument.hh"
#include "sim/buffer.hh"
#include "sim/hook.hh"
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
 * The buffer belongs to the owner's worker alone. The two pieces of
 * port state a sender in another domain may touch are the slot claim
 * (an atomic count of buffered plus in-flight messages) and the list
 * of senders waiting for a slot.
 */
class Port : public Hookable
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

    /** Wires this port to a connection (done by the connection). */
    void setConnection(Connection *conn) { conn_ = conn; }

    Connection *connection() const { return conn_; }

    /**
     * Sends a message; msg->dst must identify the destination port.
     *
     * On Busy the sender's component is registered for a wake when the
     * destination frees space, so sleeping senders are re-ticked.
     */
    SendStatus send(const MsgPtr &msg);

    /** Incoming buffer (exposed for monitoring and tests). */
    Buffer &buf() { return buf_; }
    const Buffer &buf() const { return buf_; }

    /** The oldest delivered message without consuming it. */
    MsgPtr peekIncoming() const { return buf_.peek(); }

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
     * here; connections call it from the sender's worker. The slot
     * stays claimed while the message is in flight and buffered, and
     * retrieveIncoming*() releases it, so claimed() never exceeds the
     * capacity and a delivery can never overflow the buffer.
     *
     * On failure @p sender (when non-null) is registered for a wake
     * once a slot frees. Registering re-checks the claim, so a slot
     * freed concurrently by another domain is either taken here or
     * wakes the sender: no wake is lost.
     *
     * @return True when a slot was claimed.
     */
    bool claimSlot(Component *sender);

    /** Buffered plus in-flight messages addressed to this port. */
    std::size_t
    claimed() const
    {
        return claimed_.load(std::memory_order_relaxed);
    }

    /** Senders waiting for a free slot, in registration order. */
    std::vector<Component *> blockedSenders() const;

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
    friend class DomainEngine;

    /** Frees the slot of a retrieved message and wakes the waiters. */
    void releaseSlot();

    Component *owner_;
    std::string name_;
    std::string fullName_;
    Buffer buf_;
    Connection *conn_ = nullptr;
    metrics::Counter totalSent_;
    metrics::Counter totalRejected_;
    metrics::Counter totalSentBytes_;
    metrics::Counter totalReceived_;
    /** Buffered plus in-flight messages (see claimSlot). */
    std::atomic<std::size_t> claimed_{0};
    /**
     * Guards waiters_. Taken only to register a new waiter and to
     * drain the list; hasWaiters_ lets a pop skip it otherwise.
     */
    mutable std::mutex waitMu_;
    /**
     * Senders to wake when a slot frees. Insertion-ordered (not a set):
     * wake order must be deterministic.
     */
    std::vector<Component *> waiters_;
    std::atomic<bool> hasWaiters_{false};
    /**
     * The most recently registered waiter while it is still listed, so
     * a sender retrying a full port skips the lock.
     */
    std::atomic<Component *> lastWaiter_{nullptr};
    /**
     * DomainEngine routing cache: (partition epoch << 32) | domain
     * index. Delivery events route by destination port; hashing the
     * owning component on every cross-domain send is measurable on
     * the hot path, so the engine memoizes the answer here and a
     * repartition invalidates it by bumping the epoch. Multiple
     * workers may race to fill it with the same value — hence the
     * relaxed atomic, not a plain field.
     */
    mutable std::atomic<std::uint64_t> routeHint_{0};
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_PORT_HH
