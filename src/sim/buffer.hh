/**
 * @file
 * Bounded, introspectable message buffers.
 *
 * Buffers are the monitor's window into backpressure: the bottleneck
 * analyzer ranks every registered buffer by occupancy, because a
 * persistently full buffer marks the component that cannot keep up
 * (paper Fig. 4).
 */

#ifndef AKITA_SIM_BUFFER_HH
#define AKITA_SIM_BUFFER_HH

#include <deque>
#include <functional>
#include <string>

#include "introspect/field.hh"
#include "metrics/instrument.hh"
#include "sim/msg.hh"

namespace akita
{
namespace sim
{

/**
 * A FIFO of messages with a hard capacity.
 *
 * push on a full buffer is a programming error (senders must check
 * canPush first); this is what forces explicit backpressure handling in
 * components.
 *
 * Single-owner, unsynchronized: only the owning component's worker
 * touches a buffer. A port buffer is pushed by Port::deliver, which
 * runs on the destination's domain (delivery events route by
 * destination port), and popped by its owner. Monitor threads read it
 * under Engine::withLock, which stops every worker at an event
 * boundary; approxSize() is the one lock-free reader. Cross-domain
 * senders never read a buffer: they claim a slot on the port
 * (Port::claimSlot).
 */
class Buffer : public introspect::Inspectable
{
  public:
    /**
     * @param name Hierarchical name, e.g. "GPU[1].SA[0].L1VROB[0].TopPort.Buf".
     * @param capacity Maximum number of buffered messages; must be >0.
     */
    Buffer(std::string name, std::size_t capacity);

    const std::string &name() const { return name_; }
    std::size_t capacity() const { return capacity_; }

    std::size_t size() const { return q_.size(); }

    bool empty() const { return q_.empty(); }

    bool full() const { return q_.size() >= capacity_; }

    /** Occupancy in [0,1]. */
    double
    fullness() const
    {
        return static_cast<double>(q_.size()) /
               static_cast<double>(capacity_);
    }

    /** True when at least one more message fits. */
    bool canPush() const { return q_.size() < capacity_; }

    /**
     * Appends a message.
     *
     * @throws std::runtime_error when full (backpressure violation).
     */
    void push(MsgPtr msg);

    /**
     * The oldest message without removing it; a null pointer when
     * empty. Borrowed: the reference dies with the next pop, so a
     * caller that keeps the message copies it.
     */
    const MsgPtr &peek() const { return q_.empty() ? kNoMsg : q_.front(); }

    /** Removes and returns the oldest message; nullptr when empty. */
    MsgPtr pop();

    /**
     * Removes and returns the oldest message satisfying @p pred;
     * nullptr when none matches. Models a separate virtual channel
     * (e.g. write acknowledgments bypassing blocked read data).
     */
    MsgPtr popMatching(const std::function<bool(const Msg &)> &pred);

    /** Removes all messages. */
    void
    clear()
    {
        q_.clear();
        occupancy_.set(0);
    }

    /** Total number of messages ever pushed. */
    std::uint64_t totalPushed() const { return totalPushed_.value(); }

    /**
     * Occupancy as of the last push/pop, readable from any thread
     * without any lock. May lag size() by an in-flight event.
     */
    std::size_t
    approxSize() const
    {
        return static_cast<std::size_t>(occupancy_.value());
    }

    /** Highest occupancy ever observed. */
    std::size_t peakSize() const { return peakSize_; }

  private:
    /** What peek() returns when the buffer is empty. */
    static inline const MsgPtr kNoMsg{};

    std::string name_;
    std::size_t capacity_;
    std::deque<MsgPtr> q_;
    metrics::Counter totalPushed_;
    metrics::Gauge occupancy_;
    std::size_t peakSize_ = 0;
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_BUFFER_HH
