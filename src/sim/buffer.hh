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

#include <functional>
#include <memory>
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
 * A fixed ring of `capacity` slots, allocated once at construction:
 * push and pop move one pointer and never allocate.
 *
 * Single-owner, unsynchronized: only the simulation thread touches a
 * buffer. Monitor threads read it under Engine::withLock, which stops
 * the simulation at an event boundary; approxSize() is the one
 * lock-free reader.
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

    std::size_t size() const { return size_; }

    bool empty() const { return size_ == 0; }

    bool full() const { return size_ >= capacity_; }

    /** Occupancy in [0,1]. */
    double
    fullness() const
    {
        return static_cast<double>(size_) / static_cast<double>(capacity_);
    }

    /** True when at least one more message fits. */
    bool canPush() const { return size_ < capacity_; }

    /**
     * Appends a message.
     *
     * @throws std::runtime_error when full (backpressure violation).
     */
    void
    push(MsgPtr msg)
    {
        if (size_ >= capacity_)
            overflow();
        slots_[slot(size_)] = std::move(msg);
        size_++;
        totalPushed_.incOwned();
        occupancy_.set(static_cast<double>(size_));
        if (size_ > peakSize_)
            peakSize_ = size_;
    }

    /**
     * The oldest message without removing it; a null pointer when
     * empty. Borrowed: the reference dies with the next pop, so a
     * caller that keeps the message copies it.
     */
    const MsgPtr &peek() const { return size_ == 0 ? kNoMsg : slots_[head_]; }

    /** Removes and returns the oldest message; nullptr when empty. */
    MsgPtr
    pop()
    {
        if (size_ == 0)
            return nullptr;
        MsgPtr m = std::move(slots_[head_]);
        head_ = slot(1);
        size_--;
        occupancy_.set(static_cast<double>(size_));
        return m;
    }

    /**
     * Removes and returns the oldest message satisfying @p pred;
     * nullptr when none matches. Models a separate virtual channel
     * (e.g. write acknowledgments bypassing blocked read data).
     */
    MsgPtr popMatching(const std::function<bool(const Msg &)> &pred);

    /** Removes all messages. */
    void clear();

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
    /** Throws the push-on-full error. */
    [[noreturn]] void overflow() const;

    /** What peek() returns when the buffer is empty. */
    static inline const MsgPtr kNoMsg{};

    /** Slot @p i places after the head (i < capacity). */
    std::size_t
    slot(std::size_t i) const
    {
        std::size_t s = head_ + i;
        return s >= capacity_ ? s - capacity_ : s;
    }

    std::string name_;
    std::size_t capacity_;
    std::unique_ptr<MsgPtr[]> slots_;
    /** Slot of the oldest message. */
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    metrics::Counter totalPushed_;
    metrics::Gauge occupancy_;
    std::size_t peakSize_ = 0;
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_BUFFER_HH
