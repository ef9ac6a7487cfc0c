#include "sim/port.hh"

#include <algorithm>
#include <stdexcept>

#include "sim/component.hh"
#include "sim/connection.hh"

namespace akita
{
namespace sim
{

std::atomic<std::uint64_t> Msg::nextId_{0};

Port::Port(Component *owner, std::string name, std::size_t buf_capacity)
    : owner_(owner), name_(std::move(name)),
      fullName_(owner ? owner->name() + "." + name_ : name_),
      buf_(fullName_ + ".Buf", buf_capacity)
{
}

SendStatus
Port::send(const MsgPtr &msg)
{
    if (conn_ == nullptr) {
        throw std::runtime_error("port " + fullName_ +
                                 " is not plugged into a connection");
    }
    if (msg->dst == nullptr) {
        throw std::runtime_error("message sent from " + fullName_ +
                                 " has no destination");
    }
    // Restore the previous source on failure: components that forward a
    // buffered message retry later and must still see the original
    // sender when they re-peek it.
    Port *prevSrc = msg->src;
    msg->src = this;
    // Read before the send: once delivery is scheduled, another
    // domain's worker may own the message.
    const std::uint64_t bytes = msg->trafficBytes;
    SendStatus st = conn_->send(msg);
    if (st == SendStatus::Ok) {
        totalSent_.incOwned();
        totalSentBytes_.incOwned(bytes);
    } else {
        msg->src = prevSrc;
        totalRejected_.incOwned();
    }
    return st;
}

bool
Port::claimSlot(Component *sender)
{
    const std::size_t cap = buf_.capacity();
    std::size_t c = claimed_.load(std::memory_order_relaxed);
    bool registered = false;
    for (;;) {
        if (c < cap) {
            if (claimed_.compare_exchange_weak(c, c + 1))
                return true;
            continue;
        }
        if (registered || sender == nullptr ||
            lastWaiter_.load(std::memory_order_relaxed) == sender)
            return false;
        {
            std::lock_guard<std::mutex> lk(waitMu_);
            lastWaiter_.store(sender, std::memory_order_relaxed);
            if (std::find(waiters_.begin(), waiters_.end(), sender) !=
                waiters_.end())
                return false;
            waiters_.push_back(sender);
            hasWaiters_.store(true);
        }
        // Pairs with releaseSlot(): both sides are seq_cst, so either
        // that pop sees hasWaiters_ and wakes us, or this re-read sees
        // the slot it freed.
        registered = true;
        c = claimed_.load();
    }
}

void
Port::releaseSlot()
{
    claimed_.fetch_sub(1);
    if (!hasWaiters_.load())
        return;
    std::vector<Component *> toWake;
    {
        std::lock_guard<std::mutex> lk(waitMu_);
        toWake.swap(waiters_);
        lastWaiter_.store(nullptr, std::memory_order_relaxed);
        hasWaiters_.store(false, std::memory_order_relaxed);
    }
    // Wake outside the lock: a woken sender in this domain may tick
    // and retry right away.
    for (Component *c : toWake)
        c->wake();
}

std::vector<Component *>
Port::blockedSenders() const
{
    std::lock_guard<std::mutex> lk(waitMu_);
    return waiters_;
}

MsgPtr
Port::retrieveIncoming()
{
    MsgPtr m = buf_.pop();
    if (m != nullptr) {
        invokeHook(hookPosPortRetrieve, m.get());
        releaseSlot();
    }
    return m;
}

MsgPtr
Port::retrieveIncomingMatching(
    const std::function<bool(const Msg &)> &pred)
{
    MsgPtr m = buf_.popMatching(pred);
    if (m != nullptr) {
        invokeHook(hookPosPortRetrieve, m.get());
        releaseSlot();
    }
    return m;
}

void
Port::deliver(MsgPtr msg)
{
    invokeHook(hookPosPortDeliver, msg.get());
    totalReceived_.incOwned();
    buf_.push(std::move(msg));
    if (owner_ != nullptr)
        owner_->wake();
}

} // namespace sim
} // namespace akita
