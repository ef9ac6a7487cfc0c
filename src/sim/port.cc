#include "sim/port.hh"

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
Port::send(Msg *msg)
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
    const std::uint64_t bytes = msg->trafficBytes;
    SendStatus st = conn_->send(msg);
    if (st == SendStatus::Ok) {
        totalSent_.incOwned();
        totalSentBytes_.incOwned(bytes);
    } else {
        msg->src = prevSrc;
        totalRejected_.incOwned();
        if (owner_ != nullptr)
            owner_->sendRefused(msg->dst);
    }
    return st;
}

void
Port::addWaiterSlow(Component *sender)
{
    lastWaiter_ = sender;
    // The sender's listing of this port, not a scan of waiters_, says
    // whether it is already listed since the last wake.
    if (sender->listOn(this, wakeEpoch_))
        waiters_.push_back(sender);
}

void
Port::wakeWaiters()
{
    // Take waking_ for the duration: a wake that re-enters here (a
    // component retrieving from its own port inside wake()) then finds
    // it empty instead of mutating the list being walked.
    std::vector<Component *> toWake;
    toWake.swap(waking_);
    toWake.swap(waiters_);
    lastWaiter_ = nullptr;
    // Every listing of this port is stale from here on, so a woken
    // sender (even one re-registering inside its wake) lists anew.
    wakeEpoch_++;
    for (Component *c : toWake)
        c->slotFreed();
    toWake.clear();
    waking_.swap(toWake);
}

MsgPtr
Port::retrieveIncoming()
{
    MsgPtr m = buf_.pop();
    if (m != nullptr)
        releaseSlot();
    return m;
}

MsgPtr
Port::retrieveIncomingMatching(
    const std::function<bool(const Msg &)> &pred)
{
    MsgPtr m = buf_.popMatching(pred);
    if (m != nullptr)
        releaseSlot();
    return m;
}

void
Port::deliver(MsgPtr msg)
{
    totalReceived_.incOwned();
    buf_.push(std::move(msg));
    if (owner_ != nullptr)
        owner_->wake();
}

} // namespace sim
} // namespace akita
