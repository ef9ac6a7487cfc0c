#include "sim/connection.hh"

#include <stdexcept>

namespace akita
{
namespace sim
{

DirectConnection::DirectConnection(Engine *engine, std::string name,
                                   VTime latency)
    : engine_(engine), name_(std::move(name)), latency_(latency),
      deliverName_(name_ + "::deliver")
{
    engine_->noteConnection(this);
}

DirectConnection::~DirectConnection()
{
    engine_->noteConnectionDestroyed(this);
}

void
DirectConnection::plugIn(Port *port)
{
    ports_.push_back(port);
    port->setConnection(this);
}

SendStatus
DirectConnection::send(Msg *msg)
{
    Port *dst = msg->dst;
    if (dst->connection() != this) {
        throw std::runtime_error(
            "connection " + name_ + " cannot reach port " +
            dst->fullName() + " (msg " + msg->kind() + " from " +
            (msg->src ? msg->src->fullName() : "?") + ")");
    }
    // Destination full (counting in-flight messages): the sender is
    // registered for a wake so sleep/wake ticking does not deadlock.
    if (!dst->claimSlot(msg->src ? msg->src->owner() : nullptr))
        return SendStatus::Busy;
    msg->sendTime = engine_->now();

    // A typed pooled event owns the message until delivery: no lambda,
    // no std::function allocation, no per-message name build.
    engine_->schedule(std::make_unique<DeliverEvent>(
        engine_->now() + latency_, this, MsgPtr(msg)));
    return SendStatus::Ok;
}

void
DirectConnection::handle(Event &event)
{
    // Only DeliverEvents are ever scheduled with this handler; they run
    // on the destination's domain, which owns its buffer.
    auto &de = static_cast<DeliverEvent &>(event);
    Port *dst = de.msg->dst;
    dst->deliver(std::move(de.msg));
}

std::vector<Connection::BlockedSender>
Connection::blockedSnapshot() const
{
    std::vector<BlockedSender> out;
    for (Port *p : attachedPorts()) {
        for (Component *c : p->blockedSenders())
            out.push_back(BlockedSender{p, c});
    }
    return out;
}

std::size_t
Connection::inFlight() const
{
    std::size_t n = 0;
    for (const Port *p : attachedPorts())
        n += p->claimed() - p->buf().size();
    return n;
}

} // namespace sim
} // namespace akita
