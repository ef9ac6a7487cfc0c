#include "sim/connection.hh"

#include <stdexcept>

namespace akita
{
namespace sim
{

DirectConnection::DirectConnection(Engine *engine, std::string name,
                                   VTime latency)
    : Connection(name), engine_(engine), name_(std::move(name)),
      latency_(latency)
{
}

void
DirectConnection::plugIn(Port *port)
{
    port->setConnection(this, ports_.size());
    ports_.push_back(port);
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
    VTime now = engine_->now();
    msg->sendTime = now;
    engine_->scheduleDelivery(now + latency_, this, MsgPtr(msg));
    return SendStatus::Ok;
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
