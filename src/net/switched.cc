#include "net/switched.hh"

#include <algorithm>
#include <stdexcept>

namespace akita
{
namespace net
{

SwitchedNetwork::SwitchedNetwork(sim::Engine *engine, std::string name,
                                 const Config &cfg)
    : Connection(name), engine_(engine), name_(std::move(name)), cfg_(cfg),
      psPerByte_(static_cast<double>(sim::kSecond) / cfg.bytesPerSecond)
{
    declareField("in_flight", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(inFlight()));
    });
    declareField("total_bytes", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(totalBytes()));
    });
    declareField("total_msgs", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(totalMsgs_.value()));
    });
}

void
SwitchedNetwork::plugIn(sim::Port *port)
{
    port->setConnection(this, ports_.size());
    ports_.push_back(port);
    linkFreeAt_.push_back(0);
}

sim::SendStatus
SwitchedNetwork::send(sim::Msg *msg)
{
    sim::Port *dst = msg->dst;
    if (dst->connection() != this) {
        throw std::runtime_error("network " + name_ +
                                 " cannot reach port " + dst->fullName());
    }

    if (!dst->claimSlot(msg->src ? msg->src->owner() : nullptr))
        return sim::SendStatus::Busy;

    sim::VTime now = engine_->now();
    sim::VTime &freeAt = linkFreeAt_[dst->connectionSlot()];
    sim::VTime start = std::max(now, freeAt);
    auto serialize = static_cast<sim::VTime>(
        static_cast<double>(msg->trafficBytes) * psPerByte_);
    sim::VTime done = start + std::max<sim::VTime>(serialize, 1);
    freeAt = done;
    totalBytes_.incOwned(msg->trafficBytes);
    totalMsgs_.incOwned();
    msg->sendTime = now;

    engine_->scheduleDelivery(done + cfg_.latency, this, sim::MsgPtr(msg));
    return sim::SendStatus::Ok;
}

} // namespace net
} // namespace akita
