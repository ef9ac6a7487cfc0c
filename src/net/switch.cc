#include "net/switch.hh"

namespace akita
{
namespace net
{

Switch::Switch(sim::Engine *engine, const std::string &name,
               sim::Freq freq, const Config &cfg)
    : TickingComponent(engine, name, freq), cfg_(cfg)
{
    declareField("forwarded", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(forwarded_));
    });
    declareField("dropped", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(dropped_));
    });
}

sim::Port *
Switch::addLink(const std::string &link_name)
{
    sim::Port *port = addPort(link_name, cfg_.portBufCapacity);
    Egress egress;
    egress.port = port;
    egress.queue = std::make_unique<sim::Buffer>(
        port->fullName() + ".EgressBuf", cfg_.egressQueueCapacity);
    registerBuffer(egress.queue.get());
    egresses_.push_back(std::move(egress));
    return port;
}

bool
Switch::tick()
{
    bool progress = false;
    progress |= drainEgress();
    progress |= routeIngress();
    return progress;
}

bool
Switch::drainEgress()
{
    bool progress = false;
    for (auto &egress : egresses_) {
        for (std::size_t i = 0; i < cfg_.forwardPerCycle; i++) {
            const sim::MsgPtr &msg = egress.queue->peek();
            if (msg == nullptr)
                break;
            if (egress.port->send(msg) != sim::SendStatus::Ok)
                break;
            egress.queue->pop(); // Ends the borrow of msg.
            forwarded_++;
            progress = true;
        }
    }
    return progress;
}

bool
Switch::routeIngress()
{
    bool progress = false;
    for (const auto &port : ports()) {
        for (std::size_t i = 0; i < cfg_.forwardPerCycle; i++) {
            const sim::MsgPtr &msg = port->peekIncoming();
            if (msg == nullptr)
                break;

            sim::Port *finalDst =
                msg->finalDst != nullptr ? msg->finalDst : msg->dst;
            sim::Port *nextHop = route_ ? route_(finalDst) : nullptr;
            if (nextHop == nullptr) {
                port->retrieveIncoming();
                dropped_++;
                progress = true;
                continue;
            }

            // Choose the egress whose link reaches the next hop.
            Egress *out = nullptr;
            for (auto &egress : egresses_) {
                if (egress.port->connection() ==
                    nextHop->connection()) {
                    out = &egress;
                    break;
                }
            }
            if (out == nullptr || out->port == port.get()) {
                // Unroutable, or the route points back out the arrival
                // port: a routing loop. Drop rather than livelock; the
                // `dropped` counter makes misconfiguration visible.
                port->retrieveIncoming();
                dropped_++;
                progress = true;
                continue;
            }
            sim::Buffer &q = *out->queue;
            if (!q.canPush())
                break; // Backpressure: leave it in the ingress buffer.

            msg->dst = nextHop;
            q.push(port->retrieveIncoming()); // Moves; ends the borrow.
            progress = true;
        }
    }
    return progress;
}

} // namespace net
} // namespace akita
