/**
 * @file
 * Connections deliver messages between plugged ports.
 */

#ifndef AKITA_SIM_CONNECTION_HH
#define AKITA_SIM_CONNECTION_HH

#include <string>
#include <vector>

#include "sim/engine.hh"
#include "sim/msg.hh"
#include "sim/port.hh"

namespace akita
{
namespace sim
{

class Component;

/**
 * A pooled event carrying one in-flight message to its destination.
 *
 * Connections used to schedule a FuncEvent whose lambda owned the
 * message — a per-message std::function heap allocation plus a
 * per-message name-string build. A typed event carries the message
 * directly: the pool serves the event, the intrusive pointer moves, and
 * the connection (an EventHandler with a pre-interned name) delivers.
 * The event holds the hop's one reference and moves it into the
 * destination buffer.
 */
class DeliverEvent : public Event
{
  public:
    DeliverEvent(VTime time, EventHandler *handler, MsgPtr msg)
        : Event(time, handler), msg(std::move(msg))
    {
    }

    Port *deliveryDst() const override { return msg ? msg->dst : nullptr; }

    MsgPtr msg;
};

/** Transport between ports. */
class Connection
{
  public:
    virtual ~Connection() = default;

    /** Human-readable name (topology view). */
    virtual const std::string &connectionName() const = 0;

    /** Ports attached to this connection (topology view). */
    virtual const std::vector<Port *> &attachedPorts() const = 0;

    /** Attaches a port to this connection. */
    virtual void plugIn(Port *port) = 0;

    /**
     * Attempts to transmit; called by Port::send with a borrowed
     * message. On Ok the connection retains it once, for the
     * DeliverEvent that carries it; on Busy it touches no refcount.
     *
     * @return Busy when the destination (or the connection itself)
     *         cannot accept the message now.
     */
    virtual SendStatus send(Msg *msg) = 0;

    /**
     * Lower bound on the delivery latency of any message this
     * connection carries — the lookahead the domain engine may exploit
     * when the connection crosses a domain boundary. The conservative
     * default (0) forces the partitioner to keep all attached
     * components in one domain.
     */
    virtual VTime minLatency() const { return 0; }

    /** One sender currently blocked on a full destination port. */
    struct BlockedSender
    {
        Port *dst = nullptr;
        Component *sender = nullptr;
    };

    /**
     * Every sender blocked on a port of this connection, port by port
     * in plug-in order, each port's senders in registration order
     * (hang analysis: each entry is a wait-for edge sender → dst
     * owner).
     */
    std::vector<BlockedSender> blockedSnapshot() const;

    /**
     * Messages sent on this connection and not yet delivered: claimed
     * slots minus buffered messages, over the attached ports. Reads
     * the port buffers, so call it under Engine::withLock or while the
     * engine is not running.
     */
    std::size_t inFlight() const;
};

/**
 * Fixed-latency point-to-multipoint connection (Akita DirectConnection).
 *
 * Any plugged port may send to any other plugged port; each message is
 * delivered after a fixed latency. Destination buffer space is claimed
 * on the destination port at send time (Port::claimSlot), so in-flight
 * messages never overflow the destination: when no slot remains, send
 * returns Busy and the sending component is woken once one frees.
 *
 * Stateless beyond its wiring, so it needs no lock: the claim is the
 * only state a send shares with the destination's domain, and the
 * delivery event runs on that domain.
 */
class DirectConnection : public Connection, public EventHandler
{
  public:
    /**
     * @param latency Delivery latency; 0 delivers at the current time
     *        (still through the event queue, preserving order).
     */
    DirectConnection(Engine *engine, std::string name, VTime latency);
    ~DirectConnection() override;

    const std::string &name() const { return name_; }

    const std::string &connectionName() const override { return name_; }

    const std::vector<Port *> &attachedPorts() const override
    {
        return ports_;
    }

    void plugIn(Port *port) override;
    SendStatus send(Msg *msg) override;

    VTime minLatency() const override { return latency_; }

    /** Delivery: the engine hands back the DeliverEvents send() queued. */
    void handle(Event &event) override;

    NameRef profName() const override { return deliverName_; }

    std::string handlerName() const override { return deliverName_.str(); }

  private:
    Engine *engine_;
    std::string name_;
    VTime latency_;
    /** Interned "<name>::deliver" profiler label. */
    NameRef deliverName_;
    std::vector<Port *> ports_;
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_CONNECTION_HH
