/**
 * @file
 * Connections deliver messages between plugged ports.
 */

#ifndef AKITA_SIM_CONNECTION_HH
#define AKITA_SIM_CONNECTION_HH

#include <map>
#include <mutex>
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
     * Attempts to transmit; called by Port::send.
     *
     * @return Busy when the destination (or the connection itself)
     *         cannot accept the message now.
     */
    virtual SendStatus send(MsgPtr msg) = 0;

    /**
     * Signals that @p dst freed buffer space, so senders blocked on it
     * can be woken.
     */
    virtual void notifyAvailable(Port *dst) = 0;

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
     * Snapshot of every sender blocked on this connection (hang
     * analysis: each entry is a wait-for edge sender → dst owner).
     * The default reports nothing.
     */
    virtual std::vector<BlockedSender> blockedSnapshot() const
    {
        return {};
    }
};

/**
 * Fixed-latency point-to-multipoint connection (Akita DirectConnection).
 *
 * Any plugged port may send to any other plugged port; each message is
 * delivered after a fixed latency. Destination buffer space is reserved
 * at send time, so in-flight messages never overflow the destination:
 * when no space remains, send returns Busy and the sending component is
 * woken once space frees.
 *
 * Internally synchronized: under the domain engine, senders in one
 * domain and delivery events in another race on the reservation
 * table. The mutex is held across the delivery push so the
 * invariant size+reserved <= capacity can never be violated by a send
 * that sneaks between the reservation release and the buffer push.
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
    SendStatus send(MsgPtr msg) override;
    void notifyAvailable(Port *dst) override;

    VTime minLatency() const override { return latency_; }

    /** Delivery: the engine hands back the DeliverEvents send() queued. */
    void handle(Event &event) override;

    NameRef profName() const override { return deliverName_; }

    std::string handlerName() const override { return deliverName_.str(); }

    /** Messages currently in flight on this connection. */
    std::size_t
    inFlight() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return inFlightTotal_;
    }

    std::vector<BlockedSender> blockedSnapshot() const override;

  private:
    void deliver(MsgPtr msg);

    Engine *engine_;
    std::string name_;
    VTime latency_;
    /** Interned "<name>::deliver" profiler label. */
    NameRef deliverName_;
    std::vector<Port *> ports_;
    /**
     * Guards pending_, blockedSenders_, inFlightTotal_. Lock order:
     * conn -> buffer (leaf); wake() is always called after releasing it.
     */
    mutable std::mutex mu_;
    /** Space reserved at each destination by in-flight messages. */
    std::map<Port *, std::size_t> pending_;
    /**
     * Components to wake when the keyed destination frees space.
     * Insertion-ordered (not a set): wake order must be deterministic,
     * and pointer ordering varies across platform instantiations.
     */
    std::map<Port *, std::vector<Component *>> blockedSenders_;
    std::size_t inFlightTotal_ = 0;
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_CONNECTION_HH
