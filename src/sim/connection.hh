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
 * Transport between ports.
 *
 * A successful send queues a delivery entry (Engine::scheduleDelivery):
 * no event object, just the connection and the message, whose one
 * reference the entry holds until the engine moves it into msg->dst.
 */
class Connection
{
  public:
    virtual ~Connection() = default;

    /** Interned "<name>::deliver": the profiler label of deliveries. */
    NameRef deliverName() const { return deliverName_; }

    /** Human-readable name (topology view). */
    virtual const std::string &connectionName() const = 0;

    /** Ports attached to this connection (topology view). */
    virtual const std::vector<Port *> &attachedPorts() const = 0;

    /** Attaches a port to this connection. */
    virtual void plugIn(Port *port) = 0;

    /**
     * Attempts to transmit; called by Port::send with a borrowed
     * message. On Ok the connection retains it once, for the
     * delivery entry that carries it; on Busy it touches no refcount.
     *
     * @return Busy when the destination (or the connection itself)
     *         cannot accept the message now.
     */
    virtual SendStatus send(Msg *msg) = 0;

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

  protected:
    explicit Connection(const std::string &name)
        : deliverName_(name + "::deliver")
    {
    }

  private:
    NameRef deliverName_;
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
 * Stateless beyond its wiring, so it needs no lock.
 */
class DirectConnection : public Connection
{
  public:
    /**
     * @param latency Delivery latency; 0 delivers at the current time
     *        (still through the event queue, preserving order).
     */
    DirectConnection(Engine *engine, std::string name, VTime latency);
    const std::string &name() const { return name_; }

    const std::string &connectionName() const override { return name_; }

    const std::vector<Port *> &attachedPorts() const override
    {
        return ports_;
    }

    void plugIn(Port *port) override;
    SendStatus send(Msg *msg) override;

  private:
    Engine *engine_;
    std::string name_;
    VTime latency_;
    std::vector<Port *> ports_;
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_CONNECTION_HH
