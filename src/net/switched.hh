/**
 * @file
 * Bandwidth- and latency-modeled inter-chiplet network.
 */

#ifndef AKITA_NET_SWITCHED_HH
#define AKITA_NET_SWITCHED_HH

#include <string>
#include <vector>

#include "introspect/field.hh"
#include "metrics/instrument.hh"
#include "sim/connection.hh"
#include "sim/engine.hh"

namespace akita
{
namespace net
{

/**
 * A switched network connecting chiplet RDMA ports.
 *
 * Models each destination's ingress link as a serialized resource with
 * finite bandwidth: message delivery occupies the link for
 * size/bandwidth time, plus a fixed propagation latency. Destination
 * buffer space is claimed at send time (Port::claimSlot, like
 * DirectConnection), so a congested receiver backpressures senders —
 * the "slow network" whose effect case study 1 observes as ~1000
 * transactions piling up in the RDMA engine.
 *
 * Single-owner like every piece of simulation state: only the
 * simulation thread sends and delivers. The traffic totals are
 * incOwned counters, so monitor threads read them without a lock.
 */
class SwitchedNetwork : public sim::Connection,
                        public introspect::Inspectable
{
  public:
    struct Config
    {
        /** Propagation latency per hop. */
        sim::VTime latency = 50 * sim::kNanosecond;
        /** Ingress bandwidth per destination port, bytes per second. */
        double bytesPerSecond = 16.0 * 1e9;
    };

    SwitchedNetwork(sim::Engine *engine, std::string name,
                    const Config &cfg);

    const std::string &name() const { return name_; }

    const std::string &connectionName() const override { return name_; }

    const std::vector<sim::Port *> &attachedPorts() const override
    {
        return ports_;
    }

    void plugIn(sim::Port *port) override;
    sim::SendStatus send(sim::Msg *msg) override;

    /** Total bytes ever transferred. */
    std::uint64_t totalBytes() const { return totalBytes_.value(); }

  private:
    sim::Engine *engine_;
    std::string name_;
    Config cfg_;
    /** Picoseconds to serialize one byte onto a link. */
    double psPerByte_;

    std::vector<sim::Port *> ports_;
    /**
     * Earliest time each destination's ingress link is free, indexed
     * by the port's connectionSlot().
     */
    std::vector<sim::VTime> linkFreeAt_;
    metrics::Counter totalBytes_;
    metrics::Counter totalMsgs_;
};

} // namespace net
} // namespace akita

#endif // AKITA_NET_SWITCHED_HH
