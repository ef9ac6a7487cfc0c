/**
 * @file
 * Multi-hop switch component for richer network topologies.
 *
 * SwitchedNetwork models the MCM package's point-to-multipoint link; a
 * Switch models store-and-forward hops so rings and meshes of chiplets
 * can be built. Messages carry their final destination in
 * Msg::finalDst; each switch forwards toward it using a programmable
 * routing function. The switch's per-egress queues are registered
 * buffers, so network congestion is visible to the bottleneck analyzer
 * exactly like any other component's backlog.
 */

#ifndef AKITA_NET_SWITCH_HH
#define AKITA_NET_SWITCH_HH

#include <functional>
#include <memory>
#include <vector>

#include "sim/component.hh"

namespace akita
{
namespace net
{

/**
 * A store-and-forward crossbar switch.
 *
 * Each attached link is one port. Ingress messages are routed (via the
 * routing function) to an egress port and queued; egress queues drain
 * at a configurable rate per cycle. The routing function maps the
 * message's final destination to the next-hop port (either the final
 * destination itself when directly attached, or a neighbor switch's
 * ingress port).
 */
class Switch : public sim::TickingComponent
{
  public:
    struct Config
    {
        std::size_t portBufCapacity = 8;
        std::size_t egressQueueCapacity = 8;
        /** Messages forwarded per egress per cycle. */
        std::size_t forwardPerCycle = 2;
    };

    /**
     * Routing function: given the final destination port, returns the
     * next-hop port to address on the egress link (nullptr when
     * unroutable, which drops the message and counts it).
     */
    using RouteFn = std::function<sim::Port *(sim::Port *final_dst)>;

    Switch(sim::Engine *engine, const std::string &name, sim::Freq freq,
           const Config &cfg);

    /** Adds a link endpoint; returns the switch-side port for it. */
    sim::Port *addLink(const std::string &link_name);

    void setRoute(RouteFn route) { route_ = std::move(route); }

    bool tick() override;

    std::uint64_t forwarded() const { return forwarded_; }
    std::uint64_t dropped() const { return dropped_; }

  private:
    struct Egress
    {
        sim::Port *port;
        std::unique_ptr<sim::Buffer> queue;
    };

    bool drainEgress();
    bool routeIngress();

    Config cfg_;
    RouteFn route_;
    std::vector<Egress> egresses_;

    std::uint64_t forwarded_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace net
} // namespace akita

#endif // AKITA_NET_SWITCH_HH
