/**
 * @file
 * RDMA engine for inter-chiplet memory access.
 */

#ifndef AKITA_MEM_RDMA_HH
#define AKITA_MEM_RDMA_HH

#include <functional>

#include "mem/addr.hh"
#include "mem/msg.hh"
#include "sim/component.hh"
#include "sim/idmap.hh"

namespace akita
{
namespace mem
{

/**
 * Forwards memory requests between chiplets (MCM-GPU model).
 *
 * Local L1 misses whose page lives on another chiplet are routed to the
 * local RDMA engine, carried over the inter-chiplet network to the owner
 * chiplet's RDMA engine, and serviced by the owner's L2/DRAM. Responses
 * retrace the path.
 *
 * The engine holds every in-flight transaction in its tables; the
 * `transactions` field is the value case study 1 reads at "an alarmingly
 * high level (about 1000 transactions)" when the inter-chiplet network
 * is the bottleneck.
 */
class RdmaEngine : public sim::TickingComponent
{
  public:
    struct Config
    {
        std::size_t maxOutstanding = 4096;
        std::size_t insideBufCapacity = 16;
        std::size_t outsideBufCapacity = 16;
        std::size_t width = 4;
    };

    RdmaEngine(sim::Engine *engine, const std::string &name,
               sim::Freq freq, const Config &cfg);

    /** Routes incoming remote requests to local L2 banks. */
    void setLocalMapper(const AddressMapper *mapper)
    {
        localMapper_ = mapper;
    }

    /** Finds the owner chiplet's RDMA ToOutside port for an address. */
    void setRemoteFinder(std::function<sim::Port *(std::uint64_t)> finder)
    {
        remoteFinder_ = std::move(finder);
    }

    /**
     * Routes outside traffic through a switched fabric: outgoing
     * messages carry the remote RDMA port as finalDst and are addressed
     * to @p req_hop (the local request-network switch). Responses
     * travel a *separate* response network via @p rsp_hop — the
     * virtual-network split that makes request-reply traffic
     * deadlock-free on rings/meshes. Null (default) sends directly
     * (single-hop crossbar).
     */
    void
    setOutsideFirstHop(sim::Port *req_hop, sim::Port *rsp_hop)
    {
        outsideFirstHop_ = req_hop;
        outsideRspFirstHop_ = rsp_hop;
    }

    /** Response-network endpoint (used when a first hop is set). */
    sim::Port *toOutsideRspPort() const { return toOutsideRsp_; }

    sim::Port *toInsidePort() const { return toInside_; }
    sim::Port *toOutsidePort() const { return toOutside_; }

    bool tick() override;

    /** In-flight transactions (outgoing + incoming). */
    std::size_t
    transactionCount() const
    {
        return outgoing_.size() + incoming_.size();
    }

    /** Requests forwarded to remote chiplets. Thread-safe. */
    std::uint64_t totalForwardedOut() const { return forwardedOut_.value(); }

    /** Remote requests serviced locally. Thread-safe. */
    std::uint64_t totalForwardedIn() const { return forwardedIn_.value(); }

  private:
    bool processInside();
    bool processOutside();
    bool processOutsideRsp();

    Config cfg_;
    sim::Port *toInside_;
    sim::Port *toOutside_;
    sim::Port *toOutsideRsp_;
    const AddressMapper *localMapper_ = nullptr;
    std::function<sim::Port *(std::uint64_t)> remoteFinder_;
    sim::Port *outsideFirstHop_ = nullptr;
    sim::Port *outsideRspFirstHop_ = nullptr;

    /** reqId -> local port awaiting the remote response. */
    sim::IdMap<sim::Port *> outgoing_;
    /** reqId -> remote RDMA port awaiting our local response. */
    sim::IdMap<sim::Port *> incoming_;

    metrics::Counter forwardedOut_;
    metrics::Counter forwardedIn_;
};

} // namespace mem
} // namespace akita

#endif // AKITA_MEM_RDMA_HH
