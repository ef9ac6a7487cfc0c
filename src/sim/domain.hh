/**
 * @file
 * Graph partitioning for the conservative-PDES domain engine.
 *
 * The component/connection graph is cut into K domains so that
 * low-latency (tightly coupled) connections stay inside one domain and
 * only long-latency links cross the boundary. The minimum latency of
 * the connections crossing each boundary is the *lookahead* of that
 * edge: the receiving domain knows no message can arrive sooner than
 * the sender's clock plus that latency, which is what lets it run ahead
 * without a global barrier (Chandy-Misra-Bryant conservative
 * synchronization).
 */

#ifndef AKITA_SIM_DOMAIN_HH
#define AKITA_SIM_DOMAIN_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.hh"

namespace akita
{
namespace sim
{

class Component;
class Connection;

/** The computed assignment of components to domains. */
struct DomainPartition
{
    /** A directed cross-domain edge with its lookahead window. */
    struct Edge
    {
        int src = 0;
        int dst = 0;
        /** Min latency over all connections crossing src -> dst. */
        VTime lookahead = 0;
        /** A connection achieving the minimum (diagnostics). */
        Connection *via = nullptr;
    };

    /** Number of domains actually produced (may be < requested). */
    int numDomains = 0;

    /** Components of each domain, in registration order. */
    std::vector<std::vector<Component *>> members;

    /** Domain id per registered component. */
    std::unordered_map<const Component *, int> domainOf;

    /**
     * Every directed cross-domain edge. Edges with lookahead == 0 make
     * the partition unusable (no safe window); DomainEngine::run
     * rejects them by name.
     */
    std::vector<Edge> edges;

    /** Incoming edges per domain (what each worker's bound scans). */
    std::vector<std::vector<Edge>> incoming;
};

/**
 * Partitions components into at most @p numDomains domains.
 *
 * Kruskal-style agglomerative clustering, deterministic given
 * registration order:
 *
 *  1. Every connection contributes pairwise edges between the distinct
 *     owners of its attached ports, weighted by the connection's
 *     minLatency().
 *  2. Zero-latency edges are merged unconditionally — cutting one
 *     would yield zero lookahead. Pinned components (see @p pins) are
 *     exempt: an explicit pin wins, and the resulting zero-lookahead
 *     cut is rejected later at run().
 *  3. Remaining edges merge in ascending (latency, combined size,
 *     registration) order until @p numDomains groups remain, skipping
 *     merges between differently-pinned groups.
 *  4. Leftover disconnected groups beyond the target merge
 *     smallest-first.
 *
 * Domain ids are compacted in order of each group's earliest-registered
 * component, so domain 0 always contains the first component built
 * (the driver, on the GPU platform).
 *
 * @param components Registration-ordered component list.
 * @param connections Registration-ordered connection list; ports whose
 *        owner is not in @p components are ignored.
 * @param numDomains Target domain count (>= 1).
 * @param pins Optional component -> domain pins (test/tuning override).
 *        Pinned ids must be in [0, numDomains).
 */
DomainPartition partitionDomains(
    const std::vector<Component *> &components,
    const std::vector<Connection *> &connections, int numDomains,
    const std::unordered_map<const Component *, int> &pins = {});

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_DOMAIN_HH
