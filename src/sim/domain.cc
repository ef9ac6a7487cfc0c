#include "sim/domain.hh"

#include <algorithm>
#include <stdexcept>

#include "sim/component.hh"
#include "sim/connection.hh"
#include "sim/port.hh"

namespace akita
{
namespace sim
{

namespace
{

/** Union-find over component registration indices. */
struct Groups
{
    std::vector<int> parent;
    std::vector<int> size;
    /** Pin id per root; -1 when unpinned. */
    std::vector<int> pin;
    int count = 0;

    explicit Groups(std::size_t n)
        : parent(n), size(n, 1), pin(n, -1), count(static_cast<int>(n))
    {
        for (std::size_t i = 0; i < n; i++)
            parent[i] = static_cast<int>(i);
    }

    int
    find(int a)
    {
        while (parent[a] != a) {
            parent[a] = parent[parent[a]];
            a = parent[a];
        }
        return a;
    }

    /** Two groups may merge unless pinned to different domains. */
    bool
    mergeable(int a, int b)
    {
        a = find(a);
        b = find(b);
        if (a == b)
            return false;
        return pin[a] < 0 || pin[b] < 0 || pin[a] == pin[b];
    }

    void
    merge(int a, int b)
    {
        a = find(a);
        b = find(b);
        if (a == b)
            return;
        // Keep the smaller registration index as root so group identity
        // (and thus final domain numbering) is deterministic.
        if (b < a)
            std::swap(a, b);
        parent[b] = a;
        size[a] += size[b];
        if (pin[a] < 0)
            pin[a] = pin[b];
        count--;
    }
};

struct PairEdge
{
    int a = 0;
    int b = 0;
    VTime latency = 0;
    /** Position in the edge list: the deterministic tie-break. */
    std::size_t index = 0;
};

} // namespace

DomainPartition
partitionDomains(const std::vector<Component *> &components,
                 const std::vector<Connection *> &connections,
                 int numDomains,
                 const std::unordered_map<const Component *, int> &pins)
{
    if (numDomains < 1)
        numDomains = 1;

    const std::size_t n = components.size();
    std::unordered_map<const Component *, int> indexOf;
    indexOf.reserve(n);
    for (std::size_t i = 0; i < n; i++)
        indexOf.emplace(components[i], static_cast<int>(i));

    Groups groups(n);
    int maxPin = -1;
    for (const auto &kv : pins) {
        auto it = indexOf.find(kv.first);
        if (it == indexOf.end())
            continue;
        if (kv.second < 0)
            throw std::invalid_argument("domain pin must be >= 0");
        groups.pin[it->second] = kv.second;
        maxPin = std::max(maxPin, kv.second);
    }
    // Pins may name domains beyond the requested count; honor them.
    const int target =
        std::max(numDomains, maxPin + 1) > static_cast<int>(n) && n > 0
            ? static_cast<int>(n)
            : std::max(numDomains, maxPin + 1);

    // Each connection contributes pairwise edges between the distinct
    // owners of its attached ports (pairwise, not clique-collapse: a
    // hub connection touching five components must not fuse five groups
    // in one step when the target count sits in between).
    std::vector<PairEdge> edges;
    for (Connection *conn : connections) {
        std::vector<int> owners;
        for (Port *p : conn->attachedPorts()) {
            auto it = indexOf.find(p->owner());
            if (it == indexOf.end())
                continue;
            if (std::find(owners.begin(), owners.end(), it->second) ==
                owners.end())
                owners.push_back(it->second);
        }
        const VTime lat = conn->minLatency();
        for (std::size_t i = 0; i < owners.size(); i++) {
            for (std::size_t j = i + 1; j < owners.size(); j++) {
                edges.push_back({owners[i], owners[j], lat,
                                 edges.size()});
            }
        }
    }
    std::stable_sort(edges.begin(), edges.end(),
                     [](const PairEdge &x, const PairEdge &y) {
                         if (x.latency != y.latency)
                             return x.latency < y.latency;
                         return x.index < y.index;
                     });

    // Zero-latency edges merge unconditionally: cutting one would leave
    // a zero-lookahead boundary. Pins win over this rule — run() then
    // rejects the resulting cut by name, which is the diagnosable
    // failure mode for a forced bad split.
    for (const PairEdge &e : edges) {
        if (e.latency != 0)
            break;
        if (groups.mergeable(e.a, e.b))
            groups.merge(e.a, e.b);
    }
    // Same-pin groups belong together even when disconnected.
    {
        std::unordered_map<int, int> firstWithPin;
        for (std::size_t i = 0; i < n; i++) {
            int r = groups.find(static_cast<int>(i));
            int p = groups.pin[r];
            if (p < 0)
                continue;
            auto it = firstWithPin.find(p);
            if (it == firstWithPin.end())
                firstWithPin.emplace(p, r);
            else if (groups.find(it->second) != r)
                groups.merge(it->second, r);
        }
    }

    // Ascending-latency agglomeration down to the target count. One
    // pass suffices: a merge never makes a skipped pair mergeable.
    for (const PairEdge &e : edges) {
        if (groups.count <= target)
            break;
        if (e.latency != 0 && groups.mergeable(e.a, e.b))
            groups.merge(e.a, e.b);
    }

    // Disconnected leftovers (no edge joins them): fold the smallest
    // groups together until the target is met.
    while (groups.count > target) {
        int best1 = -1, best2 = -1;
        // Scan roots; pick the two smallest mergeable groups
        // (ties broken by earliest registration index = root id).
        std::vector<int> roots;
        for (std::size_t i = 0; i < n; i++) {
            int r = groups.find(static_cast<int>(i));
            if (static_cast<int>(i) == r)
                roots.push_back(r);
        }
        std::sort(roots.begin(), roots.end(), [&](int x, int y) {
            if (groups.size[x] != groups.size[y])
                return groups.size[x] < groups.size[y];
            return x < y;
        });
        for (std::size_t i = 0; i < roots.size() && best1 < 0; i++) {
            for (std::size_t j = i + 1; j < roots.size(); j++) {
                if (groups.mergeable(roots[i], roots[j])) {
                    best1 = roots[i];
                    best2 = roots[j];
                    break;
                }
            }
        }
        if (best1 < 0)
            break; // Pins forbid all remaining merges: accept more groups.
        groups.merge(best1, best2);
    }

    // Compact group roots to dense domain ids. Pinned groups claim
    // their pin id; unpinned groups fill the free ids in order of their
    // earliest-registered member, so domain 0 holds the first component
    // built unless a pin says otherwise.
    DomainPartition part;
    std::unordered_map<int, int> domainOfRoot;
    std::vector<int> rootsInOrder;
    for (std::size_t i = 0; i < n; i++) {
        int r = groups.find(static_cast<int>(i));
        if (domainOfRoot.emplace(r, -1).second)
            rootsInOrder.push_back(r);
    }
    std::vector<bool> idTaken;
    auto takeId = [&idTaken](int id) {
        if (static_cast<int>(idTaken.size()) <= id)
            idTaken.resize(id + 1, false);
        idTaken[id] = true;
    };
    for (int r : rootsInOrder) {
        if (groups.pin[r] >= 0) {
            domainOfRoot[r] = groups.pin[r];
            takeId(groups.pin[r]);
        }
    }
    int next = 0;
    for (int r : rootsInOrder) {
        if (domainOfRoot[r] >= 0)
            continue;
        while (next < static_cast<int>(idTaken.size()) && idTaken[next])
            next++;
        domainOfRoot[r] = next;
        takeId(next);
    }
    part.numDomains = static_cast<int>(idTaken.size());

    part.members.resize(part.numDomains);
    for (std::size_t i = 0; i < n; i++) {
        int d = domainOfRoot[groups.find(static_cast<int>(i))];
        part.domainOf.emplace(components[i], d);
        part.members[d].push_back(components[i]);
    }

    // Cross-domain edges: per directed (src, dst) pair, the minimum
    // latency over every connection crossing it — the lookahead window.
    std::unordered_map<std::uint64_t, std::size_t> edgeAt;
    for (Connection *conn : connections) {
        std::vector<int> doms;
        for (Port *p : conn->attachedPorts()) {
            auto it = part.domainOf.find(p->owner());
            if (it == part.domainOf.end())
                continue;
            if (std::find(doms.begin(), doms.end(), it->second) ==
                doms.end())
                doms.push_back(it->second);
        }
        const VTime lat = conn->minLatency();
        for (int a : doms) {
            for (int b : doms) {
                if (a == b)
                    continue;
                std::uint64_t key =
                    (static_cast<std::uint64_t>(a) << 32) |
                    static_cast<std::uint32_t>(b);
                auto it = edgeAt.find(key);
                if (it == edgeAt.end()) {
                    edgeAt.emplace(key, part.edges.size());
                    part.edges.push_back({a, b, lat, conn});
                } else if (lat < part.edges[it->second].lookahead) {
                    part.edges[it->second].lookahead = lat;
                    part.edges[it->second].via = conn;
                }
            }
        }
    }

    part.incoming.resize(part.numDomains);
    for (const auto &e : part.edges)
        part.incoming[e.dst].push_back(e);

    return part;
}

} // namespace sim
} // namespace akita
