/**
 * @file
 * Fleet gateway: one RTM web server fronting N simulations.
 *
 * Parameter sweeps and regression farms run many simulation instances
 * at once; giving each its own monitor port makes the fleet as hard to
 * watch as the black boxes the paper set out to open. The gateway puts
 * every in-process simulation behind a single HTTP server:
 *
 *   /sim/<id>/...        one simulation's full RTM API (the monitor's
 *                        routes mounted under a prefix — byte-identical
 *                        bodies to a standalone monitor server)
 *   /api/v1/fleet        fleet-wide aggregate (per-sim status + totals)
 *   /api/v1/fleet/progress        per-sim progress bars
 *   /api/v1/fleet/slowest         the simulation furthest behind
 *   /api/v1/fleet/hottest-buffer  fullest buffer across the fleet
 *   /api/v1/fleet/engines         per-sim engine state
 *   /api/v1/fleet/stream          SSE: per-sim deltas, not N snapshots
 *   /metrics             akita_rtm_fleet_* gauges (Prometheus)
 *   /                    index page linking each simulation's dashboard
 *
 * Aggregation responses are served through a ResponseCache sharded by
 * consistent hash of (simulation id, endpoint), so one chatty
 * simulation cannot evict every other simulation's cached fragments
 * and concurrent pollers coalesce per shard instead of on one mutex.
 */

#ifndef AKITA_RTM_GATEWAY_HH
#define AKITA_RTM_GATEWAY_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gpu/platform.hh"
#include "metrics/registry.hh"
#include "rtm/monitor.hh"
#include "rtm/respcache.hh"
#include "web/server.hh"

namespace akita
{
namespace rtm
{

/** Gateway serving knobs. */
struct GatewayConfig
{
    /** TCP port; 0 picks an ephemeral port. */
    std::uint16_t port = 0;
    /** Print the gateway URL on start. */
    bool announceUrl = true;
    /** Minimum ms between fleet SSE delta scans. */
    int streamIntervalMs = 200;
};

/**
 * Registry of named in-process simulations behind one HttpServer.
 *
 * Each addSimulation() builds a detached route table for that
 * monitor's API and mounts it under /sim/<id>; the server strips the
 * prefix before dispatch, so per-monitor response caches key on the
 * same targets as a standalone server and bodies match byte for byte.
 */
class Gateway
{
  public:
    explicit Gateway(const GatewayConfig &cfg = GatewayConfig{});
    ~Gateway();

    Gateway(const Gateway &) = delete;
    Gateway &operator=(const Gateway &) = delete;

    /**
     * Registers @p monitor as /sim/<id>. The monitor need not (and
     * normally does not) run its own server; the gateway serves its
     * routes. The caller keeps ownership and must outlive the gateway
     * (or stop it first).
     *
     * @param id Path segment, [A-Za-z0-9._-]+ only.
     * @return False on an invalid or duplicate id.
     */
    bool addSimulation(const std::string &id, Monitor *monitor);

    /** Registered ids, in registration order. */
    std::vector<std::string> simulationIds() const;

    /** The monitor behind @p id, or nullptr. */
    Monitor *simulation(const std::string &id) const;

    std::size_t size() const;

    /** Binds and starts serving; false on bind failure. */
    bool start();

    /** Stops serving. Idempotent. */
    void stop();

    std::uint16_t port() const { return server_.port(); }

    std::string url() const { return server_.url(); }

    web::HttpServer &server() { return server_; }

    /** The sharded fleet response cache (counters for /metrics). */
    ShardedResponseCache &cache() { return cache_; }

    /** The gateway's own metric registry (akita_rtm_fleet_*). */
    metrics::MetricRegistry &metrics() { return metrics_; }

    const GatewayConfig &config() const { return cfg_; }

  private:
    struct Sim
    {
        std::string id;
        Monitor *monitor = nullptr;
        std::shared_ptr<web::Router> router;
    };

    void installFleetRoutes();
    void registerSimGauges(const std::string &id, Monitor *monitor);

    /** Snapshot of the sim list (routes iterate without the lock). */
    std::vector<Sim> sims() const;

    GatewayConfig cfg_;
    web::HttpServer server_;
    ShardedResponseCache cache_;
    metrics::MetricRegistry metrics_;

    mutable std::mutex mu_;
    std::vector<Sim> sims_;
};

/** Fleet construction knobs (the --fleet=N harness path). */
struct FleetConfig
{
    /** Simulation instances to build (ids sim0..simN-1). */
    std::size_t numSims = 2;
    /** Platform shape, applied to every instance. */
    gpu::PlatformConfig platform;
    /**
     * Monitor template, applied to every instance. The port is unused
     * (the gateway serves) and announceUrl is forced off per monitor —
     * the gateway announces once.
     */
    MonitorConfig monitor;
    GatewayConfig gateway;
};

/**
 * N engine+workload instances in one process, wired to one Gateway.
 *
 * Owns the platforms and monitors; each platform's engine, components,
 * connections, and kernel progress are registered with its monitor,
 * and each monitor is mounted on the gateway as /sim/simI.
 */
class Fleet
{
  public:
    explicit Fleet(const FleetConfig &cfg);
    ~Fleet();

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    std::size_t size() const { return sims_.size(); }

    gpu::Platform &platform(std::size_t i) { return *sims_[i].platform; }

    Monitor &monitor(std::size_t i) { return *sims_[i].monitor; }

    const std::string &id(std::size_t i) const { return sims_[i].id; }

    Gateway &gateway() { return gateway_; }

    /** Starts the gateway server; false on bind failure. */
    bool start() { return gateway_.start(); }

    void stop() { gateway_.stop(); }

    /**
     * Runs @p body(i, platform) on one thread per simulation and joins
     * them all. The body typically launches kernels and calls
     * Platform::run(); the gateway stays responsive throughout.
     */
    void runAll(
        const std::function<void(std::size_t, gpu::Platform &)> &body);

  private:
    struct Sim
    {
        std::string id;
        std::unique_ptr<gpu::Platform> platform;
        std::unique_ptr<Monitor> monitor;
    };

    FleetConfig cfg_;
    Gateway gateway_;
    std::vector<Sim> sims_;
};

} // namespace rtm
} // namespace akita

#endif // AKITA_RTM_GATEWAY_HH
