/**
 * @file
 * The AkitaRTM monitor facade — the library a simulation plugs in.
 *
 * Mirrors the Go API surface described in §IV-B: RegisterEngine,
 * RegisterComponent, the progress-bar triple, simulation controls
 * (pause / resume / kick-start / per-component tick), profiling, the
 * buffer analyzer, and per-value time-series monitoring — plus the HTTP
 * server that turns the running simulation into a web service.
 *
 * Threading (the three §VII design choices):
 *  1. On demand only: with no requests and no tracked values, no monitor
 *     code runs on the simulation thread.
 *  2. Fine-grained serialization: every request snapshots exactly one
 *     component/table/series under a short engine-lock hold.
 *  3. Dedicated threads: the HTTP server and the sampling loop run on
 *     their own threads, not the simulation thread.
 */

#ifndef AKITA_RTM_MONITOR_HH
#define AKITA_RTM_MONITOR_HH

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "gpu/progress.hh"
#include "json/json.hh"
#include "metrics/registry.hh"
#include "recorder/recorder.hh"
#include "rtm/bufferanalyzer.hh"
#include "rtm/hang.hh"
#include "rtm/progressbar.hh"
#include "rtm/registry.hh"
#include "rtm/resources.hh"
#include "rtm/respcache.hh"
#include "rtm/throughput.hh"
#include "rtm/valuemonitor.hh"
#include "rtm/waitfor.hh"
#include "sim/engine.hh"
#include "sim/prof.hh"
#include "web/server.hh"

namespace akita
{
namespace rtm
{

/** Monitor configuration. */
struct MonitorConfig
{
    /** TCP port for the dashboard; 0 picks an ephemeral port. */
    std::uint16_t port = 0;
    /** Milliseconds between value-monitor samples. */
    int sampleIntervalMs = 50;
    /**
     * Milliseconds between metrics-store sampling passes. A pass walks
     * every registered instrument, so it runs on a slower cadence than
     * the (cheap, few-series) value monitor; the store's finest bucket
     * is 1 s, which 250 ms sampling already over-resolves 4x.
     */
    int metricsIntervalMs = 250;
    /** Wall seconds of frozen virtual time before reporting a hang. */
    double hangThresholdSec = 2.0;
    /**
     * Start the wall-clock sampling thread when a value is tracked.
     * Disable for deterministic harnesses that drive sampleNow() from
     * inside the simulation.
     */
    bool autoSample = true;
    /** Print the dashboard URL on startServer (paper §IV-A). */
    bool announceUrl = true;
    /**
     * Retained points per tracked value series. The paper's dashboard
     * keeps 300; longer investigations can raise it (the metrics store
     * additionally keeps downsampled history beyond this cap).
     */
    std::size_t valueHistoryCap = 300;
    /**
     * Enables the metrics subsystem: registered engines/components get
     * standard instruments, and the sampler thread records them into
     * the multi-resolution store served at /metrics and the
     * /api/v1/metrics endpoints.
     */
    bool metricsEnabled = true;
    /**
     * HTTP handler worker-pool size. 0 means auto: the
     * AKITA_HTTP_WORKERS environment variable if set, else
     * min(4, hardware_concurrency).
     */
    int httpWorkers = 0;
    /** Concurrent HTTP connection cap; excess connects get a 503. */
    std::size_t httpMaxConnections = 256;
    /** listen(2) backlog; 0 means SOMAXCONN (always the upper cap). */
    int httpBacklog = 0;
    /**
     * Response-cache TTL floor (ms) for endpoints whose generation
     * advances continuously (/api/buffers, /metrics, metrics queries):
     * a cached body younger than this is served even though the
     * generation moved on, so a polling wave costs one build. Bounds
     * staleness to this many milliseconds; 0 restores pure
     * generation-driven freshness.
     */
    std::uint64_t cacheTtlFloorMs = 50;
    /**
     * Sampling passes retained for SSE resume: a dashboard
     * reconnecting to /api/v1/metrics/stream with Last-Event-ID within
     * this window misses no samples. 0 disables the replay ring (a
     * reconnect then restarts from the latest pass).
     */
    std::size_t sseReplayPasses = 32;

    /**
     * Flight-recorder segment path (--record=). Empty disables the
     * recorder. When set, every metrics sampling pass, engine
     * lifecycle event, and hang report is teed into a crash-readable
     * on-disk ring that `akita-inspect replay` can open post-mortem —
     * including after SIGKILL.
     */
    std::string recordPath;
    /** Segment file size; bounds disk use, older records wrap away. */
    std::size_t recordSegmentBytes = 8 * 1024 * 1024;
    /**
     * Cache TTL floor (ms) for /api/v1/hang. The hang verdict's
     * freshness cannot key on the engine event count alone — during a
     * deadlock that count freezes, and a pre-hang "not hanging" body
     * would be served forever. The endpoint's generation therefore
     * also advances once per this many wall milliseconds.
     */
    std::uint64_t hangTtlFloorMs = 100;
    /** Cache TTL floor (ms) for the /api/v1/recorder endpoints. */
    std::uint64_t recorderTtlFloorMs = 200;
    /**
     * Cache TTL floor (ms) for /api/v1/domains. Per-domain counters
     * move continuously while the engine runs, and some (horizons,
     * ring occupancy, the drain-time clock sync) move without the
     * event count — the endpoint folds wall time at this cadence (like
     * /api/v1/hang) so the view never goes stale.
     */
    std::uint64_t domainsTtlFloorMs = 100;
};

/**
 * Real-time monitor for a running simulation.
 */
class Monitor : public gpu::KernelProgressListener
{
  public:
    explicit Monitor(const MonitorConfig &cfg);

    Monitor() : Monitor(MonitorConfig{}) {}

    ~Monitor() override;

    Monitor(const Monitor &) = delete;
    Monitor &operator=(const Monitor &) = delete;

    // ---- Registration (the Go API) ----

    /**
     * Links the engine. Must be called before Engine::run; switches the
     * engine into concurrent-access mode and enables wait-when-empty so
     * hangs stay inspectable.
     */
    void registerEngine(sim::Engine *engine);

    /** Starts monitoring a component (fields + ports + buffers). */
    void registerComponent(sim::Component *component);

    /**
     * Registers a connection for the topology view ("a map of how
     * components are connected", the usability improvement §VIII
     * proposes).
     */
    void registerConnection(sim::Connection *connection)
    {
        connections_.push_back(connection);
    }

    /** Registers a range of components. */
    template <typename Iterable>
    void
    registerComponents(const Iterable &components)
    {
        for (sim::Component *c : components)
            registerComponent(c);
    }

    sim::Engine *engine() const { return engine_; }
    const ComponentRegistry &registry() const { return registry_; }
    const MonitorConfig &config() const { return cfg_; }

    // ---- Progress bars ----

    std::uint64_t
    createProgressBar(const std::string &label, std::uint64_t total)
    {
        return bars_.create(label, total);
    }

    bool
    updateProgressBar(std::uint64_t id, std::uint64_t completed,
                      std::uint64_t in_progress)
    {
        return bars_.update(id, completed, in_progress);
    }

    bool destroyProgressBar(std::uint64_t id) { return bars_.destroy(id); }

    std::vector<ProgressBar> progressBars() const
    {
        return bars_.snapshot();
    }

    // ---- Simulation controls ----

    /** Pauses the simulation before its next event. */
    void pause();

    /** Resumes a paused simulation. */
    void resume();

    /** "Kick Start": resume + nudge a drained engine. */
    void kickStart();

    bool paused() const;

    /**
     * Wakes one component (the per-component "Tick" button), scheduling
     * a tick event even when the component sleeps — the hang-debugging
     * workflow of case study 2.
     *
     * @return False when the component is unknown.
     */
    bool tickComponent(const std::string &name);

    // ---- Views (each call holds the engine lock briefly) ----

    /** Snapshot of one component as JSON; null JSON when unknown. */
    json::Json componentSnapshot(const std::string &name) const;

    /** The collapsible hierarchy of all registered components. */
    json::Json componentTree() const;

    /** Ranked buffer levels (the bottleneck analyzer). */
    std::vector<BufferLevel> bufferLevels(BufferSort sort,
                                          std::size_t top_n = 0) const;

    /** Current simulation status (time, events, pause/hang state). */
    json::Json status();

    /**
     * Per-port achieved throughput of one component (§VIII's proposed
     * view): totals plus rates over virtual time since the previous
     * query *by the same client*. Distinct clients keep independent
     * delta cursors, so concurrent dashboards don't corrupt each
     * other's rates.
     */
    std::vector<PortThroughput>
    portThroughput(const std::string &component_name,
                   const std::string &client = "");

    /** Connectivity map: one entry per registered connection. */
    json::Json topology() const;

    /** One tracked series as CSV ("t_ps,value" rows); empty if unknown. */
    std::string exportSeriesCsv(std::uint64_t id) const;

    /** Process resource usage (task T2). */
    ResourceUsage resources() { return resources_.sample(); }

    /** Hang-watch status (task T3). */
    HangStatus hangStatus() { return hangWatch_->check(); }

    /**
     * Hang status plus automated root-cause analysis: when the watch
     * reports a hang, builds the wait-for graph under the engine lock
     * and names the deadlock cycle or stalled sink (task T3 upgraded
     * from "progress bars stopped" to "L2↔DRAM loop via buffer X").
     * The first report of a hang episode is teed to the flight
     * recorder and made durable.
     */
    HangReport hangReport();

    // ---- Profiling (task T4) ----

    void startProfiling() { sim::Profiler::instance().setEnabled(true); }

    void stopProfiling() { sim::Profiler::instance().setEnabled(false); }

    bool
    profiling() const
    {
        return sim::Profiler::instance().enabled();
    }

    sim::ProfSnapshot
    profile(std::size_t top_n = 30) const
    {
        return sim::Profiler::instance().snapshot(top_n);
    }

    // ---- Value monitoring (task T5) ----

    /**
     * Tracks a component field (or "<Port>.Buf.size" style buffer
     * metrics) over time.
     *
     * @return Series id, or 0 on unknown component/field or when the
     *         five-series limit is reached.
     */
    std::uint64_t trackValue(const std::string &component_name,
                             const std::string &field_name);

    bool untrackValue(std::uint64_t id) { return values_.untrack(id); }

    TrackedSeries valueSeries(std::uint64_t id) const
    {
        return values_.series(id);
    }

    std::vector<TrackedSeries> allValueSeries() const
    {
        return values_.allSeries();
    }

    /** Takes one sampling pass now (under the engine lock). */
    void sampleNow();

    // ---- Metrics store ----

    /** The in-process metrics registry (instruments + time series). */
    metrics::MetricRegistry &metrics() { return metrics_; }
    const metrics::MetricRegistry &metrics() const { return metrics_; }

    /**
     * Runs one metrics sampling pass now (pull callbacks + series
     * append). The sampler thread does this automatically every
     * sampleIntervalMs; deterministic harnesses call it directly.
     */
    void metricsSamplePass();

    // ---- Response cache (serving fast path) ----

    /** The per-monitor HTTP response cache (see rtm/respcache.hh). */
    ResponseCache &responseCache() { return respCache_; }

    /**
     * Generation of the component-structure views (/api/components):
     * advances when components are registered.
     */
    std::uint64_t
    componentsGeneration() const
    {
        return registry_.size();
    }

    /**
     * Generation of simulation-state views (/api/buffers): the engine
     * event count, which advances whenever state may have changed.
     */
    std::uint64_t
    buffersGeneration() const
    {
        return engine_ ? engine_->eventCount() : 0;
    }

    /** Generation of metrics views (/metrics, range queries). */
    std::uint64_t
    metricsGeneration() const
    {
        return metrics_.generation();
    }

    // ---- Flight recorder ----

    /** The flight recorder; nullptr when recordPath is empty. */
    recorder::FlightRecorder *recorder() const
    {
        return recorder_.get();
    }

    /** Generation of recorder views (advances per appended record). */
    std::uint64_t
    recorderGeneration() const
    {
        return recorder_ ? recorder_->generation() : 0;
    }

    // ---- Web server ----

    /** Starts the dashboard server; returns false on bind failure. */
    bool startServer();

    void stopServer();

    bool serverRunning() const { return server_ && server_->running(); }

    std::string url() const { return server_ ? server_->url() : ""; }

    std::uint16_t serverPort() const
    {
        return server_ ? server_->port() : 0;
    }

    /** Requests served so far (overhead accounting in Fig. 7). */
    std::uint64_t
    requestsServed() const
    {
        // Atomic raw pointer: the metrics sampler reads this while
        // startServer may be constructing server_.
        web::HttpServer *s = serverRaw_.load(std::memory_order_acquire);
        return s ? s->requestCount() : 0;
    }

    // ---- KernelProgressListener (driver integration) ----

    void kernelStarted(std::uint64_t seq, const std::string &name,
                       std::uint64_t total) override;
    void kernelProgress(std::uint64_t seq, std::uint64_t completed,
                        std::uint64_t ongoing) override;
    void kernelFinished(std::uint64_t seq) override;

    /** Runs @p fn under the engine lock (consistent snapshot point). */
    void withEngineLock(const std::function<void()> &fn) const;

  private:
    void samplerLoop();
    void ensureSampler();
    void instrumentEngine();
    void instrumentComponent(sim::Component *component);

    MonitorConfig cfg_;
    sim::Engine *engine_ = nullptr;
    metrics::MetricRegistry metrics_;

    ComponentRegistry registry_;
    std::vector<sim::Connection *> connections_;
    ProgressBarRegistry bars_;
    ResourceMonitor resources_;
    ValueMonitor values_;
    std::unique_ptr<BufferAnalyzer> analyzer_;
    std::unique_ptr<ThroughputTracker> throughput_;
    std::unique_ptr<HangWatch> hangWatch_;

    std::unique_ptr<recorder::FlightRecorder> recorder_;
    /** Guards sampledScratch_ (the samplePass → recorder tee buffer). */
    std::mutex teeMu_;
    std::vector<metrics::SampledValue> sampledScratch_;
    /** Length of the last analyzed wait cycle (hang gauge). */
    std::atomic<std::size_t> lastCycleLen_{0};
    /** One hang report per episode goes to the recorder. */
    std::atomic<bool> hangRecorded_{false};

    std::unique_ptr<web::HttpServer> server_;
    std::atomic<web::HttpServer *> serverRaw_{nullptr};
    ResponseCache respCache_;

    std::thread sampler_;
    std::atomic<bool> samplerRunning_{false};
    std::mutex samplerMu_;
    std::condition_variable samplerCv_;

    std::mutex kernelBarsMu_;
    std::map<std::uint64_t, std::uint64_t> kernelBars_; // seq -> bar id.
};

} // namespace rtm
} // namespace akita

#endif // AKITA_RTM_MONITOR_HH
