/**
 * @file
 * API-load benchmark for the RTM serving path: M concurrent pollers
 * (default 16) hammer the hot read endpoints of a monitor attached to a
 * running simulation, in two serving modes:
 *
 *   - legacy emulation: one TCP connection per request with
 *     "Connection: close" and the response cache bypassed via the
 *     x-akita-no-cache header — the per-request cost model of the
 *     removed thread-per-connection server (fresh connection, fresh
 *     snapshot build, close after one response);
 *   - fast path: keep-alive connections against the epoll reactor, the
 *     generation-stamped coalesced response cache, and the streaming
 *     serializers;
 *   - fleet gateway: N simulations in one process behind one
 *     rtm::Gateway at equal total load, compared to the single-sim
 *     fast path via post-run steady serving windows.
 *
 * Records requests/sec, p50/p99 latency, and simulation slowdown
 * versus a no-monitor baseline (Fig. 7-style) into BENCH_api_load.json
 * (also dumped to stdout), and verifies after the run quiesces that
 * both modes serve byte-identical bodies.
 *
 * Environment: AKITA_CLIENTS (default 16) pollers, AKITA_SCALE
 * (default 0.25) workload size, AKITA_FULL=1 for the R9-Nano platform.
 * --sweep-workers re-runs the fast path across handler-pool sizes and
 * records BENCH_api_load_sweep.json instead.
 */

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "json/json.hh"
#include "rtm/gateway.hh"
#include "web/client.hh"
#include "web/encoding.hh"

using namespace akita;

namespace
{

enum class Mode
{
    NoMonitor,
    LegacyEmulation,
    FastPath,
};

/** The poller request mix: the dashboard's hot read endpoints. */
const char *kTargets[] = {
    "/api/components",
    "/api/buffers?sort=percent&top=50",
    "/metrics",
    "/api/progress",
};
constexpr int kNumTargets = 4;

struct ModeResult
{
    double simWall = 0;     ///< Wall seconds of plat.run().
    double trafficWall = 0; ///< Wall seconds the pollers were active.
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::uint64_t wireBytes = 0; ///< Body bytes as framed on the wire.
    std::uint64_t bodyBytes = 0; ///< Body bytes after content decoding.
    std::vector<double> latenciesMs;
    /**
     * Requests/sec over a post-run window with the engines quiesced.
     * Serving-path comparisons across modes with different sim-thread
     * counts use this: while N CPU-bound engine threads run on a small
     * host, in-run throughput measures scheduler starvation, not the
     * serving stack.
     */
    double steadyRps = 0;

    double
    rps() const
    {
        return trafficWall > 0
                   ? static_cast<double>(requests) / trafficWall
                   : 0.0;
    }
};

/**
 * Post-run steady window length (pollers keep running). Long enough
 * to ride out scheduler noise on small hosts; a short window makes the
 * gateway-vs-single ratio swing run to run.
 */
constexpr int kSteadyWindowMs = 1500;

double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto idx = static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1));
    return v[idx];
}

/**
 * Compares the two serving modes byte-for-byte on the endpoints whose
 * content is static once the simulation has completed (/metrics keeps
 * appending wall-clock samples after the run, so two fetches at
 * different instants are not comparable; its serializer equivalence is
 * covered by the unit tests instead).
 */
bool
checkByteIdentity(std::uint16_t port, json::Json &detail)
{
    const char *staticTargets[] = {
        "/api/components",
        "/api/buffers?sort=percent&top=50",
        "/api/progress",
    };
    bool allIdentical = true;
    web::PersistentClient client("127.0.0.1", port);
    // Let the cache-TTL floor lapse: entries built during the final
    // polling wave may otherwise be served slightly stale against the
    // post-run generation.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    for (const char *target : staticTargets) {
        auto legacy = client.get(
            target, {{"x-akita-no-cache", "1"}});
        auto fast = client.get(target);
        bool ok = legacy && fast && legacy->status == 200 &&
                  fast->status == 200 && legacy->body == fast->body;
        json::Json row = json::Json::object();
        row.set("identical", ok);
        if (legacy && fast) {
            row.set("bytes",
                    static_cast<std::int64_t>(fast->body.size()));
        }
        detail.set(target, std::move(row));
        allIdentical = allIdentical && ok;
    }
    return allIdentical;
}

ModeResult
runMode(Mode mode, int clients, double scale, bool *bytesIdentical,
        json::Json *byteDetail, bool gzip = false, int httpWorkers = 0)
{
    gpu::PlatformConfig cfg = bench::evalPlatform();
    gpu::Platform plat(cfg);

    std::unique_ptr<rtm::Monitor> mon;
    if (mode != Mode::NoMonitor) {
        rtm::MonitorConfig mcfg = bench::quietMonitor();
        if (httpWorkers > 0)
            mcfg.httpWorkers = httpWorkers;
        mon = std::make_unique<rtm::Monitor>(mcfg);
        mon->registerEngine(&plat.engine());
        for (auto *c : plat.components())
            mon->registerComponent(c);
        plat.driver().setProgressListener(mon.get());
        if (!mon->startServer()) {
            std::fprintf(stderr, "server failed to start\n");
            std::exit(1);
        }
    }

    workloads::FirParams fir;
    fir.numSamples = static_cast<std::uint32_t>(
        static_cast<double>(fir.numSamples) * scale);
    gpu::KernelDescriptor kernel = workloads::makeFir(fir);
    plat.launchKernel(&kernel);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> served{0};
    std::vector<ModeResult> perClient(
        static_cast<std::size_t>(clients));
    std::vector<std::thread> pollers;
    bench::Stopwatch trafficSw;
    if (mode != Mode::NoMonitor) {
        std::uint16_t port = mon->serverPort();
        for (int c = 0; c < clients; c++) {
            pollers.emplace_back([&, c, port, mode, gzip]() {
                web::PersistentClient client("127.0.0.1", port);
                ModeResult &r =
                    perClient[static_cast<std::size_t>(c)];
                int tick = c; // Stagger target phase across clients.
                while (!stop.load(std::memory_order_relaxed)) {
                    const char *target =
                        kTargets[tick++ % kNumTargets];
                    bench::Stopwatch sw;
                    std::optional<web::ParsedResponse> resp;
                    if (mode == Mode::LegacyEmulation) {
                        // Old-server cost model: fresh connection,
                        // uncached build, close after one response.
                        resp = client.get(
                            target, {{"Connection", "close"},
                                     {"x-akita-no-cache", "1"}});
                    } else if (gzip) {
                        // The client gunzips transparently;
                        // wireBodyBytes keeps the on-wire size.
                        resp = client.get(
                            target, {{"Accept-Encoding", "gzip"}});
                    } else {
                        resp = client.get(target);
                    }
                    double ms = sw.seconds() * 1000.0;
                    if (!resp || resp->status != 200) {
                        r.errors++;
                        continue;
                    }
                    r.requests++;
                    served.fetch_add(1, std::memory_order_relaxed);
                    r.wireBytes += resp->wireBodyBytes;
                    r.bodyBytes += resp->body.size();
                    r.latenciesMs.push_back(ms);
                }
            });
        }
    }

    bench::Stopwatch simSw;
    auto status = plat.run();
    ModeResult total;
    total.simWall = simSw.seconds();
    if (mode != Mode::NoMonitor) {
        // Post-run steady window: the engine thread is quiescent, so
        // this measures the serving stack alone.
        std::uint64_t before =
            served.load(std::memory_order_relaxed);
        bench::Stopwatch steadySw;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kSteadyWindowMs));
        total.steadyRps =
            static_cast<double>(
                served.load(std::memory_order_relaxed) - before) /
            steadySw.seconds();
    }
    stop.store(true);
    for (auto &t : pollers)
        t.join();
    total.trafficWall = trafficSw.seconds();

    if (status != gpu::Platform::RunStatus::Completed) {
        std::fprintf(stderr, "simulation did not complete\n");
        std::exit(1);
    }

    for (const auto &r : perClient) {
        total.requests += r.requests;
        total.errors += r.errors;
        total.wireBytes += r.wireBytes;
        total.bodyBytes += r.bodyBytes;
        total.latenciesMs.insert(total.latenciesMs.end(),
                                 r.latenciesMs.begin(),
                                 r.latenciesMs.end());
    }

    if (mode == Mode::FastPath && bytesIdentical != nullptr) {
        // The run has quiesced; both paths must now serve the same
        // bytes (modulo headers) for the same target.
        *bytesIdentical =
            checkByteIdentity(mon->serverPort(), *byteDetail);
    }

    if (mon)
        mon->stopServer();
    return total;
}

/**
 * Fleet-gateway mode: @p numSims simulations in one process behind one
 * rtm::Gateway, at equal total load versus the single-sim fast path —
 * the same poller count spread across the mounted /sim/<id> prefixes,
 * and the same total simulated work divided across the fleet (each sim
 * runs scale/numSims; running N full-scale sims would measure CPU
 * starvation of the serving path, not gateway overhead). After the run
 * quiesces, verifies that the gateway-mounted endpoints serve
 * byte-identical bodies to the same monitor's standalone server.
 *
 * The gateway-vs-single ratio is computed from the post-run steady
 * windows of both modes: on hosts with fewer cores than sim threads,
 * the in-run windows compare scheduler starvation (N CPU-bound engine
 * threads versus one), which says nothing about the gateway layer. The
 * in-run numbers are still recorded for the slowdown story.
 */
ModeResult
runGatewayMode(int clients, double scale, int numSims,
               bool *mountIdentical, json::Json *mountDetail)
{
    rtm::FleetConfig fcfg;
    fcfg.numSims = static_cast<std::size_t>(numSims);
    fcfg.platform = bench::evalPlatform();
    fcfg.monitor = bench::quietMonitor();
    // Equal total background load: N samplers at N x the single-sim
    // interval match the aggregate sampling rate of the single-sim
    // mode (one sampler at the base interval).
    fcfg.monitor.sampleIntervalMs *= numSims;
    fcfg.gateway.announceUrl = false;
    rtm::Fleet fleet(fcfg);
    if (!fleet.start()) {
        std::fprintf(stderr, "gateway failed to start\n");
        std::exit(1);
    }

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> served{0};
    std::vector<ModeResult> perClient(
        static_cast<std::size_t>(clients));
    std::vector<std::thread> pollers;
    std::uint16_t port = fleet.gateway().port();
    bench::Stopwatch trafficSw;
    for (int c = 0; c < clients; c++) {
        pollers.emplace_back([&, c, port, numSims]() {
            web::PersistentClient client("127.0.0.1", port);
            ModeResult &r = perClient[static_cast<std::size_t>(c)];
            // Pin each poller to one simulation (clients / numSims
            // pollers per sim) and round-robin the target mix, the
            // same per-dashboard access pattern as single-sim mode.
            const std::string prefix =
                "/sim/sim" + std::to_string(c % numSims);
            int tick = c;
            while (!stop.load(std::memory_order_relaxed)) {
                std::string target =
                    prefix + kTargets[tick++ % kNumTargets];
                bench::Stopwatch sw;
                auto resp = client.get(target);
                double ms = sw.seconds() * 1000.0;
                if (!resp || resp->status != 200) {
                    r.errors++;
                    continue;
                }
                r.requests++;
                served.fetch_add(1, std::memory_order_relaxed);
                r.wireBytes += resp->wireBodyBytes;
                r.bodyBytes += resp->body.size();
                r.latenciesMs.push_back(ms);
            }
        });
    }

    bench::Stopwatch simSw;
    std::atomic<int> failed{0};
    const double perSimScale =
        scale / static_cast<double>(numSims);
    fleet.runAll([&failed, perSimScale](std::size_t, gpu::Platform &p) {
        workloads::FirParams fir;
        fir.numSamples = static_cast<std::uint32_t>(
            static_cast<double>(fir.numSamples) * perSimScale);
        gpu::KernelDescriptor kernel = workloads::makeFir(fir);
        p.launchKernel(&kernel);
        if (p.run() != gpu::Platform::RunStatus::Completed)
            failed.fetch_add(1);
    });
    ModeResult total;
    total.simWall = simSw.seconds();
    {
        // Post-run steady window: all engine threads have quiesced, so
        // this measures the gateway serving stack alone.
        std::uint64_t before =
            served.load(std::memory_order_relaxed);
        bench::Stopwatch steadySw;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kSteadyWindowMs));
        total.steadyRps =
            static_cast<double>(
                served.load(std::memory_order_relaxed) - before) /
            steadySw.seconds();
    }
    stop.store(true);
    for (auto &t : pollers)
        t.join();
    total.trafficWall = trafficSw.seconds();

    if (failed.load() != 0) {
        std::fprintf(stderr, "%d fleet simulations did not complete\n",
                     failed.load());
        std::exit(1);
    }

    for (const auto &r : perClient) {
        total.requests += r.requests;
        total.errors += r.errors;
        total.wireBytes += r.wireBytes;
        total.bodyBytes += r.bodyBytes;
        total.latenciesMs.insert(total.latenciesMs.end(),
                                 r.latenciesMs.begin(),
                                 r.latenciesMs.end());
    }

    if (mountIdentical != nullptr) {
        // The prefix-stripped mount must serve the same bytes as the
        // monitor's own standalone server for the same target.
        *mountIdentical = true;
        rtm::Monitor &m0 = fleet.monitor(0);
        if (!m0.startServer()) {
            *mountIdentical = false;
        } else {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
            web::PersistentClient own("127.0.0.1", m0.serverPort());
            web::PersistentClient gw("127.0.0.1", port);
            const char *staticTargets[] = {
                "/api/components",
                "/api/v1/components",
                "/api/buffers?sort=percent&top=50",
                "/api/progress",
            };
            for (const char *target : staticTargets) {
                auto single = own.get(target);
                auto mounted =
                    gw.get(std::string("/sim/sim0") + target);
                bool ok = single && mounted &&
                          single->status == 200 &&
                          mounted->status == 200 &&
                          single->body == mounted->body;
                json::Json row = json::Json::object();
                row.set("identical", ok);
                if (single && mounted) {
                    row.set("bytes", static_cast<std::int64_t>(
                                         mounted->body.size()));
                }
                mountDetail->set(target, std::move(row));
                *mountIdentical = *mountIdentical && ok;
            }
            m0.stopServer();
        }
    }

    fleet.stop();
    return total;
}

json::Json
modeJson(ModeResult &r, double noMonitorSec)
{
    json::Json row = json::Json::object();
    row.set("requests", static_cast<std::int64_t>(r.requests));
    row.set("errors", static_cast<std::int64_t>(r.errors));
    row.set("traffic_wall_sec", r.trafficWall);
    row.set("requests_per_sec", r.rps());
    row.set("p50_ms", percentile(r.latenciesMs, 0.50));
    row.set("p99_ms", percentile(r.latenciesMs, 0.99));
    row.set("sim_sec", r.simWall);
    row.set("sim_slowdown_vs_no_monitor",
            noMonitorSec > 0 ? r.simWall / noMonitorSec : 0.0);
    if (r.steadyRps > 0)
        row.set("steady_requests_per_sec", r.steadyRps);
    row.set("wire_body_bytes", static_cast<std::int64_t>(r.wireBytes));
    row.set("decoded_body_bytes",
            static_cast<std::int64_t>(r.bodyBytes));
    return row;
}

/**
 * Handler-pool scaling sweep (--sweep-workers): re-runs the fast path
 * with the HTTP worker pool sized 1..16 (powers of two, plus 16) and
 * records req/s per point, answering "how many handler threads does
 * the dashboard need" with data instead of a default.
 */
int
runWorkerSweep(int clients, double scale)
{
    std::fprintf(stderr, "no-monitor baseline...\n");
    ModeResult base =
        runMode(Mode::NoMonitor, 0, scale, nullptr, nullptr);

    const int workerPoints[] = {1, 2, 4, 8, 16};
    json::Json sweep = json::Json::array();
    bool ok = true;
    double bestRps = 0;
    int bestWorkers = 0;
    for (int w : workerPoints) {
        std::fprintf(stderr,
                     "fast path, %d http workers (%d pollers)...\n", w,
                     clients);
        ModeResult r = runMode(Mode::FastPath, clients, scale, nullptr,
                               nullptr, /*gzip=*/false,
                               /*httpWorkers=*/w);
        json::Json row = modeJson(r, base.simWall);
        row.set("http_workers", w);
        sweep.push(std::move(row));
        ok = ok && r.errors == 0 && r.requests > 0;
        if (r.rps() > bestRps) {
            bestRps = r.rps();
            bestWorkers = w;
        }
    }

    json::Json doc = json::Json::object();
    doc.set("bench", "api_load");
    doc.set("mode", "worker_sweep");
    doc.set("clients", clients);
    doc.set("scale", scale);
    doc.set("host_cores",
            static_cast<std::int64_t>(
                std::thread::hardware_concurrency()));
    doc.set("workload", "fir");
    doc.set("platform",
            bench::fullScale() ? "r9nano mcm4" : "medium mcm4");
    doc.set("no_monitor_sim_sec", base.simWall);
    doc.set("worker_sweep", std::move(sweep));
    doc.set("best_http_workers", bestWorkers);
    doc.set("best_requests_per_sec", bestRps);
    doc.set("pass", ok);

    std::string rendered = doc.dump(2);
    std::ofstream out("BENCH_api_load_sweep.json");
    out << rendered << "\n";
    out.close();
    std::printf("%s\n", rendered.c_str());
    std::fprintf(stderr,
                 "\nbest: %d workers at %.0f req/s (errors: %s)\n",
                 bestWorkers, bestRps, ok ? "none" : "SOME");
    return ok ? 0 : 1;
}

} // namespace

static int
run(int argc, char **argv)
{
    int clients = bench::envInt("AKITA_CLIENTS", 16);
    double scale = bench::benchScale(0.25);
    bool gzipMode = false;
    bool sweepWorkers = false;
    for (int i = 1; i < argc; i++) {
        if (std::string(argv[i]) == "--gzip")
            gzipMode = true;
        if (std::string(argv[i]) == "--sweep-workers")
            sweepWorkers = true;
    }
    if (sweepWorkers)
        return runWorkerSweep(clients, scale);
    if (gzipMode && !web::encodingSupported()) {
        std::fprintf(stderr,
                     "--gzip requested but built without zlib\n");
        return 1;
    }

    std::fprintf(stderr, "no-monitor baseline...\n");
    ModeResult base =
        runMode(Mode::NoMonitor, 0, scale, nullptr, nullptr);
    std::fprintf(stderr, "legacy emulation (%d pollers)...\n",
                 clients);
    ModeResult legacy = runMode(Mode::LegacyEmulation, clients, scale,
                                nullptr, nullptr);
    std::fprintf(stderr, "fast path (%d pollers)...\n", clients);
    bool identical = false;
    json::Json byteDetail = json::Json::object();
    ModeResult fast = runMode(Mode::FastPath, clients, scale,
                              &identical, &byteDetail);
    ModeResult fastGz;
    if (gzipMode) {
        std::fprintf(stderr, "fast path + gzip (%d pollers)...\n",
                     clients);
        fastGz = runMode(Mode::FastPath, clients, scale, nullptr,
                         nullptr, /*gzip=*/true);
    }
    int fleetSims = bench::envInt("AKITA_FLEET", 4);
    std::fprintf(stderr, "fleet gateway (%d sims, %d pollers)...\n",
                 fleetSims, clients);
    bool mountIdentical = false;
    json::Json mountDetail = json::Json::object();
    ModeResult gw = runGatewayMode(clients, scale, fleetSims,
                                   &mountIdentical, &mountDetail);

    double speedup =
        legacy.rps() > 0 ? fast.rps() / legacy.rps() : 0.0;
    // Serving-path comparison at equal load, engines quiescent on both
    // sides; the in-run windows compare 1 vs N runnable engine threads
    // on however many cores the host has, not the gateway layer.
    double gwRatio =
        fast.steadyRps > 0 ? gw.steadyRps / fast.steadyRps : 0.0;
    double gwLiveRatio = fast.rps() > 0 ? gw.rps() / fast.rps() : 0.0;

    json::Json doc = json::Json::object();
    doc.set("bench", "api_load");
    doc.set("clients", clients);
    doc.set("scale", scale);
    doc.set("host_cores",
            static_cast<std::int64_t>(
                std::thread::hardware_concurrency()));
    doc.set("workload", "fir");
    doc.set("platform",
            bench::fullScale() ? "r9nano mcm4" : "medium mcm4");
    doc.set("baseline_note",
            "legacy serving emulated as one TCP connection per "
            "request with Connection: close and the response cache "
            "bypassed (x-akita-no-cache) — the per-request cost model "
            "of the removed thread-per-connection server");
    doc.set("no_monitor_sim_sec", base.simWall);
    json::Json modes = json::Json::object();
    modes.set("legacy_emulation", modeJson(legacy, base.simWall));
    modes.set("fast_path", modeJson(fast, base.simWall));
    if (gzipMode) {
        json::Json gz = modeJson(fastGz, base.simWall);
        gz.set("compression_ratio",
               fastGz.wireBytes > 0
                   ? static_cast<double>(fastGz.bodyBytes) /
                         static_cast<double>(fastGz.wireBytes)
                   : 0.0);
        modes.set("fast_path_gzip", std::move(gz));
    }
    json::Json gwRow = modeJson(gw, base.simWall);
    gwRow.set("num_sims", fleetSims);
    gwRow.set("gateway_vs_single_ratio", gwRatio);
    gwRow.set("gateway_vs_single_ratio_in_run", gwLiveRatio);
    gwRow.set("ratio_basis",
              "steady_requests_per_sec: post-run windows with engines "
              "quiescent on both sides; in-run windows compare N "
              "CPU-bound engine threads vs one on this host's cores, "
              "not the gateway layer");
    gwRow.set("mount_bytes_identical", mountIdentical);
    gwRow.set("mount_byte_check", std::move(mountDetail));
    modes.set("gateway", std::move(gwRow));
    doc.set("modes", std::move(modes));
    doc.set("speedup_rps", speedup);
    doc.set("bytes_identical", identical);
    doc.set("byte_check", std::move(byteDetail));

    bool ok = identical && fast.errors == 0 && speedup >= 5.0;
    if (gzipMode)
        ok = ok && fastGz.errors == 0 &&
             fastGz.wireBytes < fastGz.bodyBytes;
    ok = ok && mountIdentical && gw.errors == 0 && gwRatio >= 0.8;
    doc.set("target_speedup", 5.0);
    doc.set("target_gateway_ratio", 0.8);
    doc.set("pass", ok);

    std::string rendered = doc.dump(2);
    std::ofstream out("BENCH_api_load.json");
    out << rendered << "\n";
    out.close();
    std::printf("%s\n", rendered.c_str());
    std::fprintf(stderr,
                 "\nlegacy: %.0f req/s (p50 %.2f ms, p99 %.2f ms)\n"
                 "fast:   %.0f req/s (p50 %.2f ms, p99 %.2f ms)\n"
                 "speedup %.1fx (target >=5x), bytes identical: %s\n",
                 legacy.rps(), percentile(legacy.latenciesMs, 0.50),
                 percentile(legacy.latenciesMs, 0.99), fast.rps(),
                 percentile(fast.latenciesMs, 0.50),
                 percentile(fast.latenciesMs, 0.99), speedup,
                 identical ? "yes" : "NO");
    std::fprintf(stderr,
                 "gateway: %.0f req/s steady across %d sims (%.2fx of "
                 "single-sim steady %.0f req/s, target >=0.8x; in-run "
                 "%.0f req/s), mounts identical: %s\n",
                 gw.steadyRps, fleetSims, gwRatio, fast.steadyRps,
                 gw.rps(), mountIdentical ? "yes" : "NO");
    if (gzipMode) {
        std::fprintf(
            stderr,
            "gzip:   %.0f req/s, %.2f MB wire vs %.2f MB decoded "
            "(%.1fx smaller)\n",
            fastGz.rps(),
            static_cast<double>(fastGz.wireBytes) / 1e6,
            static_cast<double>(fastGz.bodyBytes) / 1e6,
            fastGz.wireBytes > 0
                ? static_cast<double>(fastGz.bodyBytes) /
                      static_cast<double>(fastGz.wireBytes)
                : 0.0);
    }
    return ok ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return sim::runMain(run, argc, argv);
}
