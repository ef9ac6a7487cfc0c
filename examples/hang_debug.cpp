/**
 * @file
 * Case study 2 (paper §V-B), interactive: debugging a simulator hang.
 *
 * Starts a simulation with the historic L2 write-buffer bug enabled.
 * The simulation deadlocks; this example shows, live, how the monitor
 * exposes it:
 *   - the dashboard's time counter freezes while the process stays up,
 *   - the hang watchdog fires,
 *   - the buffer analyzer lists residue in L1/L2/DRAM buffers,
 *   - per-component Tick wakes components without progress (it is a
 *     true deadlock, not a sleeping component),
 *   - the L2 banks report `eviction_stalled` — the root cause.
 *
 * The dashboard stays up afterwards so you can poke at the wreck; run
 * with --once to exit automatically.
 */

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "gpu/platform.hh"
#include "rtm/monitor.hh"
#include "sim/parse.hh"
#include "workloads/workloads.hh"

using namespace akita;

static int
run(int argc, char **argv)
{
    bool once = argc > 1 && std::strcmp(argv[1], "--once") == 0;

    gpu::PlatformConfig cfg =
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    cfg.legacyL2Deadlock = true; // The historic bug.
    cfg.gpu.l2.numSets = 1;
    cfg.gpu.l2.ways = 4;
    cfg.gpu.l2.wbInCapacity = 2;
    cfg.gpu.l2.installCapacity = 2;
    cfg.gpu.l2.wbFetchedCapacity = 2;
    cfg.gpu.l2.dramWriteInflightMax = 1;
    gpu::applyEngineArgs(cfg, argc, argv); // --record= / --record-bytes=
    if (cfg.fleet > 1) {
        throw std::invalid_argument(
            "--fleet/AKITA_FLEET: hang_debug runs one simulation, not " +
            std::to_string(cfg.fleet));
    }

    gpu::Platform platform(cfg);

    rtm::MonitorConfig mcfg;
    mcfg.hangThresholdSec = 2.0; // "last for a few seconds".
    mcfg.recordPath = cfg.recordPath;
    mcfg.recordSegmentBytes = cfg.recordSegmentBytes;
    rtm::Monitor monitor(mcfg);
    monitor.registerEngine(&platform.engine());
    monitor.registerComponents(platform.components());
    platform.driver().setProgressListener(&monitor);
    monitor.startServer();

    workloads::TransposeParams params;
    params.n = 256;
    auto kernel = workloads::makeTranspose(params);
    platform.launchKernel(&kernel);

    std::printf("running a write-heavy kernel on an L2 with the legacy "
                "write-buffer bug...\n");
    std::thread sim([&]() { platform.run(); });

    // Watch for the hang like a user staring at the dashboard.
    while (true) {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        rtm::HangStatus hang = monitor.hangStatus();
        if (hang.hanging) {
            std::printf("\nHANG: simulation time frozen at %s for "
                        "%.1fs (event queue drained: %s)\n",
                        sim::formatTime(hang.simTime).c_str(),
                        hang.frozenForSec,
                        hang.queueDrained ? "yes" : "no");
            break;
        }
        std::printf("  t=%s (still moving)\n",
                    sim::formatTime(platform.engine().now()).c_str());
    }

    std::printf("\nbuffer residue (non-empty buffers mark components "
                "that cannot make progress):\n");
    int shown = 0;
    for (const auto &row :
         monitor.bufferLevels(rtm::BufferSort::BySize, 0)) {
        if (row.size == 0 || shown >= 10)
            continue;
        std::printf("  %-46s %zu/%zu\n", row.name.c_str(), row.size,
                    row.capacity);
        shown++;
    }

    // Run the analyzer while the hang signature still holds: kicking
    // components below advances virtual time and resets the watchdog.
    std::printf("\nautomated root cause (/api/v1/hang):\n");
    rtm::HangReport report = monitor.hangReport();
    std::printf("  verdict: %s\n  %s\n", report.verdict.c_str(),
                report.summary.c_str());
    for (const auto &e : report.cycleEdges)
        std::printf("    %s waits on %s (via %s, %.0f%% full)\n",
                    e.from.c_str(), e.to.c_str(), e.via.c_str(),
                    e.fullness * 100.0);

    std::printf("\nkicking every component with the Tick control...\n");
    sim::VTime before = platform.engine().now();
    for (auto *c : platform.components())
        monitor.tickComponent(c->name());
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    std::printf("virtual time moved %s — the components wake, tick, "
                "and stall again: a deadlock, not a sleep.\n",
                sim::formatTime(platform.engine().now() - before)
                    .c_str());

    std::printf("\nroot cause (component details):\n");
    for (auto *c : platform.components()) {
        const auto *f = c->fields().find("eviction_stalled");
        if (f == nullptr)
            continue;
        bool stalled = false;
        monitor.withEngineLock(
            [&]() { stalled = f->getter().boolVal(); });
        if (stalled) {
            std::printf("  %s: local storage holds an eviction the "
                        "write buffer cannot accept, while the write "
                        "buffer holds fetched data the storage cannot "
                        "take\n",
                        c->name().c_str());
        }
    }
    std::printf("\nfix: build the platform with "
                "cfg.legacyL2Deadlock = false (the merged patch).\n");

    if (!once) {
        std::printf("\ndashboard still serving at %s — inspect the "
                    "deadlock (Ctrl-C to quit)\n",
                    monitor.url().c_str());
        while (true)
            std::this_thread::sleep_for(std::chrono::seconds(1));
    }

    platform.engine().stop();
    sim.join();
    monitor.stopServer();
    return 0;
}

int
main(int argc, char **argv)
{
    return sim::runMain(run, argc, argv);
}
