/**
 * @file
 * Quickstart: monitor a small simulation from your browser.
 *
 * Builds a 4-chiplet GPU platform, attaches the AkitaRTM monitor, opens
 * the dashboard on a local port (8080 by default; set AKITA_PORT, or 0
 * for an ephemeral port), launches a couple of kernels, and keeps the
 * process alive so the dashboard stays inspectable after completion.
 *
 *   $ ./quickstart            # then open http://127.0.0.1:8080
 *   $ ./quickstart --once     # exit when the simulation completes
 *   $ ./quickstart --fleet=4  # 4 sims behind one gateway
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "gpu/platform.hh"
#include "rtm/gateway.hh"
#include "rtm/monitor.hh"
#include "sim/parse.hh"
#include "workloads/workloads.hh"

using namespace akita;

namespace
{

/** The quickstart workload: one bandwidth-bound + one compute kernel. */
int
runKernels(gpu::Platform &platform)
{
    workloads::MemCopyParams copy;
    copy.bytes = 16ull << 20;
    auto copyKernel = workloads::makeMemCopy(copy);

    workloads::FirParams fir;
    fir.numSamples = 1u << 19;
    auto firKernel = workloads::makeFir(fir);

    platform.launchKernel(&copyKernel);
    platform.launchKernel(&firKernel);
    return platform.run() == gpu::Platform::RunStatus::Completed ? 0 : 1;
}

/** --fleet=N path: N platform+monitor pairs behind one gateway. */
int
runFleet(const gpu::PlatformConfig &cfg, std::uint16_t port, bool once)
{
    rtm::FleetConfig fcfg;
    fcfg.numSims = static_cast<std::size_t>(cfg.fleet);
    fcfg.platform = cfg;
    fcfg.monitor.recordPath = ""; // One segment file can't serve N sims.
    fcfg.gateway.port = port;
    rtm::Fleet fleet(fcfg);
    if (!fleet.start()) {
        std::fprintf(stderr,
                     "could not bind port %u (set AKITA_PORT=0 for an "
                     "ephemeral port)\n",
                     port);
        return 1;
    }

    std::printf("running %zu simulations; watch them at %s\n",
                fleet.size(), fleet.gateway().url().c_str());
    std::atomic<int> failures{0};
    fleet.runAll([&failures](std::size_t, gpu::Platform &p) {
        if (runKernels(p) != 0)
            failures.fetch_add(1);
    });
    std::printf("fleet done (%d of %zu failed)\n", failures.load(),
                fleet.size());

    if (!once) {
        std::printf("gateway still serving (Ctrl-C to quit)...\n");
        while (true)
            std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    fleet.stop();
    return failures.load() == 0 ? 0 : 1;
}

} // namespace

static int
run(int argc, char **argv)
{
    bool once = false;
    for (int i = 1; i < argc; i++)
        once = once || std::strcmp(argv[i], "--once") == 0;

    // 1. Build the simulated hardware: 4 chiplets, tiny shape so the
    //    quickstart runs in seconds.
    gpu::PlatformConfig cfg =
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    gpu::applyEngineArgs(cfg, argc, argv); // --record= / --fleet= / ...

    const char *portEnv = std::getenv("AKITA_PORT");
    std::uint16_t port =
        portEnv ? sim::parseNumber<std::uint16_t>("AKITA_PORT", portEnv)
                : 8080;

    if (cfg.fleet > 1)
        return runFleet(cfg, port, once);

    gpu::Platform platform(cfg);

    // 2. Attach the monitor: register the engine and every component,
    //    hook kernel progress into the dashboard's progress bars.
    rtm::MonitorConfig mcfg;
    mcfg.port = port;
    mcfg.recordPath = cfg.recordPath; // --record= / AKITA_RECORD
    mcfg.recordSegmentBytes = cfg.recordSegmentBytes;
    rtm::Monitor monitor(mcfg);
    monitor.registerEngine(&platform.engine());
    monitor.registerComponents(platform.components());
    for (auto *conn : platform.connections())
        monitor.registerConnection(conn); // /api/v1/topology
    platform.driver().setProgressListener(&monitor);

    if (!monitor.startServer()) {
        std::fprintf(stderr,
                     "could not bind port %u (set AKITA_PORT=0 for an "
                     "ephemeral port)\n",
                     mcfg.port);
        return 1;
    }

    // 3. Launch work: one bandwidth-bound kernel, one compute-heavy.
    workloads::MemCopyParams copy;
    copy.bytes = 16ull << 20;
    auto copyKernel = workloads::makeMemCopy(copy);

    workloads::FirParams fir;
    fir.numSamples = 1u << 19;
    auto firKernel = workloads::makeFir(fir);

    platform.launchKernel(&copyKernel);
    platform.launchKernel(&firKernel);

    // 4. Run. With the monitor attached, pausing/resuming and the
    //    per-component "Tick" button work from the browser while this
    //    call executes.
    std::printf("running 2 kernels; watch them at %s\n",
                monitor.url().c_str());
    auto status = platform.run();

    std::printf("simulation %s at %s (%llu events)\n",
                status == gpu::Platform::RunStatus::Completed
                    ? "completed"
                    : "did not complete",
                sim::formatTime(platform.engine().now()).c_str(),
                static_cast<unsigned long long>(
                    platform.engine().eventCount()));

    if (!once) {
        std::printf("dashboard still serving (Ctrl-C to quit)...\n");
        while (true)
            std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    monitor.stopServer();
    return status == gpu::Platform::RunStatus::Completed ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return sim::runMain(run, argc, argv);
}
