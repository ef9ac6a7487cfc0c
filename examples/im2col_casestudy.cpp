/**
 * @file
 * Case study 1 (paper §V-A), interactive: performance analysis of
 * im2col on a 4-chiplet MCM GPU.
 *
 * Runs the exact workflow of the paper with a live dashboard, narrating
 * each step on the terminal:
 *   1. initial assessment (progress bars + timer moving),
 *   2. bottleneck identification (buffer analyzer: ROB top ports 8/8),
 *   3. hypothesis testing with the value monitor (ROB transactions
 *      fluctuate, L1 pinned at its MSHR limit, RDMA piling up).
 *
 * Open the printed URL to follow along in the browser; the same data is
 * printed here.
 */

#include <cstdio>
#include <thread>

#include "gpu/platform.hh"
#include "rtm/monitor.hh"
#include "workloads/workloads.hh"

using namespace akita;

namespace
{

void
step(const char *text)
{
    std::printf("\n--- %s\n", text);
}

} // namespace

int
main(int argc, char **argv)
{
    gpu::PlatformConfig cfg =
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::medium());
    gpu::applyEngineArgs(cfg, argc, argv); // --engine= / --domains=
    gpu::Platform platform(cfg);

    rtm::Monitor monitor;
    monitor.registerEngine(&platform.engine());
    monitor.registerComponents(platform.components());
    platform.driver().setProgressListener(&monitor);
    monitor.startServer();

    // The paper's parameters: 24x24 images, six channels, batch 640
    // (reduced by default so the walk-through takes seconds; export
    // AKITA_BATCH=640 for the full run).
    workloads::Im2ColParams params;
    const char *batch = std::getenv("AKITA_BATCH");
    params.batch = batch ? static_cast<std::uint32_t>(std::atoi(batch))
                         : 96;
    auto kernel = workloads::makeIm2Col(params);
    platform.launchKernel(&kernel);

    std::thread sim([&]() { platform.run(); });

    step("step 1: initial simulation assessment");
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    auto bars = monitor.progressBars();
    if (!bars.empty()) {
        std::printf("progress bar: %llu done / %llu in flight / %llu "
                    "total — the simulation is progressing\n",
                    static_cast<unsigned long long>(bars[0].completed),
                    static_cast<unsigned long long>(bars[0].inProgress),
                    static_cast<unsigned long long>(bars[0].total));
    }
    std::printf("simulation time advancing: %s\n",
                sim::formatTime(platform.engine().now()).c_str());

    step("step 2: bottleneck identification (buffer analyzer)");
    auto levels = monitor.bufferLevels(rtm::BufferSort::BySize, 8);
    for (const auto &row : levels) {
        std::printf("  %-46s %zu/%zu\n", row.name.c_str(), row.size,
                    row.capacity);
    }
    std::printf("the L1VROB TopPort buffers sit at the top with a "
                "consistently high size-to-capacity ratio\n");

    step("step 3: track values over time (the paper's Fig. 5)");
    auto sRob = monitor.trackValue("GPU[0].SA[0].L1VROB[0]",
                                   "transactions");
    auto sL1 = monitor.trackValue("GPU[0].SA[0].L1VCache[0]",
                                  "transactions");
    auto sRdma = monitor.trackValue("GPU[0].RDMA", "transactions");
    std::this_thread::sleep_for(std::chrono::milliseconds(800));

    auto describe = [&](std::uint64_t id, const char *label) {
        auto series = monitor.valueSeries(id);
        if (series.samples.empty()) {
            std::printf("  %-28s (no samples yet)\n", label);
            return;
        }
        double minV = series.samples[0].value, maxV = minV, last = 0;
        for (const auto &s : series.samples) {
            minV = std::min(minV, s.value);
            maxV = std::max(maxV, s.value);
            last = s.value;
        }
        std::printf("  %-28s min=%-5.0f max=%-5.0f now=%-5.0f\n", label,
                    minV, maxV, last);
    };
    describe(sRob, "ROB transactions:");
    describe(sL1, "L1 cache transactions:");
    describe(sRdma, "RDMA transactions:");

    std::printf("\nreading: the ROB fluctuates (not the limiter), the "
                "L1 sits at its MSHR limit, and the RDMA holds by far "
                "the most transactions — the inter-chiplet network is "
                "the bottleneck, as in the paper.\n");

    sim.join();
    std::printf("\nsimulation completed at %s\n",
                sim::formatTime(platform.engine().now()).c_str());
    monitor.stopServer();
    return 0;
}
