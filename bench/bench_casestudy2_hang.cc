/**
 * @file
 * Reproduces case study 2 (§V-B): debugging the L2 write-buffer
 * deadlock with the monitor.
 *
 * The walkthrough follows the paper's steps:
 *  1. start the simulation with the legacy (buggy) L2 configuration;
 *  2. confirm the hang: progress bars stop, simulation time freezes,
 *     CPU usage collapses;
 *  3. identify hanging components from buffer residue (L1s, L2s, and
 *     DRAM controllers hold content — more than the guilty component,
 *     due to backpressure);
 *  4. localize the cause: the L2's internal write-buffer queues are the
 *     deepest residue, and the bank reports eviction_stalled;
 *  5. use the per-component Tick control: components wake but make no
 *     progress (a true deadlock);
 *  6. apply the patch (fixed configuration) and show the same workload
 *     completes.
 */

#include <thread>

#include "common.hh"

using namespace akita;

namespace
{

gpu::PlatformConfig
buggyConfig()
{
    gpu::PlatformConfig cfg =
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    cfg.legacyL2Deadlock = true;
    cfg.gpu.l2.numSets = 1;
    cfg.gpu.l2.ways = 4;
    cfg.gpu.l2.wbInCapacity = 2;
    cfg.gpu.l2.installCapacity = 2;
    cfg.gpu.l2.wbFetchedCapacity = 2;
    cfg.gpu.l2.dramWriteInflightMax = 1;
    return cfg;
}

} // namespace

static int
run()
{
    using bench::section;

    workloads::TransposeParams tp;
    tp.n = 256;

    // ---- Step 1-2: run the buggy simulator, confirm the hang. ----
    section("case study 2: legacy (buggy) L2 write buffer");
    gpu::PlatformConfig cfg = buggyConfig();
    gpu::Platform plat(cfg);

    rtm::Monitor mon(bench::quietMonitor());
    mon.registerEngine(&plat.engine());
    for (auto *c : plat.components())
        mon.registerComponent(c);
    plat.driver().setProgressListener(&mon);

    auto kernel = workloads::makeTranspose(tp);
    plat.launchKernel(&kernel);

    std::thread simThread([&]() { plat.run(); });

    // Poll like a user watching the dashboard.
    rtm::HangStatus hang;
    mon.resources(); // Prime the CPU baseline.
    for (int i = 0; i < 400; i++) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        hang = mon.hangStatus();
        if (hang.hanging)
            break;
    }
    auto bars = mon.progressBars();
    auto usage = mon.resources();

    std::printf("hang detected:          %s (time frozen %.1fs at %s)\n",
                hang.hanging ? "YES" : "NO", hang.frozenForSec,
                sim::formatTime(hang.simTime).c_str());
    std::printf("event queue drained:    %s\n",
                hang.queueDrained ? "YES" : "NO");
    if (!bars.empty()) {
        std::printf("progress bar stalled at %llu/%llu work-groups\n",
                    static_cast<unsigned long long>(bars[0].completed),
                    static_cast<unsigned long long>(bars[0].total));
    }
    std::printf("process CPU usage:      %.0f%% (collapses during a "
                "hang)\n",
                usage.cpuPercent);

    // ---- Step 3: identify hanging components via buffer residue. ----
    section("step 3: buffer residue (bottleneck analyzer)");
    auto residue = mon.bufferLevels(rtm::BufferSort::BySize, 0);
    int shown = 0;
    bool l1Residue = false, l2Residue = false, dramOrNet = false;
    for (const auto &row : residue) {
        if (row.size == 0)
            continue;
        if (shown < 12) {
            std::printf("  %-46s %3zu/%zu\n", row.name.c_str(), row.size,
                        row.capacity);
        }
        shown++;
        if (row.name.find("L1V") != std::string::npos)
            l1Residue = true;
        if (row.name.find(".L2[") != std::string::npos)
            l2Residue = true;
        if (row.name.find("DRAM") != std::string::npos ||
            row.name.find("RDMA") != std::string::npos)
            dramOrNet = true;
    }
    std::printf("  ... %d non-empty buffers total\n", shown);
    std::printf("residue spans L1/L2/memory (backpressure fan-out): "
                "%s/%s/%s\n",
                l1Residue ? "L1 yes" : "L1 no",
                l2Residue ? "L2 yes" : "L2 no",
                dramOrNet ? "mem yes" : "mem no");

    // ---- Step 4: localize to the L2 write buffer. ----
    section("step 4: localize via component details");
    std::string guilty;
    for (auto *c : plat.components()) {
        const auto *f = c->fields().find("eviction_stalled");
        bool stalled = false;
        mon.withEngineLock([&]() {
            stalled = f != nullptr && f->getter().boolVal();
        });
        if (stalled) {
            guilty = c->name();
            std::printf("  %s: eviction_stalled = true (local storage "
                        "holds an eviction the write buffer cannot "
                        "accept)\n",
                        guilty.c_str());
        }
    }

    // ---- Step 5: Tick the components; a true deadlock stays stuck. --
    section("step 5: per-component Tick (kick) does not resolve it");
    sim::VTime before = plat.engine().now();
    for (auto *c : plat.components())
        mon.tickComponent(c->name());
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    sim::VTime after = plat.engine().now();
    bool stillStuck = (after - before) < 100 * sim::kNanosecond &&
                      mon.hangStatus().queueDrained;
    std::printf("virtual time after kicking every component: +%s "
                "(still deadlocked: %s)\n",
                sim::formatTime(after - before).c_str(),
                stillStuck ? "YES" : "NO");

    plat.engine().stop();
    simThread.join();

    // ---- Step 6: the patch. ----
    section("step 6: patched write buffer (the fix that was merged)");
    gpu::PlatformConfig fixed = buggyConfig();
    fixed.legacyL2Deadlock = false;
    gpu::Platform plat2(fixed);
    auto kernel2 = workloads::makeTranspose(tp);
    plat2.launchKernel(&kernel2);
    auto status = plat2.run();
    std::printf("same workload, fixed L2: %s at %s\n",
                status == gpu::Platform::RunStatus::Completed
                    ? "COMPLETED"
                    : "still hung",
                sim::formatTime(plat2.engine().now()).c_str());

    bool ok = hang.hanging && l2Residue && !guilty.empty() &&
              stillStuck &&
              status == gpu::Platform::RunStatus::Completed;
    std::printf("\nCase study 2 reproduced end-to-end: %s\n",
                ok ? "YES" : "NO");
    return ok ? 0 : 1;
}

int
main()
{
    return sim::runMain(run);
}
