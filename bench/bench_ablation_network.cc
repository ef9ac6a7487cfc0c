/**
 * @file
 * Network-topology ablation.
 *
 * Case study 1 concludes that the inter-chiplet network limits im2col;
 * this bench makes the conclusion testable by swapping the network
 * underneath the same workload: the crossbar (paper-like MCM links,
 * with a bandwidth knob) vs a dual-ring of store-and-forward switches
 * at several hop latencies. For each network it reports completion
 * time and the RDMA transaction residency the dashboard would show —
 * demonstrating that the monitored signal tracks the true bottleneck
 * as the bottleneck moves.
 */

#include <functional>

#include "common.hh"

using namespace akita;

namespace
{

struct Outcome
{
    sim::VTime completion;
    double meanRdmaTx;
    std::size_t peakRdmaTx;
};

Outcome
runIm2Col(gpu::PlatformConfig cfg)
{
    gpu::Platform plat(cfg);
    workloads::Im2ColParams p;
    // A fixed small batch: the quarter-bandwidth crossbar
    // configuration's congestion makes simulated (and wall) time grow
    // superlinearly with batch, so it must stay small regardless of the
    // global AKITA_SCALE used by the other harnesses.
    p.batch = 12;
    auto kernel = workloads::makeIm2Col(p);
    plat.launchKernel(&kernel);

    Outcome out{};
    std::uint64_t samples = 0;
    double sum = 0;
    std::function<void()> probe = [&]() {
        std::size_t now = 0;
        for (auto &chip : plat.gpus())
            now += chip.rdma->transactionCount();
        out.peakRdmaTx = std::max(out.peakRdmaTx, now);
        sum += static_cast<double>(now);
        samples++;
        if (!plat.driver().allKernelsDone()) {
            plat.engine().scheduleAt(
                plat.engine().now() + 200 * sim::kNanosecond, "probe",
                probe);
        }
    };
    plat.engine().scheduleAt(1, "probe", probe);

    if (plat.run() != gpu::Platform::RunStatus::Completed) {
        std::fprintf(stderr, "run did not complete\n");
        std::exit(1);
    }
    out.completion = plat.engine().now();
    out.meanRdmaTx = samples == 0 ? 0 : sum / static_cast<double>(samples);
    return out;
}

} // namespace

static int
run()
{
    using bench::section;
    section("Network ablation — im2col on the 4-chiplet MCM GPU");
    std::printf("%-36s %14s %12s %10s\n", "network", "completion",
                "mean RDMA tx", "peak");

    struct Row
    {
        const char *label;
        gpu::PlatformConfig cfg;
    };
    std::vector<Row> rows;

    auto base = gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());

    {
        Row r{"crossbar (default bandwidth)", base};
        rows.push_back(r);
    }
    {
        Row r{"crossbar, 4x bandwidth", base};
        r.cfg.network.bytesPerSecond *= 4;
        rows.push_back(r);
    }
    {
        Row r{"crossbar, 1/4 bandwidth", base};
        r.cfg.network.bytesPerSecond /= 4;
        rows.push_back(r);
    }
    {
        Row r{"dual ring, 5 ns hops", base};
        r.cfg.topology = gpu::NetworkTopology::Ring;
        r.cfg.ringLinkLatency = 5 * sim::kNanosecond;
        rows.push_back(r);
    }
    {
        Row r{"dual ring, 20 ns hops", base};
        r.cfg.topology = gpu::NetworkTopology::Ring;
        r.cfg.ringLinkLatency = 20 * sim::kNanosecond;
        rows.push_back(r);
    }
    {
        Row r{"dual ring, 100 ns hops", base};
        r.cfg.topology = gpu::NetworkTopology::Ring;
        r.cfg.ringLinkLatency = 100 * sim::kNanosecond;
        rows.push_back(r);
    }

    sim::VTime slowXbar = 0, fastXbar = 0;
    sim::VTime slowRing = 0, fastRing = 0;
    for (const auto &row : rows) {
        Outcome o = runIm2Col(row.cfg);
        std::printf("%-36s %14s %12.1f %10zu\n", row.label,
                    sim::formatTime(o.completion).c_str(), o.meanRdmaTx,
                    o.peakRdmaTx);
        if (std::string(row.label).find("1/4") != std::string::npos)
            slowXbar = o.completion;
        if (std::string(row.label).find("4x") != std::string::npos)
            fastXbar = o.completion;
        if (std::string(row.label).find("100 ns") != std::string::npos)
            slowRing = o.completion;
        if (std::string(row.label).find("5 ns") != std::string::npos)
            fastRing = o.completion;
    }

    std::printf("\nExpectation: completion time rises monotonically as "
                "the network slows, on both topologies\n");
    bool ok = slowXbar > fastXbar && slowRing > fastRing;
    std::printf("Network is the controlling resource: %s\n",
                ok ? "YES" : "NO");
    return ok ? 0 : 1;
}

int
main()
{
    return sim::runMain(run);
}
