/**
 * @file
 * Builders for full GPU platforms (single-chip and multi-chiplet).
 */

#ifndef AKITA_GPU_PLATFORM_HH
#define AKITA_GPU_PLATFORM_HH

#include <memory>
#include <string>
#include <vector>

#include "gpu/cp.hh"
#include "gpu/cu.hh"
#include "gpu/driver.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/l2cache.hh"
#include "mem/rdma.hh"
#include "mem/rob.hh"
#include "mem/translator.hh"
#include "net/switch.hh"
#include "net/switched.hh"
#include "sim/sim.hh"

namespace akita
{
namespace gpu
{

/** Per-chiplet hardware shape. */
struct GpuConfig
{
    std::size_t numSAs = 4;
    std::size_t cusPerSA = 4;
    ComputeUnit::Config cu;
    mem::ReorderBuffer::Config rob;
    mem::AddressTranslator::Config at;
    mem::Cache::Config l1;
    std::size_t numL2Banks = 4;
    mem::L2Cache::Config l2;
    std::size_t numDramChannels = 4;
    mem::DramController::Config dram;
    mem::RdmaEngine::Config rdma;

    /**
     * The AMD R9 Nano shape used by the paper: 16 shader arrays x 4 CUs
     * (64 CUs), 16 KB L1 per CU, 2 MB shared L2 in 8 banks.
     */
    static GpuConfig r9nano();

    /** A scaled-down shape for tests and quick runs (2 SAs x 2 CUs). */
    static GpuConfig tiny();

    /**
     * A medium shape for the figure-reproduction benches (8 SAs x 2
     * CUs = 16 CUs): large enough for the case-study dynamics (RDMA
     * transaction pile-up) at a fraction of the full R9 Nano's cost.
     */
    static GpuConfig medium();
};

/** Inter-chiplet network topology. */
enum class NetworkTopology
{
    /** One bandwidth/latency-modeled link per destination (default). */
    Crossbar,
    /** Ring of store-and-forward switches, shortest-direction routed. */
    Ring,
};

/** Whole-platform shape. */
struct PlatformConfig
{
    std::size_t numGpus = 1;
    GpuConfig gpu;
    net::SwitchedNetwork::Config network;
    NetworkTopology topology = NetworkTopology::Crossbar;
    /** Per-hop link latency for the Ring topology. */
    sim::VTime ringLinkLatency = 20 * sim::kNanosecond;
    std::uint64_t pageSize = 4096;
    sim::Freq freq = sim::Freq::ghz(1);
    /** Re-introduce the L2 write-buffer deadlock (case study 2). */
    bool legacyL2Deadlock = false;

    /**
     * Flight-recorder segment path (--record= / AKITA_RECORD); copied
     * into MonitorConfig::recordPath by the examples that take it.
     * Empty disables recording.
     */
    std::string recordPath;
    /** Segment size (--record-bytes= / AKITA_RECORD_BYTES). */
    std::size_t recordSegmentBytes = 8 * 1024 * 1024;

    /**
     * Number of independent simulation instances to run in one process
     * (--fleet= / AKITA_FLEET). 1 is the ordinary single-sim mode;
     * larger values make fleet-aware harnesses build this many
     * platform+monitor pairs behind one rtm::Gateway (the gpu layer
     * itself only carries the knob — the rtm layer does the spawning).
     */
    int fleet = 1;

    /** The paper's 4-chiplet MCM-GPU (each chiplet an R9 Nano). */
    static PlatformConfig mcm4(const GpuConfig &chip = GpuConfig::tiny());
};

/** One built chiplet: non-owning views into the platform's components. */
struct GpuChip
{
    std::string name;
    CommandProcessor *cp = nullptr;
    std::vector<ComputeUnit *> cus;
    std::vector<mem::ReorderBuffer *> robs;
    std::vector<mem::AddressTranslator *> ats;
    std::vector<mem::Cache *> l1s;
    std::vector<mem::L2Cache *> l2s;
    std::vector<mem::DramController *> drams;
    mem::RdmaEngine *rdma = nullptr;
};

/**
 * Owns a complete simulated platform: engine, driver, chiplets, and the
 * inter-chiplet network, fully wired.
 */
class Platform
{
  public:
    /** Outcome of run(). */
    enum class RunStatus
    {
        /** Every launched kernel completed. */
        Completed,
        /** The event queue drained with work outstanding: a hang. */
        Hung,
        /** Engine::stop was called. */
        Stopped,
    };

    explicit Platform(const PlatformConfig &cfg);
    ~Platform();

    Platform(const Platform &) = delete;
    Platform &operator=(const Platform &) = delete;

    sim::Engine &engine() { return *engine_; }
    Driver &driver() { return *driver_; }
    net::SwitchedNetwork &network() { return *network_; }
    const PlatformConfig &config() const { return cfg_; }

    std::vector<GpuChip> &gpus() { return chips_; }

    /** Ring switches (empty on the Crossbar topology). */
    const std::vector<net::Switch *> &ringSwitches() const
    {
        return ringSwitches_;
    }

    /** Every component, for monitor registration. */
    const std::vector<sim::Component *> &components() const
    {
        return allComponents_;
    }

    /** Every connection (topology view registration). */
    std::vector<sim::Connection *> connections() const;

    /** Enqueues a kernel (sequential execution). */
    std::uint64_t
    launchKernel(const KernelDescriptor *kernel)
    {
        return driver_->launchKernel(kernel);
    }

    /** Runs the simulation to completion (or hang/stop). */
    RunStatus run();

  private:
    void buildChip(std::size_t gpu_id);
    void wireRemoteFinders();
    void buildRingNetwork();

    PlatformConfig cfg_;
    std::unique_ptr<sim::Engine> engine_;
    std::unique_ptr<Driver> driver_;
    std::unique_ptr<net::SwitchedNetwork> network_;
    std::unique_ptr<sim::DirectConnection> driverConn_;

    std::vector<GpuChip> chips_;
    std::vector<net::Switch *> ringSwitches_;
    std::vector<std::unique_ptr<sim::Component>> owned_;
    std::vector<std::unique_ptr<sim::Connection>> connections_;
    std::vector<std::unique_ptr<mem::AddressMapper>> mappers_;
    std::vector<sim::Component *> allComponents_;
};

/**
 * Applies the standard run flags/environment to a config.
 *
 * Recognized argv flags (consumed semantically, not removed):
 *   --record=PATH          flight-recorder segment file
 *   --record-bytes=N       segment size in bytes
 *   --fleet=N              simulation instances behind one gateway
 * Environment (lower precedence than flags):
 *   AKITA_RECORD=PATH
 *   AKITA_RECORD_BYTES=N
 *   AKITA_FLEET=N
 *
 * Each N must be a whole decimal integer; anything else (e.g. "8M")
 * throws std::invalid_argument naming the flag or variable. A
 * non-positive --record-bytes keeps the default; --fleet below 1 means 1.
 */
void applyEngineArgs(PlatformConfig &cfg, int argc, char **argv);

} // namespace gpu
} // namespace akita

#endif // AKITA_GPU_PLATFORM_HH
