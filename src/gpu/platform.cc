#include "gpu/platform.hh"

#include <cstdlib>
#include <stdexcept>

namespace akita
{
namespace gpu
{

GpuConfig
GpuConfig::r9nano()
{
    GpuConfig cfg;
    cfg.numSAs = 16;
    cfg.cusPerSA = 4;
    // 16 KB L1 per CU: 64 sets x 4 ways x 64 B.
    cfg.l1.numSets = 64;
    cfg.l1.ways = 4;
    // 2 MB L2 in 8 banks: each 256 KB = 256 sets x 16 ways x 64 B.
    cfg.numL2Banks = 8;
    cfg.l2.numSets = 256;
    cfg.l2.ways = 16;
    cfg.numDramChannels = 8;
    return cfg;
}

GpuConfig
GpuConfig::tiny()
{
    GpuConfig cfg;
    cfg.numSAs = 2;
    cfg.cusPerSA = 2;
    cfg.l1.numSets = 16;
    cfg.l1.ways = 4;
    cfg.numL2Banks = 2;
    cfg.l2.numSets = 64;
    cfg.l2.ways = 8;
    cfg.numDramChannels = 2;
    return cfg;
}

GpuConfig
GpuConfig::medium()
{
    GpuConfig cfg;
    cfg.numSAs = 8;
    cfg.cusPerSA = 2;
    cfg.l1.numSets = 32;
    cfg.l1.ways = 4;
    cfg.numL2Banks = 4;
    cfg.l2.numSets = 128;
    cfg.l2.ways = 8;
    cfg.numDramChannels = 4;
    return cfg;
}

PlatformConfig
PlatformConfig::mcm4(const GpuConfig &chip)
{
    PlatformConfig cfg;
    cfg.numGpus = 4;
    cfg.gpu = chip;
    return cfg;
}

Platform::Platform(const PlatformConfig &cfg) : cfg_(cfg)
{
    if (cfg_.engineKind == EngineKind::Domain)
        engine_ = std::make_unique<sim::DomainEngine>(cfg_.domains);
    else
        engine_ = std::make_unique<sim::SerialEngine>();
    driver_ = std::make_unique<Driver>(engine_.get(), "Driver", cfg_.freq);
    network_ = std::make_unique<net::SwitchedNetwork>(
        engine_.get(), "Network", cfg_.network);
    driverConn_ = std::make_unique<sim::DirectConnection>(
        engine_.get(), "DriverConn", 10 * cfg_.freq.period());
    driverConn_->plugIn(driver_->gpuPort());

    allComponents_.push_back(driver_.get());
    for (std::size_t g = 0; g < cfg_.numGpus; g++)
        buildChip(g);
    if (cfg_.topology == NetworkTopology::Ring)
        buildRingNetwork();
    wireRemoteFinders();
}

Platform::~Platform() = default;

void
Platform::buildChip(std::size_t gpu_id)
{
    const GpuConfig &gc = cfg_.gpu;
    sim::Engine *eng = engine_.get();
    sim::Freq freq = cfg_.freq;
    sim::VTime cycle = freq.period();

    GpuChip chip;
    chip.name = "GPU[" + std::to_string(gpu_id) + "]";

    auto own = [this](auto component) {
        auto *raw = component.get();
        allComponents_.push_back(raw);
        owned_.push_back(std::move(component));
        return raw;
    };

    // Command processor and control fabric.
    auto *cp = own(std::make_unique<CommandProcessor>(
        eng, chip.name + ".CP", freq, CommandProcessor::Config{}));
    chip.cp = cp;
    driverConn_->plugIn(cp->toDriverPort());
    driver_->addGpu(cp->toDriverPort());

    auto ctrlConn = std::make_unique<sim::DirectConnection>(
        eng, chip.name + ".CtrlConn", cycle);
    ctrlConn->plugIn(cp->toCUsPort());

    // L2 banks and DRAM channels first (L1s route to them).
    auto l2DramConn = std::make_unique<sim::DirectConnection>(
        eng, chip.name + ".L2DramConn", cycle);

    mem::L2Cache::Config l2cfg = gc.l2;
    l2cfg.legacyWriteBufferDeadlock = cfg_.legacyL2Deadlock;

    for (std::size_t c = 0; c < gc.numDramChannels; c++) {
        auto *dram = own(std::make_unique<mem::DramController>(
            eng, chip.name + ".DRAM[" + std::to_string(c) + "]", freq,
            gc.dram));
        chip.drams.push_back(dram);
        l2DramConn->plugIn(dram->topPort());
    }

    auto l1l2Conn = std::make_unique<sim::DirectConnection>(
        eng, chip.name + ".L1L2Conn", 2 * cycle);

    for (std::size_t b = 0; b < gc.numL2Banks; b++) {
        auto *l2 = own(std::make_unique<mem::L2Cache>(
            eng, chip.name + ".L2[" + std::to_string(b) + "]", freq,
            l2cfg));
        chip.l2s.push_back(l2);
        l2DramConn->plugIn(l2->bottomPort());
        l2DramConn->plugIn(l2->wbPort());
        l1l2Conn->plugIn(l2->topPort());
        l2->setDownstream(
            chip.drams[b % chip.drams.size()]->topPort());
    }

    // RDMA engine bridges the local fabric and the network.
    auto *rdma = own(std::make_unique<mem::RdmaEngine>(
        eng, chip.name + ".RDMA", freq, gc.rdma));
    chip.rdma = rdma;
    l1l2Conn->plugIn(rdma->toInsidePort());
    if (cfg_.topology == NetworkTopology::Crossbar)
        network_->plugIn(rdma->toOutsidePort());

    // Bank selection, shared by L1 routing and incoming RDMA traffic.
    std::uint64_t lineSize = gc.l2.lineSize;
    std::vector<sim::Port *> l2Tops;
    for (auto *l2 : chip.l2s)
        l2Tops.push_back(l2->topPort());
    auto bankMapper = std::make_unique<mem::InterleavedMapper>(
        l2Tops, lineSize);
    rdma->setLocalMapper(bankMapper.get());

    // Local-or-remote routing for L1 bottom ports.
    mem::ChipletInterleaving interleave;
    interleave.pageSize = cfg_.pageSize;
    interleave.numDevices = static_cast<std::uint32_t>(cfg_.numGpus);
    auto *bankMapperRaw = bankMapper.get();
    auto *rdmaRaw = rdma;
    auto l1Mapper = std::make_unique<mem::FuncMapper>(
        [interleave, gpu_id, bankMapperRaw,
         rdmaRaw](std::uint64_t addr) -> sim::Port * {
            if (interleave.deviceOf(addr) == gpu_id)
                return bankMapperRaw->find(addr);
            return rdmaRaw->toInsidePort();
        });

    // Shader arrays: CU -> ROB -> AT -> L1 chains.
    for (std::size_t s = 0; s < gc.numSAs; s++) {
        std::string saName = chip.name + ".SA[" + std::to_string(s) + "]";
        auto saConn = std::make_unique<sim::DirectConnection>(
            eng, saName + ".Conn", cycle);

        for (std::size_t c = 0; c < gc.cusPerSA; c++) {
            std::string idx = "[" + std::to_string(c) + "]";

            auto *cu = own(std::make_unique<ComputeUnit>(
                eng, saName + ".CU" + idx, freq, gc.cu));
            auto *rob = own(std::make_unique<mem::ReorderBuffer>(
                eng, saName + ".L1VROB" + idx, freq, gc.rob));
            auto *at = own(std::make_unique<mem::AddressTranslator>(
                eng, saName + ".L1VAddrTrans" + idx, freq, gc.at));
            auto *l1 = own(std::make_unique<mem::Cache>(
                eng, saName + ".L1VCache" + idx, freq, gc.l1));

            chip.cus.push_back(cu);
            chip.robs.push_back(rob);
            chip.ats.push_back(at);
            chip.l1s.push_back(l1);

            ctrlConn->plugIn(cu->ctrlPort());
            cp->addCU(cu->ctrlPort());

            saConn->plugIn(cu->memPort());
            saConn->plugIn(rob->topPort());
            saConn->plugIn(rob->bottomPort());
            saConn->plugIn(at->topPort());
            saConn->plugIn(at->bottomPort());
            saConn->plugIn(l1->topPort());
            l1l2Conn->plugIn(l1->bottomPort());

            cu->setMemDownstream(rob->topPort());
            rob->setDownstream(at->topPort());
            at->setDownstream(l1->topPort());
            l1->setMapper(l1Mapper.get());
        }
        connections_.push_back(std::move(saConn));
    }

    mappers_.push_back(std::move(bankMapper));
    mappers_.push_back(std::move(l1Mapper));
    connections_.push_back(std::move(ctrlConn));
    connections_.push_back(std::move(l1l2Conn));
    connections_.push_back(std::move(l2DramConn));
    chips_.push_back(std::move(chip));
}

void
Platform::buildRingNetwork()
{
    // Two rings of switches — a request network and a response network
    // (separate virtual networks, the standard NoC remedy for
    // request-reply protocol deadlock). Each ring: one switch per
    // chiplet, neighbors linked bidirectionally, shortest-direction
    // routing toward the final destination's owner chiplet.
    std::size_t n = cfg_.numGpus;

    auto buildRing = [&](const std::string &tag,
                         const std::vector<sim::Port *> &endpoints)
        -> std::vector<sim::Port *> {
        std::vector<net::Switch *> switches;
        std::vector<sim::Port *> hostPorts(n);
        std::vector<sim::Port *> cwEntry(n);
        std::vector<sim::Port *> ccwEntry(n);

        for (std::size_t i = 0; i < n; i++) {
            auto sw = std::make_unique<net::Switch>(
                engine_.get(),
                tag + "SW[" + std::to_string(i) + "]", cfg_.freq,
                net::Switch::Config{});
            switches.push_back(sw.get());
            ringSwitches_.push_back(sw.get());
            allComponents_.push_back(sw.get());
            owned_.push_back(std::move(sw));
        }

        for (std::size_t i = 0; i < n; i++) {
            hostPorts[i] = switches[i]->addLink("Host");
            auto hostLink = std::make_unique<sim::DirectConnection>(
                engine_.get(), tag + "Host[" + std::to_string(i) + "]",
                cfg_.ringLinkLatency);
            hostLink->plugIn(endpoints[i]);
            hostLink->plugIn(hostPorts[i]);
            connections_.push_back(std::move(hostLink));
        }

        for (std::size_t i = 0; i < n; i++) {
            std::size_t j = (i + 1) % n;
            auto ringLink = std::make_unique<sim::DirectConnection>(
                engine_.get(),
                tag + "Link[" + std::to_string(i) + "-" +
                    std::to_string(j) + "]",
                cfg_.ringLinkLatency);
            sim::Port *a =
                switches[i]->addLink("To" + std::to_string(j));
            sim::Port *b =
                switches[j]->addLink("From" + std::to_string(i));
            ringLink->plugIn(a);
            ringLink->plugIn(b);
            cwEntry[j] = b;  // Reached from switch i going clockwise.
            ccwEntry[i] = a; // Reached from switch j the other way.
            connections_.push_back(std::move(ringLink));
        }

        std::map<sim::Port *, std::size_t> ownerOf;
        for (std::size_t i = 0; i < n; i++)
            ownerOf[endpoints[i]] = i;

        for (std::size_t i = 0; i < n; i++) {
            switches[i]->setRoute(
                [i, n, ownerOf, cwEntry,
                 ccwEntry](sim::Port *final_dst) -> sim::Port * {
                    auto it = ownerOf.find(final_dst);
                    if (it == ownerOf.end())
                        return nullptr; // Foreign endpoint: drop.
                    std::size_t owner = it->second;
                    if (owner == i)
                        return final_dst; // Host-attached: deliver.
                    std::size_t cwDist = (owner + n - i) % n;
                    if (cwDist <= n / 2)
                        return cwEntry[(i + 1) % n];
                    return ccwEntry[(i + n - 1) % n];
                });
        }
        return hostPorts;
    };

    std::vector<sim::Port *> reqEndpoints(n);
    std::vector<sim::Port *> rspEndpoints(n);
    for (std::size_t i = 0; i < n; i++) {
        reqEndpoints[i] = chips_[i].rdma->toOutsidePort();
        rspEndpoints[i] = chips_[i].rdma->toOutsideRspPort();
    }
    auto reqHosts = buildRing("RingReq", reqEndpoints);
    auto rspHosts = buildRing("RingRsp", rspEndpoints);
    for (std::size_t i = 0; i < n; i++)
        chips_[i].rdma->setOutsideFirstHop(reqHosts[i], rspHosts[i]);
}

void
Platform::wireRemoteFinders()
{
    std::vector<sim::Port *> rdmaOutside;
    for (auto &chip : chips_)
        rdmaOutside.push_back(chip.rdma->toOutsidePort());

    mem::ChipletInterleaving interleave;
    interleave.pageSize = cfg_.pageSize;
    interleave.numDevices = static_cast<std::uint32_t>(cfg_.numGpus);

    for (auto &chip : chips_) {
        chip.rdma->setRemoteFinder(
            [interleave, rdmaOutside](std::uint64_t addr) -> sim::Port * {
                return rdmaOutside[interleave.deviceOf(addr)];
            });
    }
}

std::vector<sim::Connection *>
Platform::connections() const
{
    std::vector<sim::Connection *> out;
    out.push_back(driverConn_.get());
    out.push_back(network_.get());
    for (const auto &c : connections_)
        out.push_back(c.get());
    return out;
}

Platform::RunStatus
Platform::run()
{
    sim::RunResult result = engine_->run();
    if (driver_->allKernelsDone())
        return RunStatus::Completed;
    return result == sim::RunResult::Stopped ? RunStatus::Stopped
                                             : RunStatus::Hung;
}

namespace
{

void
applyEngineChoice(PlatformConfig &cfg, const std::string &kind)
{
    if (kind == "domain")
        cfg.engineKind = EngineKind::Domain;
    else if (kind == "serial")
        cfg.engineKind = EngineKind::Serial;
    else
        throw std::invalid_argument("unknown engine '" + kind +
                                    "' (expected serial|domain)");
}

} // namespace

void
applyEngineEnv(PlatformConfig &cfg)
{
    if (const char *e = std::getenv("AKITA_ENGINE"))
        applyEngineChoice(cfg, e);
    if (const char *d = std::getenv("AKITA_DOMAINS"))
        cfg.domains = std::atoi(d);
    if (const char *r = std::getenv("AKITA_RECORD"))
        cfg.recordPath = r;
    if (const char *b = std::getenv("AKITA_RECORD_BYTES")) {
        long long v = std::atoll(b);
        if (v > 0)
            cfg.recordSegmentBytes = static_cast<std::size_t>(v);
    }
    if (const char *f = std::getenv("AKITA_FLEET"))
        cfg.fleet = std::max(1, std::atoi(f));
}

void
applyEngineArgs(PlatformConfig &cfg, int argc, char **argv)
{
    applyEngineEnv(cfg);
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg.rfind("--engine=", 0) == 0)
            applyEngineChoice(cfg, arg.substr(9));
        else if (arg.rfind("--domains=", 0) == 0)
            cfg.domains = std::atoi(arg.c_str() + 10);
        else if (arg.rfind("--record=", 0) == 0)
            cfg.recordPath = arg.substr(9);
        else if (arg.rfind("--record-bytes=", 0) == 0) {
            long long v = std::atoll(arg.c_str() + 15);
            if (v > 0)
                cfg.recordSegmentBytes = static_cast<std::size_t>(v);
        }
        else if (arg.rfind("--fleet=", 0) == 0)
            cfg.fleet = std::max(1, std::atoi(arg.c_str() + 8));
    }
}

} // namespace gpu
} // namespace akita
