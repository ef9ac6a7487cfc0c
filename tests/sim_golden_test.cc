/**
 * @file
 * Golden simulated results: the paper's benchmark kernels on a reduced
 * `mcm4` platform must end at the same time, dispatch the same number
 * of events and leave the same per-class counters on every engine that
 * promises an exact answer (serial, and the domain engine at d=1).
 *
 * The values were recorded once and are pinned here, so a hot-path
 * change that claims to leave the simulation untouched — a skipped
 * tick, a send that is no longer attempted, a cached queue front — has
 * to prove it. A counter that moves names itself in the failure.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "gpu/platform.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/l2cache.hh"
#include "mem/rdma.hh"
#include "mem/translator.hh"
#include "workloads/workloads.hh"

using namespace akita;

namespace
{

/** Everything a run must reproduce, counter by counter. */
struct Signature
{
    std::uint64_t endPs = 0;
    std::uint64_t events = 0;
    /** FNV-1a over every port's (name, sent, received, bytes). */
    std::uint64_t portHash = 0;
    std::uint64_t portSent = 0;
    std::uint64_t l1Hits = 0, l1Misses = 0;
    std::uint64_t l2Hits = 0, l2Misses = 0;
    std::uint64_t tlbHits = 0, tlbMisses = 0;
    std::uint64_t dramReads = 0, dramWrites = 0;
    std::uint64_t rdmaOut = 0;
    std::uint64_t cuMemReqs = 0, cuWGs = 0;
};

struct Golden
{
    const char *kernel;
    Signature sig;
};

void
fnv(std::uint64_t &h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; i++) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
}

void
fnv(std::uint64_t &h, std::uint64_t v)
{
    fnv(h, &v, sizeof v);
}

Signature
collect(gpu::Platform &plat)
{
    Signature s;
    s.endPs = plat.engine().now();
    s.events = plat.engine().eventCount();
    s.portHash = 14695981039346656037ull;
    for (sim::Component *c : plat.components()) {
        for (const auto &p : c->ports()) {
            fnv(s.portHash, p->fullName().data(), p->fullName().size());
            fnv(s.portHash, p->totalSent());
            fnv(s.portHash, p->totalReceived());
            fnv(s.portHash, p->totalSentBytes());
            s.portSent += p->totalSent();
        }
        if (auto *cu = dynamic_cast<gpu::ComputeUnit *>(c)) {
            s.cuMemReqs += cu->memReqsIssued();
            s.cuWGs += cu->completedWGs();
        } else if (auto *l1 = dynamic_cast<mem::Cache *>(c)) {
            s.l1Hits += l1->directory().hits();
            s.l1Misses += l1->directory().misses();
        } else if (auto *l2 = dynamic_cast<mem::L2Cache *>(c)) {
            s.l2Hits += l2->directory().hits();
            s.l2Misses += l2->directory().misses();
        } else if (auto *at = dynamic_cast<mem::AddressTranslator *>(c)) {
            s.tlbHits += at->tlb().hits();
            s.tlbMisses += at->tlb().misses();
        } else if (auto *dram = dynamic_cast<mem::DramController *>(c)) {
            s.dramReads += dram->totalReads();
            s.dramWrites += dram->totalWrites();
        } else if (auto *rdma = dynamic_cast<mem::RdmaEngine *>(c)) {
            s.rdmaOut += rdma->totalForwardedOut();
        }
    }
    return s;
}

/** The six-benchmark suite at reduced scale plus perfbench's im2col. */
std::vector<workloads::Benchmark>
kernels()
{
    std::vector<workloads::Benchmark> out = workloads::paperSuite(0.1);
    workloads::Im2ColParams p;
    p.batch = 32; // The RDMA-heavy shape the repo benchmark runs.
    out.push_back({"im2col32", workloads::makeIm2Col(p)});
    return out;
}

Signature
run(const gpu::KernelDescriptor &kernel, gpu::EngineKind kind)
{
    gpu::PlatformConfig cfg =
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    cfg.engineKind = kind;
    cfg.domains = 1;
    gpu::Platform plat(cfg);
    plat.launchKernel(&kernel);
    EXPECT_EQ(plat.run(), gpu::Platform::RunStatus::Completed);
    return collect(plat);
}

/**
 * Recorded from the serial engine; the domain engine at d=1 agrees.
 * Field order as in Signature: end time, events, port hash, port sends;
 * L1, L2 and TLB hits/misses; DRAM reads/writes, RDMA forwards, CU
 * memory requests and completed work-groups.
 */
const Golden kGolden[] = {
    {"FIR",
     {11678000u, 171474u, 0xce792882a27e6d78ull, 67825u,
      1008u, 3900u, 249u, 3431u, 3649u, 2895u,
      3299u, 1240u, 2764u, 6544u, 409u}},
    {"im2col",
     {116761000u, 1860725u, 0xc11a5792304423e6ull, 648713u,
      6773u, 20875u, 804u, 37198u, 45520u, 9776u,
      37198u, 25825u, 28436u, 55296u, 384u}},
    {"KMeans",
     {33070000u, 669649u, 0x6bd6b858f71cc4a2ull, 206106u,
      311u, 14413u, 248u, 14766u, 7722u, 8638u,
      14742u, 1221u, 11219u, 16360u, 409u}},
    {"MatrixTranspose",
     {33299000u, 647447u, 0x43c78be3d0fbbaa8ull, 238672u,
      0u, 2048u, 5105u, 13327u, 17348u, 1084u,
      10190u, 7669u, 13824u, 18432u, 64u}},
    {"AES",
     {12158000u, 149761u, 0xe8a991175fbea2e1ull, 56908u,
      235u, 3029u, 288u, 3351u, 3504u, 1392u,
      3341u, 1111u, 2759u, 4896u, 102u}},
    {"BitonicSort",
     {26807000u, 233048u, 0xa00cc69c93fbf1c0ull, 98367u,
      1099u, 3701u, 7574u, 592u, 9379u, 221u,
      432u, 0u, 5871u, 9600u, 25u}},
    {"im2col32",
     {58964000u, 923579u, 0xb42b63c7d059ab0full, 323521u,
      2909u, 10915u, 608u, 18667u, 22569u, 5079u,
      18667u, 11917u, 14334u, 27648u, 192u}},
};

/** EXPECTs every field equal; false when any differs. */
bool
expectSame(const Signature &want, const Signature &got,
           const std::string &what)
{
    bool same = true;
#define AKITA_GOLDEN_EQ(f)                                                   \
    do {                                                                     \
        same = same && want.f == got.f;                                      \
        EXPECT_EQ(want.f, got.f) << what << " " #f;                          \
    } while (0)
    AKITA_GOLDEN_EQ(endPs);
    AKITA_GOLDEN_EQ(events);
    AKITA_GOLDEN_EQ(portHash);
    AKITA_GOLDEN_EQ(portSent);
    AKITA_GOLDEN_EQ(l1Hits);
    AKITA_GOLDEN_EQ(l1Misses);
    AKITA_GOLDEN_EQ(l2Hits);
    AKITA_GOLDEN_EQ(l2Misses);
    AKITA_GOLDEN_EQ(tlbHits);
    AKITA_GOLDEN_EQ(tlbMisses);
    AKITA_GOLDEN_EQ(dramReads);
    AKITA_GOLDEN_EQ(dramWrites);
    AKITA_GOLDEN_EQ(rdmaOut);
    AKITA_GOLDEN_EQ(cuMemReqs);
    AKITA_GOLDEN_EQ(cuWGs);
#undef AKITA_GOLDEN_EQ
    return same;
}

void
print(const char *name, const Signature &s)
{
    std::printf("    {\"%s\", {%lluu, %lluu, 0x%llxull, %lluu, %lluu, "
                "%lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, "
                "%lluu, %lluu}},\n",
                name, (unsigned long long)s.endPs,
                (unsigned long long)s.events,
                (unsigned long long)s.portHash,
                (unsigned long long)s.portSent,
                (unsigned long long)s.l1Hits,
                (unsigned long long)s.l1Misses,
                (unsigned long long)s.l2Hits,
                (unsigned long long)s.l2Misses,
                (unsigned long long)s.tlbHits,
                (unsigned long long)s.tlbMisses,
                (unsigned long long)s.dramReads,
                (unsigned long long)s.dramWrites,
                (unsigned long long)s.rdmaOut,
                (unsigned long long)s.cuMemReqs,
                (unsigned long long)s.cuWGs);
}

class SimGolden : public ::testing::TestWithParam<gpu::EngineKind>
{
};

} // namespace

TEST_P(SimGolden, KernelsReproducePinnedResults)
{
    std::vector<workloads::Benchmark> ks = kernels();
    ASSERT_EQ(ks.size(), std::size(kGolden));
    const char *engine =
        GetParam() == gpu::EngineKind::Serial ? "serial" : "domain d=1";
    for (std::size_t i = 0; i < ks.size(); i++) {
        ASSERT_EQ(ks[i].name, kGolden[i].kernel);
        Signature got = run(ks[i].kernel, GetParam());
        if (!expectSame(kGolden[i].sig, got, ks[i].name + " on " + engine))
            print(kGolden[i].kernel, got);
    }
}

INSTANTIATE_TEST_SUITE_P(Engines, SimGolden,
                         ::testing::Values(gpu::EngineKind::Serial,
                                           gpu::EngineKind::Domain),
                         [](const auto &info) {
                             return info.param == gpu::EngineKind::Serial
                                        ? std::string("Serial")
                                        : std::string("DomainD1");
                         });
