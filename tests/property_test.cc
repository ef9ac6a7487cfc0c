/**
 * @file
 * Property-based tests: randomized sweeps over the substrate with
 * invariants that must hold for every input — message conservation,
 * monotonic time, cache accounting, parser totality (never crashes,
 * only accepts or rejects), and platform-shape robustness.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "gpu/platform.hh"
#include "json/json.hh"
#include "mem_harness.hh"
#include "mem/cache.hh"
#include "web/http.hh"
#include "workloads/workloads.hh"

using namespace akita;
using akita::test::FakeMemory;
using akita::test::Requester;

namespace
{

/** Deterministic xorshift PRNG so failures are reproducible. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed | 1) {}

    std::uint64_t
    next()
    {
        state_ ^= state_ << 13;
        state_ ^= state_ >> 7;
        state_ ^= state_ << 17;
        return state_;
    }

    std::uint64_t next(std::uint64_t bound) { return next() % bound; }

  private:
    std::uint64_t state_;
};

} // namespace

// ---------------------------------------------------------------------
// Engine properties
// ---------------------------------------------------------------------

class EngineSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EngineSeeds, TimeIsMonotonicAndAllEventsRun)
{
    Rng rng(GetParam());
    sim::Engine eng;

    int fired = 0;
    sim::VTime last = 0;
    bool monotonic = true;
    const int n = 500;
    for (int i = 0; i < n; i++) {
        sim::VTime t = rng.next(100000);
        eng.scheduleAt(t, "e", [&, t]() {
            fired++;
            if (eng.now() < last)
                monotonic = false;
            last = eng.now();
            // Handlers may schedule follow-ups in the future.
            if (fired < n * 2 && rng.next(4) == 0) {
                eng.scheduleAt(eng.now() + 1 + rng.next(1000), "f",
                               [&]() { fired++; });
            }
        });
    }
    eng.run();
    EXPECT_TRUE(monotonic);
    EXPECT_GE(fired, n);
    EXPECT_EQ(eng.eventCount(), static_cast<std::uint64_t>(fired));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineSeeds,
                         ::testing::Values(1, 42, 12345, 987654321,
                                           0xdeadbeef));

// ---------------------------------------------------------------------
// Cache accounting properties
// ---------------------------------------------------------------------

struct CacheSweep
{
    std::size_t sets;
    std::size_t ways;
    std::size_t mshr;
    std::uint64_t seed;
};

class CacheProperties : public ::testing::TestWithParam<CacheSweep>
{
};

TEST_P(CacheProperties, ConservationAndAccounting)
{
    const CacheSweep p = GetParam();
    Rng rng(p.seed);

    sim::Engine eng;
    Requester req(&eng, "Req");
    mem::Cache::Config cfg;
    cfg.numSets = p.sets;
    cfg.ways = p.ways;
    cfg.mshrCapacity = p.mshr;
    mem::Cache cache(&eng, "L1", sim::Freq::ghz(1), cfg);
    FakeMemory memory(&eng, "Mem", 10);
    mem::SinglePortMapper mapper(memory.top);
    cache.setMapper(&mapper);

    sim::DirectConnection top(&eng, "Top", sim::kNanosecond);
    sim::DirectConnection bottom(&eng, "Bottom", sim::kNanosecond);
    top.plugIn(req.out);
    top.plugIn(cache.topPort());
    bottom.plugIn(cache.bottomPort());
    bottom.plugIn(memory.top);

    const int n = 300;
    std::set<std::uint64_t> linesTouched;
    int reads = 0;
    for (int i = 0; i < n; i++) {
        std::uint64_t addr = rng.next(64) * 64 + rng.next(64);
        bool write = rng.next(4) == 0;
        if (!write) {
            reads++;
            linesTouched.insert(addr / 64);
        }
        req.enqueue(addr, write, cache.topPort());
    }
    req.tickLater();
    eng.run();

    // Conservation: every request answered exactly once.
    EXPECT_EQ(req.rspOrder.size(), static_cast<std::size_t>(n));
    std::set<std::uint64_t> uniq(req.rspOrder.begin(),
                                 req.rspOrder.end());
    EXPECT_EQ(uniq.size(), req.rspOrder.size());

    // Accounting: lookups = hits + misses; at least one cold miss per
    // distinct line; downstream fetches <= read misses.
    const auto &dir = cache.directory();
    EXPECT_EQ(dir.hits() + dir.misses(),
              static_cast<std::uint64_t>(reads));
    EXPECT_GE(dir.misses(), linesTouched.size());
    EXPECT_EQ(cache.transactionCount(), 0u) << "all MSHRs drained";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheProperties,
    ::testing::Values(CacheSweep{1, 1, 1, 7}, CacheSweep{1, 4, 2, 11},
                      CacheSweep{4, 2, 4, 13}, CacheSweep{16, 4, 16, 17},
                      CacheSweep{64, 8, 8, 19},
                      CacheSweep{2, 2, 32, 23}));

// ---------------------------------------------------------------------
// ROB ordering property under randomized completion order
// ---------------------------------------------------------------------

class RobSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RobSeeds, InOrderRetirementAlways)
{
    Rng rng(GetParam());
    sim::Engine eng;
    Requester req(&eng, "Req");
    mem::ReorderBuffer rob(&eng, "ROB", sim::Freq::ghz(1), {});
    FakeMemory memory(&eng, "Mem", 3, /*lifo=*/true);
    sim::DirectConnection top(&eng, "Top", sim::kNanosecond);
    sim::DirectConnection bottom(&eng, "Bottom", sim::kNanosecond);
    top.plugIn(req.out);
    top.plugIn(rob.topPort());
    bottom.plugIn(rob.bottomPort());
    bottom.plugIn(memory.top);
    rob.setDownstream(memory.top);

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 100; i++) {
        ids.push_back(req.enqueue(rng.next(1 << 20), rng.next(3) == 0,
                                  rob.topPort()));
    }
    req.tickLater();
    eng.run();
    ASSERT_EQ(req.rspOrder.size(), ids.size());
    EXPECT_EQ(req.rspOrder, ids);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RobSeeds,
                         ::testing::Values(3, 99, 4242, 31337));

// ---------------------------------------------------------------------
// Parser totality (fuzz): random input never crashes
// ---------------------------------------------------------------------

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FuzzSeeds, JsonParserTotality)
{
    Rng rng(GetParam());
    for (int round = 0; round < 300; round++) {
        std::string input;
        std::size_t len = rng.next(200);
        const char *alphabet = "{}[]\",:0123456789.eE+-truefalsn \\u\n";
        std::size_t alen = std::strlen(alphabet);
        for (std::size_t i = 0; i < len; i++)
            input.push_back(alphabet[rng.next(alen)]);
        try {
            json::Json parsed = json::Json::parse(input);
            // Accepted input must round-trip.
            EXPECT_EQ(parsed, json::Json::parse(parsed.dump()))
                << input;
        } catch (const json::ParseError &) {
            // Rejection is fine; crashing is not.
        }
    }
}

TEST_P(FuzzSeeds, HttpParserTotality)
{
    Rng rng(GetParam());
    for (int round = 0; round < 300; round++) {
        std::string input;
        std::size_t len = rng.next(300);
        for (std::size_t i = 0; i < len; i++)
            input.push_back(static_cast<char>(rng.next(256)));
        // Prefix some rounds with a plausible start to go deeper.
        if (rng.next(2) == 0)
            input = "GET /x HTTP/1.1\r\n" + input;
        web::Request parsed;
        std::size_t consumed = 0;
        web::ParseResult r = web::parseRequest(input, parsed, consumed);
        if (r == web::ParseResult::Ok) {
            EXPECT_LE(consumed, input.size());
            EXPECT_FALSE(parsed.method.empty());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(5, 77, 2024, 555555));

// ---------------------------------------------------------------------
// Platform shape sweep
// ---------------------------------------------------------------------

struct ShapeSweep
{
    std::size_t numGpus;
    std::size_t sas;
    std::size_t cusPerSa;
    std::size_t l2Banks;
    std::size_t drams;
};

class PlatformShapes : public ::testing::TestWithParam<ShapeSweep>
{
};

TEST_P(PlatformShapes, AnyShapeCompletesMemCopy)
{
    const ShapeSweep p = GetParam();
    gpu::PlatformConfig cfg;
    cfg.numGpus = p.numGpus;
    cfg.gpu = gpu::GpuConfig::tiny();
    cfg.gpu.numSAs = p.sas;
    cfg.gpu.cusPerSA = p.cusPerSa;
    cfg.gpu.numL2Banks = p.l2Banks;
    cfg.gpu.numDramChannels = p.drams;

    gpu::Platform plat(cfg);
    workloads::MemCopyParams mp;
    mp.bytes = 1 << 18;
    auto k = workloads::makeMemCopy(mp);
    plat.launchKernel(&k);
    EXPECT_EQ(plat.run(), gpu::Platform::RunStatus::Completed)
        << p.numGpus << " GPUs, " << p.sas << "x" << p.cusPerSa;

    // The driver auto-stops the engine the moment the last kernel
    // completes, which can leave in-flight tail messages (progress
    // reports, final acks) queued. Drain them, then every buffer must
    // be empty.
    plat.run();

    // Post-quiescence invariant: every buffer empty.
    for (auto *c : plat.components()) {
        for (auto *b : c->buffers())
            EXPECT_EQ(b->size(), 0u) << b->name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlatformShapes,
    ::testing::Values(ShapeSweep{1, 1, 1, 1, 1},
                      ShapeSweep{1, 2, 2, 2, 2},
                      ShapeSweep{2, 1, 2, 2, 1},
                      ShapeSweep{3, 2, 1, 1, 2},
                      ShapeSweep{4, 2, 2, 2, 2},
                      ShapeSweep{2, 4, 1, 4, 4}));

// ---------------------------------------------------------------------
// Workload trace sanity over many (wg, wf) pairs
// ---------------------------------------------------------------------

TEST(WorkloadProperty, AllTracesWellFormedEverywhere)
{
    Rng rng(2718);
    for (const auto &b : workloads::paperSuite(0.05)) {
        for (int i = 0; i < 50; i++) {
            auto wg = static_cast<std::uint32_t>(
                rng.next(b.kernel.numWorkGroups));
            auto wf = static_cast<std::uint32_t>(
                rng.next(b.kernel.wavefrontsPerWG));
            auto ops = b.kernel.trace(wg, wf);
            ASSERT_FALSE(ops.empty()) << b.name;
            for (const auto &op : ops) {
                if (op.hasMem()) {
                    EXPECT_GT(op.size, 0u) << b.name;
                    EXPECT_LE(op.size, 4096u) << b.name;
                    EXPECT_GT(op.addr, 0u) << b.name;
                }
            }
        }
    }
}
