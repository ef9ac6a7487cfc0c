/**
 * @file
 * Banked L2 cache with a write buffer — including the historic
 * write-buffer deadlock of the paper's second case study.
 */

#ifndef AKITA_MEM_L2CACHE_HH
#define AKITA_MEM_L2CACHE_HH

#include <optional>
#include <unordered_map>

#include "mem/cache.hh"
#include "sim/component.hh"
#include "sim/idmap.hh"

namespace akita
{
namespace mem
{

/**
 * One bank of the L2 cache (write-back, write-allocate).
 *
 * Internally the bank is split the same way MGPUSim's L2 is: a *local
 * storage* unit (directory + data) and a *write buffer* unit that talks
 * to DRAM. They exchange transactions through two bounded queues:
 *
 *   local storage --(evictions)--> WriteBuf.InBuf  --> DRAM writes
 *   DRAM fills --> WriteBuf.FetchedBuf --(fetched lines)--> InstallBuf
 *                                                     --> local storage
 *
 * The historic bug (fixed upstream after being found with AkitaRTM):
 * when the write buffer could not hand a fetched line to local storage
 * (InstallBuf full) it stopped doing *anything else*, including draining
 * evictions. Local storage, meanwhile, held an eviction it could not
 * enqueue (InBuf full) and therefore would not take fetched data. Each
 * side waits on the other: deadlock. Enable it with
 * Config::legacyWriteBufferDeadlock to reproduce case study 2; the
 * default behavior contains the fix (the write buffer always drains
 * evictions, regardless of the fetched-data head-of-line state).
 *
 * All three internal queues are sim::Buffers registered with the
 * component, so the monitor's bottleneck analyzer sees them fill up
 * during the hang — exactly how the bug was localized in the paper.
 */
class L2Cache : public sim::TickingComponent
{
  public:
    struct Config
    {
        std::uint64_t lineSize = 64;
        std::size_t numSets = 512;
        std::size_t ways = 16;
        std::uint64_t latency = 8; // Cycles for a directory hit.
        std::size_t mshrCapacity = 32;
        std::size_t topBufCapacity = 16;
        std::size_t bottomBufCapacity = 8;
        /** Eviction queue (local storage -> write buffer). */
        std::size_t wbInCapacity = 8;
        /** Fetched-data staging inside the write buffer. */
        std::size_t wbFetchedCapacity = 8;
        /** Fetched-line queue (write buffer -> local storage). */
        std::size_t installCapacity = 4;
        /** Outstanding write-backs to DRAM. */
        std::size_t dramWriteInflightMax = 4;
        std::size_t width = 4;
        /** Re-introduces the upstream deadlock bug (case study 2). */
        bool legacyWriteBufferDeadlock = false;
    };

    L2Cache(sim::Engine *engine, const std::string &name, sim::Freq freq,
            const Config &cfg);

    /** Wires the DRAM controller TopPort. */
    void setDownstream(sim::Port *port) { downstream_ = port; }

    sim::Port *topPort() const { return topPort_; }
    sim::Port *bottomPort() const { return bottomPort_; }

    /** Dedicated write-back channel toward DRAM (eviction traffic). */
    sim::Port *wbPort() const { return wbPort_; }

    bool tick() override;

    std::size_t transactionCount() const { return mshr_.size(); }

    const Directory &directory() const { return directory_; }

    /** True when local storage is stalled holding an eviction. */
    bool evictionStalled() const { return pendingEvict_ != nullptr; }

    /**
     * Reports the internal wait-for edges between the storage and
     * write-buffer stages plus the DRAM write-credit wait, so the hang
     * analyzer can resolve the case-study-2 loop to its actual
     * buffers. Runs under the engine lock.
     */
    std::vector<sim::StallInfo> stallInfo() const override;

  private:
    struct PendingReq
    {
        MemReqPtr req;
        sim::Port *returnTo;
    };

    struct MshrEntry
    {
        std::vector<PendingReq> pending;
        /** The line fetch, built on the first attempt and retried;
         * moves to fetchInflight_ once sent. */
        MemReqPtr fetch;
        bool fetchSent = false;
    };

    struct ReadyRsp
    {
        MemRspPtr rsp;
        sim::VTime readyAt;
    };

    bool deliverReady();
    bool storageTick();
    bool writeBufferTick();
    bool processBottom();
    bool admit();

    void completeLine(std::uint64_t line);

    Config cfg_;
    sim::Port *topPort_;
    sim::Port *bottomPort_;
    sim::Port *wbPort_;
    sim::Port *downstream_ = nullptr;

    Directory directory_;
    /** By line address. Iterated in writeBufferTick(), so its order is
     * part of the simulated result. */
    std::unordered_map<std::uint64_t, MshrEntry> mshr_;
    /** Fetch id -> the fetch, handed to the write buffer on fill. */
    sim::IdMap<MemReqPtr> fetchInflight_;

    sim::Buffer wbInBuf_;      // Evictions: storage -> write buffer.
    sim::Buffer wbFetchedBuf_; // DRAM fills staged in the write buffer.
    sim::Buffer installBuf_;   // Fetched lines: write buffer -> storage.
    /** Ids of the write-backs DRAM has not acknowledged (a set: the
     * value is unused). */
    sim::IdMap<bool> dramWriteInflight_;

    /** Eviction local storage created but could not enqueue yet. */
    MemReqPtr pendingEvict_;

    std::deque<ReadyRsp> hitQueue_;

    std::uint64_t writebacks_ = 0;
    std::uint64_t fills_ = 0;
};

} // namespace mem
} // namespace akita

#endif // AKITA_MEM_L2CACHE_HH
