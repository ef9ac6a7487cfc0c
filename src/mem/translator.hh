/**
 * @file
 * Address translator with a device TLB (the L1VAddrTrans of the case
 * studies).
 */

#ifndef AKITA_MEM_TRANSLATOR_HH
#define AKITA_MEM_TRANSLATOR_HH

#include <deque>
#include <list>
#include <unordered_map>

#include "mem/msg.hh"
#include "sim/component.hh"
#include "sim/idmap.hh"

namespace akita
{
namespace mem
{

/**
 * Least-recently-used TLB over page numbers.
 *
 * Translation is identity (the workloads use flat physical layouts);
 * what matters to the simulation is the *timing*: hits add one cycle,
 * misses pay a page-walk latency with a bounded number of walkers.
 */
class Tlb
{
  public:
    Tlb(std::size_t num_entries, std::uint64_t page_size)
        : numEntries_(num_entries == 0 ? 1 : num_entries),
          pageSize_(page_size == 0 ? 4096 : page_size)
    {
    }

    /** Looks up the page of @p addr, updating LRU state on hit. */
    bool lookup(std::uint64_t addr);

    /** Installs the page of @p addr, evicting the LRU entry if needed. */
    void install(std::uint64_t addr);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::size_t occupancy() const { return lru_.size(); }

  private:
    std::size_t numEntries_;
    std::uint64_t pageSize_;
    std::list<std::uint64_t> lru_; // Front = most recent.
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        map_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Translates request addresses before they reach the L1 cache.
 *
 * The monitored `transactions` field shows the in-flight translations;
 * in case study 1 this trace shows "high peaks turning flat within a
 * short duration" — bursts absorbed at a healthy service rate.
 */
class AddressTranslator : public sim::TickingComponent
{
  public:
    struct Config
    {
        std::size_t topBufCapacity = 4; // Fig. 3 shows 4.
        std::size_t bottomBufCapacity = 8;
        /** L1 device TLBs are small; concurrent wavefronts streaming
         * different pages overflow it, producing the walk bursts the
         * case study's time graph shows. */
        std::size_t tlbEntries = 32;
        std::uint64_t pageSize = 4096;
        /** Page-walk latency in cycles on a TLB miss. */
        std::uint64_t walkLatency = 60;
        /** Concurrent page walks. */
        std::size_t maxWalkers = 8;
        /** Bound on queued + in-flight translations. */
        std::size_t maxInflight = 16;
        /** Bound on translated entries staged for downstream issue. */
        std::size_t issueQueueCapacity = 8;
        std::size_t width = 4;
    };

    AddressTranslator(sim::Engine *engine, const std::string &name,
                      sim::Freq freq, const Config &cfg);

    void setDownstream(sim::Port *port) { downstream_ = port; }

    sim::Port *topPort() const { return topPort_; }
    sim::Port *bottomPort() const { return bottomPort_; }

    bool tick() override;

    /** Translations in progress (the monitored `transactions` value —
     * staged-for-issue entries are not translations anymore). */
    std::size_t transactionCount() const { return inflight_.size(); }

    std::size_t pendingIssueCount() const { return issueQueue_.size(); }

    const Tlb &tlb() const { return tlb_; }

  private:
    struct Entry
    {
        MemReqPtr req;
        sim::Port *returnTo;
        std::uint64_t readyTick;
        bool walking;
        bool issued = false;
    };

    bool admit();
    bool stage();
    bool issue();
    bool forwardResponses();

    Config cfg_;
    sim::Port *topPort_;
    sim::Port *bottomPort_;
    sim::Port *downstream_ = nullptr;

    Tlb tlb_;
    std::deque<Entry> inflight_;
    std::deque<Entry> issueQueue_;
    std::size_t activeWalkers_ = 0;
    /** reqId -> port to return the response to. */
    sim::IdMap<sim::Port *> returnPath_;
};

} // namespace mem
} // namespace akita

#endif // AKITA_MEM_TRANSLATOR_HH
