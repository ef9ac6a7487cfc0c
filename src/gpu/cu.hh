/**
 * @file
 * Compute unit model.
 */

#ifndef AKITA_GPU_CU_HH
#define AKITA_GPU_CU_HH

#include <unordered_map>
#include <vector>

#include "gpu/protocol.hh"
#include "mem/msg.hh"
#include "sim/component.hh"
#include "sim/idmap.hh"

namespace akita
{
namespace gpu
{

/**
 * A compute unit executing wavefront traces.
 *
 * Resident wavefronts progress in parallel: every wavefront with compute
 * work advances one cycle per tick, and up to Config::memIssuePerCycle
 * wavefronts may issue a memory access per tick (through MemPort toward
 * the L1 vector ROB). A wavefront blocks on its outstanding access until
 * the response arrives, so memory-system backpressure directly throttles
 * the CU — which is what makes the monitored buffer chain meaningful.
 */
class ComputeUnit : public sim::TickingComponent
{
  public:
    struct Config
    {
        /** Maximum resident wavefronts. */
        std::size_t maxWavefronts = 40;
        /**
         * Memory operations issued per cycle: a vector memory
         * instruction produces several coalesced transactions, so the
         * CU can outpace the ROB's admission width — that imbalance is
         * what backs the ROB's TopPort buffer up under load.
         */
        std::size_t memIssuePerCycle = 8;
        /**
         * Outstanding memory accesses per wavefront (memory-level
         * parallelism of the vector memory pipeline). Consecutive
         * memory ops issue back-to-back up to this depth; a compute op
         * acts as a fence and waits for all outstanding accesses.
         */
        std::size_t maxOutstandingPerWf = 4;
        std::size_t ctrlBufCapacity = 2;
        std::size_t memBufCapacity = 8;
    };

    ComputeUnit(sim::Engine *engine, const std::string &name,
                sim::Freq freq, const Config &cfg);

    /** Wires the memory-side destination (the ROB's TopPort). */
    void setMemDownstream(sim::Port *port) { memDownstream_ = port; }

    sim::Port *ctrlPort() const { return ctrlPort_; }
    sim::Port *memPort() const { return memPort_; }

    bool tick() override;

    std::size_t residentWavefronts() const { return wavefronts_.size(); }

    /** Work-groups completed. Thread-safe (metrics sampler reads). */
    std::uint64_t completedWGs() const { return completedWGs_.value(); }

    /** Memory requests issued toward the L1 pipeline. Thread-safe. */
    std::uint64_t memReqsIssued() const { return memReqsIssued_.value(); }

  private:
    struct Wavefront
    {
        std::uint32_t wgId;
        std::vector<WfOp> ops;
        std::size_t pc = 0;
        std::uint32_t computeRemaining = 0;
        std::size_t outstanding = 0; // In-flight memory accesses.
        bool primed = false; // computeRemaining loaded for ops[pc].
    };

    bool processMemResponses();
    bool execute();
    bool acceptWorkGroups();
    void finishWavefront(std::uint64_t uid);

    Config cfg_;
    sim::Port *ctrlPort_;
    sim::Port *memPort_;
    sim::Port *memDownstream_ = nullptr;

    /** Resident wavefronts by a stable uid. Iterated in execute(), so
     * its order is part of the simulated result. */
    std::unordered_map<std::uint64_t, Wavefront> wavefronts_;
    std::uint64_t nextWfUid_ = 0;
    /** Outstanding memory request id -> wavefront uid. */
    sim::IdMap<std::uint64_t> outstanding_;
    /** wgId -> wavefronts still running. */
    sim::IdMap<std::uint32_t> wgRemaining_;
    /** Return port for WGDone, captured from MapWG. */
    sim::Port *cpPort_ = nullptr;
    std::vector<std::uint32_t> doneWgQueue_;
    /** Wavefronts execute() found done; reused so a tick allocates
     * nothing. */
    std::vector<std::uint64_t> finished_;

    metrics::Counter completedWGs_;
    metrics::Counter memReqsIssued_;
};

} // namespace gpu
} // namespace akita

#endif // AKITA_GPU_CU_HH
