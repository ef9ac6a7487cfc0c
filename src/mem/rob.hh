/**
 * @file
 * Reorder buffer (the L1VROB of the case studies).
 */

#ifndef AKITA_MEM_ROB_HH
#define AKITA_MEM_ROB_HH

#include <deque>

#include "mem/msg.hh"
#include "sim/component.hh"

namespace akita
{
namespace mem
{

/**
 * An in-order retirement window in front of the L1 vector cache.
 *
 * Requests enter through TopPort (from the compute unit), are forwarded
 * downstream immediately (to the address translator), and responses are
 * returned to the CU strictly in admission order. The paper's first case
 * study watches two signals here: the TopPort buffer (pinned full when
 * the memory system cannot keep up) and the `transactions` field (the
 * number of requests inside the window).
 */
class ReorderBuffer : public sim::TickingComponent
{
  public:
    struct Config
    {
        /** Maximum in-flight transactions inside the window. */
        std::size_t capacity = 128;
        /** TopPort incoming-buffer capacity (Fig. 3 shows 8). */
        std::size_t topBufCapacity = 8;
        std::size_t bottomBufCapacity = 8;
        /** Requests admitted/issued/retired per cycle. */
        std::size_t width = 4;
    };

    ReorderBuffer(sim::Engine *engine, const std::string &name,
                  sim::Freq freq, const Config &cfg);

    /** Wires the downstream module (address translator TopPort). */
    void setDownstream(sim::Port *port) { downstream_ = port; }

    sim::Port *topPort() const { return topPort_; }
    sim::Port *bottomPort() const { return bottomPort_; }

    bool tick() override;

    /** Number of transactions inside the window. */
    std::size_t transactionCount() const { return entries_.size(); }

    std::size_t capacity() const { return cfg_.capacity; }

  private:
    struct Entry
    {
        MemReqPtr req;
        sim::Port *returnTo;
        bool done = false;
        /** The response, built on the first retire attempt and retried
         * until the CU accepts it. */
        MemRspPtr rsp;
    };

    bool admitAndIssue();
    bool collectResponses();
    bool retire();

    Config cfg_;
    sim::Port *topPort_;
    sim::Port *bottomPort_;
    sim::Port *downstream_ = nullptr;

    std::deque<Entry> entries_;
    /** reqId -> index offset bookkeeping is avoided; lookup scans from
     * the head, bounded by capacity. */
    std::uint64_t retired_ = 0;
};

} // namespace mem
} // namespace akita

#endif // AKITA_MEM_ROB_HH
