/**
 * @file
 * Shared test harness for memory-hierarchy unit tests: a scripted
 * requester and a fake memory responder.
 */

#ifndef AKITA_TESTS_MEM_HARNESS_HH
#define AKITA_TESTS_MEM_HARNESS_HH

#include <deque>
#include <map>
#include <vector>

#include "mem/msg.hh"
#include "sim/sim.hh"

namespace akita
{
namespace test
{

/** Issues a scripted list of memory requests and records responses. */
class Requester : public sim::TickingComponent
{
  public:
    Requester(sim::Engine *engine, const std::string &name,
              std::size_t issue_per_tick = 4)
        : TickingComponent(engine, name, sim::Freq::ghz(1)),
          issuePerTick_(issue_per_tick)
    {
        out = addPort("Out", 16);
    }

    /** Queues a request to send toward @p dst. */
    std::uint64_t
    enqueue(std::uint64_t addr, bool is_write, sim::Port *dst,
            std::uint32_t size = 4)
    {
        auto req = sim::makeMsg<mem::MemReq>(addr, size, is_write);
        req->dst = dst;
        pending_.push_back(req);
        return req->id();
    }

    bool
    tick() override
    {
        bool progress = false;
        for (std::size_t i = 0; i < issuePerTick_ && !pending_.empty();
             i++) {
            mem::MemReqPtr req = pending_.front();
            if (out->send(req) != sim::SendStatus::Ok)
                break;
            sendTimes[req->id()] = engine()->now();
            pending_.pop_front();
            progress = true;
        }
        while (true) {
            sim::MsgPtr msg = out->retrieveIncoming();
            if (msg == nullptr)
                break;
            auto rsp = sim::msgCast<mem::MemRsp>(msg);
            if (rsp != nullptr) {
                rspOrder.push_back(rsp->reqId);
                rspTimes[rsp->reqId] = engine()->now();
            }
            progress = true;
        }
        return progress;
    }

    sim::Port *out = nullptr;
    std::vector<std::uint64_t> rspOrder;
    std::map<std::uint64_t, sim::VTime> sendTimes;
    std::map<std::uint64_t, sim::VTime> rspTimes;

  private:
    std::size_t issuePerTick_;
    std::deque<mem::MemReqPtr> pending_;
};

/**
 * Answers every memory request after a fixed delay. Optionally answers
 * out of order (LIFO) to exercise reordering logic upstream.
 */
class FakeMemory : public sim::TickingComponent
{
  public:
    FakeMemory(sim::Engine *engine, const std::string &name,
               std::uint64_t delay_cycles = 4, bool lifo = false)
        : TickingComponent(engine, name, sim::Freq::ghz(1)),
          delayCycles_(delay_cycles), lifo_(lifo)
    {
        top = addPort("TopPort", 16);
    }

    bool
    tick() override
    {
        sim::VTime now = engine()->now();
        bool progress = false;

        // Respond to ready entries (FIFO or LIFO).
        while (!queue_.empty()) {
            std::size_t idx = lifo_ ? queue_.size() - 1 : 0;
            // LIFO still requires readiness.
            if (queue_[idx].readyAt > now) {
                bool anyReady = false;
                for (std::size_t i = 0; i < queue_.size(); i++) {
                    if (queue_[i].readyAt <= now) {
                        idx = i;
                        anyReady = true;
                        if (lifo_)
                            continue; // Find the last ready one.
                        break;
                    }
                }
                if (!anyReady)
                    break;
            }
            mem::MemRspPtr rsp = mem::makeRsp(*queue_[idx].req);
            rsp->dst = queue_[idx].returnTo;
            if (top->send(rsp) != sim::SendStatus::Ok)
                break;
            served++;
            queue_.erase(queue_.begin() +
                         static_cast<std::ptrdiff_t>(idx));
            progress = true;
        }

        while (true) {
            sim::MsgPtr msg = top->peekIncoming();
            if (msg == nullptr)
                break;
            auto req = sim::msgCast<mem::MemReq>(msg);
            if (req == nullptr) {
                top->retrieveIncoming();
                continue;
            }
            queue_.push_back(
                {mem::MemReqPtr(req), msg->src,
                 now + delayCycles_ * freq().period()});
            reqsSeen.push_back(req->addr);
            top->retrieveIncoming();
            progress = true;
        }

        if (!progress) {
            for (const auto &e : queue_) {
                if (e.readyAt > now) {
                    scheduleTickAt(e.readyAt);
                    break;
                }
            }
        }
        return progress;
    }

    sim::Port *top = nullptr;
    std::vector<std::uint64_t> reqsSeen;
    int served = 0;

  private:
    struct Entry
    {
        mem::MemReqPtr req;
        sim::Port *returnTo;
        sim::VTime readyAt;
    };

    std::uint64_t delayCycles_;
    bool lifo_;
    std::vector<Entry> queue_;
};

} // namespace test
} // namespace akita

#endif // AKITA_TESTS_MEM_HARNESS_HH
