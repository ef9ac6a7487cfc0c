#include "mem/dram.hh"

namespace akita
{
namespace mem
{

DramController::DramController(sim::Engine *engine, const std::string &name,
                               sim::Freq freq, const Config &cfg)
    : TickingComponent(engine, name, freq), cfg_(cfg)
{
    topPort_ = addPort("TopPort", cfg.topBufCapacity);

    declareField("transactions", [this]() {
        return introspect::Value::ofContainer(queue_.size(), {});
    });
    declareField("reads", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(totalReads()));
    });
    declareField("writes", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(totalWrites()));
    });
}

bool
DramController::tick()
{
    sim::VTime now = engine()->now();
    bool progress = false;

    // Complete serviced requests. Responses to distinct requesters use
    // independent response queues: a requester that cannot accept data
    // right now must not block responses headed elsewhere, so ready
    // entries are attempted in order but skipped when blocked.
    for (auto it = queue_.begin(); it != queue_.end();) {
        if (it->readyAt > now)
            break; // Entries are ordered by readyAt.
        if (topPort_->send(it->rsp) != sim::SendStatus::Ok) {
            ++it; // Destination busy: try the next ready entry.
            continue;
        }
        if (it->rsp->isWrite)
            writes_.incOwned();
        else
            reads_.incOwned();
        it = queue_.erase(it);
        progress = true;
    }

    // Admit new requests within the per-cycle bandwidth budget.
    for (std::size_t i = 0; i < cfg_.reqPerCycle; i++) {
        if (queue_.size() >= cfg_.queueCapacity)
            break;
        const sim::MsgPtr &msg = topPort_->peekIncoming();
        if (msg == nullptr)
            break;
        auto *req = sim::msgCast<MemReq>(msg);
        if (req == nullptr) {
            topPort_->retrieveIncoming();
            progress = true;
            continue;
        }
        // The response is built once, here, and retried as is while
        // the requester is full.
        MemRspPtr rsp = makeRsp(*req);
        rsp->dst = msg->src;
        queue_.push_back(InFlight{
            std::move(rsp), now + cfg_.accessLatency * freq().period()});
        topPort_->retrieveIncoming();
        progress = true;
    }

    if (!progress) {
        // The front may be ready-but-blocked (destination full) while
        // later entries still have future deadlines; arm the earliest
        // future one so those completions are not missed.
        for (const auto &f : queue_) {
            if (f.readyAt > now) {
                scheduleTickAt(f.readyAt);
                break;
            }
        }
    }
    return progress;
}

} // namespace mem
} // namespace akita
