#include "mem/rob.hh"

namespace akita
{
namespace mem
{

ReorderBuffer::ReorderBuffer(sim::Engine *engine, const std::string &name,
                             sim::Freq freq, const Config &cfg)
    : TickingComponent(engine, name, freq), cfg_(cfg)
{
    topPort_ = addPort("TopPort", cfg.topBufCapacity);
    bottomPort_ = addPort("BottomPort", cfg.bottomBufCapacity);

    declareField("transactions", [this]() {
        std::vector<introspect::Value> items;
        // Cap the element dump; the size is what the views plot.
        std::size_t shown = 0;
        for (const auto &e : entries_) {
            if (shown++ >= 8)
                break;
            items.push_back(introspect::Value::ofStr(
                std::string(e.req->kind()) + "@" +
                std::to_string(e.req->addr)));
        }
        return introspect::Value::ofContainer(entries_.size(),
                                              std::move(items));
    });
    declareField("capacity", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(cfg_.capacity));
    });
    declareField("retired", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(retired_));
    });
}

bool
ReorderBuffer::tick()
{
    bool progress = false;
    progress |= retire();
    progress |= collectResponses();
    progress |= admitAndIssue();
    return progress;
}

bool
ReorderBuffer::admitAndIssue()
{
    // MGPUSim's ROB admits a request only when it can immediately
    // forward it downstream. Under downstream backpressure admission
    // stops and the TopPort buffer pins at capacity even though the
    // reorder window itself still has space — exactly the pair of
    // signals case study 1 reads (TopPort.Buf 8/8 while `transactions`
    // fluctuates below the window capacity).
    bool progress = false;
    for (std::size_t i = 0; i < cfg_.width; i++) {
        if (entries_.size() >= cfg_.capacity)
            break;
        const sim::MsgPtr &msg = topPort_->peekIncoming();
        if (msg == nullptr)
            break;
        auto *req = sim::msgCast<MemReq>(msg);
        if (req == nullptr) {
            topPort_->retrieveIncoming(); // Drop foreign messages.
            progress = true;
            continue;
        }
        sim::Port *returnTo = msg->src;
        req->dst = downstream_;
        if (bottomPort_->send(req) != sim::SendStatus::Ok)
            break; // Downstream full: stall the top port.
        entries_.push_back(Entry{MemReqPtr(req), returnTo});
        topPort_->retrieveIncoming();
        progress = true;
    }
    return progress;
}

bool
ReorderBuffer::collectResponses()
{
    bool progress = false;
    for (std::size_t i = 0; i < cfg_.width; i++) {
        const sim::MsgPtr &msg = bottomPort_->peekIncoming();
        if (msg == nullptr)
            break;
        auto *rsp = sim::msgCast<MemRsp>(msg);
        if (rsp == nullptr) {
            bottomPort_->retrieveIncoming();
            progress = true;
            continue;
        }
        bool found = false;
        for (auto &e : entries_) {
            if (e.req->id() == rsp->reqId) {
                e.done = true;
                found = true;
                break;
            }
        }
        (void)found;
        bottomPort_->retrieveIncoming();
        progress = true;
    }
    return progress;
}

bool
ReorderBuffer::retire()
{
    bool progress = false;
    for (std::size_t i = 0; i < cfg_.width; i++) {
        if (entries_.empty() || !entries_.front().done)
            break;
        Entry &e = entries_.front();
        if (e.rsp == nullptr) {
            e.rsp = makeRsp(*e.req);
            e.rsp->dst = e.returnTo;
        }
        if (topPort_->send(e.rsp) != sim::SendStatus::Ok)
            break; // Keep the built response for the retry.
        entries_.pop_front();
        retired_++;
        progress = true;
    }
    return progress;
}

} // namespace mem
} // namespace akita
