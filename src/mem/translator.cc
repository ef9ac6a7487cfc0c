#include "mem/translator.hh"

namespace akita
{
namespace mem
{

bool
Tlb::lookup(std::uint64_t addr)
{
    std::uint64_t page = addr / pageSize_;
    auto it = map_.find(page);
    if (it == map_.end()) {
        misses_++;
        return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    hits_++;
    return true;
}

void
Tlb::install(std::uint64_t addr)
{
    std::uint64_t page = addr / pageSize_;
    auto it = map_.find(page);
    if (it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    if (lru_.size() >= numEntries_) {
        map_.erase(lru_.back());
        lru_.pop_back();
    }
    lru_.push_front(page);
    map_[page] = lru_.begin();
}

AddressTranslator::AddressTranslator(sim::Engine *engine,
                                     const std::string &name,
                                     sim::Freq freq, const Config &cfg)
    : TickingComponent(engine, name, freq), cfg_(cfg),
      tlb_(cfg.tlbEntries, cfg.pageSize)
{
    topPort_ = addPort("TopPort", cfg.topBufCapacity);
    bottomPort_ = addPort("BottomPort", cfg.bottomBufCapacity);

    declareField("transactions", [this]() {
        // Translations actively in progress (walking or waiting for a
        // walker). Entries that are translated but blocked behind a
        // full downstream are staging, not translation work; excluding
        // them gives the "high peaks turning flat" signal the case
        // study describes for a healthy translator.
        std::size_t n = 0;
        for (const auto &e : inflight_) {
            if (e.walking || e.readyTick == 0)
                n++;
        }
        return introspect::Value::ofContainer(n, {});
    });
    declareField("pending_issue", [this]() {
        return introspect::Value::ofContainer(issueQueue_.size(), {});
    });
    declareField("active_walkers", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(activeWalkers_));
    });
    declareField("tlb_hits", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(tlb_.hits()));
    });
    declareField("tlb_misses", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(tlb_.misses()));
    });
}

bool
AddressTranslator::tick()
{
    bool progress = false;
    progress |= forwardResponses();
    progress |= issue();
    progress |= stage();
    progress |= admit();
    if (!progress) {
        // Arm a tick at the earliest walk/translation completion so the
        // component self-wakes when virtual time reaches it.
        sim::VTime now = engine()->now();
        sim::VTime earliest = 0;
        for (const auto &e : inflight_) {
            if (e.readyTick > now &&
                (earliest == 0 || e.readyTick < earliest))
                earliest = e.readyTick;
        }
        if (earliest != 0)
            scheduleTickAt(earliest);
    }
    return progress;
}

bool
AddressTranslator::admit()
{
    sim::VTime now = engine()->now();
    bool progress = false;

    // Start queued page walks as walkers free up.
    for (auto &e : inflight_) {
        if (!e.walking && e.readyTick == 0) {
            if (activeWalkers_ >= cfg_.maxWalkers)
                break;
            e.walking = true;
            e.readyTick = now + cfg_.walkLatency * freq().period();
            activeWalkers_++;
            progress = true;
        }
    }

    for (std::size_t i = 0; i < cfg_.width; i++) {
        if (inflight_.size() >= cfg_.maxInflight)
            break; // Translation queue full: stall the top port.
        const sim::MsgPtr &msg = topPort_->peekIncoming();
        if (msg == nullptr)
            break;
        auto *req = sim::msgCast<MemReq>(msg);
        if (req == nullptr) {
            topPort_->retrieveIncoming();
            progress = true;
            continue;
        }
        Entry e;
        e.req = MemReqPtr(req);
        e.returnTo = msg->src;
        if (tlb_.lookup(req->addr)) {
            e.readyTick = freq().nextTick(now);
            e.walking = false;
        } else if (activeWalkers_ < cfg_.maxWalkers) {
            e.walking = true;
            e.readyTick = now + cfg_.walkLatency * freq().period();
            activeWalkers_++;
        } else {
            e.walking = false;
            e.readyTick = 0; // Queued for a walker.
        }
        inflight_.push_back(std::move(e));
        topPort_->retrieveIncoming();
        progress = true;
    }
    return progress;
}

bool
AddressTranslator::stage()
{
    sim::VTime now = engine()->now();
    bool progress = false;

    // Complete finished walks (frees walkers, installs TLB entries).
    for (auto &e : inflight_) {
        if (e.walking && e.readyTick <= now) {
            tlb_.install(e.req->addr);
            e.walking = false;
            activeWalkers_--;
            progress = true;
        }
    }

    // Move completed translations to the bounded issue stage in order.
    while (!inflight_.empty() &&
           issueQueue_.size() < cfg_.issueQueueCapacity) {
        Entry &e = inflight_.front();
        if (e.walking || e.readyTick == 0 || e.readyTick > now)
            break;
        issueQueue_.push_back(std::move(e));
        inflight_.pop_front();
        progress = true;
    }
    return progress;
}

bool
AddressTranslator::issue()
{
    bool progress = false;
    std::size_t issued = 0;
    while (!issueQueue_.empty() && issued < cfg_.width) {
        Entry &e = issueQueue_.front();
        e.req->translated = true;
        e.req->dst = downstream_;
        if (bottomPort_->send(e.req) != sim::SendStatus::Ok)
            break;
        returnPath_[e.req->id()] = e.returnTo;
        issueQueue_.pop_front();
        issued++;
        progress = true;
    }
    return progress;
}

bool
AddressTranslator::forwardResponses()
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
        sim::Port **returnTo = returnPath_.find(rsp->reqId);
        if (returnTo == nullptr) {
            bottomPort_->retrieveIncoming();
            progress = true;
            continue;
        }
        rsp->dst = *returnTo;
        if (topPort_->send(rsp) != sim::SendStatus::Ok)
            break;
        returnPath_.erase(rsp->reqId);
        bottomPort_->retrieveIncoming();
        progress = true;
    }
    return progress;
}

} // namespace mem
} // namespace akita
