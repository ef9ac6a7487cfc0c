#include "mem/l2cache.hh"

namespace akita
{
namespace mem
{

L2Cache::L2Cache(sim::Engine *engine, const std::string &name,
                 sim::Freq freq, const Config &cfg)
    : TickingComponent(engine, name, freq), cfg_(cfg),
      directory_(cfg.numSets, cfg.ways, cfg.lineSize),
      wbInBuf_(name + ".WriteBuf.InBuf", cfg.wbInCapacity),
      wbFetchedBuf_(name + ".WriteBuf.FetchedBuf", cfg.wbFetchedCapacity),
      installBuf_(name + ".InstallBuf", cfg.installCapacity)
{
    topPort_ = addPort("TopPort", cfg.topBufCapacity);
    bottomPort_ = addPort("BottomPort", cfg.bottomBufCapacity);
    wbPort_ = addPort("WbPort", cfg.bottomBufCapacity);

    registerBuffer(&wbInBuf_);
    registerBuffer(&wbFetchedBuf_);
    registerBuffer(&installBuf_);

    declareField("transactions", [this]() {
        return introspect::Value::ofContainer(mshr_.size(), {});
    });
    declareField("mshr_capacity", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(cfg_.mshrCapacity));
    });
    declareField("hits", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(directory_.hits()));
    });
    declareField("misses", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(directory_.misses()));
    });
    declareField("writebacks", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(writebacks_));
    });
    declareField("fills", [this]() {
        return introspect::Value::ofInt(static_cast<std::int64_t>(fills_));
    });
    declareField("eviction_stalled", [this]() {
        return introspect::Value::ofBool(evictionStalled());
    });
}

bool
L2Cache::tick()
{
    bool progress = false;
    progress |= deliverReady();
    progress |= storageTick();
    progress |= writeBufferTick();
    progress |= processBottom();
    progress |= admit();
    if (!progress && !hitQueue_.empty() &&
        hitQueue_.front().readyAt > engine()->now()) {
        scheduleTickAt(hitQueue_.front().readyAt);
    }
    return progress;
}

bool
L2Cache::deliverReady()
{
    sim::VTime now = engine()->now();
    bool progress = false;
    while (!hitQueue_.empty() && hitQueue_.front().readyAt <= now) {
        if (topPort_->send(hitQueue_.front().rsp) != sim::SendStatus::Ok)
            break;
        hitQueue_.pop_front();
        progress = true;
    }
    return progress;
}

void
L2Cache::completeLine(std::uint64_t line)
{
    auto mit = mshr_.find(line);
    if (mit == mshr_.end())
        return;
    sim::VTime ready = engine()->now() + cfg_.latency * freq().period();
    for (const auto &p : mit->second.pending) {
        if (p.req->isWrite)
            directory_.markDirty(p.req->addr);
        MemRspPtr r = makeRsp(*p.req);
        r->dst = p.returnTo;
        hitQueue_.push_back(ReadyRsp{std::move(r), ready});
    }
    mshr_.erase(mit);
    fills_++;
}

bool
L2Cache::storageTick()
{
    bool progress = false;

    // Hand off a previously stalled eviction first.
    if (pendingEvict_ != nullptr) {
        if (!wbInBuf_.canPush())
            return false; // Still stalled: the deadlock participant.
        wbInBuf_.push(std::move(pendingEvict_));
        progress = true;
    }

    // Install fetched lines delivered by the write buffer.
    while (!installBuf_.empty()) {
        auto *fetched = sim::msgCast<MemReq>(installBuf_.peek());
        std::uint64_t line = fetched->addr;

        bool victimDirty = false;
        std::uint64_t victimAddr = 0;
        directory_.peekVictim(line, victimDirty, victimAddr);

        if (victimDirty && !wbInBuf_.canPush()) {
            // Local storage wants to evict but the write buffer cannot
            // take the eviction; it holds the transaction and cannot
            // accept fetched data until the eviction is accepted.
            auto evict = sim::makeMsg<MemReq>(
                victimAddr, static_cast<std::uint32_t>(cfg_.lineSize),
                true);
            evict->translated = true;
            pendingEvict_ = std::move(evict);
            // Install the line now (data is staged); the eviction is the
            // only thing still owed to the write buffer.
            bool ed = false;
            std::uint64_t va = 0;
            directory_.install(line, false, ed, va);
            installBuf_.pop();
            completeLine(line);
            writebacks_++;
            return true;
        }

        bool evictedDirty = false;
        std::uint64_t evictedAddr = 0;
        directory_.install(line, false, evictedDirty, evictedAddr);
        if (evictedDirty) {
            auto evict = sim::makeMsg<MemReq>(
                evictedAddr, static_cast<std::uint32_t>(cfg_.lineSize),
                true);
            evict->translated = true;
            wbInBuf_.push(std::move(evict));
            writebacks_++;
        }
        installBuf_.pop();
        completeLine(line);
        progress = true;
    }
    return progress;
}

bool
L2Cache::writeBufferTick()
{
    bool progress = false;

    // Stage 1: deliver fetched data to local storage.
    while (!wbFetchedBuf_.empty()) {
        if (!installBuf_.canPush()) {
            if (cfg_.legacyWriteBufferDeadlock) {
                // BUG (historic): head-of-line blocking — a stuck
                // fetched-data delivery also stops eviction draining and
                // fetch issuing below, completing the deadlock cycle
                // with local storage.
                return progress;
            }
            break;
        }
        installBuf_.push(wbFetchedBuf_.pop());
        progress = true;
    }

    // Stage 2: drain evictions to DRAM.
    while (!wbInBuf_.empty() &&
           dramWriteInflight_.size() < cfg_.dramWriteInflightMax) {
        auto *evict = sim::msgCast<MemReq>(wbInBuf_.peek());
        evict->dst = downstream_;
        if (wbPort_->send(evict) != sim::SendStatus::Ok)
            break;
        dramWriteInflight_[evict->id()] = true;
        wbInBuf_.pop();
        progress = true;
    }

    // Stage 3: issue line fetches for MSHR entries.
    for (auto it = mshr_.begin(); unsentFetches_ > 0 && it != mshr_.end();
         ++it) {
        auto &kv = *it;
        MshrEntry &e = kv.second;
        if (e.fetchSent)
            continue;
        if (e.fetch == nullptr) {
            e.fetch = sim::makeMsg<MemReq>(
                kv.first, static_cast<std::uint32_t>(cfg_.lineSize),
                false);
            e.fetch->translated = true;
            e.fetch->dst = downstream_;
        }
        if (bottomPort_->send(e.fetch) != sim::SendStatus::Ok)
            break;
        e.fetchSent = true;
        unsentFetches_--;
        const std::uint64_t id = e.fetch->id();
        fetchInflight_[id] = std::move(e.fetch); // Kept for the fill.
        progress = true;
    }
    return progress;
}

bool
L2Cache::processBottom()
{
    bool progress = false;

    // Write acknowledgments return on the dedicated write-back channel,
    // so a blocked fetched-data path never stalls write-back credits.
    while (true) {
        const sim::MsgPtr &msg = wbPort_->peekIncoming();
        if (msg == nullptr)
            break;
        auto *ack = sim::msgCast<MemRsp>(msg);
        if (ack != nullptr && ack->isWrite)
            dramWriteInflight_.erase(ack->reqId);
        wbPort_->retrieveIncoming();
        progress = true;
    }

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

        if (rsp->isWrite) {
            dramWriteInflight_.erase(rsp->reqId);
            bottomPort_->retrieveIncoming();
            progress = true;
            continue;
        }

        MemReqPtr *fetch = fetchInflight_.find(rsp->reqId);
        if (fetch == nullptr) {
            bottomPort_->retrieveIncoming();
            progress = true;
            continue;
        }
        if (!wbFetchedBuf_.canPush())
            break; // Backpressure into DRAM via the bottom port buffer.
        wbFetchedBuf_.push(std::move(*fetch));
        fetchInflight_.erase(rsp->reqId);
        bottomPort_->retrieveIncoming();
        progress = true;
    }
    return progress;
}

bool
L2Cache::admit()
{
    sim::VTime now = engine()->now();
    bool progress = false;
    for (std::size_t i = 0; i < cfg_.width; i++) {
        const sim::MsgPtr &msg = topPort_->peekIncoming();
        if (msg == nullptr)
            break;
        auto *req = sim::msgCast<MemReq>(msg);
        if (req == nullptr) {
            topPort_->retrieveIncoming();
            progress = true;
            continue;
        }

        std::uint64_t line = directory_.lineAddr(req->addr);
        // Probe first: a request stalled by a full MSHR is retried next
        // tick and must not double-count stats or perturb LRU.
        if (directory_.probe(req->addr)) {
            directory_.lookup(req->addr);
            if (req->isWrite)
                directory_.markDirty(req->addr);
            MemRspPtr rsp = makeRsp(*req);
            rsp->dst = msg->src;
            hitQueue_.push_back(ReadyRsp{
                std::move(rsp), now + cfg_.latency * freq().period()});
            topPort_->retrieveIncoming();
            progress = true;
            continue;
        }

        // Miss: write-allocate, so reads and writes both join the MSHR.
        auto mit = mshr_.find(line);
        if (mit != mshr_.end()) {
            directory_.lookup(req->addr); // Count the miss.
            mit->second.pending.push_back(
                PendingReq{MemReqPtr(req), msg->src});
            topPort_->retrieveIncoming();
            progress = true;
            continue;
        }
        if (mshr_.size() >= cfg_.mshrCapacity)
            break; // Stall the top port (not counted).
        directory_.lookup(req->addr); // Count the miss.
        MshrEntry entry;
        entry.pending.push_back(PendingReq{MemReqPtr(req), msg->src});
        mshr_.emplace(line, std::move(entry));
        unsentFetches_++;
        topPort_->retrieveIncoming();
        progress = true;
    }
    return progress;
}

std::vector<sim::StallInfo>
L2Cache::stallInfo() const
{
    std::vector<sim::StallInfo> out;
    const std::string &n = name();

    // Storage holds an eviction it cannot hand to the write buffer.
    if (pendingEvict_ != nullptr && !wbInBuf_.canPush()) {
        out.push_back(sim::StallInfo{n + ".storage", n + ".writeBuffer",
                                     wbInBuf_.name(),
                                     wbInBuf_.fullness()});
    }

    // Legacy head-of-line blocking: a stuck fetched-data delivery also
    // stops the write buffer's other stages — the reverse edge of the
    // case-study-2 cycle. The fixed design keeps draining evictions
    // when installBuf_ is full, so no wait edge exists there.
    if (cfg_.legacyWriteBufferDeadlock && !wbFetchedBuf_.empty() &&
        !installBuf_.canPush()) {
        out.push_back(sim::StallInfo{n + ".writeBuffer", n + ".storage",
                                     installBuf_.name(),
                                     installBuf_.fullness()});
    }

    // Evictions queued but all DRAM write credits are in flight.
    if (!wbInBuf_.empty() &&
        dramWriteInflight_.size() >= cfg_.dramWriteInflightMax &&
        downstream_ != nullptr) {
        out.push_back(sim::StallInfo{n + ".writeBuffer",
                                     downstream_->owner()->name(),
                                     n + ".dramWriteInflight", 1.0});
    }
    return out;
}

} // namespace mem
} // namespace akita
