#include "gpu/cp.hh"

namespace akita
{
namespace gpu
{

CommandProcessor::CommandProcessor(sim::Engine *engine,
                                   const std::string &name, sim::Freq freq,
                                   const Config &cfg)
    : TickingComponent(engine, name, freq), cfg_(cfg)
{
    toDriver_ = addPort("ToDriver", cfg.driverBufCapacity);
    toCUs_ = addPort("ToCUs", cfg.cuBufCapacity);

    declareField("dispatched_wgs", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(dispatched_));
    });
    declareField("completed_wgs", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(completed_));
    });
    declareField("busy", [this]() {
        return introspect::Value::ofBool(busy());
    });
    declareField("outstanding_wgs", [this]() {
        return introspect::Value::ofInt(static_cast<std::int64_t>(
            partition_ ? partition_->outstanding : 0));
    });
}

bool
CommandProcessor::tick()
{
    bool progress = false;
    progress |= processCUs();
    progress |= dispatch();
    progress |= reportProgress();
    progress |= processDriver();
    return progress;
}

bool
CommandProcessor::processDriver()
{
    if (partition_.has_value())
        return false; // One partition at a time.
    const sim::MsgPtr &msg = toDriver_->peekIncoming();
    if (msg == nullptr)
        return false;
    auto *launch = sim::msgCast<LaunchKernelMsg>(msg);
    if (launch == nullptr) {
        toDriver_->retrieveIncoming();
        return true;
    }
    Partition p;
    p.kernel = launch->kernel;
    p.seq = launch->seq;
    p.nextWg = launch->wgStart;
    p.endWg = launch->wgStart + launch->wgCount;
    p.driverPort = msg->src;
    partition_ = p;
    toDriver_->retrieveIncoming();
    return true;
}

bool
CommandProcessor::dispatch()
{
    if (!partition_.has_value() || cuPorts_.empty())
        return false;
    Partition &p = *partition_;
    bool progress = false;

    for (std::size_t i = 0;
         i < cfg_.dispatchPerCycle && p.nextWg < p.endWg; i++) {
        // Try each CU once, starting from the round-robin cursor, with
        // one message: a refusal leaves it to the next attempt.
        bool sent = false;
        auto map = sim::makeMsg<MapWgMsg>(p.kernel, p.nextWg);
        for (std::size_t attempt = 0; attempt < cuPorts_.size();
             attempt++) {
            map->dst = cuPorts_[rrIndex_];
            rrIndex_ = (rrIndex_ + 1) % cuPorts_.size();
            if (toCUs_->send(map) == sim::SendStatus::Ok) {
                sent = true;
                break;
            }
        }
        if (!sent)
            break;
        p.nextWg++;
        p.outstanding++;
        startedDelta_++;
        dispatched_++;
        progress = true;
    }
    return progress;
}

bool
CommandProcessor::processCUs()
{
    bool progress = false;
    while (true) {
        const sim::MsgPtr &msg = toCUs_->peekIncoming();
        if (msg == nullptr)
            break;
        auto *done = sim::msgCast<WgDoneMsg>(msg);
        if (done == nullptr) {
            toCUs_->retrieveIncoming();
            progress = true;
            continue;
        }
        if (partition_.has_value() && partition_->outstanding > 0) {
            partition_->outstanding--;
            completedDelta_++;
            completed_++;
        }
        toCUs_->retrieveIncoming();
        progress = true;
    }
    return progress;
}

bool
CommandProcessor::reportProgress()
{
    if (!partition_.has_value())
        return false;
    Partition &p = *partition_;
    bool progress = false;

    sim::VTime now = engine()->now();
    bool intervalElapsed =
        now >= lastReportAt_ + cfg_.reportInterval * freq().period();
    bool mustFlush = p.nextWg >= p.endWg; // Tail: report promptly.
    if ((startedDelta_ != 0 || completedDelta_ != 0) &&
        (intervalElapsed || mustFlush)) {
        auto report = sim::makeMsg<WgProgressMsg>(p.seq, startedDelta_,
                                                      completedDelta_);
        report->dst = p.driverPort;
        if (toDriver_->send(report) == sim::SendStatus::Ok) {
            startedDelta_ = 0;
            completedDelta_ = 0;
            lastReportAt_ = now;
            progress = true;
        }
    }

    if (!p.doneSent && p.nextWg >= p.endWg && p.outstanding == 0 &&
        startedDelta_ == 0 && completedDelta_ == 0) {
        auto done = sim::makeMsg<PartitionDoneMsg>(p.seq);
        done->dst = p.driverPort;
        if (toDriver_->send(done) == sim::SendStatus::Ok) {
            partition_.reset();
            progress = true;
        }
    }
    return progress;
}

} // namespace gpu
} // namespace akita
