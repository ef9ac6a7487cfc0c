#include "gpu/driver.hh"

namespace akita
{
namespace gpu
{

Driver::Driver(sim::Engine *engine, const std::string &name, sim::Freq freq,
               const Config &cfg)
    : TickingComponent(engine, name, freq), cfg_(cfg)
{
    toGpus_ = addPort("ToGpus", cfg.bufCapacity);

    declareField("queued_kernels", [this]() {
        return introspect::Value::ofContainer(queue_.size(), {});
    });
    declareField("kernels_completed", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(kernelsCompleted()));
    });
    declareField("active_kernel", [this]() {
        return active_ ? introspect::Value::ofStr(active_->kernel->name)
                       : introspect::Value::ofStr("");
    });
    declareField("active_completed_wgs", [this]() {
        return introspect::Value::ofInt(static_cast<std::int64_t>(
            active_ ? active_->completed : 0));
    });
}

std::uint64_t
Driver::launchKernel(const KernelDescriptor *kernel)
{
    queue_.push_back(kernel);
    pendingKernels_.fetch_add(1, std::memory_order_release);
    wake();
    return nextSeq_ + queue_.size() - 1;
}

bool
Driver::tick()
{
    bool progress = false;
    progress |= processReports();
    progress |= sendLaunches();
    progress |= startNextKernel();
    return progress;
}

bool
Driver::startNextKernel()
{
    if (active_ != nullptr || queue_.empty())
        return false;
    const KernelDescriptor *kernel = queue_.front();
    queue_.pop_front();

    auto active = std::make_unique<ActiveKernel>();
    active->kernel = kernel;
    active->seq = nextSeq_++;

    std::size_t g = gpuPorts_.empty() ? 1 : gpuPorts_.size();
    std::uint32_t base = kernel->numWorkGroups / static_cast<std::uint32_t>(g);
    std::uint32_t rem = kernel->numWorkGroups % static_cast<std::uint32_t>(g);
    std::uint32_t start = 0;
    for (std::size_t i = 0; i < gpuPorts_.size(); i++) {
        std::uint32_t count = base + (i < rem ? 1 : 0);
        if (count == 0)
            continue;
        active->launches.push_back(PendingLaunch{
            kernel, active->seq, start, count, gpuPorts_[i]});
        active->partitionsPending++;
        start += count;
    }

    if (listener_ != nullptr) {
        listener_->kernelStarted(active->seq, kernel->name,
                                 kernel->numWorkGroups);
    }

    if (active->partitionsPending == 0) {
        // Empty kernel or no GPUs: complete immediately.
        if (listener_ != nullptr)
            listener_->kernelFinished(active->seq);
        kernelsCompleted_.fetch_add(1, std::memory_order_relaxed);
        pendingKernels_.fetch_sub(1, std::memory_order_release);
        if (autoStop_ && queue_.empty())
            engine()->stop();
        return true;
    }

    active_ = std::move(active);
    return true;
}

bool
Driver::sendLaunches()
{
    if (active_ == nullptr || active_->launches.empty())
        return false;
    bool progress = false;
    while (!active_->launches.empty()) {
        const PendingLaunch &tmpl = active_->launches.back();
        auto msg = sim::makeMsg<LaunchKernelMsg>(
            tmpl.kernel, tmpl.seq, tmpl.wgStart, tmpl.wgCount);
        msg->dst = tmpl.dst;
        if (toGpus_->send(msg) != sim::SendStatus::Ok)
            break;
        active_->launches.pop_back();
        active_->partitionsSent++;
        progress = true;
    }
    return progress;
}

bool
Driver::processReports()
{
    bool progress = false;
    while (true) {
        const sim::MsgPtr &msg = toGpus_->peekIncoming();
        if (msg == nullptr)
            break;

        if (auto *report = sim::msgCast<WgProgressMsg>(msg)) {
            if (active_ != nullptr && report->seq == active_->seq) {
                active_->started += report->started;
                active_->completed += report->completed;
                if (listener_ != nullptr) {
                    listener_->kernelProgress(
                        active_->seq, active_->completed,
                        active_->started - active_->completed);
                }
            }
            toGpus_->retrieveIncoming();
            progress = true;
            continue;
        }

        if (auto *done = sim::msgCast<PartitionDoneMsg>(msg)) {
            if (active_ != nullptr && done->seq == active_->seq) {
                if (--active_->partitionsPending == 0) {
                    if (listener_ != nullptr)
                        listener_->kernelFinished(active_->seq);
                    kernelsCompleted_.fetch_add(
                        1, std::memory_order_relaxed);
                    active_.reset();
                    pendingKernels_.fetch_sub(
                        1, std::memory_order_release);
                    if (autoStop_ && queue_.empty())
                        engine()->stop();
                }
            }
            toGpus_->retrieveIncoming();
            progress = true;
            continue;
        }

        toGpus_->retrieveIncoming();
        progress = true;
    }
    return progress;
}

} // namespace gpu
} // namespace akita
