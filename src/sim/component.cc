#include "sim/component.hh"

#include <algorithm>

namespace akita
{
namespace sim
{

Component::Component(Engine *engine, std::string name)
    : engine_(engine), name_(std::move(name))
{
    engine_->noteComponent(this);
}

Component::~Component()
{
    engine_->noteComponentDestroyed(this);
}

Port *
Component::addPort(const std::string &port_name, std::size_t buf_capacity)
{
    ports_.push_back(std::make_unique<Port>(this, port_name, buf_capacity));
    return ports_.back().get();
}

Port *
Component::port(const std::string &port_name) const
{
    for (const auto &p : ports_) {
        if (p->name() == port_name)
            return p.get();
    }
    return nullptr;
}

std::vector<Buffer *>
Component::buffers() const
{
    std::vector<Buffer *> out;
    out.reserve(ports_.size() + extraBuffers_.size());
    for (const auto &p : ports_)
        out.push_back(&p->buf());
    for (Buffer *b : extraBuffers_)
        out.push_back(b);
    return out;
}

TickingComponent::TickingComponent(Engine *engine, std::string name,
                                   Freq freq)
    : Component(engine, std::move(name)), freq_(freq),
      tickName_(this->name() + "::tick")
{
    declareField("asleep", [this]() {
        return introspect::Value::ofBool(asleep());
    });
    declareField("total_ticks", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(totalTicks()));
    });
    declareField("progress_ticks", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(progressTicks()));
    });
    declareField("skipped_ticks", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(skippedTicks()));
    });
}

void
TickingComponent::tickLater()
{
    scheduleTickAt(freq_.nextTick(engine()->now()));
}

void
TickingComponent::scheduleTickAt(VTime t)
{
    mustRun_ = true;
    arm(t);
}

void
TickingComponent::arm(VTime t)
{
    VTime target = std::max(t, freq_.nextTick(engine()->now()));
    // Dedup only exact-time requests. Suppressing a LATER target
    // because an earlier tick is pending would lose deadlines: the
    // earlier tick may find nothing to do and sleep without re-arming
    // (e.g. a wake lands between handle() clearing the slot and tick()
    // arming its service deadline — the deadline event would never
    // exist and the component freezes). The plain load first lets a
    // duplicate arm skip the locked exchange, which would only have
    // stored the value already there.
    if (tickAt_.load(std::memory_order_relaxed) == target ||
        tickAt_.exchange(target, std::memory_order_relaxed) == target)
        return;
    engine()->schedule(std::make_unique<Event>(target, this));
}

void
TickingComponent::handle(Event &)
{
    VTime now = engine()->now();
    // Fall asleep unless a later tick is armed; a failed CAS reloads
    // the slot a concurrent wake just wrote and re-tests it.
    VTime armed = tickAt_.load(std::memory_order_relaxed);
    while (now >= armed &&
           !tickAt_.compare_exchange_weak(armed, kNoTick,
                                          std::memory_order_relaxed)) {
    }
    if (everTicked_ && lastTickAt_ == now)
        return; // Duplicate event in the same cycle: already ticked.
    lastTickAt_ = now;
    everTicked_ = true;

    // Nothing changed since a body without progress, and every port
    // that refused it is still full: the body would fail the same
    // sends and register the same way, so only the registration runs.
    // Registering in refusal order up to the first free port is what
    // that body would do before its first successful send.
    if (!mustRun_ && !refused_.empty() &&
        std::all_of(refused_.begin(), refused_.end(),
                    [this](Port *p) { return p->waitForSlot(this); })) {
        skippedTicks_.incOwned();
        return;
    }
    mustRun_ = false;
    refused_.clear();
    totalTicks_.incOwned();
    bool progress = tick();
    if (progress) {
        progressTicks_.incOwned();
        tickLater();
    }
    // No progress: stay asleep until wake() or an armed deadline tick.
}

} // namespace sim
} // namespace akita
