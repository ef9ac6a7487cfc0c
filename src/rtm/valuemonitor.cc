#include "rtm/valuemonitor.hh"

namespace akita
{
namespace rtm
{

void
ValueMonitor::attachStore(metrics::MetricRegistry *store)
{
    std::lock_guard<std::mutex> lk(mu_);
    store_ = store;
}

std::uint64_t
ValueMonitor::track(const std::string &component_name,
                    const std::string &field_name,
                    introspect::FieldGetter getter)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (entries_.size() >= kMaxSeries)
        return 0;
    Entry e;
    e.id = nextId_++;
    e.componentName = component_name;
    e.fieldName = field_name;
    e.getter = std::move(getter);
    if (store_ != nullptr) {
        metrics::Desc d;
        d.name = "akita_tracked_value";
        d.help = "Dashboard-tracked component field.";
        d.type = metrics::Type::Gauge;
        d.labels = {{"component", component_name},
                    {"field", field_name}};
        d.series = metrics::SeriesMode::Full;
        e.storeId = store_->addPushed(std::move(d));
    }
    entries_.push_back(std::move(e));
    return entries_.back().id;
}

bool
ValueMonitor::untrack(std::uint64_t id)
{
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->id == id) {
            if (store_ != nullptr && it->storeId != 0)
                store_->remove(it->storeId);
            entries_.erase(it);
            return true;
        }
    }
    return false;
}

void
ValueMonitor::sampleAll(sim::VTime now, std::int64_t wall_ms)
{
    std::lock_guard<std::mutex> lk(mu_);
    for (auto &e : entries_) {
        double v = e.getter().numeric();
        e.ring.push_back(ValueSample{now, v});
        if (e.ring.size() > kMaxPoints)
            e.ring.pop_front();
        if (store_ != nullptr && e.storeId != 0)
            store_->recordPushed(e.storeId, wall_ms, now, v);
    }
}

TrackedSeries
ValueMonitor::series(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto &e : entries_) {
        if (e.id == id) {
            TrackedSeries s;
            s.id = e.id;
            s.componentName = e.componentName;
            s.fieldName = e.fieldName;
            s.samples.assign(e.ring.begin(), e.ring.end());
            return s;
        }
    }
    return TrackedSeries{};
}

std::vector<TrackedSeries>
ValueMonitor::allSeries() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<TrackedSeries> out;
    out.reserve(entries_.size());
    for (const auto &e : entries_) {
        TrackedSeries s;
        s.id = e.id;
        s.componentName = e.componentName;
        s.fieldName = e.fieldName;
        s.samples.assign(e.ring.begin(), e.ring.end());
        out.push_back(std::move(s));
    }
    return out;
}

std::size_t
ValueMonitor::numTracked() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.size();
}

} // namespace rtm
} // namespace akita
