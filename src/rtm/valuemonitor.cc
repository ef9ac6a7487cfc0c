#include "rtm/valuemonitor.hh"

namespace akita
{
namespace rtm
{

ValueMonitor::ValueMonitor(metrics::MetricRegistry &store) : store_(store)
{
}

std::uint64_t
ValueMonitor::track(const std::string &component_name,
                    const std::string &field_name,
                    introspect::FieldGetter getter)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (entries_.size() >= kMaxSeries)
        return 0;
    metrics::Desc d;
    d.name = "akita_tracked_value";
    d.help = "Dashboard-tracked component field.";
    d.type = metrics::Type::Gauge;
    d.labels = {{"component", component_name}, {"field", field_name}};
    d.series = metrics::SeriesMode::Full;
    std::uint64_t storeId = store_.addPushed(std::move(d));
    entries_.push_back(Entry{nextId_++, component_name, field_name,
                             std::move(getter), storeId});
    return entries_.back().id;
}

bool
ValueMonitor::untrack(std::uint64_t id)
{
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->id == id) {
            store_.remove(it->storeId);
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
    for (const auto &e : entries_)
        store_.recordPushed(e.storeId, wall_ms, now, e.getter().numeric());
}

TrackedSeries
ValueMonitor::snapshot(const Entry &e) const
{
    TrackedSeries s;
    s.id = e.id;
    s.componentName = e.componentName;
    s.fieldName = e.fieldName;
    s.samples = store_.rawSeries(e.storeId, kMaxPoints);
    return s;
}

TrackedSeries
ValueMonitor::series(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto &e : entries_) {
        if (e.id == id)
            return snapshot(e);
    }
    return TrackedSeries{};
}

std::vector<TrackedSeries>
ValueMonitor::allSeries() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<TrackedSeries> out;
    out.reserve(entries_.size());
    for (const auto &e : entries_)
        out.push_back(snapshot(e));
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
