/**
 * @file
 * Time-series monitoring of individual component values (task T5).
 *
 * The paper's value-monitoring view "plots up to five individual values
 * over time" and keeps "only the most recent 300 data points". Case
 * study 1 is driven almost entirely by this view: ROB top-port buffer
 * fullness, ROB transactions, address translator transactions, L1 cache
 * transactions, and RDMA in-flight counts.
 */

#ifndef AKITA_RTM_VALUEMONITOR_HH
#define AKITA_RTM_VALUEMONITOR_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "introspect/field.hh"
#include "metrics/registry.hh"
#include "sim/time.hh"

namespace akita
{
namespace rtm
{

/** A tracked value's identity and recent history. */
struct TrackedSeries
{
    std::uint64_t id = 0;
    std::string componentName;
    std::string fieldName;
    std::vector<metrics::RawSample> samples;
};

/**
 * Tracks registered fields over time.
 *
 * Each tracked field is a pushed "akita_tracked_value" instrument of the
 * metrics store, and the store's raw ring is its only history; series()
 * serves the newest kMaxPoints of it. The sampling driver (Monitor)
 * calls sampleAll under the engine lock; readers take consistent
 * snapshots from any thread. Lock order: mu_, then the store's locks.
 */
class ValueMonitor
{
  public:
    /** Points served per series (paper: 300). */
    static constexpr std::size_t kMaxPoints = 300;

    /** Maximum simultaneously tracked series (paper: 5). */
    static constexpr std::size_t kMaxSeries = 5;

    static_assert(metrics::SeriesConfig{}.rawCapacity >= kMaxPoints,
                  "the store's raw ring must hold the served points");

    /** @param store Holds every tracked series; must outlive this. */
    explicit ValueMonitor(metrics::MetricRegistry &store);

    /**
     * Starts tracking a field.
     *
     * @param getter Must be safe to call under the engine lock.
     * @return Series id, or 0 when the tracking limit is reached.
     */
    std::uint64_t track(const std::string &component_name,
                        const std::string &field_name,
                        introspect::FieldGetter getter);

    /** Stops tracking. @return False when the id is unknown. */
    bool untrack(std::uint64_t id);

    /**
     * Samples every tracked series at the given simulation time.
     *
     * @param wall_ms Wall-clock milliseconds for the store's bucketing.
     */
    void sampleAll(sim::VTime now, std::int64_t wall_ms = 0);

    /** Snapshot of one series; empty id==0 sentinel when unknown. */
    TrackedSeries series(std::uint64_t id) const;

    /** Snapshot of all series (ids, names, and points). */
    std::vector<TrackedSeries> allSeries() const;

    std::size_t numTracked() const;

  private:
    struct Entry
    {
        std::uint64_t id;
        std::string componentName;
        std::string fieldName;
        introspect::FieldGetter getter;
        /** Id of the entry's store instrument. */
        std::uint64_t storeId;
    };

    /** @p e with the newest kMaxPoints of its store history. */
    TrackedSeries snapshot(const Entry &e) const;

    metrics::MetricRegistry &store_;
    mutable std::mutex mu_;
    std::vector<Entry> entries_;
    std::uint64_t nextId_ = 1;
};

} // namespace rtm
} // namespace akita

#endif // AKITA_RTM_VALUEMONITOR_HH
