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
#include <deque>
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

/** One sample of a tracked value. */
struct ValueSample
{
    sim::VTime simTime;
    double value;
};

/** A tracked value's identity and recent history. */
struct TrackedSeries
{
    std::uint64_t id = 0;
    std::string componentName;
    std::string fieldName;
    std::vector<ValueSample> samples;
};

/**
 * Tracks registered fields over time in fixed-size ring buffers.
 *
 * The sampling driver (Monitor) calls sampleAll under the engine lock;
 * readers take consistent snapshots from any thread.
 */
class ValueMonitor
{
  public:
    /**
     * Retained points per series in the dashboard ring (paper: 300).
     * The attached metrics store keeps the history beyond it.
     */
    static constexpr std::size_t kMaxPoints = 300;

    /** Maximum simultaneously tracked series (paper: 5). */
    static constexpr std::size_t kMaxSeries = 5;

    /**
     * Mirrors every tracked series into @p store as a pushed
     * "akita_tracked_value" instrument, giving it multi-resolution
     * history far beyond the in-monitor ring. Call before track();
     * nullptr detaches.
     */
    void attachStore(metrics::MetricRegistry *store);

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
     * @param wall_ms Wall-clock milliseconds for the attached store's
     *        bucketing; 0 is fine when no store is attached.
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
        std::deque<ValueSample> ring;
        /** Id of the mirrored store instrument (0 = none). */
        std::uint64_t storeId = 0;
    };

    mutable std::mutex mu_;
    std::vector<Entry> entries_;
    std::uint64_t nextId_ = 1;
    metrics::MetricRegistry *store_ = nullptr;
};

} // namespace rtm
} // namespace akita

#endif // AKITA_RTM_VALUEMONITOR_HH
