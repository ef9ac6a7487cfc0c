/**
 * @file
 * MetricRegistry: the directory and serving side of the metrics
 * subsystem.
 *
 * The registry decouples *recording* from *serving*:
 *
 *  - Recording happens either directly on the simulation thread
 *    (owned Counter/Gauge/Histogram instruments — relaxed atomics) or
 *    through pull callbacks evaluated by the sampler thread. Callbacks
 *    that read non-atomic simulation state (container sizes) are
 *    flagged needsLock and are evaluated inside one short engine-lock
 *    hold per sampling pass; everything else is sampled lock-free.
 *  - Serving (Prometheus exposition, range queries, SSE streaming)
 *    runs on web threads and reads atomics or per-series snapshots; it
 *    never touches the simulation thread.
 */

#ifndef AKITA_METRICS_REGISTRY_HH
#define AKITA_METRICS_REGISTRY_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "metrics/instrument.hh"
#include "metrics/series.hh"

namespace akita
{
namespace metrics
{

/** Label key/value pairs (rendered sorted by key). */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Prometheus metric type. */
enum class Type
{
    Counter,
    Gauge,
    Histogram,
};

/** How much history a stored instrument keeps. */
enum class SeriesMode
{
    /** Exposition only: current value, no ring. */
    None,
    /** Raw ring only (recent window). */
    Raw,
    /** Raw + 1 s + 10 s downsampled rings. */
    Full,
};

/** Static description of one instrument. */
struct Desc
{
    std::string name;
    std::string help;
    Type type = Type::Gauge;
    Labels labels;
    SeriesMode series = SeriesMode::None;
    /** Pull callbacks only: evaluate under the engine lock. */
    bool needsLock = false;
};

/** One instrument's value at the most recent sampling pass. */
struct SampledValue
{
    const Desc *desc = nullptr;
    double value = 0;
    std::int64_t wallMs = 0;
    std::uint64_t simPs = 0;
};

/**
 * Registry of instruments with bounded multi-resolution storage.
 *
 * Thread-safe throughout. Owned instruments return stable pointers
 * (valid until remove()); all registration methods return an id usable
 * with remove() and the series accessors.
 */
class MetricRegistry
{
  public:
    /** Wraps a section that must run under the engine lock. */
    using LockFn = std::function<void(const std::function<void()> &)>;

    explicit MetricRegistry(SeriesConfig series_defaults = {});

    // ---- Registration ----

    /** Owned counter, updated by the caller on its hot path. */
    Counter *addCounter(Desc d, std::uint64_t *id_out = nullptr);

    /** Owned gauge, updated by the caller on its hot path. */
    Gauge *addGauge(Desc d, std::uint64_t *id_out = nullptr);

    /** Owned histogram (exposition only; no time series). */
    Histogram *addHistogram(Desc d, std::vector<double> bounds,
                            std::uint64_t *id_out = nullptr);

    /**
     * Pull instrument: @p fn is evaluated at every sampling pass (and,
     * when needsLock is false, live at exposition time).
     */
    std::uint64_t addCallback(Desc d, std::function<double()> fn);

    /**
     * Push-model series: the caller records values explicitly with
     * recordPushed (used by the value monitor, which samples under the
     * engine lock on its own schedule).
     */
    std::uint64_t addPushed(Desc d);

    /** Unregisters an instrument. @return False when the id is unknown. */
    bool remove(std::uint64_t id);

    std::size_t size() const;

    // ---- Recording ----

    /** Records one observation of a pushed instrument. */
    void recordPushed(std::uint64_t id, std::int64_t wall_ms,
                      std::uint64_t sim_ps, double value);

    /**
     * One sampling pass: evaluates every pull callback (locked ones
     * inside a single @p with_lock section), reads owned instruments,
     * and appends to each instrument's series. Called by the sampler
     * thread; never by the simulation thread.
     *
     * When @p sampled_out is non-null it receives every value sampled
     * by this pass (the flight-recorder tee). The Desc pointers stay
     * valid until the corresponding instrument is remove()d.
     */
    void samplePass(std::int64_t wall_ms, std::uint64_t sim_ps,
                    const LockFn &with_lock = {},
                    std::vector<SampledValue> *sampled_out = nullptr);

    // ---- Serving ----

    /** Prometheus text exposition (format version 0.0.4). */
    std::string renderPrometheus() const;

    struct QuerySeries
    {
        Desc desc;
        std::vector<AggBucket> points;
    };

    /**
     * Range query over all instruments named @p name whose labels
     * contain every pair in @p filter.
     */
    std::vector<QuerySeries> query(const std::string &name,
                                   const Labels &filter,
                                   std::int64_t from_ms,
                                   std::int64_t to_ms,
                                   std::int64_t step_ms) const;

    /**
     * The newest @p newest samples of one instrument's raw ring, oldest
     * first (empty when it keeps no series).
     */
    std::vector<RawSample> rawSeries(std::uint64_t id,
                                     std::size_t newest = SIZE_MAX) const;

    /**
     * Oldest raw sample still held in memory across every instrument
     * matching @p name/@p filter — the most conservative bound: a
     * range query starting at or after this timestamp can be served
     * entirely from memory. INT64_MAX when no matching series has raw
     * history (the caller must fall through to the recorder segment).
     */
    std::int64_t oldestRawMs(const std::string &name,
                             const Labels &filter) const;

    /** Every instrument's descriptor. */
    std::vector<Desc> list() const;

    /**
     * Latest sampled value of every instrument, optionally restricted
     * to one family name (SSE payloads).
     */
    std::vector<SampledValue> latest(const std::string &name = "") const;

    // ---- Streaming support ----

    /** One instrument's value within a replayed sampling pass. */
    struct ReplayValue
    {
        std::string name;
        Labels labels;
        double value = 0;
        std::int64_t wallMs = 0;
        std::uint64_t simPs = 0;
    };

    /** One completed sampling pass kept for SSE resume. */
    struct ReplayEvent
    {
        /** The version() value the pass completed at (the SSE id). */
        std::uint64_t version = 0;
        std::vector<ReplayValue> values;
    };

    /**
     * Enables the bounded replay ring: the most recent @p passes
     * sampling passes are retained so a reconnecting SSE client can
     * resume from its Last-Event-ID without losing samples. 0 (the
     * default) disables retention.
     */
    void setReplayCapacity(std::size_t passes);

    /**
     * Retained passes with version > @p after_version, oldest first,
     * optionally restricted to one family @p name (a pass whose values
     * all filter out is still returned, so event ids stay contiguous).
     */
    std::vector<ReplayEvent> replaySince(
        std::uint64_t after_version, const std::string &name = "") const;

    /** Monotonic count of completed sampling passes. */
    std::uint64_t version() const;

    /**
     * Monotonic generation combining sampling passes with instrument
     * (de)registrations: advances whenever the set of instruments or
     * any sampled value may have changed. Response caches key their
     * freshness on this.
     */
    std::uint64_t generation() const;

    /**
     * Blocks until version() exceeds @p last_seen or @p timeout_ms
     * elapses. @return The current version.
     */
    std::uint64_t waitForSample(std::uint64_t last_seen,
                                int timeout_ms) const;

    /** Wakes all waitForSample callers (shutdown path). */
    void notifyWaiters();

  private:
    struct Instr
    {
        std::uint64_t id = 0;
        Desc desc;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
        std::function<double()> fn;
        bool pushed = false;
        std::unique_ptr<MultiResSeries> series;
        /** Last value seen by a sampling pass (or push). */
        Gauge lastValue;
        std::atomic<bool> everSampled{false};
        std::atomic<std::int64_t> lastWallMs{0};
        std::atomic<std::uint64_t> lastSimPs{0};

        /** Best current value without taking the engine lock. */
        double liveValue() const;
    };

    using InstrPtr = std::shared_ptr<Instr>;

    /**
     * One retained sampling pass. Values hold the owning InstrPtr (not
     * a copied Desc) so retention costs one shared_ptr per sampled
     * instrument; ReplayValues are materialized on demand.
     */
    struct PassRecord
    {
        std::uint64_t version = 0;
        std::int64_t wallMs = 0;
        std::uint64_t simPs = 0;
        std::vector<std::pair<InstrPtr, double>> values;
    };

    InstrPtr makeInstr(Desc d);
    void publishInstr(const InstrPtr &in);
    /** First instrument with id >= @p id; caller holds mu_. */
    std::vector<InstrPtr>::const_iterator lowerBound(std::uint64_t id) const;
    InstrPtr findLocked(std::uint64_t id) const;
    std::vector<InstrPtr> snapshotInstrs() const;
    static void renderOne(std::string &out, const Instr &in);

    mutable std::mutex mu_;
    std::vector<InstrPtr> instrs_;
    std::uint64_t nextId_ = 1;
    SeriesConfig seriesDefaults_;

    std::atomic<std::uint64_t> version_{0};
    /** Registration/removal events; see generation(). */
    std::atomic<std::uint64_t> regEvents_{0};
    mutable std::mutex waitMu_;
    mutable std::condition_variable waitCv_;

    mutable std::mutex replayMu_;
    std::deque<PassRecord> replay_;
    std::size_t replayCap_ = 0;

    Histogram *passDuration_ = nullptr;
};

} // namespace metrics
} // namespace akita

#endif // AKITA_METRICS_REGISTRY_HH
