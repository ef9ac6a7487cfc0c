/**
 * @file
 * Multi-resolution time-series storage.
 *
 * Each stored instrument keeps three levels of history, all bounded:
 *
 *   raw      every sample                      (default 512 points)
 *   1 s      min/max/avg/last per 1 s bucket   (default 360 buckets)
 *   10 s     min/max/avg/last per 10 s bucket  (default 360 buckets)
 *
 * Buckets are aligned to wall time: a sample at t falls into the
 * bucket starting at t - t % width, so a sample exactly on a bucket
 * edge opens the *next* bucket. With the defaults a run keeps full
 * detail for the recent past, 1-second aggregates for ~6 minutes and
 * 10-second aggregates for ~1 hour — a dashboard client that connects
 * after an interesting transient can still query its shape, which the
 * old 300-point value monitor could not offer.
 */

#ifndef AKITA_METRICS_SERIES_HH
#define AKITA_METRICS_SERIES_HH

#include <cstdint>
#include <mutex>
#include <vector>

#include "metrics/ring.hh"

namespace akita
{
namespace metrics
{

/** One recorded observation. */
struct RawSample
{
    /** Wall-clock milliseconds (epoch or any monotonic base). */
    std::int64_t wallMs = 0;
    /** Virtual time of the simulation when sampled. */
    std::uint64_t simPs = 0;
    double value = 0;
};

/** Aggregate of the samples falling into one wall-time bucket. */
struct AggBucket
{
    std::int64_t startMs = 0;
    double min = 0;
    double max = 0;
    double sum = 0;
    double last = 0;
    std::uint64_t count = 0;
    /** Virtual time of the newest folded sample. */
    std::uint64_t lastSimPs = 0;

    double
    avg() const
    {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }

    void
    fold(const RawSample &s)
    {
        if (count == 0) {
            min = max = s.value;
        } else {
            if (s.value < min)
                min = s.value;
            if (s.value > max)
                max = s.value;
        }
        sum += s.value;
        last = s.value;
        lastSimPs = s.simPs;
        count++;
    }
};

/** Ring capacities for the three resolutions. */
struct SeriesConfig
{
    std::size_t rawCapacity = 512;
    std::size_t res1sCapacity = 360;
    std::size_t res10sCapacity = 360;
};

/**
 * The three-level store for one instrument.
 *
 * record() is called by the sampler thread; readers (web handlers)
 * take the internal mutex for a consistent copy. The mutex is never
 * held across any other lock, and the simulation thread never touches
 * this class — recording is decoupled from the hot path by design.
 */
class MultiResSeries
{
  public:
    static constexpr std::int64_t kBucket1Ms = 1000;
    static constexpr std::int64_t kBucket10Ms = 10000;

    explicit MultiResSeries(const SeriesConfig &cfg)
        : raw_(cfg.rawCapacity), r1_(cfg.res1sCapacity),
          r10_(cfg.res10sCapacity)
    {
    }

    /** Appends a sample and folds it into the open buckets. */
    void record(std::int64_t wall_ms, std::uint64_t sim_ps, double value);

    /** Copy of the raw ring's newest @p newest samples, oldest first. */
    std::vector<RawSample> rawSnapshot(std::size_t newest = SIZE_MAX) const;

    /**
     * Range query over [from_ms, to_ms] (inclusive).
     *
     * @p step_ms selects the resolution: >= 10000 serves 10 s buckets,
     * >= 1000 serves 1 s buckets, anything lower serves raw samples
     * (as single-count buckets). The currently open bucket is
     * included, so the newest data is always visible.
     */
    std::vector<AggBucket> query(std::int64_t from_ms,
                                 std::int64_t to_ms,
                                 std::int64_t step_ms) const;

    /** Total samples ever recorded (exceeds ring sizes on wrap). */
    std::uint64_t totalRecorded() const;

  private:
    static std::int64_t
    bucketStart(std::int64_t t, std::int64_t width)
    {
        return t - t % width;
    }

    mutable std::mutex mu_;
    Ring<RawSample> raw_;
    Ring<AggBucket> r1_;
    Ring<AggBucket> r10_;
    AggBucket open1_;
    AggBucket open10_;
    bool open1Valid_ = false;
    bool open10Valid_ = false;
    std::uint64_t totalRecorded_ = 0;
};

} // namespace metrics
} // namespace akita

#endif // AKITA_METRICS_SERIES_HH
