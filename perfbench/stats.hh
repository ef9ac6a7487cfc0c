/**
 * @file
 * Statistics helpers of the repository benchmark: the percentile rule,
 * open-loop request accounting, and metric-name validation. Header-only
 * and free of simulator code so selftest.cc can check them in isolation.
 */

#ifndef AKITA_PERFBENCH_STATS_HH
#define AKITA_PERFBENCH_STATS_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench
{

/** Median plus the highest percentile the sample count supports. */
struct TailSummary
{
    std::size_t count = 0;
    double median = 0;
    /** Value at @ref tailPct; equals the median when no tail qualifies. */
    double tail = 0;
    /** Percentile reported as the tail (99 for p99); 0 when none. */
    double tailPct = 0;
};

/**
 * Nearest-rank percentile of ascending @p sorted: the smallest sample
 * with at least @p pct percent of the samples at or below it.
 * @p sorted must be non-empty.
 */
inline double
percentileSorted(const std::vector<double> &sorted, double pct)
{
    const auto n = sorted.size();
    // Integer rank in hundredths of a percent, so 99 of 1000 is exactly
    // rank 990 rather than a rounding accident.
    const auto p = static_cast<std::uint64_t>(pct * 100.0 + 0.5);
    std::uint64_t rank = (p * n + 9999) / 10000;
    rank = std::clamp<std::uint64_t>(rank, 1, n);
    return sorted[rank - 1];
}

/** Samples strictly above the nearest-rank @p pct percentile. */
inline std::size_t
samplesBeyond(std::size_t n, double pct)
{
    const auto p = static_cast<std::uint64_t>(pct * 100.0 + 0.5);
    std::uint64_t rank = (p * n + 9999) / 10000;
    return rank >= n ? 0 : n - rank;
}

/** Plain median (mean of the middle pair for even counts); 0 if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The percentile rule: the median, and the highest percentile of the
 * ladder 99.99 / 99.9 / 99 / 90 / 75 that has at least ten samples
 * beyond it, with the sample count.
 */
inline TailSummary
summarize(std::vector<double> v)
{
    TailSummary s;
    s.count = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    s.median = median(v);
    s.tail = s.median;
    for (double pct : {99.99, 99.9, 99.0, 90.0, 75.0}) {
        if (samplesBeyond(v.size(), pct) >= 10) {
            s.tailPct = pct;
            s.tail = percentileSorted(v, pct);
            break;
        }
    }
    return s;
}

/**
 * Open-loop accounting for one request. A request is timed from when
 * it was due, not from when the generator got round to sending it, so
 * a stall that delays later sends shows up in their latency instead of
 * vanishing (coordinated omission).
 */
struct OpenLoopSample
{
    /** done - due: what a client polling on schedule experienced. */
    double latency = 0;
    /** max(0, sent - due): how late the generator itself ran. */
    double lateness = 0;
};

inline OpenLoopSample
openLoopAccount(double due, double sent, double done)
{
    OpenLoopSample s;
    s.latency = done - due;
    s.lateness = sent > due ? sent - due : 0.0;
    return s;
}

/**
 * Due times (seconds from the start) of @p tabs open dashboard tabs.
 * Each tab runs its tick once per @p period and fetches all
 * @p endpoints targets together at each tick, as the dashboard's
 * tick() does. The seed picks each tab's phase within the period.
 * Returns one entry per request before @p horizon, ascending, as
 * (due, endpoint index).
 */
inline std::vector<std::pair<double, int>>
dashboardSchedule(std::uint64_t seed, int tabs, int endpoints,
                  double period, double horizon)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> phase(0.0, period);
    std::vector<std::pair<double, int>> out;
    for (int d = 0; d < tabs; d++) {
        for (double due = phase(rng); due < horizon; due += period) {
            for (int e = 0; e < endpoints; e++)
                out.emplace_back(due, e);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Metric names: 1 to 64 of [A-Za-z0-9_.-], starting with a letter or
 * digit.
 */
inline bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name[0]))
        return false;
    for (char c : name) {
        if (!alnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    }
    return true;
}

} // namespace perfbench

#endif // AKITA_PERFBENCH_STATS_HH
