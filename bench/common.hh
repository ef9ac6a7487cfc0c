/**
 * @file
 * Shared helpers for the figure-reproduction benchmark harnesses.
 */

#ifndef AKITA_BENCH_COMMON_HH
#define AKITA_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "gpu/platform.hh"
#include "rtm/monitor.hh"
#include "sim/parse.hh"
#include "workloads/workloads.hh"

namespace akita
{
namespace bench
{

/** Reads a double from the environment with a default; junk throws. */
inline double
envDouble(const char *name, double dflt)
{
    const char *v = std::getenv(name);
    return v == nullptr ? dflt : sim::parseNumber<double>(name, v);
}

/** Reads an int from the environment with a default; junk throws. */
inline int
envInt(const char *name, int dflt)
{
    const char *v = std::getenv(name);
    return v == nullptr ? dflt : sim::parseNumber<int>(name, v);
}

/** True when AKITA_FULL=1 selects the full R9-Nano-scale platform. */
inline bool
fullScale()
{
    return envInt("AKITA_FULL", 0) != 0;
}

/** The evaluation platform: 4-chiplet MCM GPU (paper's case study 1). */
inline gpu::PlatformConfig
evalPlatform()
{
    gpu::GpuConfig chip = fullScale() ? gpu::GpuConfig::r9nano()
                                      : gpu::GpuConfig::medium();
    return gpu::PlatformConfig::mcm4(chip);
}

/** Default workload scale (AKITA_SCALE overrides). */
inline double
benchScale(double dflt)
{
    return envDouble("AKITA_SCALE", dflt);
}

/** Wall-clock stopwatch. */
class Stopwatch
{
  public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Quiet monitor configuration for harness use. */
inline rtm::MonitorConfig
quietMonitor()
{
    rtm::MonitorConfig cfg;
    cfg.announceUrl = false;
    cfg.sampleIntervalMs = 20;
    cfg.hangThresholdSec = 0.3;
    return cfg;
}

/** Prints a horizontal rule with a title. */
inline void
section(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/** Renders a value series as a one-line ASCII sparkline. */
inline std::string
sparkline(const std::vector<metrics::RawSample> &samples, std::size_t width)
{
    static const char *levels[] = {" ", ".", ":", "-", "=", "+",
                                   "*", "#"};
    if (samples.empty())
        return "";
    double maxV = 1e-9;
    for (const auto &s : samples)
        maxV = std::max(maxV, s.value);
    std::string out;
    std::size_t n = samples.size();
    for (std::size_t i = 0; i < width; i++) {
        const auto &s = samples[i * n / width];
        auto lvl = static_cast<std::size_t>(s.value / maxV * 7.0);
        out += levels[lvl > 7 ? 7 : lvl];
    }
    return out;
}

/** Middle slice of a series (drops ramp-up and drain tails). */
inline std::vector<metrics::RawSample>
steadySlice(const std::vector<metrics::RawSample> &samples,
            double trim_frac = 0.2)
{
    if (samples.size() < 10)
        return samples;
    auto lo = static_cast<std::size_t>(
        static_cast<double>(samples.size()) * trim_frac);
    auto hi = static_cast<std::size_t>(
        static_cast<double>(samples.size()) * (1.0 - trim_frac));
    return {samples.begin() + static_cast<std::ptrdiff_t>(lo),
            samples.begin() + static_cast<std::ptrdiff_t>(hi)};
}

/** Summary statistics of a series. */
struct SeriesStats
{
    double minV = 0, maxV = 0, mean = 0, last = 0;
};

inline SeriesStats
stats(const std::vector<metrics::RawSample> &samples)
{
    SeriesStats s;
    if (samples.empty())
        return s;
    s.minV = s.maxV = samples[0].value;
    double sum = 0;
    for (const auto &p : samples) {
        s.minV = std::min(s.minV, p.value);
        s.maxV = std::max(s.maxV, p.value);
        sum += p.value;
    }
    s.mean = sum / static_cast<double>(samples.size());
    s.last = samples.back().value;
    return s;
}

} // namespace bench
} // namespace akita

#endif // AKITA_BENCH_COMMON_HH
