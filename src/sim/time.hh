/**
 * @file
 * Virtual time and frequency types for the simulation core.
 *
 * Akita (the Go framework under MGPUSim) uses float64 seconds for virtual
 * time, which forces epsilon-comparisons everywhere. We instead use
 * integer picoseconds: event ordering is exact, and a 64-bit count covers
 * ~213 days of simulated time, far beyond any cycle-level run.
 */

#ifndef AKITA_SIM_TIME_HH
#define AKITA_SIM_TIME_HH

#include <cstdint>
#include <string>

namespace akita
{
namespace sim
{

/** Virtual time in picoseconds. */
using VTime = std::uint64_t;

constexpr VTime kPicosecond = 1;
constexpr VTime kNanosecond = 1000 * kPicosecond;
constexpr VTime kMicrosecond = 1000 * kNanosecond;
constexpr VTime kMillisecond = 1000 * kMicrosecond;
constexpr VTime kSecond = 1000 * kMillisecond;

/** Converts virtual time to floating seconds (for display only). */
inline double
toSeconds(VTime t)
{
    return static_cast<double>(t) / static_cast<double>(kSecond);
}

/** Formats a virtual time as a human-readable string (display only). */
std::string formatTime(VTime t);

/**
 * A clock frequency expressed by its integer period in picoseconds.
 *
 * All ticking components in one domain share a Freq; ticks are aligned to
 * multiples of the period so that components at the same frequency tick at
 * identical times.
 *
 * Tick arithmetic divides by the period without a `div` instruction:
 * every component arms a tick per busy cycle, and a 64-bit division
 * costs tens of cycles where a multiply costs three. The constructor
 * precomputes the period's reciprocal (Granlund and Montgomery,
 * "Division by invariant integers using multiplication", PLDI 1994,
 * Fig. 4.1), which gives the exact quotient for every 64-bit time and
 * every period.
 */
class Freq
{
  public:
    /** Constructs a 1 GHz clock (the framework default). */
    constexpr Freq() : Freq(1000) {}

    /** Constructs from an explicit period. */
    static constexpr Freq
    fromPeriod(VTime period_ps)
    {
        return Freq(period_ps == 0 ? 1 : period_ps);
    }

    /** Constructs from a frequency in MHz. */
    static constexpr Freq
    mhz(std::uint64_t f_mhz)
    {
        return fromPeriod(f_mhz == 0 ? 1 : kMicrosecond / f_mhz);
    }

    /** Constructs from a frequency in GHz. */
    static constexpr Freq
    ghz(std::uint64_t f_ghz)
    {
        return fromPeriod(f_ghz == 0 ? 1 : kNanosecond / f_ghz);
    }

    constexpr VTime period() const { return periodPs_; }

    /** Frequency in Hz (display only). */
    double
    hz() const
    {
        return static_cast<double>(kSecond) /
               static_cast<double>(periodPs_);
    }

    /** The tick time at or immediately before @p t. */
    constexpr VTime
    thisTick(VTime t) const
    {
        return cycles(t) * periodPs_;
    }

    /** The first tick time strictly after @p t. */
    constexpr VTime
    nextTick(VTime t) const
    {
        return thisTick(t) + periodPs_;
    }

    /** The tick @p n cycles after the tick containing @p t. */
    constexpr VTime
    nCyclesLater(VTime t, std::uint64_t n) const
    {
        return thisTick(t) + n * periodPs_;
    }

    /** Number of whole cycles contained in a duration. */
    constexpr std::uint64_t
    cycles(VTime duration) const
    {
        // floor(duration / period) by Fig. 4.1: hi is the high word of
        // magic * duration, and averaging it with duration before the
        // final shift keeps the sum inside 64 bits.
        auto hi = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(magic_) * duration) >> 64);
        return (hi + ((duration - hi) >> shift1_)) >> shift2_;
    }

    constexpr bool
    operator==(const Freq &o) const
    {
        return periodPs_ == o.periodPs_;
    }

  private:
    /** @p period_ps must be nonzero. */
    explicit constexpr Freq(VTime period_ps) : periodPs_(period_ps)
    {
        // l = ceil(log2(period)); magic = floor(2^64 (2^l - p) / p) + 1.
        unsigned l = 0;
        while (l < 64 && (VTime{1} << l) < period_ps)
            l++;
        unsigned __int128 span =
            (static_cast<unsigned __int128>(1) << l) - period_ps;
        magic_ = static_cast<std::uint64_t>((span << 64) / period_ps + 1);
        shift1_ = l < 1 ? l : 1;
        shift2_ = l < 1 ? 0 : l - 1;
    }

    VTime periodPs_;
    /** Reciprocal multiplier and shifts for cycles() (see above). */
    std::uint64_t magic_ = 0;
    std::uint8_t shift1_ = 0;
    std::uint8_t shift2_ = 0;
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_TIME_HH
