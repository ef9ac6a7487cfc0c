/**
 * @file
 * Buffer-fullness bottleneck analyzer (task T5, Figs. 3 and 4).
 */

#ifndef AKITA_RTM_BUFFERANALYZER_HH
#define AKITA_RTM_BUFFERANALYZER_HH

#include <string>
#include <vector>

#include "rtm/registry.hh"

namespace akita
{
namespace rtm
{

/** Occupancy in percent; 0 for a zero-capacity buffer. */
inline double
bufferPercent(std::size_t size, std::size_t capacity)
{
    return capacity == 0 ? 0.0
                         : 100.0 * static_cast<double>(size) /
                               static_cast<double>(capacity);
}

/** One row of the buffer table (Fig. 3). */
struct BufferLevel
{
    std::string name; // e.g. "GPU[1].SA[15].L1VROB[0].TopPort.Buf".
    std::size_t size = 0;
    std::size_t capacity = 0;
    /** Kind of the oldest queued message; empty when the buffer is. */
    std::string headKind;

    double percent() const { return bufferPercent(size, capacity); }
};

/** Sort orders offered by the panel ("Sort by: Size | Percent"). */
enum class BufferSort
{
    BySize,
    ByPercent,
};

/**
 * Snapshots every buffer of every registered component and ranks them.
 *
 * A persistently top-ranked buffer marks a likely bottleneck: the
 * component that owns it cannot drain its input (Fig. 4's reasoning).
 * During a hang, any non-empty buffer marks a component that cannot
 * proceed (case study 2's starting point).
 *
 * The snapshot must be taken under the engine lock (the Monitor facade
 * does this); the analyzer itself is a pure function of the registry.
 */
class BufferAnalyzer
{
  public:
    explicit BufferAnalyzer(const ComponentRegistry *registry)
        : registry_(registry)
    {
    }

    /**
     * Takes a snapshot of all buffer levels.
     *
     * @param sort Ranking order.
     * @param top_n Maximum rows returned; 0 means all.
     * @param include_empty When false, empty buffers are skipped.
     */
    std::vector<BufferLevel> snapshot(BufferSort sort,
                                      std::size_t top_n = 0,
                                      bool include_empty = true) const;

    /** Buffers that are non-empty (the hang-debugging view). */
    std::vector<BufferLevel>
    nonEmpty() const
    {
        return snapshot(BufferSort::BySize, 0, false);
    }

  private:
    const ComponentRegistry *registry_;
};

} // namespace rtm
} // namespace akita

#endif // AKITA_RTM_BUFFERANALYZER_HH
