/**
 * @file
 * Hang detection (task T3).
 *
 * Case study 2 identifies a hang by three simultaneous signals: the
 * progress bars stop moving, the simulation time stops changing, and
 * CPU usage falls well below 100%. This watchdog automates the check:
 * it records when virtual time last advanced and reports a hang when
 * the time has been frozen for a wall-clock threshold while the engine
 * is still nominally running (or is blocked on a drained queue).
 */

#ifndef AKITA_RTM_HANG_HH
#define AKITA_RTM_HANG_HH

#include <chrono>
#include <mutex>

#include "sim/engine.hh"

namespace akita
{
namespace rtm
{

/** Hang-watch status snapshot. */
struct HangStatus
{
    /** True when the hang signature currently holds. */
    bool hanging = false;
    /** Wall seconds since virtual time last advanced. */
    double frozenForSec = 0.0;
    /** The frozen virtual time. */
    sim::VTime simTime = 0;
    /** True when the engine is blocked on an empty queue. */
    bool queueDrained = false;
};

/** Watches an engine for the hang signature. */
class HangWatch
{
  public:
    /**
     * @param threshold_sec Wall seconds of frozen virtual time before a
     *        hang is reported (paper: "once these states last for a few
     *        seconds, we are confident").
     */
    explicit HangWatch(const sim::Engine *engine,
                       double threshold_sec = 2.0)
        : engine_(engine), thresholdSec_(threshold_sec)
    {
    }

    /** Polls the engine and updates the status. Thread-safe. */
    HangStatus check();

  private:
    const sim::Engine *engine_;
    double thresholdSec_;

    std::mutex mu_;
    sim::VTime lastTime_ = 0;
    std::chrono::steady_clock::time_point lastAdvance_{};
    bool hasLast_ = false;
};

} // namespace rtm
} // namespace akita

#endif // AKITA_RTM_HANG_HH
