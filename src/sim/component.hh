/**
 * @file
 * Component base classes.
 */

#ifndef AKITA_SIM_COMPONENT_HH
#define AKITA_SIM_COMPONENT_HH

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "introspect/field.hh"
#include "sim/engine.hh"
#include "sim/port.hh"

namespace akita
{
namespace sim
{

/**
 * One self-reported wait-for edge: @c waiter cannot make progress until
 * @c waitee does, via the named full buffer or exhausted resource.
 *
 * Components with internal pipelines report sub-units using dotted
 * names ("L2.storage", "L2.writeBuffer") so the hang analyzer can
 * resolve a cycle *inside* one component — the paper's case study 2 is
 * exactly such a loop between an L2's storage and write-buffer stages.
 */
struct StallInfo
{
    std::string waiter;
    std::string waitee;
    /** The buffer/resource mediating the wait (diagnostic label). */
    std::string via;
    /** Occupancy of the mediating buffer in [0,1]. */
    double fullness = 1.0;
};

/**
 * A group of hardware circuits under simulation (cache, CU, DRAM, ...).
 *
 * Components own their ports, expose monitorable fields through the
 * Inspectable base, and enumerate every buffer they hold so the monitor's
 * buffer analyzer discovers them without per-component code — the C++
 * equivalent of the Go version's reflection-based discovery.
 */
class Component : public introspect::Inspectable
{
  public:
    /**
     * @param name Hierarchical dotted name, e.g. "GPU[0].SA[3].L1VROB[1]".
     */
    Component(Engine *engine, std::string name);

    ~Component() override;

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    const std::string &name() const { return name_; }
    Engine *engine() const { return engine_; }

    /**
     * Creates and owns a new port.
     *
     * @param port_name Name relative to this component ("TopPort").
     * @param buf_capacity Incoming-buffer capacity.
     */
    Port *addPort(const std::string &port_name, std::size_t buf_capacity);

    /** Finds an owned port by relative name; nullptr when absent. */
    Port *port(const std::string &port_name) const;

    const std::vector<std::unique_ptr<Port>> &ports() const
    {
        return ports_;
    }

    /**
     * Registers an internal buffer (not attached to a port) so the
     * bottleneck analyzer can see it. The buffer must outlive the
     * component's registration with the monitor.
     */
    void registerBuffer(Buffer *buffer) { extraBuffers_.push_back(buffer); }

    /** All monitorable buffers: port incoming buffers + registered. */
    std::vector<Buffer *> buffers() const;

    /**
     * Requests that the component resume making progress.
     *
     * Called when a message arrives and by the monitor's per-component
     * "Tick" control. The base implementation is a no-op;
     * TickingComponent schedules a tick.
     */
    virtual void wake() {}

    /**
     * A port this component's send was refused at has freed a slot.
     * Defaults to wake(); TickingComponent arms a tick that may find
     * the slot already taken (see TickingComponent::handle).
     */
    virtual void slotFreed() { wake(); }

    /** Port::send refused a message of this component's at @p dst. */
    virtual void sendRefused(Port *) {}

    /**
     * Self-reported wait-for edges for hang analysis: which internal
     * stage (or this component as a whole) is blocked on what, right
     * now. Called by the monitor under the engine lock while the
     * simulation is frozen; the default reports nothing and components
     * without internal backpressure need not override.
     */
    virtual std::vector<StallInfo> stallInfo() const { return {}; }

  private:
    Engine *engine_;
    std::string name_;
    std::vector<std::unique_ptr<Port>> ports_;
    std::vector<Buffer *> extraBuffers_;
};

/**
 * A component driven by a clock, with sleep/wake semantics.
 *
 * The component ticks every cycle while ticks report progress; a tick
 * without progress puts it to sleep (no events scheduled — this is what
 * makes large idle simulations cheap, and also what makes deadlocks
 * silent: every component asleep, queue drained). wake() re-arms the
 * tick, which is exactly what the monitor's "Tick" button does when
 * debugging a hang.
 *
 * Contract for tick(): a tick that reports no progress changed no
 * state. A tick event that arrives with nothing changed since such a
 * tick — no delivery, no wake(), no tick armed by the component
 * itself — while every port that refused that tick's sends is still
 * full would repeat it exactly, so handle() skips the body and only
 * re-registers on those ports (skippedTicks()).
 */
class TickingComponent : public Component, public EventHandler
{
  public:
    TickingComponent(Engine *engine, std::string name, Freq freq);

    Freq freq() const { return freq_; }

    /**
     * Performs one cycle of work.
     *
     * @return True when any progress was made; false lets the component
     *         go to sleep.
     */
    virtual bool tick() = 0;

    /** Schedules a tick at the next cycle boundary (idempotent). */
    void tickLater();

    /**
     * Schedules a tick at or after an absolute time.
     *
     * Used by components whose progress depends on virtual time passing
     * (pipeline latencies, page walks, DRAM access latency): before
     * sleeping they arm a tick at their earliest internal deadline.
     * Duplicate events at the same cycle are absorbed by handle().
     */
    void scheduleTickAt(VTime t);

    void wake() override { tickLater(); }

    /** Arms a tick without marking that anything changed. */
    void slotFreed() override { arm(freq_.nextTick(engine()->now())); }

    void
    sendRefused(Port *dst) override
    {
        if (std::find(refused_.begin(), refused_.end(), dst) ==
            refused_.end())
            refused_.push_back(dst);
    }

    void handle(Event &event) override;

    /** Interned once at construction; the profiler copies a 32-bit id. */
    NameRef profName() const override { return tickName_; }

    std::string handlerName() const override { return tickName_.str(); }

    /** True when no tick is scheduled (the component sleeps). */
    bool asleep() const
    {
        return tickAt_.load(std::memory_order_relaxed) == kNoTick;
    }

    /** Total ticks executed. */
    std::uint64_t totalTicks() const { return totalTicks_.value(); }

    /** Ticks that reported progress. */
    std::uint64_t progressTicks() const { return progressTicks_.value(); }

    /** Tick events dispatched whose body was skipped (see above). */
    std::uint64_t skippedTicks() const { return skippedTicks_.value(); }

  private:
    /** tickAt_ value of a sleeping component. */
    static constexpr VTime kNoTick = ~static_cast<VTime>(0);

    /** Schedules a tick event at @p t unless one is armed for it. */
    void arm(VTime t);

    Freq freq_;
    /** Interned "<name>::tick" profiler label. */
    NameRef tickName_;
    /**
     * Time of the most recently armed tick event, kNoTick while
     * asleep. The one piece of component state other threads write:
     * under the domain engine, wake() arrives from other domains'
     * workers (and from monitor threads) while this component's own
     * tick handler runs.
     */
    std::atomic<VTime> tickAt_{kNoTick};
    /** Cycle of the most recent executed tick (handler-only). */
    VTime lastTickAt_ = 0;
    bool everTicked_ = false;
    /**
     * Something changed since the last body ran: a delivery, a wake()
     * or a tick the component armed itself. Written by the owning
     * domain only (or under the engine lock, by the monitor).
     */
    bool mustRun_ = true;
    /** Ports that refused a send since the last body started, each
     * once, in refusal order (owner only). */
    std::vector<Port *> refused_;
    metrics::Counter totalTicks_;
    metrics::Counter progressTicks_;
    metrics::Counter skippedTicks_;
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_COMPONENT_HH
