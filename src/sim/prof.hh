/**
 * @file
 * Scoped instrumentation profiler (the pprof substitute).
 *
 * The Go original reuses pprof's sampling profiler to show the top-N most
 * expensive functions with caller/callee arcs. C++ has no portable
 * sampling profiler to embed, so we provide an instrumentation profiler
 * with the same output schema: per-function self time, total time, and
 * weighted call edges. The engine instruments event dispatch
 * automatically (keyed by the handler's interned profName()), and hot
 * paths may add explicit scopes.
 *
 * Names are the process-wide interned table (sim/name.hh): entering a
 * scope with a NameRef costs no lookup at all, and the string overload
 * (explicit scopes, tests) interns on entry.
 *
 * Collection is per-thread: each thread aggregates into its own table
 * (guarded by an uncontended per-thread mutex), and snapshot() merges
 * the tables. This keeps the hot path contention-free when several
 * simulations (a fleet behind one gateway) profile concurrently from
 * their own threads.
 *
 * When disabled (the default), entering a scope costs a single relaxed
 * atomic load, so unmonitored simulations pay essentially nothing.
 */

#ifndef AKITA_SIM_PROF_HH
#define AKITA_SIM_PROF_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/name.hh"

namespace akita
{
namespace sim
{

/** Aggregated timing for one profiled function. */
struct ProfEntry
{
    std::string name;
    /** Nanoseconds spent in the function excluding callees. */
    std::uint64_t selfNs = 0;
    /** Nanoseconds spent including callees. */
    std::uint64_t totalNs = 0;
    /** Number of times the scope was entered. */
    std::uint64_t calls = 0;
};

/** One caller->callee arc with the time attributed to it. */
struct ProfEdge
{
    std::string caller;
    std::string callee;
    std::uint64_t totalNs = 0;
    std::uint64_t calls = 0;
};

/** A snapshot of the profile, suitable for the arc-diagram view. */
struct ProfSnapshot
{
    std::vector<ProfEntry> entries; // Sorted by self time, descending.
    std::vector<ProfEdge> edges;
    std::uint64_t wallNs = 0; // Wall time covered by the snapshot.
};

/**
 * Process-wide instrumentation profiler.
 *
 * Scope bookkeeping is thread-local (scope nesting never crosses
 * threads); names live in the global interned table, so the hot path
 * takes no global lock and does no hashing.
 */
class Profiler
{
  public:
    /** The process-wide instance. */
    static Profiler &instance();

    /** Enables or disables collection. Resets data when enabling. */
    void setEnabled(bool on);

    /**
     * True while collecting. Static, so the per-event check in the
     * engine is one inline load rather than a call to instance().
     */
    static bool
    enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Clears all collected data (on every thread's table). */
    void reset();

    /**
     * Produces the top-N entries by self time plus all arcs among them,
     * merged across all threads that ever profiled.
     *
     * @param top_n Maximum number of functions returned (pprof's "top").
     */
    ProfSnapshot snapshot(std::size_t top_n = 30) const;

    // Scope bookkeeping; use ProfScope rather than calling directly.
    /** Fast path: the name is already interned. */
    void enterScope(NameRef name);

    /** Interns @p name, then enters (explicit scopes, tests). */
    void
    enterScope(const std::string &name)
    {
        enterScope(NameRef(name));
    }

    void exitScope();

  private:
    Profiler() = default;

    struct Frame
    {
        std::uint32_t nameId;
        std::uint64_t startNs;
        std::uint64_t childNs; // Time spent in nested scopes.
    };

    struct Agg
    {
        std::uint64_t selfNs = 0;
        std::uint64_t totalNs = 0;
        std::uint64_t calls = 0;
    };

    /** One thread's collection state; outlives the thread in states_. */
    struct ThreadState
    {
        /** Serializes the owner thread against snapshot()/reset(). */
        std::mutex mu;
        std::vector<Frame> stack;
        std::vector<Agg> aggs; // Indexed by interned name id.
        std::map<std::pair<std::uint32_t, std::uint32_t>, Agg> edges;
    };

    static std::uint64_t nowNs();

    /** This thread's state, registered on first use. */
    ThreadState &threadState();

    static inline std::atomic<bool> enabled_{false};

    mutable std::mutex mu_; // Guards states_.
    std::vector<std::shared_ptr<ThreadState>> states_;
    std::uint64_t enabledSinceNs_ = 0;
};

/**
 * RAII scope that attributes its lifetime to a named function.
 *
 * Cheap no-op when the profiler is disabled.
 */
class ProfScope
{
  public:
    /** Hot path: pre-interned name, no lookup. */
    explicit ProfScope(NameRef name) : active_(Profiler::enabled())
    {
        if (active_)
            Profiler::instance().enterScope(name);
    }

    explicit ProfScope(const std::string &name)
        : active_(Profiler::enabled())
    {
        if (active_)
            Profiler::instance().enterScope(name);
    }

    ~ProfScope()
    {
        if (active_)
            Profiler::instance().exitScope();
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    bool active_;
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_PROF_HH
