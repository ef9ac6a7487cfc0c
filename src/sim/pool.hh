/**
 * @file
 * Per-thread slab pool for hot-path simulation objects.
 *
 * Every simulated cycle allocates and frees at least one Event, and most
 * cycles move a handful of Msgs; going through malloc for each costs a
 * measurable fraction of the event loop (ISSUE 5 / the gem5
 * call-stack-profiling observation that event dispatch dominates
 * simulator runtime). The pool replaces that with a size-class freelist
 * carved out of 64 KiB slabs:
 *
 *  - Allocation is a thread-local freelist pop (or bump-pointer carve on
 *    a cold path); no lock, no atomic RMW.
 *  - A free from the owning thread is a freelist push.
 *  - A free from *another* thread (an event a monitor thread scheduled
 *    and the simulation thread executed, or a test that builds
 *    messages on one thread and runs the engine on another) pushes the
 *    block onto the owner's lock-free return stack (Treiber stack, release push /
 *    acquire drain-all), which the owner drains when a freelist runs
 *    empty. Draining pops the whole stack at once, so there is no ABA
 *    window.
 *  - Pools are never destroyed. A dying thread parks its pool on an
 *    orphan list and the next new thread adopts it, so blocks may safely
 *    outlive the thread that allocated them.
 *  - Built with AddressSanitizer, a freed block's payload is poisoned
 *    until it is handed out again, so a use after the last release is
 *    reported instead of reading a recycled block.
 *
 * Blocks carry a 16-byte header (owner pool + size class) so poolFree
 * needs no size argument and works from any thread. Requests larger
 * than the biggest size class fall through to ::operator new.
 *
 * Counters are published as relaxed atomics written only by the owning
 * thread (plain load+store, no RMW), so the metrics sampler can read
 * them from any thread without perturbing the hot path; see
 * `akita_sim_pool_*` in the /metrics exposition.
 */

#ifndef AKITA_SIM_POOL_HH
#define AKITA_SIM_POOL_HH

#include <cstddef>
#include <cstdint>

namespace akita
{
namespace sim
{

/** Aggregate pool counters across every thread's pool. */
struct PoolStats
{
    /** Blocks handed out (pooled classes only). */
    std::uint64_t allocs = 0;
    /** Blocks returned by their owning thread. */
    std::uint64_t frees = 0;
    /** Blocks returned through the cross-thread return stack. */
    std::uint64_t remoteFrees = 0;
    /** Requests larger than the biggest size class (malloc fallback). */
    std::uint64_t oversizeAllocs = 0;
    /** Bytes of slab memory reserved across all pools. */
    std::uint64_t slabBytes = 0;
    /** Pooled blocks currently live (allocs - frees - remoteFrees). */
    std::uint64_t liveBlocks = 0;
    /** Pools ever created (== peak number of allocating threads). */
    std::uint64_t pools = 0;
};

/** Allocates @p n bytes from the calling thread's pool. Never null. */
void *poolAlloc(std::size_t n);

/**
 * Returns a block obtained from poolAlloc. Safe from any thread,
 * including threads that are already running thread-local destructors.
 */
void poolFree(void *p) noexcept;

/** Sums the counters of every pool ever created. */
PoolStats poolStats();

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_POOL_HH
