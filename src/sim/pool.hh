/**
 * @file
 * Per-thread freelists for messages and events (DESIGN.md §10.1).
 *
 * `Msg` and `Event` route `new` and `delete` here through class-scope
 * operators, and sized delete hands back the size the type was
 * allocated with, so a block carries no header. Each thread keeps one
 * freelist per size class and refills an empty one by carving blocks
 * from a 64 KiB chunk. A free goes onto the freeing thread's list,
 * whichever thread allocated the block. Blocks too large for a class,
 * and every block in AddressSanitizer builds, go to ::operator new and
 * delete.
 */

#ifndef AKITA_SIM_POOL_HH
#define AKITA_SIM_POOL_HH

#include <cstddef>
#include <cstdint>

namespace akita
{
namespace sim
{

/**
 * Allocates @p n bytes, aligned for any type with fundamental
 * alignment, from the calling thread's lists. Never null.
 */
void *poolAlloc(std::size_t n);

/** Returns @p p, from poolAlloc(@p n) on any thread, to this thread. */
void poolFree(void *p, std::size_t n) noexcept;

/** poolAlloc calls the calling thread has made. */
std::uint64_t poolAllocCount();

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_POOL_HH
