#include "sim/pool.hh"

#include <mutex>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define AKITA_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AKITA_POOL_ASAN 1
#endif
#endif

namespace akita
{
namespace sim
{

namespace
{

thread_local std::uint64_t tlsAllocs = 0;

#ifndef AKITA_POOL_ASAN

/** Blocks are multiples of kClassBytes, up to kMaxBlock. */
constexpr std::size_t kClassBytes = 64;
constexpr std::size_t kMaxBlock = 1024;
static_assert(kClassBytes % alignof(std::max_align_t) == 0);
constexpr std::size_t kNumClasses = kMaxBlock / kClassBytes;
constexpr std::size_t kChunkBytes = 64 * 1024;

/** Lives in a free block. */
struct FreeNode
{
    FreeNode *next;
};

/** One thread's freelists and the uncarved rest of its chunk. */
struct Lists
{
    FreeNode *free[kNumClasses];
    char *carve;
    char *carveEnd;
};

/**
 * Lists of exited threads, which new threads adopt, and every chunk, so
 * chunks stay reachable. Leaked, so a thread that exits after main()
 * still finds it.
 */
struct Spare
{
    std::mutex mu;
    std::vector<Lists> lists;
    std::vector<char *> chunks;
};

Spare &
spare()
{
    static Spare *s = new Spare;
    return *s;
}

// Trivially destructible, so both stay usable while other thread-local
// destructors run. A block freed after the Parker has run stays on this
// thread's lists and is not reused, but its chunk stays reachable.
thread_local Lists tls = {};
thread_local bool tlsStarted = false;

/** Parks the thread's lists in the spare set when the thread exits. */
struct Parker
{
    ~Parker()
    {
        Spare &s = spare();
        std::lock_guard<std::mutex> lk(s.mu);
        s.lists.push_back(tls);
        tls = {};
    }
};

/**
 * Runs on a thread's first empty-list alloc or free, while its lists
 * are still empty: adopts a parked set, if any, and arranges for its
 * own to be parked at exit.
 */
void
start()
{
    thread_local Parker parker;
    (void)parker;
    tlsStarted = true;
    Spare &s = spare();
    std::lock_guard<std::mutex> lk(s.mu);
    if (!s.lists.empty()) {
        tls = s.lists.back();
        s.lists.pop_back();
    }
}

constexpr std::size_t
blockBytes(std::size_t cls)
{
    return (cls + 1) * kClassBytes;
}

void *
allocSlow(std::size_t cls)
{
    if (!tlsStarted)
        start();
    if (FreeNode *node = tls.free[cls]) { // Adopted.
        tls.free[cls] = node->next;
        return node;
    }
    std::size_t n = blockBytes(cls);
    if (static_cast<std::size_t>(tls.carveEnd - tls.carve) < n) {
        // Chunks come from ::operator new, so every block is aligned
        // for any fundamental type.
        char *chunk = static_cast<char *>(::operator new(kChunkBytes));
        tls.carve = chunk;
        tls.carveEnd = chunk + kChunkBytes;
        Spare &s = spare();
        std::lock_guard<std::mutex> lk(s.mu);
        s.chunks.push_back(chunk);
    }
    void *block = tls.carve;
    tls.carve += n;
    return block;
}

#endif // AKITA_POOL_ASAN

} // namespace

// Under AddressSanitizer every block comes from ::operator new, so ASan
// reports a use after free with both stacks and LeakSanitizer sees
// every message and event.

void *
poolAlloc(std::size_t n)
{
    tlsAllocs++;
#ifdef AKITA_POOL_ASAN
    return ::operator new(n);
#else
    if (n > kMaxBlock)
        return ::operator new(n);
    std::size_t cls = (n - 1) / kClassBytes;
    FreeNode *node = tls.free[cls];
    if (node == nullptr)
        return allocSlow(cls);
    tls.free[cls] = node->next;
    return node;
#endif
}

void
poolFree(void *p, std::size_t n) noexcept
{
#ifdef AKITA_POOL_ASAN
    ::operator delete(p, n);
#else
    if (n > kMaxBlock) {
        ::operator delete(p, n);
        return;
    }
    std::size_t cls = (n - 1) / kClassBytes;
    // A thread that only frees starts here, on its first empty list.
    if (tls.free[cls] == nullptr && !tlsStarted)
        start();
    auto *node = static_cast<FreeNode *>(p);
    node->next = tls.free[cls];
    tls.free[cls] = node;
#endif
}

std::uint64_t
poolAllocCount()
{
    return tlsAllocs;
}

} // namespace sim
} // namespace akita
