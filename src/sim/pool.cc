#include "sim/pool.hh"

#include <atomic>
#include <memory>
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

#ifdef AKITA_POOL_ASAN
#include <sanitizer/asan_interface.h>
#define AKITA_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define AKITA_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define AKITA_POISON(p, n) ((void)(p), (void)(n))
#define AKITA_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace akita
{
namespace sim
{

namespace
{

/** Total block sizes (header + payload), ascending. */
constexpr std::size_t kClassSizes[] = {64, 128, 256, 512, 1024};
constexpr std::size_t kNumClasses =
    sizeof(kClassSizes) / sizeof(kClassSizes[0]);
constexpr std::size_t kSlabBytes = 64 * 1024;
/** Class tag for blocks served by ::operator new. */
constexpr std::uint32_t kOversize = 0xffffffffu;
/** Header size; keeps the payload aligned for any simulation object. */
constexpr std::size_t kHeaderSize = 16;
static_assert(kHeaderSize % alignof(std::max_align_t) == 0);

struct ThreadPool;

/** Precedes every block's payload. */
struct BlockHeader
{
    ThreadPool *owner; // Null for oversize blocks.
    std::uint32_t cls;
};
static_assert(sizeof(BlockHeader) <= kHeaderSize);

/** Lives in the payload of a freed block. */
struct FreeNode
{
    FreeNode *next;
};

// Under AddressSanitizer a free block's payload is poisoned, so a
// message or event used after its last release faults at that use
// instead of reading a recycled block. The freelist link lives in the
// poisoned payload; these two open it for the one access.

FreeNode *
linkOf(FreeNode *n)
{
    AKITA_UNPOISON(n, sizeof(FreeNode));
    FreeNode *next = n->next;
    AKITA_POISON(n, sizeof(FreeNode));
    return next;
}

void
setLink(FreeNode *n, FreeNode *next)
{
    AKITA_UNPOISON(n, sizeof(FreeNode));
    n->next = next;
    AKITA_POISON(n, sizeof(FreeNode));
}

/**
 * Owner-thread-only counter readable from other threads: a plain
 * load+store pair compiles to ordinary MOVs (no lock prefix), and the
 * atomic type keeps cross-thread readers TSan-clean.
 */
class OwnerCounter
{
  public:
    void
    inc(std::uint64_t by = 1)
    {
        v_.store(v_.load(std::memory_order_relaxed) + by,
                 std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> v_{0};
};

struct ThreadPool
{
    FreeNode *free[kNumClasses] = {};
    char *bump = nullptr;
    char *bumpEnd = nullptr;
    std::vector<std::unique_ptr<char[]>> slabs;

    /** Cross-thread return stack (Treiber push, drain-all pop). */
    std::atomic<FreeNode *> remote{nullptr};

    OwnerCounter allocs;
    OwnerCounter frees;
    OwnerCounter oversize;
    OwnerCounter slabBytes;
    /** Pushed by remote threads; the only contended counter. */
    std::atomic<std::uint64_t> remoteFrees{0};
};

/**
 * All pools ever created. Intentionally leaked (function-local static
 * pointer): blocks freed by static destructors after main() must still
 * find their owner pool alive.
 */
struct Registry
{
    std::mutex mu;
    std::vector<ThreadPool *> all;     // Never shrinks; pools leak.
    std::vector<ThreadPool *> orphans; // Pools whose thread exited.
};

Registry &
registry()
{
    static Registry *r = new Registry;
    return *r;
}

/**
 * Trivially-destructible TLS pointer: still readable while other
 * thread-local destructors run (poolFree during thread teardown takes
 * the remote path once the releaser below nulls it).
 */
thread_local ThreadPool *tlsPool = nullptr;

/** Parks the thread's pool for adoption when the thread exits. */
struct PoolReleaser
{
    ~PoolReleaser()
    {
        if (tlsPool == nullptr)
            return;
        Registry &r = registry();
        std::lock_guard<std::mutex> lk(r.mu);
        r.orphans.push_back(tlsPool);
        tlsPool = nullptr;
    }
};

ThreadPool *
currentPool()
{
    if (tlsPool != nullptr)
        return tlsPool;
    thread_local PoolReleaser releaser;
    (void)releaser;
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    ThreadPool *p;
    if (!r.orphans.empty()) {
        // Adopt a parked pool: its freelists and slabs carry over, and
        // the registry mutex orders the handoff after the old owner's
        // last use.
        p = r.orphans.back();
        r.orphans.pop_back();
    } else {
        p = new ThreadPool;
        r.all.push_back(p);
    }
    tlsPool = p;
    return p;
}

std::uint32_t
classFor(std::size_t total)
{
    for (std::uint32_t c = 0; c < kNumClasses; c++) {
        if (total <= kClassSizes[c])
            return c;
    }
    return kOversize;
}

BlockHeader *
headerOf(void *payload)
{
    return reinterpret_cast<BlockHeader *>(static_cast<char *>(payload) -
                                           kHeaderSize);
}

/** Moves every remotely-freed block back onto the class freelists. */
void
drainRemote(ThreadPool *p)
{
    // Acquire pairs with the release push in poolFree: the freeing
    // thread's last writes to the block happen-before its reuse here.
    FreeNode *n = p->remote.exchange(nullptr, std::memory_order_acquire);
    while (n != nullptr) {
        FreeNode *next = linkOf(n);
        std::uint32_t cls = headerOf(n)->cls;
        setLink(n, p->free[cls]);
        p->free[cls] = n;
        n = next;
    }
}

void
newSlab(ThreadPool *p)
{
    auto slab = std::make_unique<char[]>(kSlabBytes);
    char *base = slab.get();
    // Round the carve pointer up so every header (and therefore every
    // payload, kHeaderSize later) is 16-byte aligned.
    auto addr = reinterpret_cast<std::uintptr_t>(base);
    std::uintptr_t aligned = (addr + 15) & ~std::uintptr_t{15};
    p->bump = base + (aligned - addr);
    p->bumpEnd = base + kSlabBytes;
    p->slabs.push_back(std::move(slab));
    p->slabBytes.inc(kSlabBytes);
}

} // namespace

void *
poolAlloc(std::size_t n)
{
    std::uint32_t cls = classFor(n + kHeaderSize);
    if (cls == kOversize) {
        char *raw = static_cast<char *>(::operator new(n + kHeaderSize));
        auto *h = reinterpret_cast<BlockHeader *>(raw);
        h->owner = nullptr;
        h->cls = kOversize;
        currentPool()->oversize.inc();
        return raw + kHeaderSize;
    }

    ThreadPool *p = currentPool();
    if (p->free[cls] == nullptr)
        drainRemote(p);
    char *block;
    if (p->free[cls] != nullptr) {
        // Freelist nodes live in the payload, so step back to the
        // block start; the header survives from the original carve.
        FreeNode *node = p->free[cls];
        p->free[cls] = linkOf(node);
        block = reinterpret_cast<char *>(node) - kHeaderSize;
        AKITA_UNPOISON(node, kClassSizes[cls] - kHeaderSize);
    } else {
        std::size_t sz = kClassSizes[cls];
        if (static_cast<std::size_t>(p->bumpEnd - p->bump) < sz)
            newSlab(p);
        block = p->bump;
        p->bump += sz;
        auto *h = reinterpret_cast<BlockHeader *>(block);
        h->owner = p;
        h->cls = cls;
    }
    p->allocs.inc();
    return block + kHeaderSize;
}

void
poolFree(void *payload) noexcept
{
    if (payload == nullptr)
        return;
    BlockHeader *h = headerOf(payload);
    if (h->cls == kOversize) {
        ::operator delete(static_cast<void *>(h));
        return;
    }
    ThreadPool *owner = h->owner;
    auto *node = static_cast<FreeNode *>(payload);
    // Poison before the block is published: once on a list, the owner
    // may hand it out (and unpoison it) at any moment.
    AKITA_POISON(node, kClassSizes[h->cls] - kHeaderSize);
    if (owner == tlsPool) {
        setLink(node, owner->free[h->cls]);
        owner->free[h->cls] = node;
        owner->frees.inc();
        return;
    }
    // Not ours (or this thread is tearing down): hand the block back
    // through the owner's return stack. Release so the owner's acquire
    // drain sees the block's final state; no ABA because the drain
    // takes the entire stack in one exchange.
    FreeNode *head = owner->remote.load(std::memory_order_relaxed);
    do {
        setLink(node, head);
    } while (!owner->remote.compare_exchange_weak(
        head, node, std::memory_order_release, std::memory_order_relaxed));
    owner->remoteFrees.fetch_add(1, std::memory_order_relaxed);
}

PoolStats
poolStats()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    PoolStats s;
    s.pools = r.all.size();
    for (ThreadPool *p : r.all) {
        s.allocs += p->allocs.value();
        s.frees += p->frees.value();
        s.remoteFrees += p->remoteFrees.load(std::memory_order_relaxed);
        s.oversizeAllocs += p->oversize.value();
        s.slabBytes += p->slabBytes.value();
    }
    std::uint64_t returned = s.frees + s.remoteFrees;
    s.liveBlocks = s.allocs > returned ? s.allocs - returned : 0;
    return s;
}

} // namespace sim
} // namespace akita
