/**
 * @file
 * Messages exchanged between component ports.
 *
 * Hot-path memory model (DESIGN.md §10): messages are pooled,
 * intrusively refcounted, and tagged. Every `new` of a Msg subclass is
 * served by the per-thread pool's freelists, and sized delete returns
 * the block by its type's size, so a block has no header. `MsgPtr` is
 * an intrusive pointer whose copy is a plain increment (no shared_ptr
 * control block, no separate allocation, no atomic); and downcasts go
 * through a `MsgKind` tag compare instead of RTTI
 * `dynamic_pointer_cast`. Reads borrow
 * (`peek` returns a reference, `msgCast` a raw pointer); only keeping a
 * message and sending it take a reference.
 */

#ifndef AKITA_SIM_MSG_HH
#define AKITA_SIM_MSG_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "sim/pool.hh"
#include "sim/time.hh"

namespace akita
{
namespace sim
{

class Port;

/**
 * Registry of concrete message types, used by msgCast to downcast
 * without RTTI. Every Msg subclass that participates in cross-kind
 * dispatch declares `static constexpr MsgKind kKind = MsgKind::X;` and
 * passes it to the Msg constructor. One tag per concrete type: tags are
 * compared for exact equality, so kinds form a flat namespace, not a
 * hierarchy.
 */
enum class MsgKind : std::uint8_t
{
    /** Untagged base messages (and test messages without a tag). */
    Generic = 0,
    // Memory hierarchy (src/mem).
    MemReq,
    MemRsp,
    // GPU control plane (src/gpu).
    LaunchKernel,
    PartitionDone,
    WgProgress,
    MapWg,
    WgDone,
    // Reserved for tests and benchmarks.
    TestA,
    TestB,
};

/**
 * Base class for all messages.
 *
 * Components communicate exclusively by exchanging messages through
 * ports (the isolation that lets the monitor observe components
 * individually). Subclasses add payloads (memory requests, kernel launch
 * commands, ...).
 */
class Msg
{
  public:
    Msg() : id_(allocId()) {}

    explicit Msg(MsgKind kind) : id_(allocId()), kindTag_(kind) {}

    virtual ~Msg() = default;

    /** Tag matched by msgCast when no subclass overrides it. */
    static constexpr MsgKind kKind = MsgKind::Generic;

    // All message allocations go through the per-thread pool.
    // Class-scope operators cover every subclass (makeMsg below ends in
    // a plain `new T`). Deletion through a base pointer resolves to the
    // sized delete via the virtual destructor, which passes the
    // concrete type's size back to the pool.
    static void *operator new(std::size_t n) { return poolAlloc(n); }

    static void
    operator delete(void *p, std::size_t n) noexcept
    {
        poolFree(p, n);
    }

    /** Process-unique message id. */
    std::uint64_t id() const { return id_; }

    /** Concrete-type tag; set once at construction. */
    MsgKind kindTag() const { return kindTag_; }

    /** Short type label shown by the monitor. */
    virtual const char *kind() const { return "Msg"; }

    // Intrusive refcount, managed by IntrusivePtr. Public methods so
    // the pointer template needs no friendship into every subclass.
    // A plain counter: a message belongs to one simulation, and only
    // its simulation thread takes or drops references (monitor threads
    // borrow under Engine::withLock and never copy a MsgPtr).
    void retain() const { refs_++; }

    void
    release() const
    {
        if (--refs_ == 0)
            delete this;
    }

    /** Sender port; set by Port::send. */
    Port *src = nullptr;
    /** Destination port; set by the sender before send. */
    Port *dst = nullptr;
    /**
     * Final destination for multi-hop networks: switches forward
     * toward this port, rewriting dst per hop. Null for single-hop
     * traffic (dst is the final destination).
     */
    Port *finalDst = nullptr;
    /**
     * Return address for multi-hop networks: src is rewritten per hop,
     * so endpoints that must answer record this instead. Null on
     * single-hop fabrics (answer to src).
     */
    Port *replyTo = nullptr;
    /** Virtual time at which the message was sent. */
    VTime sendTime = 0;
    /** Bytes on the wire (drives network bandwidth modeling). */
    std::uint32_t trafficBytes = 4;

  private:
    /** Ids a thread takes from nextId_ at a time. */
    static constexpr std::uint64_t kIdBlock = 4096;

    /**
     * Next id from this thread's block: one shared fetch_add per
     * kIdBlock messages instead of one per message. Ids stay
     * process-unique; they are no longer ordered across threads.
     */
    static std::uint64_t
    allocId()
    {
        thread_local std::uint64_t next = 0, end = 0;
        if (next == end) {
            next = nextId_.fetch_add(kIdBlock, std::memory_order_relaxed);
            end = next + kIdBlock;
        }
        return next++;
    }

    static std::atomic<std::uint64_t> nextId_;
    mutable std::uint32_t refs_ = 0;
    std::uint64_t id_;
    MsgKind kindTag_ = MsgKind::Generic;
};

/**
 * Intrusive refcounted pointer to a Msg subclass.
 *
 * Copying costs one plain increment of the count embedded in the
 * message itself — no control block, no second allocation, no
 * weak-count bookkeeping (the simulation never needs weak references).
 * The last destruction deletes the message back to the pool.
 */
template <typename T>
class IntrusivePtr
{
  public:
    using element_type = T;

    constexpr IntrusivePtr() noexcept = default;
    constexpr IntrusivePtr(std::nullptr_t) noexcept {}

    explicit IntrusivePtr(T *p) noexcept : p_(p)
    {
        if (p_ != nullptr)
            p_->retain();
    }

    IntrusivePtr(const IntrusivePtr &o) noexcept : p_(o.p_)
    {
        if (p_ != nullptr)
            p_->retain();
    }

    IntrusivePtr(IntrusivePtr &&o) noexcept : p_(o.p_) { o.p_ = nullptr; }

    /** Derived-to-base conversion (MemReqPtr -> MsgPtr). */
    template <typename U,
              typename = std::enable_if_t<std::is_convertible_v<U *, T *>>>
    IntrusivePtr(const IntrusivePtr<U> &o) noexcept : p_(o.get())
    {
        if (p_ != nullptr)
            p_->retain();
    }

    template <typename U,
              typename = std::enable_if_t<std::is_convertible_v<U *, T *>>>
    IntrusivePtr(IntrusivePtr<U> &&o) noexcept : p_(o.detach())
    {
    }

    ~IntrusivePtr()
    {
        if (p_ != nullptr)
            p_->release();
    }

    IntrusivePtr &
    operator=(const IntrusivePtr &o) noexcept
    {
        IntrusivePtr(o).swap(*this);
        return *this;
    }

    IntrusivePtr &
    operator=(IntrusivePtr &&o) noexcept
    {
        IntrusivePtr(std::move(o)).swap(*this);
        return *this;
    }

    IntrusivePtr &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    void
    reset() noexcept
    {
        if (p_ != nullptr) {
            p_->release();
            p_ = nullptr;
        }
    }

    void
    swap(IntrusivePtr &o) noexcept
    {
        T *t = p_;
        p_ = o.p_;
        o.p_ = t;
    }

    /** Releases ownership without touching the refcount. */
    T *
    detach() noexcept
    {
        T *t = p_;
        p_ = nullptr;
        return t;
    }

    /** Takes ownership of an already-retained pointer. */
    static IntrusivePtr
    adopt(T *p) noexcept
    {
        IntrusivePtr r;
        r.p_ = p;
        return r;
    }

    T *get() const noexcept { return p_; }
    T &operator*() const noexcept { return *p_; }
    T *operator->() const noexcept { return p_; }
    explicit operator bool() const noexcept { return p_ != nullptr; }

  private:
    T *p_ = nullptr;
};

template <typename T, typename U>
bool
operator==(const IntrusivePtr<T> &a, const IntrusivePtr<U> &b) noexcept
{
    return a.get() == b.get();
}

template <typename T>
bool
operator==(const IntrusivePtr<T> &a, std::nullptr_t) noexcept
{
    return a.get() == nullptr;
}

using MsgPtr = IntrusivePtr<Msg>;

/** Allocates a message from the pool; the replacement for make_shared. */
template <typename T, typename... Args>
IntrusivePtr<T>
makeMsg(Args &&...args)
{
    T *p = new T(std::forward<Args>(args)...);
    p->retain();
    return IntrusivePtr<T>::adopt(p);
}

/**
 * Borrowing downcast with null propagation.
 *
 * RTTI-free: compares the message's kind tag against T::kKind. A cast
 * to the wrong kind returns null, exactly like the old
 * dynamic_pointer_cast. The result borrows @p msg's reference and
 * touches no refcount: it is valid only while @p msg (or the buffer
 * slot it names) holds the message. A site that keeps the message
 * builds an IntrusivePtr<T> from it explicitly.
 */
template <typename T>
T *
msgCast(const MsgPtr &msg)
{
    if (msg == nullptr || msg->kindTag() != T::kKind)
        return nullptr;
    return static_cast<T *>(msg.get());
}

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_MSG_HH
