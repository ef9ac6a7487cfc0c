/**
 * @file
 * Fixed-capacity ring buffer for time-series samples.
 *
 * The metrics store keeps bounded history per instrument (raw samples
 * plus downsampled buckets); every level is one of these rings, so an
 * unbounded simulation run uses bounded monitoring memory. Storage is
 * allocated lazily on the first push: most instruments are
 * exposition-only and never pay for a ring.
 */

#ifndef AKITA_METRICS_RING_HH
#define AKITA_METRICS_RING_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace akita
{
namespace metrics
{

/**
 * A bounded FIFO that overwrites its oldest element when full.
 *
 * Not thread-safe; callers (MultiResSeries) serialize access.
 */
template <typename T>
class Ring
{
  public:
    explicit Ring(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity)
    {
    }

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Appends @p v, evicting the oldest element when full. */
    void
    push(const T &v)
    {
        if (buf_.empty())
            buf_.resize(capacity_);
        buf_[(head_ + size_) % capacity_] = v;
        if (size_ < capacity_)
            size_++;
        else
            head_ = (head_ + 1) % capacity_;
    }

    /** Element @p i with 0 = oldest retained. */
    const T &
    at(std::size_t i) const
    {
        return buf_[(head_ + i) % capacity_];
    }

    /** Newest element; ring must be non-empty. */
    const T &back() const { return at(size_ - 1); }

    /** Copies the newest @p newest retained elements, oldest first. */
    std::vector<T>
    snapshot(std::size_t newest = SIZE_MAX) const
    {
        std::size_t n = std::min(size_, newest);
        std::size_t start = (head_ + size_ - n) % capacity_;
        // Two contiguous runs, [start, end) then from the front: no
        // modulo per element.
        std::size_t first = std::min(n, capacity_ - start);
        std::vector<T> out;
        out.reserve(n);
        out.insert(out.end(), buf_.begin() + start,
                   buf_.begin() + start + first);
        out.insert(out.end(), buf_.begin(), buf_.begin() + (n - first));
        return out;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    std::size_t capacity_;
    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace metrics
} // namespace akita

#endif // AKITA_METRICS_RING_HH
