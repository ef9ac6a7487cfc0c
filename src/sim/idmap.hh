/**
 * @file
 * Flat hash table keyed by message and work-group ids.
 */

#ifndef AKITA_SIM_IDMAP_HH
#define AKITA_SIM_IDMAP_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace akita
{
namespace sim
{

/**
 * An id -> V table for in-flight request bookkeeping (return paths,
 * outstanding accesses).
 *
 * Open addressing with linear probing over a power-of-two slot array,
 * kept at most half full: the home slot is a multiplicative (Fibonacci)
 * hash, so finding it takes a multiply and a shift instead of
 * std::unordered_map's `% bucket_count` division, and entries live in
 * the array, so insert and erase allocate nothing once the table has
 * grown to its working size. Erase shifts the rest of the probe chain
 * back instead of leaving tombstones, so lookups never slow down with
 * churn.
 *
 * The slot order is not insertion order and changes on growth; the
 * table has no iteration, so nothing simulated can come to depend on
 * it. Key ~0 marks an empty slot and cannot be stored (message ids
 * come from a 64-bit counter and never reach it).
 */
template <typename V>
class IdMap
{
  public:
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Slots allocated (0 until the first insert; a power of two). */
    std::size_t capacity() const { return slots_.size(); }

    /** The value stored under @p key; null when absent. */
    V *
    find(std::uint64_t key)
    {
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (s.key == key)
                return &s.value;
            if (s.key == kEmptyKey)
                return nullptr;
        }
    }

    const V *
    find(std::uint64_t key) const
    {
        return const_cast<IdMap *>(this)->find(key);
    }

    /** The value under @p key, value-initialized when absent. */
    V &
    operator[](std::uint64_t key)
    {
        assert(key != kEmptyKey);
        if ((size_ + 1) * 2 > slots_.size())
            grow();
        std::size_t i = home(key);
        while (slots_[i].key != key) {
            if (slots_[i].key == kEmptyKey) {
                slots_[i].key = key;
                size_++;
                break;
            }
            i = (i + 1) & mask_;
        }
        return slots_[i].value;
    }

    /**
     * Removes @p key. Later entries of its probe chain that may not
     * sit before their home slot move back into the gap.
     *
     * @return True when the key was present.
     */
    bool
    erase(std::uint64_t key)
    {
        if (size_ == 0)
            return false;
        std::size_t i = home(key);
        while (slots_[i].key != key) {
            if (slots_[i].key == kEmptyKey)
                return false;
            i = (i + 1) & mask_;
        }
        for (std::size_t j = (i + 1) & mask_;; j = (j + 1) & mask_) {
            Slot &s = slots_[j];
            if (s.key == kEmptyKey)
                break;
            // s may fill the gap at i unless its home lies cyclically
            // in (i, j]: then it would sit before its home slot.
            if (((j - home(s.key)) & mask_) < ((j - i) & mask_))
                continue;
            slots_[i].key = s.key;
            slots_[i].value = std::move(s.value);
            i = j;
        }
        slots_[i].key = kEmptyKey;
        slots_[i].value = V{};
        size_--;
        return true;
    }

    /**
     * First slot probed for @p key in a table of @p capacity slots (a
     * power of two): the top bits of the Fibonacci product, which mix
     * every key bit, so consecutive ids spread over the table.
     */
    static std::size_t
    homeSlot(std::uint64_t key, std::size_t capacity)
    {
        return hash(key, 64 - std::countr_zero(capacity));
    }

  private:
    struct Slot
    {
        std::uint64_t key = kEmptyKey;
        V value{};
    };

    static std::size_t
    hash(std::uint64_t key, int shift)
    {
        return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                        shift);
    }

    std::size_t home(std::uint64_t key) const { return hash(key, shift_); }

    /** Doubles the slot array (16 at first) and rehashes into it. */
    void
    grow()
    {
        std::vector<Slot> old(slots_.empty() ? 16 : slots_.size() * 2);
        old.swap(slots_);
        mask_ = slots_.size() - 1;
        shift_ = 64 - std::countr_zero(slots_.size());
        for (Slot &s : old) {
            if (s.key == kEmptyKey)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].key != kEmptyKey)
                i = (i + 1) & mask_;
            slots_[i].key = s.key;
            slots_[i].value = std::move(s.value);
        }
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    /** 64 - log2(capacity): the hash keeps the product's top bits. */
    int shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_IDMAP_HH
