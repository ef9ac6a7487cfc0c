#include "sim/event.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace akita
{
namespace sim
{

EventQueue::Bucket *
EventQueue::bucketAt(VTime t)
{
    if (t == kReservedTime) {
        throw std::runtime_error("cannot schedule event at t=" +
                                 std::to_string(t) +
                                 " (reserved time)");
    }
    const VTime q = quantum(t);
    const std::size_t s = slotOf(q);
    Bucket **link = &slots_[s];
    while (*link != nullptr && (*link)->time < t)
        link = &(*link)->next;
    if (*link != nullptr && (*link)->time == t)
        return *link;
    Bucket *b;
    if (spare_.empty()) {
        pool_.push_back(std::make_unique<Bucket>());
        b = pool_.back().get();
    } else {
        b = spare_.back();
        spare_.pop_back();
    }
    b->time = t;
    b->next = *link;
    *link = b;
    occupied_[s / 64] |= std::uint64_t{1} << (s % 64);
    if (q < cursor_)
        cursor_ = q;
    return b;
}

std::size_t
EventQueue::nextOccupied(std::size_t from) const
{
    from &= kSlots - 1;
    std::size_t w = from / 64;
    // The first word from @p from up, the other words whole, then the
    // first word again below @p from.
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (from % 64));
    for (std::size_t i = 0; i < kWords; i++) {
        if (bits != 0)
            return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        w = (w + 1) % kWords;
        bits = occupied_[w];
    }
    bits &= ~(~std::uint64_t{0} << (from % 64));
    return bits != 0
               ? w * 64 + static_cast<std::size_t>(std::countr_zero(bits))
               : kSlots;
}

VTime
EventQueue::earliestHead() const
{
    VTime best = kReservedTime;
    for (std::size_t w = 0; w < kWords; w++) {
        for (std::uint64_t bits = occupied_[w]; bits != 0;
             bits &= bits - 1) {
            const std::size_t s =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            best = std::min(best, slots_[s]->time);
        }
    }
    return best;
}

EventQueue::Bucket *
EventQueue::frontBucket() const
{
    if (front_ != nullptr && front_->live())
        return front_;
    front_ = nullptr;
    // Invariant: no bucket's quantum is below cursor_, so a slot's head
    // is the earliest bucket on the wheel once its quantum is cursor_.
    VTime turnEnd = cursor_ + kSlots;
    for (;;) {
        const std::size_t s = slotOf(cursor_);
        Bucket *b = slots_[s];
        while (b != nullptr && quantum(b->time) == cursor_) {
            if (b->live()) {
                front_ = b;
                return b;
            }
            // Drained by pop(), which already emptied its vectors.
            slots_[s] = b->next;
            if (last_ == b)
                last_ = nullptr;
            spare_.push_back(b);
            b = slots_[s];
        }
        if (b == nullptr)
            occupied_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
        const std::size_t next = nextOccupied(s + 1);
        if (next == kSlots)
            return nullptr;
        // Skip the empty slots between; a slot whose head belongs to a
        // later turn is passed over like an empty one.
        cursor_ += ((next - s - 1) & (kSlots - 1)) + 1;
        if (cursor_ >= turnEnd) {
            // Nothing within one turn: jump to the earliest bucket.
            cursor_ = quantum(earliestHead());
            turnEnd = cursor_ + kSlots;
        }
    }
}

EventQueue::Popped
EventQueue::pop()
{
    Bucket *b = frontBucket();
    bool primary = b->livePrimary();
    std::vector<QueueEntry> &phase = primary ? b->primary : b->secondary;
    std::size_t &head = primary ? b->primaryHead : b->secondaryHead;
    QueueEntry e = phase[head++];
    if (head == phase.size()) {
        phase.clear();
        head = 0;
    }
    size_--;
    return {b->time, e};
}

EventQueue::~EventQueue()
{
    // Drained vectors are cleared as they drain, so what remains past
    // each head is exactly the queued entries.
    for (const auto &b : pool_) {
        for (std::size_t i = b->primaryHead; i < b->primary.size(); i++)
            b->primary[i].dispose();
        for (std::size_t i = b->secondaryHead; i < b->secondary.size();
             i++)
            b->secondary[i].dispose();
    }
}

void
QueueEntry::dispose() const
{
    switch (kind()) {
    case Kind::Tick:
        break;
    case Kind::Delivery:
        msg()->release();
        break;
    case Kind::Owned:
        delete event();
        break;
    }
}

} // namespace sim
} // namespace akita
