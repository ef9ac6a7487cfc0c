#include "sim/event.hh"

#include <algorithm>
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
    Bucket *&b = buckets_[t];
    if (b == nullptr) {
        if (spare_.empty()) {
            pool_.push_back(std::make_unique<Bucket>());
            b = pool_.back().get();
        } else {
            b = spare_.back();
            spare_.pop_back();
        }
        // Invariant: the heap holds every timestamp in the map once.
        timesHeap_.push_back(t);
        std::push_heap(timesHeap_.begin(), timesHeap_.end(),
                       std::greater<VTime>());
    }
    return b;
}

EventQueue::Bucket *
EventQueue::frontBucket() const
{
    if (front_ != nullptr && front_->live())
        return front_;
    front_ = nullptr;
    while (!timesHeap_.empty()) {
        VTime t = timesHeap_.front();
        Bucket *b = *buckets_.find(t);
        if (b->live()) {
            front_ = b;
            frontTime_ = t;
            return front_;
        }
        std::pop_heap(timesHeap_.begin(), timesHeap_.end(),
                      std::greater<VTime>());
        timesHeap_.pop_back();
        buckets_.erase(t);
        if (last_ == b)
            last_ = nullptr;
        // pop() already emptied the drained vectors.
        spare_.push_back(b);
    }
    return nullptr;
}

VTime
EventQueue::peekTime() const
{
    frontBucket();
    return frontTime_;
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
    return {frontTime_, e};
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
