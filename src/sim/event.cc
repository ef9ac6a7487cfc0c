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

void
EventQueue::push(EventPtr event)
{
    VTime t = event->time();
    if (last_ == nullptr || lastTime_ != t) {
        last_ = bucketAt(t);
        lastTime_ = t;
    }
    // A push ahead of the cached front becomes the new front.
    if (front_ != nullptr && t < frontTime_)
        front_ = nullptr;
    if (event->isSecondary())
        last_->secondary.push_back(std::move(event));
    else
        last_->primary.push_back(std::move(event));
    size_++;
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
    Bucket *b = frontBucket();
    return b->livePrimary() ? b->primary[b->primaryHead]->time()
                            : b->secondary[b->secondaryHead]->time();
}

EventPtr
EventQueue::pop()
{
    Bucket *b = frontBucket();
    EventPtr out;
    if (b->livePrimary()) {
        out = std::move(b->primary[b->primaryHead++]);
        if (!b->livePrimary()) {
            b->primary.clear();
            b->primaryHead = 0;
        }
    } else {
        out = std::move(b->secondary[b->secondaryHead++]);
        if (!b->liveSecondary()) {
            b->secondary.clear();
            b->secondaryHead = 0;
        }
    }
    size_--;
    return out;
}

} // namespace sim
} // namespace akita
