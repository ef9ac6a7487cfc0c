#include "sim/event.hh"

#include <algorithm>

namespace akita
{
namespace sim
{

void
EventQueue::push(EventPtr event)
{
    VTime t = event->time();
    auto it = buckets_.find(t);
    if (it == buckets_.end()) {
        if (!spareNodes_.empty()) {
            // Reuse a drained node: the rehash-free insert keeps the
            // bucket's vector capacity from its previous life.
            auto nh = std::move(spareNodes_.back());
            spareNodes_.pop_back();
            nh.key() = t;
            it = buckets_.insert(std::move(nh)).position;
        } else {
            it = buckets_.try_emplace(t).first;
        }
    }
    Bucket &b = it->second;
    bool wasLive = b.live();
    if (event->isSecondary())
        b.secondary.push_back(std::move(event));
    else
        b.primary.push_back(std::move(event));
    if (!wasLive) {
        // Invariant: the heap holds every live timestamp at least once.
        // Re-pushing a timestamp whose stale entry is still queued only
        // creates a harmless duplicate that pruning discards later.
        timesHeap_.push_back(t);
        std::push_heap(timesHeap_.begin(), timesHeap_.end(),
                       std::greater<VTime>());
    }
    size_++;
}

EventQueue::Bucket *
EventQueue::frontBucket() const
{
    while (!timesHeap_.empty()) {
        VTime t = timesHeap_.front();
        auto it = buckets_.find(t);
        if (it != buckets_.end() && it->second.live())
            return &it->second;
        std::pop_heap(timesHeap_.begin(), timesHeap_.end(),
                      std::greater<VTime>());
        timesHeap_.pop_back();
        if (it != buckets_.end() && !it->second.live()) {
            auto nh = buckets_.extract(it);
            if (spareNodes_.size() < kMaxSpareNodes) {
                Bucket &b = nh.mapped();
                b.primary.clear();
                b.secondary.clear();
                b.primaryHead = 0;
                b.secondaryHead = 0;
                spareNodes_.push_back(std::move(nh));
            }
        }
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
