#include "metrics/series.hh"

namespace akita
{
namespace metrics
{

void
MultiResSeries::record(std::int64_t wall_ms, std::uint64_t sim_ps,
                       double value)
{
    std::lock_guard<std::mutex> lk(mu_);
    RawSample s{wall_ms, sim_ps, value};
    raw_.push(s);
    totalRecorded_++;

    std::int64_t b1 = bucketStart(wall_ms, kBucket1Ms);
    if (open1Valid_ && b1 > open1_.startMs) {
        r1_.push(open1_);
        open1_ = AggBucket{};
        open1Valid_ = false;
    }
    if (!open1Valid_) {
        open1_ = AggBucket{};
        open1_.startMs = b1;
        open1Valid_ = true;
    }
    // Out-of-order timestamps (b1 < startMs) fold into the open bucket
    // rather than rewriting closed history.
    open1_.fold(s);

    std::int64_t b10 = bucketStart(wall_ms, kBucket10Ms);
    if (open10Valid_ && b10 > open10_.startMs) {
        r10_.push(open10_);
        open10_ = AggBucket{};
        open10Valid_ = false;
    }
    if (!open10Valid_) {
        open10_ = AggBucket{};
        open10_.startMs = b10;
        open10Valid_ = true;
    }
    open10_.fold(s);
}

std::vector<RawSample>
MultiResSeries::rawSnapshot(std::size_t newest) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return raw_.snapshot(newest);
}

std::vector<AggBucket>
MultiResSeries::query(std::int64_t from_ms, std::int64_t to_ms,
                      std::int64_t step_ms) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<AggBucket> out;

    auto inRange = [&](std::int64_t t) {
        return t >= from_ms && t <= to_ms;
    };

    if (step_ms >= kBucket10Ms) {
        for (std::size_t i = 0; i < r10_.size(); i++) {
            if (inRange(r10_.at(i).startMs))
                out.push_back(r10_.at(i));
        }
        if (open10Valid_ && inRange(open10_.startMs))
            out.push_back(open10_);
    } else if (step_ms >= kBucket1Ms) {
        for (std::size_t i = 0; i < r1_.size(); i++) {
            if (inRange(r1_.at(i).startMs))
                out.push_back(r1_.at(i));
        }
        if (open1Valid_ && inRange(open1_.startMs))
            out.push_back(open1_);
    } else {
        for (std::size_t i = 0; i < raw_.size(); i++) {
            const RawSample &s = raw_.at(i);
            if (!inRange(s.wallMs))
                continue;
            AggBucket b;
            b.startMs = s.wallMs;
            b.fold(s);
            out.push_back(b);
        }
    }
    return out;
}

std::uint64_t
MultiResSeries::totalRecorded() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return totalRecorded_;
}

} // namespace metrics
} // namespace akita
