#include "sim/buffer.hh"

#include <stdexcept>

namespace akita
{
namespace sim
{

Buffer::Buffer(std::string name, std::size_t capacity)
    : name_(std::move(name)), capacity_(capacity == 0 ? 1 : capacity),
      slots_(std::make_unique<MsgPtr[]>(capacity_))
{
    declareField("size", [this]() {
        return introspect::Value::ofInt(static_cast<std::int64_t>(size()));
    });
    declareField("capacity", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(capacity_));
    });
    declareField("total_pushed", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(totalPushed()));
    });
    declareField("peak_size", [this]() {
        return introspect::Value::ofInt(
            static_cast<std::int64_t>(peakSize()));
    });
}

void
Buffer::overflow() const
{
    throw std::runtime_error("buffer overflow on " + name_ +
                             ": push on a full buffer");
}

MsgPtr
Buffer::popMatching(const std::function<bool(const Msg &)> &pred)
{
    for (std::size_t i = 0; i < size_; i++) {
        if (!pred(*slots_[slot(i)]))
            continue;
        MsgPtr m = std::move(slots_[slot(i)]);
        // Close the gap: the younger messages each move up one slot,
        // so the rest stay in FIFO order.
        for (std::size_t j = i + 1; j < size_; j++)
            slots_[slot(j - 1)] = std::move(slots_[slot(j)]);
        size_--;
        occupancy_.set(static_cast<double>(size_));
        return m;
    }
    return nullptr;
}

void
Buffer::clear()
{
    for (std::size_t i = 0; i < size_; i++)
        slots_[slot(i)] = nullptr;
    head_ = 0;
    size_ = 0;
    occupancy_.set(0);
}

} // namespace sim
} // namespace akita
