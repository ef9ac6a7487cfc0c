#include "rtm/bufferanalyzer.hh"

#include <algorithm>

namespace akita
{
namespace rtm
{

std::vector<BufferLevel>
BufferAnalyzer::snapshot(BufferSort sort, std::size_t top_n,
                         bool include_empty) const
{
    std::vector<BufferLevel> out;
    for (sim::Component *c : registry_->all()) {
        for (sim::Buffer *b : c->buffers()) {
            if (!include_empty && b->empty())
                continue;
            BufferLevel level;
            level.name = b->name();
            level.size = b->size();
            level.capacity = b->capacity();
            if (sim::MsgPtr head = b->peek())
                level.headKind = head->kind();
            out.push_back(std::move(level));
        }
    }

    auto bySize = [](const BufferLevel &a, const BufferLevel &b) {
        if (a.size != b.size)
            return a.size > b.size;
        return a.name < b.name;
    };
    auto byPercent = [](const BufferLevel &a, const BufferLevel &b) {
        double pa = a.percent();
        double pb = b.percent();
        if (pa != pb)
            return pa > pb;
        if (a.size != b.size)
            return a.size > b.size;
        return a.name < b.name;
    };
    std::sort(out.begin(), out.end(),
              sort == BufferSort::BySize ? bySize : byPercent);

    if (top_n != 0 && out.size() > top_n)
        out.resize(top_n);
    return out;
}

} // namespace rtm
} // namespace akita
