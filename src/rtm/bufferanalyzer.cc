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
    // Rank bare (buffer, size, capacity) rows and copy names and head
    // kinds only for the rows returned: this runs under the engine
    // lock, and a top-30 view of ~700 buffers needs 30 names.
    struct Row
    {
        const sim::Buffer *buf;
        std::size_t size;
        std::size_t capacity;
    };
    std::vector<Row> rows;
    for (sim::Component *c : registry_->all()) {
        for (sim::Buffer *b : c->buffers()) {
            if (!include_empty && b->empty())
                continue;
            rows.push_back(Row{b, b->size(), b->capacity()});
        }
    }

    auto bySize = [](const Row &a, const Row &b) {
        if (a.size != b.size)
            return a.size > b.size;
        return a.buf->name() < b.buf->name();
    };
    auto byPercent = [](const Row &a, const Row &b) {
        double pa = bufferPercent(a.size, a.capacity);
        double pb = bufferPercent(b.size, b.capacity);
        if (pa != pb)
            return pa > pb;
        if (a.size != b.size)
            return a.size > b.size;
        return a.buf->name() < b.buf->name();
    };
    std::size_t n = top_n == 0 ? rows.size() : std::min(top_n, rows.size());
    std::partial_sort(rows.begin(), rows.begin() + n, rows.end(),
                      sort == BufferSort::BySize ? bySize : byPercent);

    std::vector<BufferLevel> out(n);
    for (std::size_t i = 0; i < n; i++) {
        out[i].name = rows[i].buf->name();
        out[i].size = rows[i].size;
        out[i].capacity = rows[i].capacity;
        if (const sim::MsgPtr &head = rows[i].buf->peek())
            out[i].headKind = head->kind();
    }
    return out;
}

} // namespace rtm
} // namespace akita
