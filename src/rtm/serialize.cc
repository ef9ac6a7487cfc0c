#include "rtm/serialize.hh"

#include "sim/component.hh"

namespace akita
{
namespace rtm
{

json::Json
serializeProfile(const sim::ProfSnapshot &snapshot)
{
    json::Json obj = json::Json::object();
    obj.set("wall_ns", snapshot.wallNs);

    json::Json entries = json::Json::array();
    for (const auto &e : snapshot.entries) {
        json::Json ej = json::Json::object();
        ej.set("name", e.name);
        ej.set("self_ns", e.selfNs);
        ej.set("total_ns", e.totalNs);
        ej.set("calls", e.calls);
        entries.push(std::move(ej));
    }
    obj.set("functions", std::move(entries));

    json::Json edges = json::Json::array();
    for (const auto &e : snapshot.edges) {
        json::Json ej = json::Json::object();
        ej.set("caller", e.caller);
        ej.set("callee", e.callee);
        ej.set("total_ns", e.totalNs);
        ej.set("calls", e.calls);
        edges.push(std::move(ej));
    }
    obj.set("edges", std::move(edges));
    return obj;
}

json::Json
serializeResources(const ResourceUsage &usage)
{
    json::Json obj = json::Json::object();
    obj.set("cpu_percent", usage.cpuPercent);
    obj.set("rss_bytes", usage.rssBytes);
    obj.set("vm_bytes", usage.vmBytes);
    obj.set("num_threads", usage.numThreads);
    return obj;
}

void
writeValue(json::Writer &w, const introspect::Value &value)
{
    using Kind = introspect::Value::Kind;
    switch (value.kind()) {
      case Kind::Null:
        w.value(nullptr);
        break;
      case Kind::Bool:
        w.value(value.boolVal());
        break;
      case Kind::Int:
        w.value(value.intVal());
        break;
      case Kind::Float:
        w.value(value.floatVal());
        break;
      case Kind::Str:
        w.value(value.strVal());
        break;
      case Kind::List:
        w.beginArray();
        for (const auto &item : value.items())
            writeValue(w, item);
        w.endArray();
        break;
      case Kind::Dict:
        w.beginObject();
        for (const auto &e : value.entries()) {
            w.key(e.first);
            writeValue(w, e.second);
        }
        w.endObject();
        break;
    }
}

void
writeComponent(json::Writer &w, const sim::Component &component)
{
    w.beginObject();
    w.field("name", component.name());

    w.key("fields").beginArray();
    for (const auto &f : component.fields().all()) {
        introspect::Value v = f.getter();
        w.beginObject();
        w.field("name", f.name);
        w.field("type", v.typeName());
        w.key("value");
        writeValue(w, v);
        w.field("numeric", v.numeric());
        w.endObject();
    }
    w.endArray();

    w.key("ports").beginArray();
    for (const auto &p : component.ports()) {
        w.beginObject();
        w.field("name", p->name());
        w.field("buffer", p->buf().name());
        w.field("size", static_cast<std::int64_t>(p->buf().size()));
        w.field("capacity",
                static_cast<std::int64_t>(p->buf().capacity()));
        w.field("total_sent",
                static_cast<std::int64_t>(p->totalSent()));
        w.field("send_rejections",
                static_cast<std::int64_t>(p->totalSendRejections()));
        w.endObject();
    }
    w.endArray();

    w.key("buffers").beginArray();
    for (const sim::Buffer *b : component.buffers()) {
        const sim::MsgPtr &head = b->peek();
        w.beginObject();
        w.field("name", b->name());
        w.field("size", static_cast<std::int64_t>(b->size()));
        w.field("capacity", static_cast<std::int64_t>(b->capacity()));
        w.field("head_kind",
                head == nullptr ? std::string() : std::string(head->kind()));
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeTree(json::Writer &w, const TreeNode &root)
{
    w.beginObject();
    w.field("label", root.label);
    if (!root.componentName.empty())
        w.field("component", root.componentName);
    if (!root.children.empty()) {
        w.key("children").beginArray();
        for (const auto &kv : root.children)
            writeTree(w, *kv.second);
        w.endArray();
    }
    w.endObject();
}

void
writeBuffers(json::Writer &w, const std::vector<BufferLevel> &levels)
{
    w.beginArray();
    for (const auto &l : levels) {
        w.beginObject();
        w.field("buffer", l.name);
        w.field("size", static_cast<std::int64_t>(l.size));
        w.field("cap", static_cast<std::int64_t>(l.capacity));
        w.field("percent", l.percent());
        w.field("head_kind", l.headKind);
        w.endObject();
    }
    w.endArray();
}

void
writeProgress(json::Writer &w, const std::vector<ProgressBar> &bars)
{
    w.beginArray();
    for (const auto &b : bars) {
        w.beginObject();
        w.field("id", b.id);
        w.field("label", b.label);
        w.field("total", b.total);
        w.field("completed", b.completed);
        w.field("in_progress", b.inProgress);
        w.field("not_started", b.notStarted());
        w.endObject();
    }
    w.endArray();
}

void
writeSeries(json::Writer &w, const TrackedSeries &series)
{
    w.beginObject();
    w.field("id", series.id);
    w.field("component", series.componentName);
    w.field("field", series.fieldName);
    w.key("points").beginArray();
    for (const auto &s : series.samples) {
        w.beginObject();
        w.field("t_ps", s.simTime);
        w.field("v", s.value);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace rtm
} // namespace akita
