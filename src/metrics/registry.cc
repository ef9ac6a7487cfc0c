#include "metrics/registry.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace akita
{
namespace metrics
{

namespace
{

/** Escapes a label value per the Prometheus text format. */
std::string
escapeLabelValue(const std::string &v)
{
    std::string out;
    out.reserve(v.size());
    for (char c : v) {
        switch (c) {
        case '\\':
            out += "\\\\";
            break;
        case '"':
            out += "\\\"";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            out += c;
        }
    }
    return out;
}

std::string
renderLabels(const Labels &labels, const std::string &extra_key = "",
             const std::string &extra_value = "")
{
    Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    std::string out;
    bool any = false;
    for (const auto &kv : sorted) {
        out += any ? "," : "{";
        any = true;
        out += kv.first + "=\"" + escapeLabelValue(kv.second) + "\"";
    }
    if (!extra_key.empty()) {
        out += any ? "," : "{";
        any = true;
        out += extra_key + "=\"" + escapeLabelValue(extra_value) + "\"";
    }
    if (any)
        out += "}";
    return out;
}

std::string
formatValue(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    // Integral values render without a fraction (counters mostly).
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

const char *
typeName(Type t)
{
    switch (t) {
    case Type::Counter:
        return "counter";
    case Type::Gauge:
        return "gauge";
    case Type::Histogram:
        return "histogram";
    }
    return "untyped";
}

} // namespace

double
MetricRegistry::Instr::liveValue() const
{
    if (counter)
        return static_cast<double>(counter->value());
    if (gauge)
        return gauge->value();
    if (fn && !desc.needsLock)
        return fn();
    // Locked pull callbacks and pushed series: serve the value from
    // the most recent sampling pass.
    return lastValue.value();
}

MetricRegistry::MetricRegistry(SeriesConfig series_defaults)
    : seriesDefaults_(series_defaults)
{
    Desc d;
    d.name = "akita_metrics_sample_pass_seconds";
    d.help = "Wall time spent in each metrics sampling pass.";
    d.type = Type::Histogram;
    passDuration_ = addHistogram(
        std::move(d),
        {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
}

MetricRegistry::InstrPtr
MetricRegistry::makeInstr(Desc d)
{
    auto in = std::make_shared<Instr>();
    in->desc = std::move(d);
    if (in->desc.series != SeriesMode::None) {
        SeriesConfig cfg = seriesDefaults_;
        if (in->desc.series == SeriesMode::Raw) {
            cfg.res1sCapacity = 1;
            cfg.res10sCapacity = 1;
        }
        in->series = std::make_unique<MultiResSeries>(cfg);
    }
    return in;
}

void
MetricRegistry::publishInstr(const InstrPtr &in)
{
    // Publication must come after the caller has attached the payload
    // (counter/gauge/histogram/fn/pushed): a concurrent samplePass
    // snapshots instrs_ and would otherwise observe a half-built
    // instrument with every payload pointer null.
    std::lock_guard<std::mutex> lk(mu_);
    in->id = nextId_++;
    instrs_.push_back(in);
    regEvents_.fetch_add(1, std::memory_order_release);
}

Counter *
MetricRegistry::addCounter(Desc d, std::uint64_t *id_out)
{
    d.type = Type::Counter;
    auto c = std::make_unique<Counter>();
    Counter *raw = c.get();
    auto in = makeInstr(std::move(d));
    in->counter = std::move(c);
    publishInstr(in);
    if (id_out)
        *id_out = in->id;
    return raw;
}

Gauge *
MetricRegistry::addGauge(Desc d, std::uint64_t *id_out)
{
    d.type = Type::Gauge;
    auto g = std::make_unique<Gauge>();
    Gauge *raw = g.get();
    auto in = makeInstr(std::move(d));
    in->gauge = std::move(g);
    publishInstr(in);
    if (id_out)
        *id_out = in->id;
    return raw;
}

Histogram *
MetricRegistry::addHistogram(Desc d, std::vector<double> bounds,
                             std::uint64_t *id_out)
{
    d.type = Type::Histogram;
    d.series = SeriesMode::None;
    auto h = std::make_unique<Histogram>(std::move(bounds));
    Histogram *raw = h.get();
    auto in = makeInstr(std::move(d));
    in->histogram = std::move(h);
    publishInstr(in);
    if (id_out)
        *id_out = in->id;
    return raw;
}

std::uint64_t
MetricRegistry::addCallback(Desc d, std::function<double()> fn)
{
    auto in = makeInstr(std::move(d));
    in->fn = std::move(fn);
    publishInstr(in);
    return in->id;
}

std::uint64_t
MetricRegistry::addPushed(Desc d)
{
    if (d.series == SeriesMode::None)
        d.series = SeriesMode::Full;
    auto in = makeInstr(std::move(d));
    in->pushed = true;
    publishInstr(in);
    return in->id;
}

std::vector<MetricRegistry::InstrPtr>::const_iterator
MetricRegistry::lowerBound(std::uint64_t id) const
{
    // instrs_ is sorted by id: publishInstr appends nextId_++ under mu_
    // and erase keeps the order.
    return std::lower_bound(
        instrs_.begin(), instrs_.end(), id,
        [](const InstrPtr &in, std::uint64_t v) { return in->id < v; });
}

bool
MetricRegistry::remove(std::uint64_t id)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = lowerBound(id);
    if (it == instrs_.end() || (*it)->id != id)
        return false;
    instrs_.erase(it);
    regEvents_.fetch_add(1, std::memory_order_release);
    return true;
}

std::size_t
MetricRegistry::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return instrs_.size();
}

MetricRegistry::InstrPtr
MetricRegistry::findLocked(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = lowerBound(id);
    return it != instrs_.end() && (*it)->id == id ? *it : nullptr;
}

std::vector<MetricRegistry::InstrPtr>
MetricRegistry::snapshotInstrs() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return instrs_;
}

void
MetricRegistry::recordPushed(std::uint64_t id, std::int64_t wall_ms,
                             std::uint64_t sim_ps, double value)
{
    InstrPtr in = findLocked(id);
    if (!in)
        return;
    in->lastValue.set(value);
    in->lastWallMs.store(wall_ms, std::memory_order_relaxed);
    in->lastSimPs.store(sim_ps, std::memory_order_relaxed);
    in->everSampled.store(true, std::memory_order_relaxed);
    if (in->series)
        in->series->record(wall_ms, sim_ps, value);
}

void
MetricRegistry::samplePass(std::int64_t wall_ms, std::uint64_t sim_ps,
                           const LockFn &with_lock,
                           std::vector<SampledValue> *sampled_out)
{
    auto t0 = std::chrono::steady_clock::now();
    std::vector<InstrPtr> instrs = snapshotInstrs();

    // Evaluate locked pull callbacks inside one engine-lock hold; the
    // paper's fine-grained serialization argument (§VII) says hold it
    // briefly and batch, never once per instrument.
    std::vector<std::pair<InstrPtr, double>> values;
    values.reserve(instrs.size());
    std::vector<InstrPtr> locked;
    for (const auto &in : instrs) {
        if (in->pushed)
            continue; // Pushed series record on their own schedule.
        if (in->fn && in->desc.needsLock) {
            locked.push_back(in);
            continue;
        }
        if (in->histogram)
            continue; // Exposition-only; nothing to sample.
        double v = in->fn ? in->fn()
                          : (in->counter ? static_cast<double>(
                                               in->counter->value())
                                         : in->gauge->value());
        values.emplace_back(in, v);
    }
    if (!locked.empty()) {
        auto evalLocked = [&]() {
            for (const InstrPtr &in : locked)
                values.emplace_back(in, in->fn());
        };
        if (with_lock)
            with_lock(evalLocked);
        else
            evalLocked();
    }

    // Record outside any lock.
    for (auto &kv : values) {
        Instr *in = kv.first.get();
        in->lastValue.set(kv.second);
        in->lastWallMs.store(wall_ms, std::memory_order_relaxed);
        in->lastSimPs.store(sim_ps, std::memory_order_relaxed);
        in->everSampled.store(true, std::memory_order_relaxed);
        if (in->series)
            in->series->record(wall_ms, sim_ps, kv.second);
    }

    // Tee the pass to the flight recorder before `values` is moved
    // into the replay ring below.
    if (sampled_out != nullptr) {
        sampled_out->clear();
        sampled_out->reserve(values.size());
        for (const auto &kv : values) {
            SampledValue sv;
            sv.desc = &kv.first->desc;
            sv.value = kv.second;
            sv.wallMs = wall_ms;
            sv.simPs = sim_ps;
            sampled_out->push_back(sv);
        }
    }

    auto t1 = std::chrono::steady_clock::now();
    passDuration_->observe(
        std::chrono::duration<double>(t1 - t0).count());

    // Retain the pass for SSE resume before publishing the version, so
    // a reader that observes the new version also finds its record.
    {
        std::lock_guard<std::mutex> lk(replayMu_);
        if (replayCap_ > 0) {
            PassRecord rec;
            rec.version = version_.load(std::memory_order_relaxed) + 1;
            rec.wallMs = wall_ms;
            rec.simPs = sim_ps;
            rec.values = std::move(values);
            replay_.push_back(std::move(rec));
            while (replay_.size() > replayCap_)
                replay_.pop_front();
        }
    }

    version_.fetch_add(1, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lk(waitMu_);
    }
    waitCv_.notify_all();
}

void
MetricRegistry::setReplayCapacity(std::size_t passes)
{
    std::lock_guard<std::mutex> lk(replayMu_);
    replayCap_ = passes;
    while (replay_.size() > replayCap_)
        replay_.pop_front();
}

std::vector<MetricRegistry::ReplayEvent>
MetricRegistry::replaySince(std::uint64_t after_version,
                            const std::string &name) const
{
    std::vector<ReplayEvent> out;
    std::lock_guard<std::mutex> lk(replayMu_);
    for (const PassRecord &rec : replay_) {
        if (rec.version <= after_version)
            continue;
        ReplayEvent ev;
        ev.version = rec.version;
        ev.values.reserve(name.empty() ? rec.values.size() : 4);
        for (const auto &kv : rec.values) {
            const Desc &d = kv.first->desc;
            if (!name.empty() && d.name != name)
                continue;
            ReplayValue rv;
            rv.name = d.name;
            rv.labels = d.labels;
            rv.value = kv.second;
            rv.wallMs = rec.wallMs;
            rv.simPs = rec.simPs;
            ev.values.push_back(std::move(rv));
        }
        out.push_back(std::move(ev));
    }
    return out;
}

void
MetricRegistry::renderOne(std::string &out, const Instr &in)
{
    const Desc &d = in.desc;
    if (in.histogram) {
        Histogram::Snapshot s = in.histogram->snapshot();
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < s.counts.size(); i++) {
            cum += s.counts[i];
            std::string le = i < s.bounds.size()
                                 ? formatValue(s.bounds[i])
                                 : "+Inf";
            out += d.name + "_bucket" +
                   renderLabels(d.labels, "le", le) + " " +
                   std::to_string(cum) + "\n";
        }
        out += d.name + "_sum" + renderLabels(d.labels) + " " +
               formatValue(s.sum) + "\n";
        out += d.name + "_count" + renderLabels(d.labels) + " " +
               std::to_string(s.count) + "\n";
        return;
    }
    out += d.name + renderLabels(d.labels) + " " +
           formatValue(in.liveValue()) + "\n";
}

std::string
MetricRegistry::renderPrometheus() const
{
    std::vector<InstrPtr> instrs = snapshotInstrs();
    // Group by family: all series of one name must be contiguous and
    // HELP/TYPE emitted once.
    std::stable_sort(instrs.begin(), instrs.end(),
                     [](const InstrPtr &a, const InstrPtr &b) {
                         return a->desc.name < b->desc.name;
                     });
    std::string out;
    out.reserve(instrs.size() * 64);
    const std::string *prev = nullptr;
    for (const auto &in : instrs) {
        if (!prev || *prev != in->desc.name) {
            if (!in->desc.help.empty())
                out += "# HELP " + in->desc.name + " " +
                       in->desc.help + "\n";
            out += "# TYPE " + in->desc.name + " " +
                   typeName(in->desc.type) + "\n";
            prev = &in->desc.name;
        }
        renderOne(out, *in);
    }
    return out;
}

std::vector<MetricRegistry::QuerySeries>
MetricRegistry::query(const std::string &name, const Labels &filter,
                      std::int64_t from_ms, std::int64_t to_ms,
                      std::int64_t step_ms) const
{
    std::vector<QuerySeries> out;
    for (const auto &in : snapshotInstrs()) {
        if (in->desc.name != name || !in->series)
            continue;
        bool match = true;
        for (const auto &want : filter) {
            bool found = false;
            for (const auto &have : in->desc.labels) {
                if (have == want) {
                    found = true;
                    break;
                }
            }
            if (!found) {
                match = false;
                break;
            }
        }
        if (!match)
            continue;
        QuerySeries qs;
        qs.desc = in->desc;
        qs.points = in->series->query(from_ms, to_ms, step_ms);
        out.push_back(std::move(qs));
    }
    return out;
}

std::vector<RawSample>
MetricRegistry::rawSeries(std::uint64_t id, std::size_t newest) const
{
    InstrPtr in = findLocked(id);
    if (!in || !in->series)
        return {};
    return in->series->rawSnapshot(newest);
}

std::int64_t
MetricRegistry::oldestRawMs(const std::string &name,
                            const Labels &filter) const
{
    std::int64_t oldest = INT64_MAX;
    bool any = false;
    for (const auto &in : snapshotInstrs()) {
        if (in->desc.name != name || !in->series)
            continue;
        bool match = true;
        for (const auto &want : filter) {
            bool found = false;
            for (const auto &have : in->desc.labels) {
                if (have == want) {
                    found = true;
                    break;
                }
            }
            if (!found) {
                match = false;
                break;
            }
        }
        if (!match)
            continue;
        std::vector<RawSample> raw = in->series->rawSnapshot();
        if (raw.empty())
            return INT64_MAX; // A matching series with no history yet.
        any = true;
        // The *latest* oldest across series: below it at least one
        // matching series has already aged the range out of memory.
        if (raw.front().wallMs > oldest || oldest == INT64_MAX)
            oldest = raw.front().wallMs;
    }
    return any ? oldest : INT64_MAX;
}

std::vector<Desc>
MetricRegistry::list() const
{
    std::vector<Desc> out;
    for (const auto &in : snapshotInstrs())
        out.push_back(in->desc);
    return out;
}

std::vector<SampledValue>
MetricRegistry::latest(const std::string &name) const
{
    std::vector<SampledValue> out;
    for (const auto &in : snapshotInstrs()) {
        if (!name.empty() && in->desc.name != name)
            continue;
        if (in->histogram)
            continue;
        SampledValue sv;
        sv.desc = &in->desc;
        sv.value = in->liveValue();
        sv.wallMs = in->lastWallMs.load(std::memory_order_relaxed);
        sv.simPs = in->lastSimPs.load(std::memory_order_relaxed);
        out.push_back(sv);
    }
    return out;
}

std::uint64_t
MetricRegistry::version() const
{
    return version_.load(std::memory_order_acquire);
}

std::uint64_t
MetricRegistry::generation() const
{
    // Both terms are monotone, so the sum is a valid generation.
    return version_.load(std::memory_order_acquire) +
           regEvents_.load(std::memory_order_acquire);
}

std::uint64_t
MetricRegistry::waitForSample(std::uint64_t last_seen,
                              int timeout_ms) const
{
    std::unique_lock<std::mutex> lk(waitMu_);
    waitCv_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                     [&] { return version() > last_seen; });
    return version();
}

void
MetricRegistry::notifyWaiters()
{
    {
        std::lock_guard<std::mutex> lk(waitMu_);
    }
    waitCv_.notify_all();
}

} // namespace metrics
} // namespace akita
