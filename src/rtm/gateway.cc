#include "rtm/gateway.hh"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <thread>

#include "json/writer.hh"
#include "rtm/api.hh"
#include "sim/engine.hh"

namespace akita
{
namespace rtm
{

namespace
{

/**
 * TTL floor (ms) for fleet aggregation responses. Engine event counts
 * advance continuously, so like the per-monitor hot endpoints the fleet
 * views fold wall time into their generation at this cadence: a polling
 * wave costs one N-sim fan-out.
 */
constexpr std::uint64_t kTtlFloorMs = 50;

std::int64_t
wallNowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

bool
validSimId(const std::string &id)
{
    if (id.empty() || id.size() > 64)
        return false;
    for (char c : id) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                  c == '-';
        if (!ok)
            return false;
    }
    return true;
}

/**
 * One simulation's engine-stable status fragment: the fields the fleet
 * SSE stream diffs. Deliberately excludes anything that moves with
 * wall time while the engine is idle (hang.frozen_for_sec ticks every
 * scan) — a delta stream keyed on those would never go quiet.
 */
void
writeStableFragment(json::Writer &w, const std::string &id, Monitor *m)
{
    sim::Engine *e = m->engine();
    w.beginObject();
    w.field("id", id);
    w.field("now_ps", static_cast<std::uint64_t>(e ? e->now() : 0));
    w.field("events",
            static_cast<std::uint64_t>(e ? e->eventCount() : 0));
    w.field("queue_len",
            static_cast<std::uint64_t>(e ? e->queueLength() : 0));
    w.field("paused", e != nullptr && e->paused());
    w.field("running", e != nullptr && e->running());
    w.field("drained_waiting", e != nullptr && e->drainedWaiting());
    w.key("bars").beginArray();
    for (const ProgressBar &b : m->progressBars()) {
        w.beginObject();
        w.field("label", b.label);
        w.field("total", b.total);
        w.field("completed", b.completed);
        w.field("in_progress", b.inProgress);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

std::string
stableFragment(const std::string &id, Monitor *m)
{
    std::string body;
    json::Writer w(body);
    writeStableFragment(w, id, m);
    return body;
}

} // namespace

Gateway::Gateway(const GatewayConfig &cfg)
    : cfg_(cfg)
{
    installFleetRoutes();

    metrics::Desc d;
    d.name = "akita_rtm_fleet_sims";
    d.help = "Simulations registered with the fleet gateway.";
    d.type = metrics::Type::Gauge;
    metrics_.addCallback(std::move(d), [this]() {
        return static_cast<double>(size());
    });

    metrics::Desc ev;
    ev.name = "akita_rtm_fleet_events_total";
    ev.help = "Engine events executed across the fleet.";
    ev.type = metrics::Type::Counter;
    metrics_.addCallback(std::move(ev), [this]() {
        double total = 0;
        for (const Sim &s : sims()) {
            sim::Engine *e = s.monitor->engine();
            total += e ? static_cast<double>(e->eventCount()) : 0;
        }
        return total;
    });

    metrics::Desc slow;
    slow.name = "akita_rtm_fleet_slowest_now_ps";
    slow.help = "Virtual time of the simulation furthest behind.";
    slow.type = metrics::Type::Gauge;
    metrics_.addCallback(std::move(slow), [this]() {
        double slowest = 0;
        bool any = false;
        for (const Sim &s : sims()) {
            sim::Engine *e = s.monitor->engine();
            double now = e ? static_cast<double>(e->now()) : 0;
            if (!any || now < slowest) {
                slowest = now;
                any = true;
            }
        }
        return slowest;
    });

    metrics::Desc reqs;
    reqs.name = "akita_rtm_fleet_requests_total";
    reqs.help = "HTTP requests served by the gateway.";
    reqs.type = metrics::Type::Counter;
    metrics_.addCallback(std::move(reqs), [this]() {
        return static_cast<double>(server_.requestCount());
    });

    struct CacheStat
    {
        const char *kind;
        std::function<double()> fn;
    };
    const CacheStat stats[] = {
        {"hit", [this]() { return double(cache_.hitCount()); }},
        {"miss", [this]() { return double(cache_.missCount()); }},
        {"coalesced",
         [this]() { return double(cache_.coalesceCount()); }},
        {"not_modified",
         [this]() { return double(cache_.notModifiedCount()); }},
        {"encode", [this]() { return double(cache_.encodeCount()); }},
    };
    for (const CacheStat &s : stats) {
        metrics::Desc cd;
        cd.name = "akita_rtm_fleet_cache_events_total";
        cd.help = "Fleet response-cache serving events by kind.";
        cd.type = metrics::Type::Counter;
        cd.labels = {{"kind", s.kind}};
        metrics_.addCallback(std::move(cd), s.fn);
    }
}

Gateway::~Gateway()
{
    stop();
}

bool
Gateway::addSimulation(const std::string &id, Monitor *monitor)
{
    if (!validSimId(id) || monitor == nullptr)
        return false;

    Sim s;
    s.id = id;
    s.monitor = monitor;
    s.router = std::make_shared<web::Router>();
    installApiRoutes(*s.router, *monitor);

    {
        std::lock_guard<std::mutex> lk(mu_);
        for (const Sim &existing : sims_) {
            if (existing.id == id)
                return false;
        }
        sims_.push_back(s);
    }
    server_.mount("/sim/" + id, s.router);
    registerSimGauges(id, monitor);
    return true;
}

void
Gateway::registerSimGauges(const std::string &id, Monitor *monitor)
{
    struct SimGauge
    {
        const char *name;
        const char *help;
        metrics::Type type;
        std::function<double()> fn;
    };
    const SimGauge gauges[] = {
        {"akita_rtm_fleet_sim_events",
         "Engine events executed by one fleet simulation.",
         metrics::Type::Counter,
         [monitor]() {
             sim::Engine *e = monitor->engine();
             return e ? static_cast<double>(e->eventCount()) : 0.0;
         }},
        {"akita_rtm_fleet_sim_now_ps",
         "Virtual time of one fleet simulation.", metrics::Type::Gauge,
         [monitor]() {
             sim::Engine *e = monitor->engine();
             return e ? static_cast<double>(e->now()) : 0.0;
         }},
        {"akita_rtm_fleet_sim_paused",
         "Whether one fleet simulation is paused.",
         metrics::Type::Gauge,
         [monitor]() {
             sim::Engine *e = monitor->engine();
             return e != nullptr && e->paused() ? 1.0 : 0.0;
         }},
    };
    for (const SimGauge &g : gauges) {
        metrics::Desc d;
        d.name = g.name;
        d.help = g.help;
        d.type = g.type;
        d.labels = {{"sim", id}};
        metrics_.addCallback(std::move(d), g.fn);
    }
}

std::vector<Gateway::Sim>
Gateway::sims() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return sims_;
}

std::vector<std::string>
Gateway::simulationIds() const
{
    std::vector<std::string> ids;
    std::lock_guard<std::mutex> lk(mu_);
    ids.reserve(sims_.size());
    for (const Sim &s : sims_)
        ids.push_back(s.id);
    return ids;
}

Monitor *
Gateway::simulation(const std::string &id) const
{
    std::lock_guard<std::mutex> lk(mu_);
    for (const Sim &s : sims_) {
        if (s.id == id)
            return s.monitor;
    }
    return nullptr;
}

std::size_t
Gateway::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return sims_.size();
}

bool
Gateway::start()
{
    if (!server_.start(cfg_.port))
        return false;
    if (cfg_.announceUrl) {
        std::printf("AkitaRTM fleet gateway serving %zu simulation(s) "
                    "at %s\n",
                    size(), url().c_str());
        std::fflush(stdout);
    }
    return true;
}

void
Gateway::stop()
{
    server_.stop();
}

void
Gateway::installFleetRoutes()
{
    // The TTL-floored, wall-folded generation every fleet view uses:
    // event counts advance continuously while engines run, and freeze
    // when they hang — folding wall time in keeps hang state fresh
    // (cf. the per-monitor /api/v1/hang rationale).
    auto fleetGen = [this]() {
        std::uint64_t gen = 0;
        for (const Sim &s : sims())
            gen += s.monitor->buffersGeneration();
        return gen + static_cast<std::uint64_t>(wallNowMs()) / kTtlFloorMs;
    };

    // Per-sim status fragments are cached in the shard owned by
    // (sim id, endpoint): a flood of keys for one simulation can only
    // evict entries hashing to its shard, and each simulation's
    // fragment build coalesces independently.
    auto cachedFragment = [this](const Sim &s) {
        static const char *const kEndpoint = "/fleet/fragment";
        std::uint64_t gen =
            s.monitor->buffersGeneration() +
            static_cast<std::uint64_t>(wallNowMs()) / kTtlFloorMs;
        Monitor *m = s.monitor;
        std::string id = s.id;
        return cache_.shard(s.id, kEndpoint)
            .get(s.id + "|" + kEndpoint, gen, "application/json",
                 [id, m]() { return stableFragment(id, m); }, kTtlFloorMs)
            ->body;
    };

    server_.route("GET", "/", [this](const web::Request &) {
        std::string html =
            "<!doctype html><title>AkitaRTM fleet</title>"
            "<h1>AkitaRTM fleet gateway</h1><ul>";
        for (const Sim &s : sims()) {
            html += "<li><a href=\"/sim/" + s.id + "/\">" + s.id +
                    "</a></li>";
        }
        html += "</ul><p><a href=\"/api/v1/fleet\">fleet status</a> | "
                "<a href=\"/metrics\">metrics</a></p>";
        return web::Response::html(std::move(html));
    });

    server_.route(
        "GET", "/api/v1/fleet",
        [this, fleetGen, cachedFragment](const web::Request &req) {
            return serveCached(
                cache_.shard("", "/api/v1/fleet"), req, req.target,
                fleetGen(), "application/json", kTtlFloorMs,
                [this, cachedFragment]() {
                    std::uint64_t totalEvents = 0;
                    std::string slowestId;
                    std::uint64_t slowestNow =
                        std::numeric_limits<std::uint64_t>::max();
                    std::string body;
                    json::Writer w(body);
                    w.beginObject();
                    w.key("sims").beginArray();
                    for (const Sim &s : sims()) {
                        sim::Engine *e = s.monitor->engine();
                        std::uint64_t now = e ? e->now() : 0;
                        totalEvents += e ? e->eventCount() : 0;
                        if (now < slowestNow) {
                            slowestNow = now;
                            slowestId = s.id;
                        }
                        HangStatus hang = s.monitor->hangStatus();
                        // The fragment is reused verbatim (it is valid
                        // JSON); hang state rides alongside because it
                        // is wall-time-dependent and must stay out of
                        // the SSE-diffed fragment itself.
                        w.beginObject();
                        w.key("status").raw(cachedFragment(s));
                        w.key("hang").beginObject();
                        w.field("hanging", hang.hanging);
                        w.field("frozen_for_sec", hang.frozenForSec);
                        w.field("queue_drained", hang.queueDrained);
                        w.endObject();
                        w.field("url", "/sim/" + s.id + "/");
                        w.endObject();
                    }
                    w.endArray();
                    w.field("num_sims",
                            static_cast<std::uint64_t>(size()));
                    w.field("total_events", totalEvents);
                    w.key("slowest").beginObject();
                    if (!slowestId.empty()) {
                        w.field("id", slowestId);
                        w.field("now_ps", slowestNow);
                    }
                    w.endObject();
                    w.endObject();
                    return body;
                });
        });

    server_.route(
        "GET", "/api/v1/fleet/progress",
        [this, fleetGen](const web::Request &req) {
            return serveCached(
                cache_.shard("", "/api/v1/fleet/progress"), req,
                req.target, fleetGen(), "application/json", kTtlFloorMs,
                [this]() {
                    std::string body;
                    json::Writer w(body);
                    w.beginArray();
                    for (const Sim &s : sims()) {
                        w.beginObject();
                        w.field("id", s.id);
                        w.key("bars").beginArray();
                        for (const ProgressBar &b :
                             s.monitor->progressBars()) {
                            w.beginObject();
                            w.field("label", b.label);
                            w.field("total", b.total);
                            w.field("completed", b.completed);
                            w.field("in_progress", b.inProgress);
                            w.endObject();
                        }
                        w.endArray();
                        w.endObject();
                    }
                    w.endArray();
                    return body;
                });
        });

    server_.route(
        "GET", "/api/v1/fleet/slowest",
        [this, fleetGen](const web::Request &req) {
            return serveCached(
                cache_.shard("", "/api/v1/fleet/slowest"), req,
                req.target, fleetGen(), "application/json", kTtlFloorMs,
                [this]() {
                    std::string slowestId;
                    std::uint64_t slowestNow =
                        std::numeric_limits<std::uint64_t>::max();
                    std::uint64_t slowestEvents = 0;
                    for (const Sim &s : sims()) {
                        sim::Engine *e = s.monitor->engine();
                        std::uint64_t now = e ? e->now() : 0;
                        if (now < slowestNow) {
                            slowestNow = now;
                            slowestId = s.id;
                            slowestEvents = e ? e->eventCount() : 0;
                        }
                    }
                    std::string body;
                    json::Writer w(body);
                    w.beginObject();
                    if (!slowestId.empty()) {
                        w.field("id", slowestId);
                        w.field("now_ps", slowestNow);
                        w.field("events", slowestEvents);
                    }
                    w.endObject();
                    return body;
                });
        });

    server_.route(
        "GET", "/api/v1/fleet/hottest-buffer",
        [this, fleetGen](const web::Request &req) {
            return serveCached(
                cache_.shard("", "/api/v1/fleet/hottest-buffer"), req,
                req.target, fleetGen(), "application/json", kTtlFloorMs,
                [this]() {
                    std::string hotSim;
                    BufferLevel hot;
                    double hotPct = -1;
                    for (const Sim &s : sims()) {
                        auto levels = s.monitor->bufferLevels(
                            BufferSort::ByPercent, 1);
                        if (levels.empty())
                            continue;
                        if (levels[0].percent() > hotPct) {
                            hotPct = levels[0].percent();
                            hot = levels[0];
                            hotSim = s.id;
                        }
                    }
                    std::string body;
                    json::Writer w(body);
                    w.beginObject();
                    if (hotPct >= 0) {
                        w.field("sim", hotSim);
                        w.field("name", hot.name);
                        w.field("size",
                                static_cast<std::uint64_t>(hot.size));
                        w.field("capacity", static_cast<std::uint64_t>(
                                                hot.capacity));
                        w.field("percent", hot.percent());
                    }
                    w.endObject();
                    return body;
                });
        });

    server_.route(
        "GET", "/api/v1/fleet/engines",
        [this, fleetGen](const web::Request &req) {
            return serveCached(
                cache_.shard("", "/api/v1/fleet/engines"), req,
                req.target, fleetGen(), "application/json", kTtlFloorMs,
                [this]() {
                    std::string body;
                    json::Writer w(body);
                    w.beginArray();
                    for (const Sim &s : sims()) {
                        sim::Engine *e = s.monitor->engine();
                        w.beginObject();
                        w.field("id", s.id);
                        w.field("now_ps", static_cast<std::uint64_t>(
                                              e ? e->now() : 0));
                        w.field("events",
                                static_cast<std::uint64_t>(
                                    e ? e->eventCount() : 0));
                        w.field("queue_len",
                                static_cast<std::uint64_t>(
                                    e ? e->queueLength() : 0));
                        w.field("paused",
                                e != nullptr && e->paused());
                        w.field("running",
                                e != nullptr && e->running());
                        w.field("drained_waiting",
                                e != nullptr && e->drainedWaiting());
                        w.endObject();
                    }
                    w.endArray();
                    return body;
                });
        });

    server_.route("GET", "/metrics", [this](const web::Request &req) {
        // The fleet gauges are pull callbacks evaluated live at
        // exposition time (no sampler thread), so freshness comes from
        // the wall-folded generation alone.
        std::uint64_t gen =
            static_cast<std::uint64_t>(wallNowMs()) / kTtlFloorMs;
        return serveCached(cache_.shard("", "/metrics"), req,
                           req.target, gen,
                           "text/plain; version=0.0.4; charset=utf-8",
                           kTtlFloorMs, [this]() {
                               return metrics_.renderPrometheus();
                           });
    });

    server_.routeStream(
        "GET", "/api/v1/fleet/stream", [this](const web::Request &req) {
            int maxEvents =
                static_cast<int>(req.queryInt("max_events", 0));
            // Delta stream: each scan re-renders every simulation's
            // engine-stable fragment and emits only the ones whose
            // bytes changed since the previous event — a quiesced
            // 100-sim fleet streams nothing, and a dashboard applies
            // per-sim patches instead of re-parsing N snapshots. The
            // first scan sees an empty diff base, so event 1 is the
            // full fleet.
            struct StreamState
            {
                std::map<std::string, std::string> last;
                std::uint64_t nextId = 1;
                int sent = 0;
                bool first = true;
                std::chrono::steady_clock::time_point lastScan;
            };
            auto st = std::make_shared<StreamState>();
            web::StreamSession s;
            s.headers = {{"Content-Type", "text/event-stream"},
                         {"Cache-Control", "no-cache"}};
            s.pump = [this, st, maxEvents](std::string &out) {
                auto now = std::chrono::steady_clock::now();
                if (st->first) {
                    out += "retry: 2000\n\n";
                } else if (now - st->lastScan <
                           std::chrono::milliseconds(
                               cfg_.streamIntervalMs)) {
                    return true;
                }
                st->first = false;
                st->lastScan = now;

                std::vector<std::string> changed;
                for (const Sim &sim : sims()) {
                    std::string frag =
                        stableFragment(sim.id, sim.monitor);
                    auto it = st->last.find(sim.id);
                    if (it != st->last.end() && it->second == frag)
                        continue;
                    st->last[sim.id] = frag;
                    changed.push_back(std::move(frag));
                }
                if (changed.empty())
                    return true;

                std::string data = "{\"sims\":[";
                for (std::size_t i = 0; i < changed.size(); i++) {
                    if (i > 0)
                        data += ",";
                    data += changed[i];
                }
                data += "]}";
                out += "id: " + std::to_string(st->nextId++) +
                       "\ndata: " + data + "\n\n";
                return !(maxEvents > 0 && ++st->sent >= maxEvents);
            };
            return s;
        });
}

Fleet::Fleet(const FleetConfig &cfg) : cfg_(cfg), gateway_(cfg.gateway)
{
    std::size_t n = std::max<std::size_t>(1, cfg.numSims);
    sims_.reserve(n);
    for (std::size_t i = 0; i < n; i++) {
        Sim s;
        s.id = "sim" + std::to_string(i);
        s.platform = std::make_unique<gpu::Platform>(cfg.platform);

        MonitorConfig mc = cfg.monitor;
        mc.announceUrl = false; // The gateway announces once.
        s.monitor = std::make_unique<Monitor>(mc);
        s.monitor->registerEngine(&s.platform->engine());
        s.monitor->registerComponents(s.platform->components());
        for (auto *conn : s.platform->connections())
            s.monitor->registerConnection(conn);
        s.platform->driver().setProgressListener(s.monitor.get());

        gateway_.addSimulation(s.id, s.monitor.get());
        sims_.push_back(std::move(s));
    }
}

Fleet::~Fleet()
{
    // The gateway serves pointers into sims_; take it down first.
    gateway_.stop();
}

void
Fleet::runAll(
    const std::function<void(std::size_t, gpu::Platform &)> &body)
{
    std::vector<std::thread> threads;
    threads.reserve(sims_.size());
    for (std::size_t i = 0; i < sims_.size(); i++) {
        threads.emplace_back(
            [this, i, &body]() { body(i, *sims_[i].platform); });
    }
    for (std::thread &t : threads)
        t.join();
}

} // namespace rtm
} // namespace akita
