#include "rtm/api.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <limits>

#include "rtm/monitor.hh"
#include "rtm/serialize.hh"
#include "sim/domain_engine.hh"
#include "web/encoding.hh"

namespace akita
{
namespace rtm
{

namespace
{

web::Response
jsonResponse(const json::Json &j)
{
    return web::Response::json(j.dump());
}

std::int64_t
wallNowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/**
 * Serves @p req through the monitor's response cache, keyed on the raw
 * request target (path + query). The heavy lifting — encoding
 * negotiation, variant ETags, If-None-Match — lives in serveCached so
 * the fleet gateway shares the exact pipeline.
 */
web::Response
cachedResponse(Monitor *m, const web::Request &req, std::uint64_t gen,
               const char *contentType, std::uint64_t ttl_ms,
               const ResponseCache::Builder &build)
{
    return serveCached(m->responseCache(), req, req.target, gen,
                       contentType, ttl_ms, build);
}

} // namespace

void
installApiRoutes(web::HttpServer &server, Monitor &monitor)
{
    installApiRoutes(server.router(), monitor);
}

void
installApiRoutes(web::Router &server, Monitor &monitor)
{
    Monitor *m = &monitor;

    // Core endpoints answer under both /api/<name> (the dashboard's
    // historical paths) and /api/v1/<name> (the stable versioned paths
    // fleet tooling targets). Distinct targets mean distinct cache
    // keys, so each alias coalesces its own polling wave.
    auto routeBoth = [&server](const char *method,
                               const std::string &suffix,
                               web::Handler h) {
        server.route(method, "/api" + suffix, h);
        server.route(method, "/api/v1" + suffix, std::move(h));
    };

    server.route("GET", "/", [](const web::Request &) {
        return web::Response::html(dashboardHtml());
    });

    routeBoth("GET", "/status", [m](const web::Request &) {
        return jsonResponse(m->status());
    });

    routeBoth("GET", "/resources", [m](const web::Request &) {
        return jsonResponse(serializeResources(m->resources()));
    });

    routeBoth("GET", "/components", [m](const web::Request &req) {
        // Structure-only view: its generation is the registration
        // count, so after setup every poll is a cache hit / 304.
        return cachedResponse(
            m, req, m->componentsGeneration(), "application/json",
            /*ttl_ms=*/0, [m]() {
                std::string body;
                json::Writer w(body);
                writeTree(w, m->registry().buildTree());
                return body;
            });
    });

    routeBoth("GET", "/component", [m](const web::Request &req) {
        std::string name = req.queryParam("name");
        if (name.empty())
            return web::Response::error(400, "missing ?name=");
        sim::Component *c = m->registry().find(name);
        if (c == nullptr)
            return web::Response::error(404,
                                        "unknown component " + name);
        // Streamed under the engine lock (fine-grained serialization:
        // one component per lock hold, same as the tree path).
        std::string body;
        json::Writer w(body);
        m->withEngineLock([&]() { writeComponent(w, *c); });
        return web::Response::json(std::move(body));
    });

    routeBoth("GET", "/buffers", [m](const web::Request &req) {
        BufferSort sort = req.queryParam("sort", "percent") == "size"
                              ? BufferSort::BySize
                              : BufferSort::ByPercent;
        auto top = static_cast<std::size_t>(req.queryInt("top", 50));
        // Generation = engine event count: while the simulation runs,
        // concurrent identical requests coalesce into one build; when
        // it is paused or finished, every poll is a hit / 304.
        // TTL floor: the event count advances with every event, so
        // without the floor every request of a polling wave would
        // rebuild; with it the wave shares one build.
        return cachedResponse(
            m, req, m->buffersGeneration(), "application/json",
            m->config().cacheTtlFloorMs, [m, sort, top]() {
                std::string body;
                json::Writer w(body);
                writeBuffers(w, m->bufferLevels(sort, top));
                return body;
            });
    });

    routeBoth("GET", "/progress", [m](const web::Request &) {
        std::string body;
        json::Writer w(body);
        writeProgress(w, m->progressBars());
        return web::Response::json(std::move(body));
    });

    routeBoth("POST", "/pause", [m](const web::Request &) {
        m->pause();
        return web::Response::json("{\"paused\":true}");
    });

    routeBoth("POST", "/resume", [m](const web::Request &) {
        m->kickStart();
        return web::Response::json("{\"paused\":false}");
    });

    routeBoth("POST", "/tick", [m](const web::Request &req) {
        std::string name = req.queryParam("component");
        if (name.empty())
            return web::Response::error(400, "missing ?component=");
        if (!m->tickComponent(name))
            return web::Response::error(404,
                                        "unknown component " + name);
        return web::Response::json("{\"ticked\":true}");
    });

    server.route("GET", "/api/profile", [m](const web::Request &req) {
        auto top = static_cast<std::size_t>(req.queryInt("top", 30));
        json::Json j = serializeProfile(m->profile(top));
        j.set("enabled", m->profiling());
        return jsonResponse(j);
    });

    server.route("POST", "/api/profile/start", [m](const web::Request &) {
        m->startProfiling();
        return web::Response::json("{\"profiling\":true}");
    });

    server.route("POST", "/api/profile/stop", [m](const web::Request &) {
        m->stopProfiling();
        return web::Response::json("{\"profiling\":false}");
    });

    server.route("POST", "/api/monitor/track",
                 [m](const web::Request &req) {
                     std::string comp = req.queryParam("component");
                     std::string field = req.queryParam("field");
                     if (comp.empty() || field.empty()) {
                         return web::Response::error(
                             400, "missing ?component=&field=");
                     }
                     std::uint64_t id = m->trackValue(comp, field);
                     if (id == 0) {
                         return web::Response::error(
                             409,
                             "cannot track (unknown field or limit of 5 "
                             "series reached)");
                     }
                     json::Json j = json::Json::object();
                     j.set("id", id);
                     return jsonResponse(j);
                 });

    server.route("POST", "/api/monitor/untrack",
                 [m](const web::Request &req) {
                     auto id = static_cast<std::uint64_t>(
                         req.queryInt("id", 0));
                     if (!m->untrackValue(id))
                         return web::Response::error(404, "unknown id");
                     return web::Response::json("{\"untracked\":true}");
                 });

    server.route("GET", "/api/monitor/series",
                 [m](const web::Request &req) {
                     auto id = static_cast<std::uint64_t>(
                         req.queryInt("id", 0));
                     TrackedSeries s = m->valueSeries(id);
                     if (s.id == 0)
                         return web::Response::error(404, "unknown id");
                     return jsonResponse(serializeSeries(s));
                 });

    server.route("GET", "/api/throughput", [m](const web::Request &req) {
        std::string name = req.queryParam("component");
        if (name.empty())
            return web::Response::error(400, "missing ?component=");
        // Each dashboard/curl client passes its own key so concurrent
        // observers keep independent rate cursors.
        std::string client = req.queryParam("client");
        auto ports = m->portThroughput(name, client);
        if (ports.empty())
            return web::Response::error(404,
                                        "unknown component " + name);
        json::Json arr = json::Json::array();
        for (const auto &t : ports) {
            json::Json pj = json::Json::object();
            pj.set("port", t.port);
            pj.set("total_sent", t.totalSent);
            pj.set("total_sent_bytes", t.totalSentBytes);
            pj.set("total_received", t.totalReceived);
            pj.set("send_rejections", t.sendRejections);
            pj.set("send_rate_sim_per_sec", t.sendRateSimPerSec);
            pj.set("byte_rate_sim_per_sec", t.byteRateSimPerSec);
            arr.push(std::move(pj));
        }
        return jsonResponse(arr);
    });

    routeBoth("GET", "/topology", [m](const web::Request &) {
        return jsonResponse(m->topology());
    });

    server.route("GET", "/api/monitor/export",
                 [m](const web::Request &req) {
                     auto id = static_cast<std::uint64_t>(
                         req.queryInt("id", 0));
                     std::string csv = m->exportSeriesCsv(id);
                     if (csv.empty())
                         return web::Response::error(404, "unknown id");
                     return web::Response::ok(std::move(csv),
                                              "text/csv");
                 });

    server.route("GET", "/api/monitor/all", [m](const web::Request &) {
        json::Json arr = json::Json::array();
        for (const auto &s : m->allValueSeries())
            arr.push(serializeSeries(s));
        return jsonResponse(arr);
    });

    // ---- Metrics subsystem ----

    server.route("GET", "/metrics", [m](const web::Request &req) {
        // Exposition is cached per metrics generation (sampling pass or
        // instrument churn): many scrapers cost one render. Live
        // no-lock callback values are frozen between passes — bounded
        // staleness of one metricsIntervalMs.
        return cachedResponse(
            m, req, m->metricsGeneration(),
            "text/plain; version=0.0.4; charset=utf-8",
            m->config().cacheTtlFloorMs,
            [m]() { return m->metrics().renderPrometheus(); });
    });

    server.route("GET", "/api/v1/metrics", [m](const web::Request &) {
        json::Json arr = json::Json::array();
        for (const auto &d : m->metrics().list()) {
            json::Json dj = json::Json::object();
            dj.set("name", d.name);
            dj.set("help", d.help);
            const char *type = d.type == metrics::Type::Counter
                                   ? "counter"
                                   : (d.type == metrics::Type::Histogram
                                          ? "histogram"
                                          : "gauge");
            dj.set("type", std::string(type));
            json::Json labels = json::Json::object();
            for (const auto &kv : d.labels)
                labels.set(kv.first, kv.second);
            dj.set("labels", std::move(labels));
            dj.set("has_series",
                   d.series != metrics::SeriesMode::None);
            arr.push(std::move(dj));
        }
        return jsonResponse(arr);
    });

    server.route("GET", "/api/v1/metrics/query",
                 [m](const web::Request &req) {
                     std::string name = req.queryParam("name");
                     if (name.empty())
                         return web::Response::error(400,
                                                     "missing ?name=");
                     std::int64_t from = req.queryInt("from", 0);
                     std::int64_t to = req.queryInt(
                         "to", std::numeric_limits<std::int64_t>::max());
                     std::int64_t step = req.queryInt("step", 1000);
                     // Optional label filter, e.g. &component=GPU1.L1V0.
                     metrics::Labels filter;
                     for (const char *key :
                          {"component", "port", "buffer", "field"}) {
                         std::string v = req.queryParam(key);
                         if (!v.empty())
                             filter.emplace_back(key, v);
                     }
                     return cachedResponse(
                         m, req, m->metricsGeneration(),
                         "application/json",
                         m->config().cacheTtlFloorMs,
                         [m, name, filter, from, to, step]() {
                             auto series = m->metrics().query(
                                 name, filter, from, to, step);
                             std::string body;
                             json::Writer w(body);
                             w.beginArray();
                             for (const auto &qs : series) {
                                 w.beginObject();
                                 w.field("name", qs.desc.name);
                                 w.key("labels").beginObject();
                                 for (const auto &kv : qs.desc.labels)
                                     w.field(kv.first, kv.second);
                                 w.endObject();
                                 w.key("points").beginArray();
                                 for (const auto &b : qs.points) {
                                     w.beginObject();
                                     w.field("t_ms", b.startMs);
                                     w.field("min", b.min);
                                     w.field("max", b.max);
                                     w.field("avg", b.avg());
                                     w.field("last", b.last);
                                     w.field("count", b.count);
                                     w.field("sim_ps", b.lastSimPs);
                                     w.endObject();
                                 }
                                 w.endArray();
                                 w.endObject();
                             }
                             w.endArray();
                             return body;
                         });
                 });

    server.routeStream(
        "GET", "/api/v1/metrics/stream",
        [m](const web::Request &req) {
            std::string name = req.queryParam("name");
            int maxEvents =
                static_cast<int>(req.queryInt("max_events", 0));
            // The session is pumped from the server's event loop (no
            // dedicated thread), so the pump polls the sample version
            // non-blockingly; state lives in shared_ptrs because the
            // pump callable outlives this handler invocation.
            //
            // Resume: a reconnecting EventSource sends Last-Event-ID
            // (manual clients may use ?last_event_id=); events after
            // that version are replayed from the registry's bounded
            // ring, so no sample inside the replay window is lost. A
            // fresh client starts one pass back, so its first pump
            // delivers the current state immediately.
            auto seen = std::make_shared<std::uint64_t>(0);
            auto sent = std::make_shared<int>(0);
            auto first = std::make_shared<bool>(true);
            std::uint64_t v = m->metrics().version();
            *seen = v > 0 ? v - 1 : 0;
            auto lei = req.headers.find("last-event-id");
            if (lei != req.headers.end()) {
                // Strict parse: this server only ever issues plain
                // decimal ids, so trailing garbage ("2junk"), a
                // leading sign, or overflow means the id is corrupt
                // or from another server — treat it as no resume
                // point (full replay from one pass back) rather than
                // resuming at a bogus position and silently dropping
                // samples.
                const std::string &raw = lei->second;
                errno = 0;
                char *end = nullptr;
                unsigned long long id =
                    std::strtoull(raw.c_str(), &end, 10);
                if (!raw.empty() &&
                    raw.find_first_not_of("0123456789") ==
                        std::string::npos &&
                    errno == 0 && end == raw.c_str() + raw.size())
                    *seen = id;
            } else if (req.query.count("last_event_id")) {
                *seen = static_cast<std::uint64_t>(req.queryInt(
                    "last_event_id",
                    static_cast<std::int64_t>(*seen)));
            }
            web::StreamSession s;
            s.headers = {{"Content-Type", "text/event-stream"},
                         {"Cache-Control", "no-cache"}};
            s.pump = [m, name, maxEvents, seen, sent,
                      first](std::string &out) {
                if (*first) {
                    // Lone retry event: how long an EventSource waits
                    // before reconnecting (and resuming via
                    // Last-Event-ID).
                    out += "retry: 2000\n\n";
                    *first = false;
                }
                auto emit = [&](std::uint64_t id,
                                const std::string &body) {
                    out += "id: " + std::to_string(id) +
                           "\ndata: " + body + "\n\n";
                    *seen = id;
                    return !(maxEvents > 0 && ++*sent >= maxEvents);
                };
                if (m->metrics().replayCapacity() == 0) {
                    // Replay disabled: stream the latest state per
                    // version tick (no resume guarantee).
                    std::uint64_t v = m->metrics().version();
                    if (v <= *seen)
                        return true; // No new sampling pass yet.
                    std::string body;
                    json::Writer w(body);
                    w.beginArray();
                    for (const auto &sv : m->metrics().latest(name)) {
                        w.beginObject();
                        w.field("name", sv.desc->name);
                        w.key("labels").beginObject();
                        for (const auto &kv : sv.desc->labels)
                            w.field(kv.first, kv.second);
                        w.endObject();
                        w.field("value", sv.value);
                        w.field("t_ms", sv.wallMs);
                        w.field("sim_ps", sv.simPs);
                        w.endObject();
                    }
                    w.endArray();
                    return emit(v, body);
                }
                for (const auto &ev :
                     m->metrics().replaySince(*seen, name)) {
                    std::string body;
                    json::Writer w(body);
                    w.beginArray();
                    for (const auto &rv : ev.values) {
                        w.beginObject();
                        w.field("name", rv.name);
                        w.key("labels").beginObject();
                        for (const auto &kv : rv.labels)
                            w.field(kv.first, kv.second);
                        w.endObject();
                        w.field("value", rv.value);
                        w.field("t_ms", rv.wallMs);
                        w.field("sim_ps", rv.simPs);
                        w.endObject();
                    }
                    w.endArray();
                    if (!emit(ev.version, body))
                        return false;
                }
                return true;
            };
            return s;
        });

    server.route("GET", "/api/v1/hang", [m](const web::Request &req) {
        // Staleness here is a correctness issue, not a performance
        // knob: during a deadlock the engine event count freezes, so a
        // generation keyed on it alone would pin a pre-hang "not
        // hanging" body in the cache forever. Folding wall time in at
        // the TTL-floor cadence forces a rebuild at least that often
        // while frozen; x-akita-no-cache (handled by cachedResponse)
        // bypasses even that window.
        std::uint64_t ttl =
            std::max<std::uint64_t>(1, m->config().hangTtlFloorMs);
        std::uint64_t gen =
            m->buffersGeneration() +
            static_cast<std::uint64_t>(wallNowMs()) / ttl;
        return cachedResponse(
            m, req, gen, "application/json", ttl, [m]() {
                std::string body;
                writeHangReport(body, m->hangReport());
                return body;
            });
    });

    server.route("GET", "/api/v1/domains", [m](const web::Request &req) {
        auto *de = dynamic_cast<sim::DomainEngine *>(m->engine());
        if (de == nullptr)
            return web::Response::error(
                404, "engine is not domain-partitioned "
                     "(run with --engine=domain)");
        // Coalesced like every other hot endpoint: a dashboard wave
        // polling per-domain lag costs one build per TTL window. The
        // generation folds wall time (cf. /api/v1/hang) because
        // horizons, ring occupancy and the drain-time clock sync all
        // move without the event count moving.
        std::uint64_t ttl =
            std::max<std::uint64_t>(1, m->config().domainsTtlFloorMs);
        std::uint64_t gen =
            m->buffersGeneration() +
            static_cast<std::uint64_t>(wallNowMs()) / ttl;
        return cachedResponse(
            m, req, gen, "application/json", ttl, [de]() {
                const auto &members = de->domainMemberNames();
                const auto edges = de->edgeInfos();
                std::string body;
                json::Writer w(body);
                w.beginObject();
                w.field("num_domains",
                        static_cast<std::uint64_t>(de->numDomains()));
                w.field("mailbox_fast_total", de->mailboxFastTotal());
                w.field("mailbox_slow_total", de->mailboxSlowTotal());
                // lag_ps is served rather than left to the client: the
                // dashboard colors a domain by how far it trails the
                // slowest-relative-fastest clock, and every consumer
                // should agree on the reference point.
                sim::VTime maxClock = 0;
                std::vector<sim::DomainEngine::DomainStatus> sts;
                sts.reserve(
                    static_cast<std::size_t>(de->numDomains()));
                for (int i = 0; i < de->numDomains(); i++) {
                    sts.push_back(de->domainStatus(i));
                    maxClock = std::max(maxClock, sts.back().clock);
                }
                w.key("domains").beginArray();
                for (int i = 0; i < de->numDomains(); i++) {
                    const sim::DomainEngine::DomainStatus &st =
                        sts[static_cast<std::size_t>(i)];
                    w.beginObject();
                    w.field("id", static_cast<std::uint64_t>(i));
                    w.field("clock_ps", st.clock);
                    w.field("horizon_ps", st.horizon);
                    w.field("lag_ps", maxClock - st.clock);
                    w.field("events", st.events);
                    w.field("queue_len",
                            static_cast<std::uint64_t>(st.queueLen));
                    w.field("ring_occupancy",
                            static_cast<std::uint64_t>(
                                st.ringOccupancy));
                    w.field("ring_capacity",
                            static_cast<std::uint64_t>(
                                st.ringCapacity));
                    w.key("members").beginArray();
                    for (const std::string &name :
                         members[static_cast<std::size_t>(i)])
                        w.value(name);
                    w.endArray();
                    w.endObject();
                }
                w.endArray();
                w.key("edges").beginArray();
                for (const auto &e : edges) {
                    w.beginObject();
                    w.field("src", static_cast<std::uint64_t>(e.src));
                    w.field("dst", static_cast<std::uint64_t>(e.dst));
                    w.field("lookahead_ps", e.lookahead);
                    w.field("connection", e.connection);
                    w.endObject();
                }
                w.endArray();
                w.endObject();
                return body;
            });
    });

    server.route(
        "GET", "/api/v1/recorder/info", [m](const web::Request &req) {
            if (m->recorder() == nullptr)
                return web::Response::error(
                    404, "flight recorder disabled (set --record=)");
            return cachedResponse(
                m, req, m->recorderGeneration(), "application/json",
                m->config().recorderTtlFloorMs, [m]() {
                    recorder::FlightRecorder::Info inf =
                        m->recorder()->info();
                    std::string body;
                    json::Writer w(body);
                    w.beginObject();
                    w.field("path", inf.path);
                    w.field("segment_bytes", inf.segmentBytes);
                    w.field("data_bytes", inf.dataBytes);
                    w.field("cursor", inf.cursor);
                    w.field("next_seq", inf.nextSeq);
                    w.field("window_records",
                            static_cast<std::uint64_t>(
                                inf.windowRecords));
                    w.field("first_seq", inf.firstSeq);
                    w.field("last_seq", inf.lastSeq);
                    w.field("first_wall_ms", inf.firstWallMs);
                    w.field("last_wall_ms", inf.lastWallMs);
                    w.field("dict_entries",
                            static_cast<std::uint64_t>(
                                inf.dictEntries));
                    w.field("dropped_appends", inf.droppedAppends);
                    w.endObject();
                    return body;
                });
        });

    server.route(
        "GET", "/api/v1/recorder/range", [m](const web::Request &req) {
            if (m->recorder() == nullptr)
                return web::Response::error(
                    404, "flight recorder disabled (set --record=)");
            std::string name = req.queryParam("name");
            if (name.empty())
                return web::Response::error(400, "missing ?name=");
            std::int64_t from = req.queryInt("from", 0);
            std::int64_t to = req.queryInt(
                "to", std::numeric_limits<std::int64_t>::max());
            std::int64_t step = req.queryInt("step", 0);
            metrics::Labels filter;
            for (const char *key :
                 {"component", "port", "buffer", "field"}) {
                std::string v = req.queryParam(key);
                if (!v.empty())
                    filter.emplace_back(key, v);
            }
            // Either store may refresh the answer, so fold both
            // generations into the cache stamp.
            std::uint64_t gen =
                m->metricsGeneration() + m->recorderGeneration();
            return cachedResponse(
                m, req, gen, "application/json",
                m->config().recorderTtlFloorMs,
                [m, name, filter, from, to, step]() {
                    std::string body;
                    json::Writer w(body);
                    // Memory first: the in-process raw rings are
                    // cheaper and fresher than a segment scan. Only
                    // when the range starts before everything memory
                    // still holds does the query fall through to disk.
                    std::int64_t oldest =
                        m->metrics().oldestRawMs(name, filter);
                    if (from >= oldest) {
                        auto series = m->metrics().query(
                            name, filter, from, to,
                            step > 0 ? step : 1);
                        w.beginObject();
                        w.field("source", "memory");
                        w.key("series").beginArray();
                        for (const auto &qs : series) {
                            w.beginObject();
                            w.field("name", qs.desc.name);
                            w.key("labels").beginObject();
                            for (const auto &kv : qs.desc.labels)
                                w.field(kv.first, kv.second);
                            w.endObject();
                            w.key("points").beginArray();
                            for (const auto &b : qs.points) {
                                w.beginObject();
                                w.field("t_ms", b.startMs);
                                w.field("sim_ps", b.lastSimPs);
                                w.field("value", b.last);
                                w.endObject();
                            }
                            w.endArray();
                            w.endObject();
                        }
                        w.endArray();
                        w.endObject();
                        return body;
                    }
                    auto series = m->recorder()->query(name, filter,
                                                       from, to);
                    w.beginObject();
                    w.field("source", "segment");
                    w.key("series").beginArray();
                    for (const auto &s : series) {
                        w.beginObject();
                        w.field("name", s.name);
                        w.key("labels").beginObject();
                        for (const auto &kv : s.labels)
                            w.field(kv.first, kv.second);
                        w.endObject();
                        w.key("points").beginArray();
                        for (const auto &p : s.points) {
                            w.beginObject();
                            w.field("t_ms", p.wallMs);
                            w.field("sim_ps", p.simPs);
                            w.field("value", p.value);
                            w.endObject();
                        }
                        w.endArray();
                        w.endObject();
                    }
                    w.endArray();
                    w.endObject();
                    return body;
                });
        });
}

} // namespace rtm
} // namespace akita
