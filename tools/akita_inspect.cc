/**
 * @file
 * akita-inspect: command-line client for any AkitaRTM endpoint.
 *
 * The scriptable counterpart of the dashboard — useful over SSH, in CI,
 * or from shell loops, and a second independent consumer of the HTTP
 * API (after the browser frontend) demonstrating the §IV-B claim that
 * the API is the integration boundary.
 *
 * Usage: akita-inspect [--host H] [--port P] <command> [args]
 *
 *   status                        simulation time/events/hang state
 *   resources                     CPU%, RSS, thread count
 *   components                    component hierarchy (indented)
 *   component <name>              one component's fields and buffers
 *   buffers [size|percent] [N]    bottleneck analyzer table
 *   progress                      progress bars
 *   throughput <name>             per-port rates of one component
 *   topology                      connection map
 *   domains [--json]              domain-engine partition + clocks
 *   domains --watch [seconds]     live per-domain lag view
 *   fleet [--json]                per-sim table via a fleet gateway
 *   fleet --watch [seconds]       live fleet view
 *   pause | resume                simulation controls
 *   tick <name>                   wake one component
 *   profile [N]                   top-N profiler entries
 *   profile-start | profile-stop  toggle the profiler
 *   metrics                       list instrument families
 *   metrics <name> [step_ms]      range-query one family's time series
 *   scrape                        raw Prometheus exposition
 *   track <name> <field>          start a time series, prints its id
 *   untrack <id>                  stop a time series
 *   series <id>                   print a series (t_ps value rows)
 *   export <id>                   print a series as CSV
 *   watch [seconds]               poll status once per second
 *   replay <segment> [--json]     post-mortem: dump a flight-recorder
 *                                 segment (no server needed)
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "json/json.hh"
#include "json/writer.hh"
#include "recorder/recorder.hh"
#include "recorder/segment.hh"
#include "web/client.hh"

using akita::json::Json;
using akita::web::HttpClient;

namespace
{

int
fail(const std::string &msg)
{
    std::fprintf(stderr, "akita-inspect: %s\n", msg.c_str());
    return 1;
}

/** URL-encodes a query value (component names contain '[' / ']'). */
std::string
urlEncode(const std::string &s)
{
    static const char *hex = "0123456789ABCDEF";
    std::string out;
    for (unsigned char c : s) {
        if (std::isalnum(c) || c == '-' || c == '_' || c == '.' ||
            c == '~') {
            out.push_back(static_cast<char>(c));
        } else {
            out.push_back('%');
            out.push_back(hex[c >> 4]);
            out.push_back(hex[c & 0xF]);
        }
    }
    return out;
}

Json
mustGet(const HttpClient &client, const std::string &target)
{
    auto r = client.get(target);
    if (!r)
        throw std::runtime_error("cannot reach the monitor (is the "
                                 "simulation running?)");
    if (r->status != 200)
        throw std::runtime_error("HTTP " + std::to_string(r->status) +
                                 ": " + r->body);
    return Json::parse(r->body);
}

void
mustPost(const HttpClient &client, const std::string &target)
{
    auto r = client.post(target, "");
    if (!r)
        throw std::runtime_error("cannot reach the monitor");
    if (r->status != 200)
        throw std::runtime_error("HTTP " + std::to_string(r->status) +
                                 ": " + r->body);
    std::printf("%s\n", r->body.c_str());
}

void
printStatus(const Json &st)
{
    std::printf("t=%s  events=%lld  queue=%lld %s%s%s\n",
                st.getStr("now").c_str(),
                static_cast<long long>(st.getInt("events", 0)),
                static_cast<long long>(st.getInt("queue_len", 0)),
                st.getBool("paused", false) ? "[paused]" : "",
                st.getBool("running", false) ? "" : "[not running]",
                st.get("hang") != nullptr &&
                        st.get("hang")->getBool("hanging", false)
                    ? "  *** HANG SUSPECTED ***"
                    : "");
}

void
printTree(const Json &node, int depth)
{
    std::string label = node.getStr("label");
    if (!label.empty())
        std::printf("%*s%s\n", depth * 2, "", label.c_str());
    const Json *children = node.get("children");
    if (children != nullptr) {
        for (const auto &c : children->items())
            printTree(c, depth + 1);
    }
}

/**
 * Offline post-mortem of a flight-recorder segment: recover the valid
 * window (tolerating a truncated or garbled tail), then dump it —
 * human-readable by default, one JSON document with --json.
 */
int
replaySegment(const std::vector<std::string> &args)
{
    if (args.size() < 2)
        return fail("usage: replay <segment-file> [--json]");
    bool asJson = args.size() > 2 && args[2] == "--json";

    namespace rec = akita::recorder;
    std::string err;
    auto reader = rec::SegmentReader::open(args[1], &err);
    if (!reader)
        return fail(err);

    const rec::SegmentHeader &h = reader->header();
    const auto &records = reader->records();
    const rec::ScanStats &stats = reader->stats();

    // Reassemble the streams the recorder teed in.
    struct SeriesOut
    {
        std::string name;
        std::string labelsJson;
        std::vector<rec::FlightRecorder::Point> points;
    };
    std::map<std::uint32_t, SeriesOut> series;
    std::vector<std::string> events;      // Raw JSON documents.
    std::vector<std::string> hangReports; // Raw JSON documents.
    std::string metaJson;
    std::size_t badPasses = 0;

    for (const auto &r : records) {
        std::string payload(reinterpret_cast<const char *>(r.payload),
                            r.payloadLen);
        switch (r.type) {
        case rec::RecordType::Meta:
            metaJson = payload;
            break;
        case rec::RecordType::Dict: {
            Json d = Json::parse(payload);
            auto id = static_cast<std::uint32_t>(d.getInt("id", 0));
            series[id].name = d.getStr("name");
            const Json *labels = d.get("labels");
            series[id].labelsJson = labels ? labels->dump() : "{}";
            break;
        }
        case rec::RecordType::MetricsPass: {
            rec::DecodedPass pass;
            if (!rec::decodeMetricsPass(r.payload, r.payloadLen,
                                        &pass)) {
                badPasses++;
                break;
            }
            for (const auto &v : pass.values) {
                series[v.id].points.push_back(
                    {pass.wallMs, pass.simPs, v.value});
            }
            break;
        }
        case rec::RecordType::EngineEvent:
            events.push_back(payload);
            break;
        case rec::RecordType::HangReport:
            hangReports.push_back(payload);
            break;
        case rec::RecordType::Pad:
            break;
        }
    }

    if (asJson) {
        std::string out;
        akita::json::Writer w(out);
        w.beginObject();
        w.field("path", args[1]);
        w.field("version", static_cast<std::uint64_t>(h.version));
        w.field("segment_bytes", h.segmentBytes);
        w.field("data_bytes", h.dataBytes);
        w.field("write_cursor_hint", h.writeCursor);
        w.field("window_records",
                static_cast<std::uint64_t>(records.size()));
        w.field("frames_found",
                static_cast<std::uint64_t>(stats.framesFound));
        w.field("stale_dropped",
                static_cast<std::uint64_t>(stats.staleDropped));
        w.field("first_wall_ms", reader->firstWallMs());
        w.field("last_wall_ms", reader->lastWallMs());
        if (!records.empty()) {
            w.field("first_seq", records.front().seq);
            w.field("last_seq", records.back().seq);
        }
        w.key("meta");
        if (metaJson.empty())
            w.value(nullptr);
        else
            w.json(Json::parse(metaJson));
        w.key("events").beginArray();
        for (const auto &e : events)
            w.json(Json::parse(e));
        w.endArray();
        w.key("hang_reports").beginArray();
        for (const auto &hr : hangReports)
            w.json(Json::parse(hr));
        w.endArray();
        w.key("series").beginArray();
        for (const auto &kv : series) {
            w.beginObject();
            w.field("id", static_cast<std::uint64_t>(kv.first));
            w.field("name", kv.second.name);
            w.key("labels");
            w.json(Json::parse(kv.second.labelsJson.empty()
                                   ? "{}"
                                   : kv.second.labelsJson));
            w.key("points").beginArray();
            for (const auto &p : kv.second.points) {
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
        std::printf("%s\n", out.c_str());
        return 0;
    }

    std::printf("segment %s (v%u, %llu bytes, ring %llu bytes)\n",
                args[1].c_str(), h.version,
                static_cast<unsigned long long>(h.segmentBytes),
                static_cast<unsigned long long>(h.dataBytes));
    std::printf("recovered window: %zu records", records.size());
    if (!records.empty()) {
        std::printf(", seq [%llu, %llu], wall [%lld, %lld] ms",
                    static_cast<unsigned long long>(records.front().seq),
                    static_cast<unsigned long long>(records.back().seq),
                    static_cast<long long>(reader->firstWallMs()),
                    static_cast<long long>(reader->lastWallMs()));
    }
    std::printf("\n  (%zu CRC-valid frames found, %zu stale dropped, "
                "%llu bytes skipped, cursor hint %llu)\n",
                stats.framesFound, stats.staleDropped,
                static_cast<unsigned long long>(stats.bytesSkipped),
                static_cast<unsigned long long>(h.writeCursor));
    if (badPasses != 0)
        std::printf("  %zu malformed metrics passes ignored\n",
                    badPasses);
    if (!metaJson.empty())
        std::printf("meta: %s\n", metaJson.c_str());

    if (!events.empty()) {
        std::printf("\nengine events:\n");
        for (const auto &e : events) {
            Json ev = Json::parse(e);
            std::printf("  %12lld ms  sim=%llu ps  %s\n",
                        static_cast<long long>(ev.getInt("wall_ms", 0)),
                        static_cast<unsigned long long>(
                            ev.getInt("sim_ps", 0)),
                        ev.getStr("kind").c_str());
        }
    }
    if (!hangReports.empty()) {
        std::printf("\nhang reports:\n");
        for (const auto &hr : hangReports) {
            Json rep = Json::parse(hr);
            std::printf("  verdict=%s  %s\n",
                        rep.getStr("verdict").c_str(),
                        rep.getStr("summary").c_str());
        }
    }
    if (!series.empty()) {
        std::printf("\nmetric series (%zu):\n", series.size());
        for (const auto &kv : series) {
            const SeriesOut &s = kv.second;
            std::printf("  [%u] %-44s %s  %zu points",
                        kv.first, s.name.c_str(), s.labelsJson.c_str(),
                        s.points.size());
            if (!s.points.empty()) {
                std::printf("  last=%g @ %lld ms",
                            s.points.back().value,
                            static_cast<long long>(
                                s.points.back().wallMs));
            }
            std::printf("\n");
        }
    }
    return 0;
}

int
run(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 8080;
    std::vector<std::string> args;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc) {
            host = argv[++i];
        } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
            port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
        } else {
            args.emplace_back(argv[i]);
        }
    }
    if (args.empty())
        return fail("missing command (see the header of this tool)");

    // Offline commands first: no server required.
    if (args[0] == "replay")
        return replaySegment(args);

    HttpClient client(host, port);
    const std::string &cmd = args[0];

    if (cmd == "status") {
        printStatus(mustGet(client, "/api/v1/status"));
        return 0;
    }
    if (cmd == "resources") {
        Json r = mustGet(client, "/api/v1/resources");
        std::printf("cpu %.0f%%  rss %.1f MB  vm %.1f MB  threads %lld\n",
                    r.getNumber("cpu_percent", 0),
                    r.getNumber("rss_bytes", 0) / 1048576.0,
                    r.getNumber("vm_bytes", 0) / 1048576.0,
                    static_cast<long long>(r.getInt("num_threads", 0)));
        return 0;
    }
    if (cmd == "components") {
        printTree(mustGet(client, "/api/v1/components"), -1);
        return 0;
    }
    if (cmd == "component") {
        if (args.size() < 2)
            return fail("usage: component <name>");
        Json c = mustGet(client,
                         "/api/v1/component?name=" + urlEncode(args[1]));
        std::printf("%s\n", c.getStr("name").c_str());
        for (const auto &f : c.get("fields")->items()) {
            std::printf("  %-24s %-8s %s\n", f.getStr("name").c_str(),
                        f.getStr("type").c_str(),
                        f.get("value")->dump().c_str());
        }
        for (const auto &b : c.get("buffers")->items()) {
            std::printf("  %-40s %lld/%lld\n",
                        b.getStr("name").c_str(),
                        static_cast<long long>(b.getInt("size", 0)),
                        static_cast<long long>(b.getInt("capacity", 0)));
        }
        return 0;
    }
    if (cmd == "buffers") {
        std::string sort = args.size() > 1 ? args[1] : "percent";
        std::string top = args.size() > 2 ? args[2] : "20";
        Json rows = mustGet(client, "/api/v1/buffers?sort=" + sort +
                                        "&top=" + top);
        std::printf("%-50s %6s %5s\n", "Buffer", "Size", "Cap");
        for (const auto &row : rows.items()) {
            std::printf("%-50s %6lld %5lld\n",
                        row.getStr("buffer").c_str(),
                        static_cast<long long>(row.getInt("size", 0)),
                        static_cast<long long>(row.getInt("cap", 0)));
        }
        return 0;
    }
    if (cmd == "progress") {
        Json bars = mustGet(client, "/api/v1/progress");
        for (const auto &b : bars.items()) {
            std::printf("%-28s %lld done / %lld running / %lld left\n",
                        b.getStr("label").c_str(),
                        static_cast<long long>(b.getInt("completed", 0)),
                        static_cast<long long>(
                            b.getInt("in_progress", 0)),
                        static_cast<long long>(
                            b.getInt("not_started", 0)));
        }
        return 0;
    }
    if (cmd == "throughput") {
        if (args.size() < 2)
            return fail("usage: throughput <component>");
        Json ports = mustGet(
            client, "/api/v1/throughput?component=" + urlEncode(args[1]));
        std::printf("%-40s %10s %12s %10s\n", "Port", "sent",
                    "msgs/sim-s", "rejects");
        for (const auto &p : ports.items()) {
            std::printf("%-40s %10lld %12.3g %10lld\n",
                        p.getStr("port").c_str(),
                        static_cast<long long>(
                            p.getInt("total_sent", 0)),
                        p.getNumber("send_rate_sim_per_sec", 0),
                        static_cast<long long>(
                            p.getInt("send_rejections", 0)));
        }
        return 0;
    }
    if (cmd == "topology") {
        Json topo = mustGet(client, "/api/v1/topology");
        for (const auto &conn : topo.items()) {
            std::printf("%s\n", conn.getStr("connection").c_str());
            for (const auto &p : conn.get("ports")->items())
                std::printf("  %s\n", p.strVal().c_str());
        }
        return 0;
    }
    if (cmd == "domains") {
        bool asJson = false;
        bool watch = false;
        int seconds = 0;
        for (std::size_t i = 1; i < args.size(); i++) {
            if (args[i] == "--json") {
                asJson = true;
            } else if (args[i] == "--watch") {
                watch = true;
                if (i + 1 < args.size() &&
                    std::isdigit(
                        static_cast<unsigned char>(args[i + 1][0])))
                    seconds = std::atoi(args[++i].c_str());
            } else {
                return fail("usage: domains [--json] "
                            "[--watch [seconds]]");
            }
        }
        if (asJson) {
            // Raw body: scripting-friendly, includes everything the
            // endpoint offers (ring occupancy, edge lookaheads).
            auto r = client.get("/api/v1/domains");
            if (!r || r->status != 200)
                return fail(r ? r->body : "unreachable");
            std::printf("%s\n", r->body.c_str());
            return 0;
        }
        // --watch: one compact line per domain, once a second. The
        // endpoint is coalesced server-side, so N watchers cost one
        // build per TTL window.
        for (int i = 0; !watch || seconds == 0 || i < seconds; i++) {
            if (watch && i > 0)
                std::this_thread::sleep_for(std::chrono::seconds(1));
            Json d;
            try {
                d = mustGet(client, "/api/v1/domains");
            } catch (const std::exception &e) {
                if (!watch)
                    throw;
                std::printf("(%s)\n", e.what());
                continue;
            }
            long long maxClock = 0;
            for (const auto &dom : d.get("domains")->items())
                maxClock = std::max(
                    maxClock,
                    static_cast<long long>(dom.getInt("clock_ps", 0)));
            std::printf("%lld domains  mailbox fast/slow=%lld/%lld\n",
                        static_cast<long long>(
                            d.getInt("num_domains", 0)),
                        static_cast<long long>(
                            d.getInt("mailbox_fast_total", 0)),
                        static_cast<long long>(
                            d.getInt("mailbox_slow_total", 0)));
            for (const auto &dom : d.get("domains")->items()) {
                long long clock =
                    static_cast<long long>(dom.getInt("clock_ps", 0));
                std::printf(
                    "[%lld] clock=%lld ps (lag %lld)  events=%lld  "
                    "queue=%lld\n",
                    static_cast<long long>(dom.getInt("id", 0)), clock,
                    maxClock - clock,
                    static_cast<long long>(dom.getInt("events", 0)),
                    static_cast<long long>(dom.getInt("queue_len", 0)));
                if (watch)
                    continue;
                for (const auto &m : dom.get("members")->items())
                    std::printf("      %s\n", m.strVal().c_str());
            }
            if (watch)
                continue;
            const Json *edges = d.get("edges");
            if (edges != nullptr && !edges->items().empty()) {
                std::printf("edges:\n");
                for (const auto &e : edges->items()) {
                    std::printf(
                        "  %lld -> %lld  lookahead=%lld ps  via %s\n",
                        static_cast<long long>(e.getInt("src", 0)),
                        static_cast<long long>(e.getInt("dst", 0)),
                        static_cast<long long>(
                            e.getInt("lookahead_ps", 0)),
                        e.getStr("connection").c_str());
                }
            }
            if (!watch)
                break;
        }
        return 0;
    }
    if (cmd == "fleet") {
        bool asJson = false;
        bool watch = false;
        int seconds = 0;
        for (std::size_t i = 1; i < args.size(); i++) {
            if (args[i] == "--json") {
                asJson = true;
            } else if (args[i] == "--watch") {
                watch = true;
                if (i + 1 < args.size() &&
                    std::isdigit(
                        static_cast<unsigned char>(args[i + 1][0])))
                    seconds = std::atoi(args[++i].c_str());
            } else {
                return fail("usage: fleet [--json] "
                            "[--watch [seconds]]");
            }
        }
        if (asJson) {
            auto r = client.get("/api/v1/fleet");
            if (!r || r->status != 200)
                return fail(r ? r->body : "unreachable (is a fleet "
                                          "gateway running?)");
            std::printf("%s\n", r->body.c_str());
            return 0;
        }
        for (int i = 0; !watch || seconds == 0 || i < seconds; i++) {
            if (watch && i > 0)
                std::this_thread::sleep_for(std::chrono::seconds(1));
            Json f;
            try {
                f = mustGet(client, "/api/v1/fleet");
            } catch (const std::exception &e) {
                if (!watch)
                    throw;
                std::printf("(%s)\n", e.what());
                continue;
            }
            const Json *slowest = f.get("slowest");
            std::printf("%lld sims  total_events=%lld  slowest=%s @ "
                        "%lld ps\n",
                        static_cast<long long>(f.getInt("num_sims", 0)),
                        static_cast<long long>(
                            f.getInt("total_events", 0)),
                        slowest ? slowest->getStr("id").c_str() : "-",
                        slowest ? static_cast<long long>(
                                      slowest->getInt("now_ps", 0))
                                : 0);
            for (const auto &s : f.get("sims")->items()) {
                const Json *st = s.get("status");
                const Json *hang = s.get("hang");
                long long total = 0, done = 0;
                if (st != nullptr && st->get("bars") != nullptr) {
                    for (const auto &b : st->get("bars")->items()) {
                        total += static_cast<long long>(
                            b.getInt("total", 0));
                        done += static_cast<long long>(
                            b.getInt("completed", 0));
                    }
                }
                std::printf(
                    "%-8s t=%lld ps  events=%lld  queue=%lld  "
                    "progress=%lld/%lld%s%s\n",
                    st ? st->getStr("id").c_str() : "?",
                    st ? static_cast<long long>(
                             st->getInt("now_ps", 0))
                       : 0,
                    st ? static_cast<long long>(st->getInt("events", 0))
                       : 0,
                    st ? static_cast<long long>(
                             st->getInt("queue_len", 0))
                       : 0,
                    done, total,
                    st != nullptr && st->getBool("paused", false)
                        ? "  [paused]"
                        : "",
                    hang != nullptr && hang->getBool("hanging", false)
                        ? "  [HANG]"
                        : "");
            }
            if (!watch)
                break;
        }
        return 0;
    }
    if (cmd == "pause") {
        mustPost(client, "/api/v1/pause");
        return 0;
    }
    if (cmd == "resume") {
        mustPost(client, "/api/v1/resume");
        return 0;
    }
    if (cmd == "tick") {
        if (args.size() < 2)
            return fail("usage: tick <component>");
        mustPost(client, "/api/v1/tick?component=" + urlEncode(args[1]));
        return 0;
    }
    if (cmd == "profile-start") {
        mustPost(client, "/api/v1/profile/start");
        return 0;
    }
    if (cmd == "profile-stop") {
        mustPost(client, "/api/v1/profile/stop");
        return 0;
    }
    if (cmd == "profile") {
        std::string top = args.size() > 1 ? args[1] : "15";
        Json p = mustGet(client, "/api/v1/profile?top=" + top);
        std::printf("profiler %s\n", p.getBool("enabled", false)
                                         ? "enabled"
                                         : "disabled");
        std::printf("%-44s %10s %10s %10s\n", "function", "self ms",
                    "total ms", "calls");
        for (const auto &f : p.get("functions")->items()) {
            std::printf("%-44s %10.2f %10.2f %10lld\n",
                        f.getStr("name").c_str(),
                        f.getNumber("self_ns", 0) / 1e6,
                        f.getNumber("total_ns", 0) / 1e6,
                        static_cast<long long>(f.getInt("calls", 0)));
        }
        return 0;
    }
    if (cmd == "scrape") {
        auto r = client.get("/metrics");
        if (!r || r->status != 200)
            return fail(r ? r->body : "unreachable");
        std::fputs(r->body.c_str(), stdout);
        return 0;
    }
    if (cmd == "metrics") {
        if (args.size() < 2) {
            // List registered families: name, type, labels.
            Json list = mustGet(client, "/api/v1/metrics");
            std::printf("%-44s %-10s %s\n", "name", "type", "labels");
            for (const auto &d : list.items()) {
                std::string labels = d.get("labels")->dump();
                std::printf("%-44s %-10s %s\n",
                            d.getStr("name").c_str(),
                            d.getStr("type").c_str(), labels.c_str());
            }
            return 0;
        }
        std::string step = args.size() > 2 ? args[2] : "1000";
        Json series =
            mustGet(client, "/api/v1/metrics/query?name=" +
                                urlEncode(args[1]) + "&step=" + step);
        for (const auto &s : series.items()) {
            std::printf("# %s %s\n", s.getStr("name").c_str(),
                        s.get("labels")->dump().c_str());
            for (const auto &p : s.get("points")->items()) {
                std::printf("%lld min=%g max=%g avg=%g last=%g "
                            "count=%lld\n",
                            static_cast<long long>(p.getInt("t_ms", 0)),
                            p.getNumber("min", 0), p.getNumber("max", 0),
                            p.getNumber("avg", 0), p.getNumber("last", 0),
                            static_cast<long long>(p.getInt("count", 0)));
            }
        }
        return 0;
    }
    if (cmd == "track") {
        if (args.size() < 3)
            return fail("usage: track <component> <field>");
        auto r = client.post("/api/v1/monitor/track?component=" +
                                 urlEncode(args[1]) +
                                 "&field=" + urlEncode(args[2]),
                             "");
        if (!r || r->status != 200)
            return fail(r ? r->body : "unreachable");
        std::printf("series id %lld\n",
                    static_cast<long long>(
                        Json::parse(r->body).getInt("id", 0)));
        return 0;
    }
    if (cmd == "untrack") {
        if (args.size() < 2)
            return fail("usage: untrack <id>");
        mustPost(client, "/api/v1/monitor/untrack?id=" + args[1]);
        return 0;
    }
    if (cmd == "series") {
        if (args.size() < 2)
            return fail("usage: series <id>");
        Json s = mustGet(client, "/api/v1/monitor/series?id=" + args[1]);
        std::printf("# %s.%s\n", s.getStr("component").c_str(),
                    s.getStr("field").c_str());
        for (const auto &pt : s.get("points")->items()) {
            std::printf("%lld %g\n",
                        static_cast<long long>(pt.getInt("t_ps", 0)),
                        pt.getNumber("v", 0));
        }
        return 0;
    }
    if (cmd == "export") {
        if (args.size() < 2)
            return fail("usage: export <id>");
        auto r = client.get("/api/v1/monitor/export?id=" + args[1]);
        if (!r || r->status != 200)
            return fail(r ? r->body : "unreachable");
        std::fputs(r->body.c_str(), stdout);
        return 0;
    }
    if (cmd == "watch") {
        int seconds = args.size() > 1 ? std::atoi(args[1].c_str()) : 0;
        for (int i = 0; seconds == 0 || i < seconds; i++) {
            try {
                printStatus(mustGet(client, "/api/v1/status"));
            } catch (const std::exception &e) {
                std::printf("(%s)\n", e.what());
            }
            std::this_thread::sleep_for(std::chrono::seconds(1));
        }
        return 0;
    }
    return fail("unknown command '" + cmd + "'");
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        return fail(e.what());
    }
}
