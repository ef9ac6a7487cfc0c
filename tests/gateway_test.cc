/**
 * @file
 * Fleet gateway and serving-path parse-hardening tests: prefix-mounted
 * per-simulation routing (byte-identical to a standalone monitor
 * server), fleet aggregation endpoints, cache shard isolation, the
 * per-sim SSE delta stream, and the strict wire parsers (status line,
 * chunk sizes, Last-Event-ID) that keep a corrupt peer from wedging or
 * desynchronizing a client.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gpu/platform.hh"
#include "json/json.hh"
#include "rtm/gateway.hh"
#include "rtm/monitor.hh"
#include "rtm/respcache.hh"
#include "web/client.hh"
#include "web/http.hh"
#include "workloads/workloads.hh"

using namespace akita;
using akita::json::Json;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Connects a raw TCP socket to 127.0.0.1:port (asserts on failure). */
int
rawConnect(std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    EXPECT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)),
        0);
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return fd;
}

/** Sends @p request and reads until the server closes (or 5s). */
std::string
rawFetch(std::uint16_t port, const std::string &request)
{
    int fd = rawConnect(port);
    EXPECT_EQ(::send(fd, request.c_str(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));
    std::string got;
    char buf[4096];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        got.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return got;
}

/** All line-initial "id: N" values in an SSE byte stream, in order. */
std::vector<std::uint64_t>
sseIds(const std::string &stream)
{
    std::vector<std::uint64_t> ids;
    std::size_t at = 0;
    while ((at = stream.find("id: ", at)) != std::string::npos) {
        if (at != 0 && stream[at - 1] != '\n') {
            at += 4;
            continue;
        }
        ids.push_back(
            std::strtoull(stream.c_str() + at + 4, nullptr, 10));
        at += 4;
    }
    return ids;
}

/** Occurrences of @p needle in @p hay. */
std::size_t
countOf(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = 0;
         (at = hay.find(needle, at)) != std::string::npos;
         at += needle.size())
        n++;
    return n;
}

/** A quiet N-sim fleet on a tiny platform (ephemeral gateway port). */
rtm::FleetConfig
quietFleet(std::size_t n)
{
    rtm::FleetConfig f;
    f.numSims = n;
    f.platform = gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    f.monitor.announceUrl = false;
    f.monitor.sampleIntervalMs = 10;
    f.gateway.announceUrl = false;
    f.gateway.streamIntervalMs = 40;
    return f;
}

/** Runs a small FIR kernel on every fleet simulation and joins. */
void
runFleetWorkloads(rtm::Fleet &fleet)
{
    fleet.runAll([](std::size_t i, gpu::Platform &p) {
        workloads::FirParams fir;
        // Alternate two sizes so virtual-time finishing points differ
        // across the fleet (exercises slowest-sim aggregation).
        fir.numSamples = 1u << (9 + i % 2);
        gpu::KernelDescriptor k = workloads::makeFir(fir);
        p.launchKernel(&k);
        EXPECT_EQ(p.run(), gpu::Platform::RunStatus::Completed)
            << "sim " << i;
    });
}

Json
getJson(web::PersistentClient &c, const std::string &target)
{
    auto r = c.get(target);
    EXPECT_TRUE(r.has_value()) << target;
    EXPECT_EQ(r->status, 200) << target << ": " << r->body;
    return Json::parse(r->body);
}

} // namespace

// ---------------------------------------------------------------------
// Serving-path parse hardening
// ---------------------------------------------------------------------

TEST(ParseHardening, ResponseStatusLineMustBeThreeDigits)
{
    // Regression: the status line used to go through bare atoi(), so
    // "HTTP/1.1 abc OK" parsed as status 0 and "HTTP/1.1 99 X" leaked
    // out-of-range codes to callers. A bad status line is Invalid
    // whether or not the peer has closed.
    for (const char *bad : {
             "HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n",
             "HTTP/1.1 99 Low\r\nContent-Length: 0\r\n\r\n",
             "HTTP/1.1 600 High\r\nContent-Length: 0\r\n\r\n",
             "HTTP/1.1 20a OK\r\nContent-Length: 0\r\n\r\n",
             "HTTP/1.1  200 OK\r\nContent-Length: 0\r\n\r\n",
             "HTTP/1.1 abc OK\r\n\r\nclose-delimited",
         }) {
        for (bool eof : {false, true}) {
            std::size_t consumed = 0;
            web::ParseResult state = web::ParseResult::Ok;
            EXPECT_FALSE(
                web::parseResponse(bad, consumed, &state, eof).has_value())
                << bad;
            EXPECT_EQ(state, web::ParseResult::Invalid) << bad;
        }
    }
    std::size_t consumed = 0;
    auto ok = web::parseResponse(
        "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi", consumed);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->status, 200);
    auto edge = web::parseResponse(
        "HTTP/1.1 599 Weird\r\nContent-Length: 0\r\n\r\n", consumed);
    ASSERT_TRUE(edge.has_value());
    EXPECT_EQ(edge->status, 599);
    auto closed = web::parseResponse("HTTP/1.1 200 OK\r\n\r\nhi",
                                     consumed, nullptr, /*eof=*/true);
    ASSERT_TRUE(closed.has_value());
    EXPECT_EQ(closed->status, 200);
    EXPECT_EQ(closed->body, "hi");
}

TEST(ParseHardening, KeepAliveResponseDistinguishesInvalidFromShort)
{
    // The keep-alive parser must tell "wait for more bytes" apart from
    // "this connection can never resynchronize" — collapsing both to
    // nullopt made clients block on their 10s socket timeout instead
    // of aborting corrupt connections.
    std::size_t consumed = 0;
    web::ParseResult state = web::ParseResult::Ok;

    // Corrupt chunk-size line: Invalid, not Incomplete.
    EXPECT_FALSE(web::parseResponse(
                     "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
                     "\r\nzz\r\nhello\r\n0\r\n\r\n",
                     consumed, &state)
                     .has_value());
    EXPECT_EQ(state, web::ParseResult::Invalid);

    // Overflowing chunk size (17 hex digits): Invalid.
    EXPECT_FALSE(web::parseResponse(
                     "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
                     "\r\n1ffffffffffffffff\r\n",
                     consumed, &state)
                     .has_value());
    EXPECT_EQ(state, web::ParseResult::Invalid);

    // Truncated Content-Length body: Incomplete (keep reading).
    EXPECT_FALSE(web::parseResponse(
                     "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
                     consumed, &state)
                     .has_value());
    EXPECT_EQ(state, web::ParseResult::Incomplete);

    // Close-framed (no self-delimiting framing): Incomplete — EOF may
    // still complete it; only the EOF-reading client can finish it.
    EXPECT_FALSE(web::parseResponse(
                     "HTTP/1.1 200 OK\r\n\r\npartial body", consumed,
                     &state)
                     .has_value());
    EXPECT_EQ(state, web::ParseResult::Incomplete);

    // Corrupt chunk framing stays Invalid at EOF: closing does not
    // turn a chunked body into a close-delimited one.
    EXPECT_FALSE(web::parseResponse(
                     "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
                     "\r\nzz\r\nhello\r\n0\r\n\r\n",
                     consumed, &state, /*eof=*/true)
                     .has_value());
    EXPECT_EQ(state, web::ParseResult::Invalid);

    // A well-formed chunked response still parses and consumes exactly
    // its own bytes.
    const std::string good =
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        "5\r\nhello\r\n0\r\n\r\n";
    auto resp = web::parseResponse(good + "HTTP/1.1 ...", consumed,
                                   &state);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->body, "hello");
    EXPECT_EQ(consumed, good.size());
}

TEST(ParseHardening, RequestChunkSizeRejectsGarbageAndOverflow)
{
    web::Request req;
    std::size_t consumed = 0;

    // Trailing garbage in the size line.
    EXPECT_EQ(web::parseRequest(
                  "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                  "\r\n12zz\r\nbody\r\n0\r\n\r\n",
                  req, consumed),
              web::ParseResult::Invalid);

    // 16+ hex digits can overflow a 64-bit size.
    EXPECT_EQ(web::parseRequest(
                  "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                  "\r\nffffffffffffffffff\r\n",
                  req, consumed),
              web::ParseResult::Invalid);

    // Sanity: a valid chunked request still de-chunks.
    EXPECT_EQ(web::parseRequest(
                  "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                  "\r\n5\r\nhello\r\n0\r\n\r\n",
                  req, consumed),
              web::ParseResult::Ok);
    EXPECT_EQ(req.body, "hello");
}

TEST(ParseHardening, CorruptChunkFramingAbortsConnectionFast)
{
    // A fake server that answers with corrupt chunked framing and then
    // holds the connection open. Before the Invalid/Incomplete split
    // the client would sit in recv() until its 10-second socket
    // timeout; now it must abort as soon as the framing is known bad.
    int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    int one = 1;
    ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(lfd, 1), 0);
    socklen_t alen = sizeof(addr);
    ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr *>(&addr),
                            &alen),
              0);
    std::uint16_t port = ntohs(addr.sin_port);

    std::thread server([lfd]() {
        int cfd = ::accept(lfd, nullptr, nullptr);
        if (cfd < 0)
            return;
        char buf[1024];
        (void)::recv(cfd, buf, sizeof(buf), 0); // The request.
        const char *resp =
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            "zz!!\r\n";
        (void)::send(cfd, resp, strlen(resp), MSG_NOSIGNAL);
        // Hold the connection open; the client must not wait us out.
        (void)::recv(cfd, buf, sizeof(buf), 0);
        ::close(cfd);
    });

    auto t0 = std::chrono::steady_clock::now();
    web::PersistentClient client("127.0.0.1", port);
    auto resp = client.get("/anything");
    double elapsed = secondsSince(t0);
    EXPECT_FALSE(resp.has_value());
    EXPECT_FALSE(client.connected())
        << "a corrupt connection must be torn down, not reused";
    EXPECT_LT(elapsed, 5.0)
        << "client blocked on its socket timeout instead of aborting";

    ::close(lfd);
    server.join();
}

// ---------------------------------------------------------------------
// SSE Last-Event-ID hardening
// ---------------------------------------------------------------------

TEST(ParseHardening, MalformedLastEventIdMeansFullReplay)
{
    // Regression: "Last-Event-ID: 1junk" used to strtoull-parse as 1
    // and resume mid-stream from a corrupt position. A malformed id
    // must be treated as no resume point (the fresh-client full
    // replay), never as a silent partial resume. The ?last_event_id=
    // query parameter shares the header's strict parse: it used to
    // read "1junk" as 1 and "-2" as 2^64-2 (a stream that never
    // sends).
    gpu::PlatformConfig pcfg =
        gpu::PlatformConfig::mcm4(gpu::GpuConfig::tiny());
    gpu::Platform plat(pcfg);
    rtm::MonitorConfig mcfg;
    mcfg.announceUrl = false;
    mcfg.autoSample = false; // Manual passes only: version is ours.
    mcfg.sampleIntervalMs = 1;
    mcfg.metricsIntervalMs = 1;
    rtm::Monitor mon(mcfg);
    mon.registerEngine(&plat.engine());
    ASSERT_TRUE(mon.startServer());
    // autoSample=false takes no automatic pass — not even the
    // sampler's first-wake metrics pass. With the 1 ms cadences above,
    // a stray sampler would have bumped the version many times over.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_EQ(mon.metrics().version(), 0u)
        << "a sampling pass fired despite autoSample=false";
    mon.metricsSamplePass();
    mon.metricsSamplePass();
    mon.metricsSamplePass(); // version == 3

    const std::string target =
        "/api/v1/metrics/stream?name=akita_engine_events_total&"
        "max_events=1";
    auto streamWith = [&](const std::string &lastEventId) {
        return rawFetch(mon.serverPort(),
                        "GET " + target + " HTTP/1.1\r\nHost: t\r\n" +
                            "Last-Event-ID: " + lastEventId + "\r\n" +
                            "Connection: close\r\n\r\n");
    };
    auto streamWithQuery = [&](const std::string &lastEventId) {
        std::string encoded; // '+' would decode to a space.
        for (char ch : lastEventId)
            encoded += ch == '+' ? std::string("%2B") : std::string(1, ch);
        return rawFetch(mon.serverPort(),
                        "GET " + target + "&last_event_id=" + encoded +
                            " HTTP/1.1\r\nHost: t\r\n" +
                            "Connection: close\r\n\r\n");
    };

    // Control: a valid id resumes exactly after it.
    auto valid = sseIds(streamWith("1"));
    ASSERT_EQ(valid.size(), 1u);
    EXPECT_EQ(valid[0], 2u);
    auto qvalid = sseIds(streamWithQuery("1"));
    ASSERT_EQ(qvalid.size(), 1u);
    EXPECT_EQ(qvalid[0], 2u);

    // Trailing garbage, signs, or overflow: fall back to the
    // fresh-client position (the newest pass), not a bogus partial
    // resume. (Leading whitespace is not in this list: header-value
    // OWS is stripped by the request parser before the handler sees
    // it, so "Last-Event-ID:   3" is legitimately the valid id 3.)
    for (const char *bad :
         {"1junk", "+2", "-2", "99999999999999999999999999"}) {
        auto ids = sseIds(streamWith(bad));
        ASSERT_EQ(ids.size(), 1u) << "Last-Event-ID: " << bad;
        EXPECT_EQ(ids[0], 3u) << "Last-Event-ID: " << bad;
        auto qids = sseIds(streamWithQuery(bad));
        ASSERT_EQ(qids.size(), 1u) << "?last_event_id=" << bad;
        EXPECT_EQ(qids[0], 3u) << "?last_event_id=" << bad;
    }

    mon.stopServer();
}

// ---------------------------------------------------------------------
// Gateway: prefix routing and fleet aggregation
// ---------------------------------------------------------------------

TEST(Gateway, MountedRoutesAreByteIdenticalToStandaloneServer)
{
    rtm::Fleet fleet(quietFleet(4));
    ASSERT_TRUE(fleet.start());
    runFleetWorkloads(fleet);

    // The same monitor, served both ways: its own server and the
    // gateway mount. The prefix strip must make the bodies (and thus
    // the cache keys and ETags) match byte for byte.
    ASSERT_TRUE(fleet.monitor(0).startServer());
    web::PersistentClient own("127.0.0.1", fleet.monitor(0).serverPort());
    web::PersistentClient gw("127.0.0.1", fleet.gateway().port());
    // /api/status is excluded: its hang block embeds frozen_for_sec,
    // which moves with wall time between the two fetches.
    for (const char *target :
         {"/api/components", "/api/v1/components",
          "/api/buffers?sort=percent&top=20", "/api/progress",
          "/api/topology"}) {
        auto a = own.get(target);
        auto b = gw.get(std::string("/sim/sim0") + target);
        ASSERT_TRUE(a.has_value()) << target;
        ASSERT_TRUE(b.has_value()) << target;
        EXPECT_EQ(a->status, 200) << target;
        EXPECT_EQ(b->status, 200) << target;
        EXPECT_EQ(a->body, b->body) << target;
    }
    fleet.monitor(0).stopServer();

    // Unknown simulation: 404, not a fall-through to the fleet routes.
    auto missing = gw.get("/sim/nosuch/api/status");
    ASSERT_TRUE(missing.has_value());
    EXPECT_EQ(missing->status, 404);

    // Bare mount prefix: 301 to the trailing-slash form so the
    // dashboard's relative URLs resolve inside the mount.
    auto bare = gw.get("/sim/sim0");
    ASSERT_TRUE(bare.has_value());
    EXPECT_EQ(bare->status, 301);
    EXPECT_EQ(bare->headers.at("location"), "/sim/sim0/");

    // The index page links every simulation.
    auto index = gw.get("/");
    ASSERT_TRUE(index.has_value());
    EXPECT_EQ(index->status, 200);
    for (const char *id : {"sim0", "sim1", "sim2", "sim3"})
        EXPECT_NE(index->body.find(id), std::string::npos) << id;
}

TEST(Gateway, MountedAliasMatchesVersionedPath)
{
    rtm::Fleet fleet(quietFleet(1));
    ASSERT_TRUE(fleet.start());
    runFleetWorkloads(fleet);

    web::PersistentClient gw("127.0.0.1", fleet.gateway().port());
    auto alias = gw.get("/sim/sim0/api/components");
    auto v1 = gw.get("/sim/sim0/api/v1/components");
    ASSERT_TRUE(alias.has_value());
    ASSERT_TRUE(v1.has_value());
    EXPECT_EQ(alias->status, 200);
    EXPECT_EQ(v1->status, 200);
    EXPECT_EQ(alias->body, v1->body);
    EXPECT_EQ(alias->headers.at("etag"), v1->headers.at("etag"));
}

TEST(Gateway, FleetAggregationMatchesPerSimState)
{
    rtm::Fleet fleet(quietFleet(4));
    ASSERT_TRUE(fleet.start());
    runFleetWorkloads(fleet);

    std::uint64_t wantEvents = 0;
    std::uint64_t wantSlowest =
        fleet.platform(0).engine().now();
    for (std::size_t i = 0; i < fleet.size(); i++) {
        wantEvents += fleet.platform(i).engine().eventCount();
        wantSlowest =
            std::min(wantSlowest,
                     static_cast<std::uint64_t>(
                         fleet.platform(i).engine().now()));
    }

    web::PersistentClient c("127.0.0.1", fleet.gateway().port());
    Json f = getJson(c, "/api/v1/fleet");
    EXPECT_EQ(f.getInt("num_sims", 0), 4);
    EXPECT_EQ(static_cast<std::uint64_t>(f.getInt("total_events", 0)),
              wantEvents);
    const Json *sims = f.get("sims");
    ASSERT_NE(sims, nullptr);
    ASSERT_EQ(sims->size(), 4u);
    for (std::size_t i = 0; i < 4; i++) {
        const Json *status = sims->at(i).get("status");
        ASSERT_NE(status, nullptr) << i;
        EXPECT_EQ(status->getStr("id"), "sim" + std::to_string(i));
        EXPECT_EQ(static_cast<std::uint64_t>(
                      status->getInt("events", 0)),
                  fleet.platform(i).engine().eventCount());
        ASSERT_NE(sims->at(i).get("hang"), nullptr) << i;
        EXPECT_EQ(sims->at(i).getStr("url"),
                  "/sim/sim" + std::to_string(i) + "/");
    }
    const Json *slowest = f.get("slowest");
    ASSERT_NE(slowest, nullptr);
    EXPECT_EQ(static_cast<std::uint64_t>(slowest->getInt("now_ps", 0)),
              wantSlowest);

    Json engines = getJson(c, "/api/v1/fleet/engines");
    ASSERT_EQ(engines.size(), 4u);
    for (std::size_t i = 0; i < 4; i++) {
        EXPECT_EQ(engines.at(i).getStr("id"),
                  "sim" + std::to_string(i));
        EXPECT_FALSE(engines.at(i).getBool("running", true));
    }

    Json slow = getJson(c, "/api/v1/fleet/slowest");
    EXPECT_EQ(static_cast<std::uint64_t>(slow.getInt("now_ps", 0)),
              wantSlowest);

    // The hottest buffer of a drained fleet still answers (possibly
    // with an idle buffer at 0%); the shape must hold.
    auto hot = c.get("/api/v1/fleet/hottest-buffer");
    ASSERT_TRUE(hot.has_value());
    EXPECT_EQ(hot->status, 200);

    Json progress = getJson(c, "/api/v1/fleet/progress");
    ASSERT_EQ(progress.size(), 4u);
    for (std::size_t i = 0; i < 4; i++)
        EXPECT_GE(progress.at(i).get("bars")->size(), 1u)
            << "sim " << i << " ran a kernel";
}

TEST(Gateway, FleetMetricsExposeGauges)
{
    rtm::Fleet fleet(quietFleet(4));
    ASSERT_TRUE(fleet.start());

    web::PersistentClient c("127.0.0.1", fleet.gateway().port());
    auto r = c.get("/metrics");
    ASSERT_TRUE(r.has_value());
    ASSERT_EQ(r->status, 200);
    EXPECT_NE(r->body.find("akita_rtm_fleet_sims 4"),
              std::string::npos)
        << r->body.substr(0, 400);
    EXPECT_NE(r->body.find("akita_rtm_fleet_events_total"),
              std::string::npos);
    EXPECT_NE(r->body.find("akita_rtm_fleet_slowest_now_ps"),
              std::string::npos);
    for (const char *id : {"sim0", "sim1", "sim2", "sim3"}) {
        EXPECT_NE(r->body.find("akita_rtm_fleet_sim_events{sim=\"" +
                               std::string(id) + "\"}"),
                  std::string::npos)
            << id;
    }
}

TEST(Gateway, AddSimulationValidatesIds)
{
    rtm::GatewayConfig gcfg;
    gcfg.announceUrl = false;
    rtm::Gateway gw(gcfg);
    rtm::MonitorConfig mcfg;
    mcfg.announceUrl = false;
    rtm::Monitor mon(mcfg);

    EXPECT_FALSE(gw.addSimulation("", &mon));
    EXPECT_FALSE(gw.addSimulation("bad id", &mon));
    EXPECT_FALSE(gw.addSimulation("bad/id", &mon));
    EXPECT_FALSE(gw.addSimulation("ok", nullptr));
    EXPECT_TRUE(gw.addSimulation("ok-1.a_b", &mon));
    EXPECT_FALSE(gw.addSimulation("ok-1.a_b", &mon)) << "duplicate";
    EXPECT_EQ(gw.size(), 1u);
    EXPECT_EQ(gw.simulation("ok-1.a_b"), &mon);
    EXPECT_EQ(gw.simulation("nosuch"), nullptr);
}

// ---------------------------------------------------------------------
// Gateway: sharded cache and delta SSE
// ---------------------------------------------------------------------

TEST(Gateway, CacheShardFloodCannotEvictOtherShards)
{
    constexpr std::size_t kShards = 4;
    constexpr std::size_t kMaxPerShard = 8;
    rtm::ShardedResponseCache sc(kShards, kMaxPerShard);

    // Pick a flooder sim id hashing to a different shard than the
    // victim's.
    const std::string victimSim = "victim";
    const std::string endpoint = "/fleet/fragment";
    std::size_t victimShard = rtm::ShardedResponseCache::shardIndex(
        victimSim, endpoint, kShards);
    std::string flooderSim;
    for (int i = 0; i < 64 && flooderSim.empty(); i++) {
        std::string candidate = "noisy" + std::to_string(i);
        if (rtm::ShardedResponseCache::shardIndex(candidate, endpoint,
                                                  kShards) !=
            victimShard)
            flooderSim = candidate;
    }
    ASSERT_FALSE(flooderSim.empty());

    std::atomic<int> victimBuilds{0};
    auto victimBuild = [&victimBuilds]() {
        victimBuilds++;
        return std::string("victim-body");
    };
    sc.shard(victimSim, endpoint)
        .get("victim-key", 1, "application/json", victimBuild, 0);
    EXPECT_EQ(victimBuilds.load(), 1);

    // Flood the noisy sim's shard far past its LRU cap.
    rtm::ResponseCache &noisy = sc.shard(flooderSim, endpoint);
    for (int i = 0; i < 100; i++) {
        noisy.get("key-" + std::to_string(i), 1, "application/json",
                  []() { return std::string("x"); }, 0);
    }

    // The victim's entry survived: same generation serves from cache.
    auto entry = sc.shard(victimSim, endpoint)
                     .get("victim-key", 1, "application/json",
                          victimBuild, 0);
    EXPECT_EQ(entry->body, "victim-body");
    EXPECT_EQ(victimBuilds.load(), 1)
        << "flooding another shard rebuilt the victim's entry";

    // But within the flooded shard the cap did evict: re-fetching the
    // first flooded key rebuilds it.
    std::uint64_t builds = sc.buildCount();
    noisy.get("key-0", 1, "application/json",
              []() { return std::string("x"); }, 0);
    EXPECT_EQ(sc.buildCount(), builds + 1);

    // Summed counters see every shard.
    EXPECT_GE(sc.buildCount(), 102u);
    EXPECT_GE(sc.hitCount(), 1u);
}

TEST(Gateway, FleetStreamSendsPerSimDeltas)
{
    rtm::Fleet fleet(quietFleet(4));
    ASSERT_TRUE(fleet.start());

    // Quiesced fleet (nothing ran): event 1 is the full fleet, then
    // the stream goes silent until something changes.
    int fd = rawConnect(fleet.gateway().port());
    const char *req =
        "GET /api/v1/fleet/stream?max_events=2 HTTP/1.1\r\n"
        "Host: t\r\n\r\n";
    ASSERT_EQ(::send(fd, req, strlen(req), MSG_NOSIGNAL),
              static_cast<ssize_t>(strlen(req)));

    // Read until the first event's terminating blank line.
    std::string got;
    char buf[4096];
    while (got.find("data: ") == std::string::npos ||
           got.find("\n\n", got.find("data: ")) == std::string::npos) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0) << "stream ended before the first event";
        got.append(buf, static_cast<std::size_t>(n));
    }
    std::size_t firstDataAt = got.find("data: ");
    std::size_t firstEnd = got.find("\n\n", firstDataAt);
    std::string firstEvent = got.substr(0, firstEnd);
    for (const char *id : {"sim0", "sim1", "sim2", "sim3"}) {
        EXPECT_EQ(countOf(firstEvent,
                          "\"id\":\"" + std::string(id) + "\""),
                  1u)
            << "first event must carry every sim: " << id;
    }

    // Let a few no-change scans pass, then mutate exactly one sim.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    fleet.monitor(1).createProgressBar("probe", 10);

    // The stream closes itself after event 2 (max_events=2).
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        got.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);

    auto ids = sseIds(got);
    ASSERT_EQ(ids.size(), 2u) << got;
    EXPECT_EQ(ids[0], 1u);
    EXPECT_EQ(ids[1], 2u);
    std::string secondEvent = got.substr(firstEnd + 2);
    EXPECT_EQ(countOf(secondEvent, "\"id\":\"sim1\""), 1u)
        << secondEvent;
    for (const char *id : {"sim0", "sim2", "sim3"}) {
        EXPECT_EQ(countOf(secondEvent,
                          "\"id\":\"" + std::string(id) + "\""),
                  0u)
            << "delta event must only carry the changed sim, got "
            << id << " in: " << secondEvent;
    }
    EXPECT_NE(secondEvent.find("probe"), std::string::npos)
        << "the delta must reflect the mutation";
}

// ---------------------------------------------------------------------
// --fleet plumbing
// ---------------------------------------------------------------------

TEST(Gateway, FleetFlagAndEnvParse)
{
    {
        gpu::PlatformConfig cfg;
        char a0[] = "prog";
        char a1[] = "--fleet=3";
        char *argv[] = {a0, a1};
        gpu::applyEngineArgs(cfg, 2, argv);
        EXPECT_EQ(cfg.fleet, 3);
    }
    {
        gpu::PlatformConfig cfg;
        char a0[] = "prog";
        char a1[] = "--fleet=0"; // Clamped to a sane floor.
        char *argv[] = {a0, a1};
        gpu::applyEngineArgs(cfg, 2, argv);
        EXPECT_EQ(cfg.fleet, 1);
    }
    {
        ::setenv("AKITA_FLEET", "5", 1);
        gpu::PlatformConfig cfg;
        char a0[] = "prog";
        char *argv[] = {a0};
        gpu::applyEngineArgs(cfg, 1, argv);
        EXPECT_EQ(cfg.fleet, 5);
        ::unsetenv("AKITA_FLEET");
    }
    // Junk is an error, not a silently different run: "8M" must not
    // become an 8-byte segment, nor "abc" a single simulation.
    for (const char *flag :
         {"--fleet=abc", "--fleet=", "--fleet=3x", "--fleet=99999999999",
          "--record-bytes=8M", "--record-bytes= 8"}) {
        gpu::PlatformConfig cfg;
        char a0[] = "prog";
        std::string a1 = flag;
        char *argv[] = {a0, a1.data()};
        EXPECT_THROW(gpu::applyEngineArgs(cfg, 2, argv),
                     std::invalid_argument)
            << flag;
    }
    for (const char *var : {"AKITA_FLEET", "AKITA_RECORD_BYTES"}) {
        ::setenv(var, "abc", 1);
        gpu::PlatformConfig cfg;
        char a0[] = "prog";
        char *argv[] = {a0};
        EXPECT_THROW(gpu::applyEngineArgs(cfg, 1, argv),
                     std::invalid_argument)
            << var;
        ::unsetenv(var);
    }
    {
        gpu::PlatformConfig cfg;
        char a0[] = "prog";
        char a1[] = "--record-bytes=8388608";
        char *argv[] = {a0, a1};
        gpu::applyEngineArgs(cfg, 2, argv);
        EXPECT_EQ(cfg.recordSegmentBytes, 8388608u);
    }
}
