/**
 * @file
 * Tests for the HTTP substrate: wire parsing, URL decoding, routing,
 * and live server/client round trips.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "web/client.hh"
#include "web/http.hh"
#include "web/server.hh"

using namespace akita::web;

TEST(HttpParse, SimpleGet)
{
    Request req;
    std::size_t consumed = 0;
    std::string raw = "GET /api/time HTTP/1.1\r\nHost: x\r\n\r\n";
    ASSERT_EQ(parseRequest(raw, req, consumed), ParseResult::Ok);
    EXPECT_EQ(req.method, "GET");
    EXPECT_EQ(req.path, "/api/time");
    EXPECT_EQ(req.headers.at("host"), "x");
    EXPECT_EQ(consumed, raw.size());
}

TEST(HttpParse, QueryParameters)
{
    Request req;
    std::size_t consumed = 0;
    std::string raw =
        "GET /api/component?name=GPU%5B0%5D.CP&sort=size&flag "
        "HTTP/1.1\r\n\r\n";
    ASSERT_EQ(parseRequest(raw, req, consumed), ParseResult::Ok);
    EXPECT_EQ(req.path, "/api/component");
    EXPECT_EQ(req.queryParam("name"), "GPU[0].CP");
    EXPECT_EQ(req.queryParam("sort"), "size");
    EXPECT_EQ(req.queryParam("flag"), "");
    EXPECT_EQ(req.queryParam("missing", "dflt"), "dflt");
    EXPECT_EQ(req.queryInt("missing", 7), 7);
}

TEST(HttpParse, QueryIntParsing)
{
    Request req;
    std::size_t consumed = 0;
    std::string raw = "GET /x?a=42&b=abc HTTP/1.1\r\n\r\n";
    ASSERT_EQ(parseRequest(raw, req, consumed), ParseResult::Ok);
    EXPECT_EQ(req.queryInt("a", 0), 42);
    EXPECT_EQ(req.queryInt("b", -1), -1) << "non-numeric uses default";
}

TEST(HttpParse, PostWithBody)
{
    Request req;
    std::size_t consumed = 0;
    std::string raw = "POST /api/x HTTP/1.1\r\nContent-Length: 5\r\n"
                      "Content-Type: application/json\r\n\r\nhello";
    ASSERT_EQ(parseRequest(raw, req, consumed), ParseResult::Ok);
    EXPECT_EQ(req.method, "POST");
    EXPECT_EQ(req.body, "hello");
}

TEST(HttpParse, IncompleteNeedsMoreBytes)
{
    Request req;
    std::size_t consumed = 0;
    EXPECT_EQ(parseRequest("GET /x HTTP/1.1\r\nHost:", req, consumed),
              ParseResult::Incomplete);
    EXPECT_EQ(parseRequest("GET /x HTTP/1.1\r\nContent-Length: 10"
                           "\r\n\r\nabc",
                           req, consumed),
              ParseResult::Incomplete);
    EXPECT_EQ(parseRequest("GE", req, consumed),
              ParseResult::Incomplete);
}

TEST(HttpParse, PipelinedRequestsConsumeExactly)
{
    Request req;
    std::size_t consumed = 0;
    std::string two = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
    ASSERT_EQ(parseRequest(two, req, consumed), ParseResult::Ok);
    EXPECT_EQ(req.path, "/a");
    two.erase(0, consumed);
    ASSERT_EQ(parseRequest(two, req, consumed), ParseResult::Ok);
    EXPECT_EQ(req.path, "/b");
}

struct BadReq
{
    const char *raw;
    const char *why;
};

class HttpMalformed : public ::testing::TestWithParam<BadReq>
{
};

TEST_P(HttpMalformed, Rejected)
{
    Request req;
    std::size_t consumed = 0;
    EXPECT_EQ(parseRequest(GetParam().raw, req, consumed),
              ParseResult::Invalid)
        << GetParam().why;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, HttpMalformed,
    ::testing::Values(
        BadReq{"BROKEN\r\n\r\n", "no method/target split"},
        BadReq{"GET  HTTP/1.1\r\n\r\n", "empty target"},
        BadReq{"GET x HTTP/1.1\r\n\r\n", "target missing leading /"},
        BadReq{"GET / SMTP/1.0\r\n\r\n", "not HTTP"},
        BadReq{"GET / HTTP/1.1\r\nNoColonHeader\r\n\r\n",
               "header without colon"},
        BadReq{"GET / HTTP/1.1\r\nContent-Length: -4\r\n\r\n",
               "negative content length"},
        BadReq{"GET / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n",
               "absurd content length"}));

TEST(UrlDecode, Basics)
{
    EXPECT_EQ(urlDecode("a%20b"), "a b");
    EXPECT_EQ(urlDecode("%5B0%5D"), "[0]");
    EXPECT_EQ(urlDecode("plain"), "plain");
    EXPECT_EQ(urlDecode("bad%zz"), "bad%zz") << "invalid hex passes through";
    EXPECT_EQ(urlDecode("%41%42"), "AB");
}

TEST(HttpResponse, Serialization)
{
    Response r = Response::json("{\"a\":1}");
    std::string wire = r.serialize(true);
    EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
    EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
              std::string::npos);
    EXPECT_NE(wire.find("Content-Length: 7\r\n"), std::string::npos);
    EXPECT_NE(wire.find("Connection: keep-alive\r\n"),
              std::string::npos);

    Response e = Response::error(404, "nope");
    std::string ew = e.serialize(false);
    EXPECT_NE(ew.find("404 Not Found"), std::string::npos);
    EXPECT_NE(ew.find("Connection: close"), std::string::npos);
}

TEST(HttpResponse, ClientCanParseServerOutput)
{
    Response r = Response::ok("payload");
    std::string wire = r.serialize(false);
    std::size_t consumed = 0;
    auto parsed = parseResponse(wire, consumed);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->status, 200);
    EXPECT_EQ(parsed->body, "payload");
    EXPECT_EQ(consumed, wire.size());
}

// ---------------------------------------------------------------------
// Live server tests
// ---------------------------------------------------------------------

class ServerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        server.route("GET", "/hello", [](const Request &) {
            return Response::ok("world");
        });
        server.route("GET", "/echo", [](const Request &req) {
            return Response::ok(req.queryParam("msg"));
        });
        server.route("POST", "/body", [](const Request &req) {
            return Response::ok(req.body);
        });
        server.route("GET", "/api/tree/*", [](const Request &req) {
            return Response::ok("prefix:" + req.path);
        });
        server.route("GET", "/boom", [](const Request &) -> Response {
            throw std::runtime_error("kaboom");
        });
        ASSERT_TRUE(server.start(0));
    }

    HttpServer server;
};

TEST_F(ServerTest, RoundTrip)
{
    PersistentClient client("127.0.0.1", server.port());
    auto r = client.get("/hello");
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, 200);
    EXPECT_EQ(r->body, "world");
}

TEST_F(ServerTest, QueryReachesHandler)
{
    PersistentClient client("127.0.0.1", server.port());
    auto r = client.get("/echo?msg=hi%20there");
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->body, "hi there");
}

TEST_F(ServerTest, PostBody)
{
    PersistentClient client("127.0.0.1", server.port());
    auto r = client.post("/body", "{\"x\":1}");
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->body, "{\"x\":1}");
    EXPECT_TRUE(client.connected()) << "a Content-Length POST keeps alive";
}

TEST_F(ServerTest, NotFound)
{
    PersistentClient client("127.0.0.1", server.port());
    auto r = client.get("/nope");
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, 404);
}

TEST_F(ServerTest, MethodMatters)
{
    PersistentClient client("127.0.0.1", server.port());
    auto r = client.post("/hello", "");
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, 404);
}

TEST_F(ServerTest, PrefixRoutes)
{
    PersistentClient client("127.0.0.1", server.port());
    auto r = client.get("/api/tree/a/b/c");
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->body, "prefix:/api/tree/a/b/c");
}

TEST_F(ServerTest, HandlerExceptionBecomes500)
{
    PersistentClient client("127.0.0.1", server.port());
    auto r = client.get("/boom");
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, 500);
    EXPECT_NE(r->body.find("kaboom"), std::string::npos);
}

TEST_F(ServerTest, ConcurrentClients)
{
    constexpr int kThreads = 8;
    constexpr int kReqs = 20;
    std::atomic<int> ok{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&]() {
            PersistentClient client("127.0.0.1", server.port());
            for (int i = 0; i < kReqs; i++) {
                auto r = client.get("/hello");
                if (r && r->status == 200 && r->body == "world")
                    ok++;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(ok.load(), kThreads * kReqs);
    EXPECT_GE(server.requestCount(), static_cast<std::uint64_t>(
                                         kThreads * kReqs));
}

TEST_F(ServerTest, StopIsIdempotent)
{
    server.stop();
    server.stop();
    EXPECT_FALSE(server.running());
    PersistentClient client("127.0.0.1", server.port());
    EXPECT_FALSE(client.get("/hello").has_value());
}

TEST(ServerLifecycle, EphemeralPortAssigned)
{
    HttpServer s;
    s.route("GET", "/", [](const Request &) {
        return Response::ok("ok");
    });
    ASSERT_TRUE(s.start(0));
    EXPECT_GT(s.port(), 0);
    EXPECT_EQ(s.url(), "http://127.0.0.1:" + std::to_string(s.port()));
    s.stop();
}

TEST(ServerLifecycle, TwoServersCoexist)
{
    HttpServer a, b;
    a.route("GET", "/", [](const Request &) {
        return Response::ok("a");
    });
    b.route("GET", "/", [](const Request &) {
        return Response::ok("b");
    });
    ASSERT_TRUE(a.start(0));
    ASSERT_TRUE(b.start(0));
    EXPECT_NE(a.port(), b.port());
    PersistentClient ca("127.0.0.1", a.port()), cb("127.0.0.1", b.port());
    EXPECT_EQ(ca.get("/")->body, "a");
    EXPECT_EQ(cb.get("/")->body, "b");
}

// ---------------------------------------------------------------------
// Reactor-specific behavior: keep-alive, pipelining, connection cap
// ---------------------------------------------------------------------

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace
{

/** Blocking test socket speaking raw bytes to a server. */
class RawSocket
{
  public:
    explicit RawSocket(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        timeval tv{};
        tv.tv_sec = 10;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) < 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~RawSocket()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool ok() const { return fd_ >= 0; }

    bool
    send(const std::string &bytes)
    {
        return fd_ >= 0 &&
               ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
                   static_cast<ssize_t>(bytes.size());
    }

    /** Reads until @p n complete Content-Length responses arrive. */
    std::vector<ParsedResponse>
    readResponses(std::size_t n)
    {
        std::vector<ParsedResponse> out;
        std::string data;
        char buf[4096];
        while (out.size() < n) {
            std::size_t consumed = 0;
            if (auto r = parseResponse(data, consumed)) {
                data.erase(0, consumed);
                out.push_back(std::move(*r));
                continue;
            }
            ssize_t got = ::recv(fd_, buf, sizeof(buf), 0);
            if (got <= 0)
                break;
            data.append(buf, static_cast<std::size_t>(got));
        }
        return out;
    }

  private:
    int fd_ = -1;
};

} // namespace

TEST_F(ServerTest, KeepAliveServesTwoRequestsOnOneSocket)
{
    RawSocket sock(server.port());
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(sock.send("GET /hello HTTP/1.1\r\nHost: t\r\n\r\n"));
    auto first = sock.readResponses(1);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].body, "world");
    // Same socket, second request: the connection stayed open.
    ASSERT_TRUE(sock.send(
        "GET /echo?msg=again HTTP/1.1\r\nHost: t\r\n\r\n"));
    auto second = sock.readResponses(1);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].body, "again");
}

TEST_F(ServerTest, PipelinedRequestsAnswerInOrder)
{
    RawSocket sock(server.port());
    ASSERT_TRUE(sock.ok());
    // Both requests in one write; responses must come back in order.
    ASSERT_TRUE(sock.send("GET /echo?msg=one HTTP/1.1\r\nHost: t\r\n\r\n"
                          "GET /echo?msg=two HTTP/1.1\r\nHost: t\r\n"
                          "Connection: close\r\n\r\n"));
    auto resp = sock.readResponses(2);
    ASSERT_EQ(resp.size(), 2u);
    EXPECT_EQ(resp[0].body, "one");
    EXPECT_EQ(resp[1].body, "two");
}

TEST_F(ServerTest, ConnectionCloseIsHonored)
{
    RawSocket sock(server.port());
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(sock.send("GET /hello HTTP/1.1\r\nHost: t\r\n"
                          "Connection: close\r\n\r\n"));
    auto resp = sock.readResponses(1);
    ASSERT_EQ(resp.size(), 1u);
    EXPECT_EQ(resp[0].headers.at("connection"), "close");
    // A follow-up on the same socket gets no response (server closed).
    sock.send("GET /hello HTTP/1.1\r\nHost: t\r\n\r\n");
    EXPECT_TRUE(sock.readResponses(1).empty());
}

TEST_F(ServerTest, PersistentClientReusesConnection)
{
    PersistentClient client("127.0.0.1", server.port());
    for (int i = 0; i < 5; i++) {
        auto r = client.get("/hello");
        ASSERT_TRUE(r.has_value()) << "request " << i;
        EXPECT_EQ(r->status, 200);
        EXPECT_EQ(r->body, "world");
    }
    EXPECT_TRUE(client.connected());
}

TEST_F(ServerTest, PersistentClientReconnectsAfterConnectionClose)
{
    PersistentClient client("127.0.0.1", server.port());
    auto first = client.get("/hello", {{"Connection", "close"}});
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->headers.at("connection"), "close");
    EXPECT_FALSE(client.connected())
        << "the server closes after this response; keep no dead socket";
    auto second = client.get("/echo?msg=again");
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->body, "again");
    EXPECT_TRUE(client.connected());
    EXPECT_EQ(server.requestCount(), 2u);
}

namespace
{

/**
 * A server that answers every connection with a response framed only
 * by closing (no Content-Length, not chunked), sent in two writes.
 */
class CloseDelimitedServer
{
  public:
    CloseDelimitedServer(std::string body, int connections)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        ::bind(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof(addr));
        ::listen(fd_, 4);
        socklen_t len = sizeof(addr);
        ::getsockname(fd_, reinterpret_cast<sockaddr *>(&addr), &len);
        port_ = ntohs(addr.sin_port);
        thread_ = std::thread([this, body, connections]() {
            for (int i = 0; i < connections; i++) {
                int c = ::accept(fd_, nullptr, nullptr);
                if (c < 0)
                    return;
                std::string req;
                char buf[1024];
                while (req.find("\r\n\r\n") == std::string::npos) {
                    ssize_t n = ::recv(c, buf, sizeof(buf), 0);
                    if (n <= 0)
                        break;
                    req.append(buf, static_cast<std::size_t>(n));
                }
                std::string head = "HTTP/1.1 200 OK\r\n"
                                   "Content-Type: text/plain\r\n\r\n";
                std::size_t half = body.size() / 2;
                std::string rest = body.substr(half);
                ::send(c, (head + body.substr(0, half)).data(),
                       head.size() + half, MSG_NOSIGNAL);
                ::send(c, rest.data(), rest.size(), MSG_NOSIGNAL);
                ::close(c);
            }
        });
    }

    ~CloseDelimitedServer()
    {
        ::shutdown(fd_, SHUT_RDWR); // Unblocks accept() if a test failed.
        thread_.join();
        ::close(fd_);
    }

    CloseDelimitedServer(const CloseDelimitedServer &) = delete;
    CloseDelimitedServer &operator=(const CloseDelimitedServer &) = delete;

    std::uint16_t port() const { return port_; }

  private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
    std::thread thread_;
};

} // namespace

TEST(PersistentClientFraming, ReadsCloseDelimitedBodyToEof)
{
    std::string body(20000, 'x');
    body += "end";
    CloseDelimitedServer srv(body, 2);
    PersistentClient client("127.0.0.1", srv.port());
    auto r = client.get("/stream");
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, 200);
    EXPECT_EQ(r->body, body);
    EXPECT_EQ(r->wireBodyBytes, body.size());
    EXPECT_FALSE(client.connected());
    // The next request opens a fresh connection and reads it the same
    // way.
    auto again = client.get("/stream");
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->body, body);
}

TEST_F(ServerTest, MalformedRequestGets400)
{
    RawSocket sock(server.port());
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(sock.send("BROKEN\r\n\r\n"));
    auto resp = sock.readResponses(1);
    ASSERT_EQ(resp.size(), 1u);
    EXPECT_EQ(resp[0].status, 400);
}

TEST(ServerOptionsTest, ConnectionCapRejectsWith503)
{
    ServerOptions opts;
    opts.maxConnections = 2;
    HttpServer s(opts);
    s.route("GET", "/", [](const Request &) {
        return Response::ok("ok");
    });
    ASSERT_TRUE(s.start(0));

    // Two keep-alive connections occupy the cap...
    RawSocket a(s.port()), b(s.port());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(a.send("GET / HTTP/1.1\r\nHost: t\r\n\r\n"));
    ASSERT_TRUE(b.send("GET / HTTP/1.1\r\nHost: t\r\n\r\n"));
    ASSERT_EQ(a.readResponses(1).size(), 1u);
    ASSERT_EQ(b.readResponses(1).size(), 1u);

    // ...so the third connect is rejected with a fast 503.
    RawSocket c(s.port());
    ASSERT_TRUE(c.ok());
    auto resp = c.readResponses(1);
    ASSERT_EQ(resp.size(), 1u);
    EXPECT_EQ(resp[0].status, 503);
    s.stop();
}

TEST(ServerOptionsTest, WorkerCountResolvedAfterStart)
{
    ServerOptions opts;
    opts.workers = 3;
    HttpServer s(opts);
    s.route("GET", "/", [](const Request &) {
        return Response::ok("ok");
    });
    ASSERT_TRUE(s.start(0));
    EXPECT_EQ(s.options().workers, 3);
    PersistentClient client("127.0.0.1", s.port());
    EXPECT_EQ(client.get("/")->body, "ok");
    s.stop();
}

TEST(ServerOptionsTest, IdleConnectionsAreReaped)
{
    ServerOptions opts;
    opts.idleTimeoutMs = 100;
    HttpServer s(opts);
    s.route("GET", "/", [](const Request &) {
        return Response::ok("ok");
    });
    ASSERT_TRUE(s.start(0));
    RawSocket sock(s.port());
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(sock.send("GET / HTTP/1.1\r\nHost: t\r\n\r\n"));
    ASSERT_EQ(sock.readResponses(1).size(), 1u);
    // Idle past the timeout: the server closes the connection, so the
    // next read returns EOF (no response bytes).
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    EXPECT_TRUE(sock.readResponses(1).empty());
    s.stop();
}

// ---------------------------------------------------------------------
// Chunked transfer coding, header hygiene, and content coding
// ---------------------------------------------------------------------

#include "web/encoding.hh"

TEST(HttpParse, ChunkedBodyDecoded)
{
    Request req;
    std::size_t consumed = 0;
    // Chunk extensions and trailers are accepted and discarded.
    std::string raw = "POST /api/x HTTP/1.1\r\n"
                      "Transfer-Encoding: chunked\r\n\r\n"
                      "4;ext=1\r\nWiki\r\n"
                      "5\r\npedia\r\n"
                      "0\r\n"
                      "X-Trailer: t\r\n"
                      "\r\n";
    ASSERT_EQ(parseRequest(raw, req, consumed), ParseResult::Ok);
    EXPECT_EQ(req.body, "Wikipedia");
    EXPECT_EQ(consumed, raw.size());
}

TEST(HttpParse, ChunkedIncrementalAndPipelined)
{
    Request req;
    std::size_t consumed = 0;
    std::string head = "POST /b HTTP/1.1\r\n"
                       "Transfer-Encoding: chunked\r\n\r\n";
    EXPECT_EQ(parseRequest(head, req, consumed), ParseResult::Incomplete);
    EXPECT_EQ(parseRequest(head + "5\r\nhel", req, consumed),
              ParseResult::Incomplete)
        << "mid-chunk data";
    EXPECT_EQ(parseRequest(head + "5\r\nhello\r\n0\r\n", req, consumed),
              ParseResult::Incomplete)
        << "trailer section not terminated";
    // A complete chunked request followed by a pipelined GET: consumed
    // must stop exactly at the chunked terminator.
    std::string full = head + "5\r\nhello\r\n0\r\n\r\n";
    std::string two = full + "GET /next HTTP/1.1\r\n\r\n";
    ASSERT_EQ(parseRequest(two, req, consumed), ParseResult::Ok);
    EXPECT_EQ(req.body, "hello");
    EXPECT_EQ(consumed, full.size());
    two.erase(0, consumed);
    ASSERT_EQ(parseRequest(two, req, consumed), ParseResult::Ok);
    EXPECT_EQ(req.path, "/next");
}

INSTANTIATE_TEST_SUITE_P(
    ChunkedCorpus, HttpMalformed,
    ::testing::Values(
        BadReq{"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
               "ZZ\r\nhi\r\n0\r\n\r\n",
               "non-hex chunk size"},
        BadReq{"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
               "5\r\nhelloXX0\r\n\r\n",
               "missing CRLF after chunk data"},
        BadReq{"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
               "FFFFFFFF\r\n",
               "chunk size beyond the body cap"},
        BadReq{"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
               "Content-Length: 5\r\n\r\n0\r\n\r\n",
               "both framings present (smuggling)"},
        BadReq{"POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n",
               "unsupported transfer coding"},
        BadReq{"POST /x HTTP/1.1\r\nContent-Length: 3\r\n"
               "Content-Length: 3\r\n\r\nabc",
               "duplicate Content-Length"},
        BadReq{"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
               "Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
               "duplicate Transfer-Encoding"}));

TEST(HttpParse, DuplicateListHeadersMerge)
{
    Request req;
    std::size_t consumed = 0;
    std::string raw = "GET / HTTP/1.1\r\n"
                      "Accept-Encoding: gzip\r\n"
                      "Accept-Encoding: deflate;q=0.5\r\n\r\n";
    ASSERT_EQ(parseRequest(raw, req, consumed), ParseResult::Ok);
    EXPECT_EQ(req.headers.at("accept-encoding"),
              "gzip, deflate;q=0.5");
}

TEST(HttpParse, PlusDecodedInQueryButNotPath)
{
    Request req;
    std::size_t consumed = 0;
    std::string raw = "GET /a+b?msg=hi+there&k+1=v+2 HTTP/1.1\r\n\r\n";
    ASSERT_EQ(parseRequest(raw, req, consumed), ParseResult::Ok);
    EXPECT_EQ(req.path, "/a+b") << "'+' is literal in paths";
    EXPECT_EQ(req.queryParam("msg"), "hi there");
    EXPECT_EQ(req.queryParam("k 1"), "v 2") << "keys decode too";
}

TEST(UrlDecode, PlusHandling)
{
    EXPECT_EQ(urlDecode("a+b"), "a+b");
    EXPECT_EQ(urlDecode("a+b", true), "a b");
    EXPECT_EQ(urlDecode("a%2Bb", true), "a+b")
        << "percent-encoded plus stays a plus";
}

// Regression: parseResponse used to cast strtoll straight to size_t,
// so a negative or garbage Content-Length from a peer became a huge
// allocation / bogus frame. It must be rejected whether or not the
// peer has closed.
TEST(HttpResponseParse, ContentLengthValidated)
{
    const char *bads[] = {
        "HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",
        "HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n",
        "HTTP/1.1 200 OK\r\nContent-Length: 999999999999\r\n\r\n",
        "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n"
        "Content-Length: 3\r\n\r\nabc",
    };
    for (const char *bad : bads) {
        for (bool eof : {false, true}) {
            std::size_t consumed = 0;
            ParseResult state = ParseResult::Ok;
            EXPECT_FALSE(
                parseResponse(bad, consumed, &state, eof).has_value())
                << bad;
            EXPECT_EQ(state, ParseResult::Invalid) << bad;
        }
    }
    // Sanity: a valid frame still parses, before and at EOF.
    std::string good = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi";
    for (bool eof : {false, true}) {
        std::size_t consumed = 0;
        auto r = parseResponse(good, consumed, nullptr, eof);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->body, "hi");
        EXPECT_EQ(r->wireBodyBytes, 2u);
        EXPECT_EQ(consumed, good.size());
    }
}

TEST(HttpResponseParse, CloseDelimitedBodyEndsAtEof)
{
    // RFC 9112 §6.3: neither Content-Length nor chunked means the body
    // runs until the server closes.
    std::string raw = "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
                      "\r\ndata: 1\n\n";
    std::size_t consumed = 0;
    ParseResult state = ParseResult::Ok;
    EXPECT_FALSE(parseResponse(raw, consumed, &state).has_value());
    EXPECT_EQ(state, ParseResult::Incomplete) << "more may arrive";
    auto r = parseResponse(raw, consumed, &state, /*eof=*/true);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->body, "data: 1\n\n");
    EXPECT_EQ(r->wireBodyBytes, r->body.size());
    EXPECT_EQ(consumed, raw.size());
    // A truncated head or framed body is not completed by EOF.
    EXPECT_FALSE(parseResponse("HTTP/1.1 200 OK\r\nX: y", consumed,
                               &state, true)
                     .has_value());
    EXPECT_FALSE(parseResponse("HTTP/1.1 200 OK\r\nContent-Length: 9"
                               "\r\n\r\nabc",
                               consumed, &state, true)
                     .has_value());
}

TEST(HttpResponseParse, ChunkedResponseFraming)
{
    std::string raw = "HTTP/1.1 200 OK\r\n"
                      "Transfer-Encoding: chunked\r\n\r\n"
                      "3\r\nfoo\r\n3\r\nbar\r\n0\r\n\r\n";
    std::string tail = "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";
    std::size_t consumed = 0;
    auto r = parseResponse(raw + tail, consumed);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->body, "foobar");
    EXPECT_EQ(consumed, raw.size())
        << "pipelined follow-up stays in the buffer";
    r = parseResponse(raw, consumed, nullptr, /*eof=*/true);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->body, "foobar");
    // Incomplete chunked data: need more bytes, and EOF does not
    // complete it.
    std::string part = raw.substr(0, raw.size() - 4);
    EXPECT_FALSE(parseResponse(part, consumed).has_value());
    EXPECT_FALSE(parseResponse(part, consumed, nullptr, true).has_value());
}

TEST(Encoding, NegotiationPrefersGzip)
{
    if (!encodingSupported())
        GTEST_SKIP() << "built without zlib";
    EXPECT_EQ(negotiateEncoding("gzip, deflate"),
              ContentEncoding::Gzip);
    EXPECT_EQ(negotiateEncoding("deflate"), ContentEncoding::Deflate);
    EXPECT_EQ(negotiateEncoding("gzip;q=0, deflate"),
              ContentEncoding::Deflate)
        << "q=0 forbids a coding";
    EXPECT_EQ(negotiateEncoding("br"), ContentEncoding::Identity)
        << "unknown codings fall back to identity";
    EXPECT_EQ(negotiateEncoding("*"), ContentEncoding::Gzip)
        << "wildcard allows gzip";
    EXPECT_EQ(negotiateEncoding("deflate;q=1.0, gzip;q=0.5"),
              ContentEncoding::Deflate)
        << "client weights win";
    EXPECT_EQ(negotiateEncoding(""), ContentEncoding::Identity);
}

TEST(Encoding, RoundTripsBothCodings)
{
    if (!encodingSupported())
        GTEST_SKIP() << "built without zlib";
    std::string plain;
    for (int i = 0; i < 500; i++)
        plain += "{\"component\":\"GPU[" + std::to_string(i % 8) +
                 "].L1V\",\"level\":" + std::to_string(i) + "}";
    for (ContentEncoding enc :
         {ContentEncoding::Gzip, ContentEncoding::Deflate}) {
        std::string packed, unpacked;
        ASSERT_TRUE(compressBody(enc, plain, packed));
        EXPECT_LT(packed.size(), plain.size());
        ASSERT_TRUE(decompressBody(packed, unpacked, 1u << 20));
        EXPECT_EQ(unpacked, plain) << encodingName(enc);
    }
    // Corrupt data and over-limit inflation must fail cleanly.
    std::string packed, out;
    ASSERT_TRUE(compressBody(ContentEncoding::Gzip, plain, packed));
    EXPECT_FALSE(decompressBody(packed, out, 16))
        << "inflation past max_out is refused";
    packed[packed.size() / 2] ^= 0x5a;
    EXPECT_FALSE(decompressBody(packed, out, 1u << 20));
}

TEST_F(ServerTest, ChunkedPostReachesHandlerAndKeepsPipeline)
{
    RawSocket sock(server.port());
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(sock.send("POST /body HTTP/1.1\r\nHost: t\r\n"
                          "Transfer-Encoding: chunked\r\n\r\n"
                          "6\r\n{\"x\":1\r\n1\r\n}\r\n0\r\n\r\n"));
    auto resp = sock.readResponses(1);
    ASSERT_EQ(resp.size(), 1u);
    EXPECT_EQ(resp[0].body, "{\"x\":1}");
    // The connection survives and the parser is aligned: a follow-up
    // request on the same socket answers normally.
    ASSERT_TRUE(sock.send("GET /hello HTTP/1.1\r\nHost: t\r\n\r\n"));
    auto next = sock.readResponses(1);
    ASSERT_EQ(next.size(), 1u);
    EXPECT_EQ(next[0].body, "world");
}

TEST_F(ServerTest, PersistentClientChunkedPost)
{
    PersistentClient client("127.0.0.1", server.port());
    std::string body(5000, 'x');
    body += "end";
    auto r = client.postChunked("/body", body, 512);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, 200);
    EXPECT_EQ(r->body, body);
}

struct BadChunked
{
    const char *wire;
    const char *why;
};

class MalformedChunkedLive : public ServerTest,
                             public ::testing::WithParamInterface<BadChunked>
{
};

TEST_P(MalformedChunkedLive, Gets400AndClose)
{
    RawSocket sock(server.port());
    ASSERT_TRUE(sock.ok());
    ASSERT_TRUE(sock.send(GetParam().wire));
    auto resp = sock.readResponses(1);
    ASSERT_EQ(resp.size(), 1u) << GetParam().why;
    EXPECT_EQ(resp[0].status, 400) << GetParam().why;
    // The server must close rather than desync its parser.
    EXPECT_TRUE(sock.readResponses(1).empty()) << GetParam().why;
    // And the listener is unaffected: a fresh connection works.
    RawSocket again(server.port());
    ASSERT_TRUE(again.ok());
    ASSERT_TRUE(again.send("GET /hello HTTP/1.1\r\nHost: t\r\n\r\n"));
    auto ok = again.readResponses(1);
    ASSERT_EQ(ok.size(), 1u);
    EXPECT_EQ(ok[0].body, "world");
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MalformedChunkedLive,
    ::testing::Values(
        BadChunked{"POST /body HTTP/1.1\r\nHost: t\r\n"
                   "Transfer-Encoding: chunked\r\n\r\nZZ\r\nhi\r\n0\r\n\r\n",
                   "bad hex size"},
        BadChunked{"POST /body HTTP/1.1\r\nHost: t\r\n"
                   "Transfer-Encoding: chunked\r\n\r\n"
                   "5\r\nhelloXX0\r\n\r\n",
                   "missing CRLF after chunk"},
        BadChunked{"POST /body HTTP/1.1\r\nHost: t\r\n"
                   "Transfer-Encoding: chunked\r\n\r\nFFFFFFFF\r\n",
                   "chunk larger than the body cap"},
        BadChunked{"POST /body HTTP/1.1\r\nHost: t\r\n"
                   "Transfer-Encoding: chunked\r\n"
                   "Content-Length: 4\r\n\r\n0\r\n\r\n",
                   "both framings present"}));

TEST_F(ServerTest, LargeResponsesAreCompressedWhenAccepted)
{
    server.route("GET", "/big", [](const Request &) {
        std::string body;
        for (int i = 0; i < 400; i++)
            body += "line " + std::to_string(i) + " of filler text\n";
        return Response::ok(body);
    });
    PersistentClient client("127.0.0.1", server.port());

    auto identity = client.get("/big");
    ASSERT_TRUE(identity.has_value());
    EXPECT_EQ(identity->headers.count("content-encoding"), 0u)
        << "no Accept-Encoding, no compression";

    if (!encodingSupported())
        GTEST_SKIP() << "built without zlib";
    auto gz = client.get("/big", {{"Accept-Encoding", "gzip"}});
    ASSERT_TRUE(gz.has_value());
    ASSERT_EQ(gz->headers.at("content-encoding"), "gzip");
    EXPECT_EQ(gz->headers.at("vary"), "Accept-Encoding");
    EXPECT_LT(gz->wireBodyBytes, identity->body.size());
    EXPECT_EQ(gz->body, identity->body)
        << "client-side gunzip restores the identity bytes";

    // Small responses (under 1 KiB) skip compression.
    auto small = client.get("/hello", {{"Accept-Encoding", "gzip"}});
    ASSERT_TRUE(small.has_value());
    EXPECT_EQ(small->headers.count("content-encoding"), 0u);
    EXPECT_EQ(small->body, "world");
}
