#include "web/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "web/encoding.hh"

namespace akita
{
namespace web
{

namespace
{

constexpr std::uint64_t kListenId = 0;
constexpr std::uint64_t kWakeId = 1;

/** Cadence at which drained stream sessions are pumped. */
constexpr int kStreamPollMs = 25;
/** Pause reading from a connection buffering more than this. */
constexpr std::size_t kWriteHighWater = 1u << 20;
/** Reject requests larger than this (head + body). */
constexpr std::size_t kMaxRequestBytes = 1u << 20;
/**
 * Compress 200 responses at least this large when the client's
 * Accept-Encoding allows it and the handler did not already set
 * Content-Encoding. Handlers serving from a response cache
 * pre-compress instead, so this is the fallback for uncached bodies.
 */
constexpr std::size_t kCompressMinBytes = 1024;

int
resolveWorkers(int requested)
{
    if (requested > 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    return static_cast<int>(std::min(4u, hw));
}

/** Pre-serialized fast 503 for connections over the cap. */
const std::string &
overloadedResponse()
{
    static const std::string wire =
        Response::error(503, "connection limit reached").serialize(false);
    return wire;
}

/** Compresses a large 200 body for a client that accepts it. */
void
maybeCompress(const Request &req, Response &resp)
{
    // A handler that set Content-Encoding or an ETag manages its own
    // representations (the cached endpoints pre-compress per entry);
    // recompressing here would detach the validator from the bytes.
    if (resp.status != 200 || resp.body.size() < kCompressMinBytes ||
        resp.headers.count("Content-Encoding") ||
        resp.headers.count("ETag"))
        return;
    auto ae = req.headers.find("accept-encoding");
    if (ae == req.headers.end())
        return;
    ContentEncoding enc = negotiateEncoding(ae->second);
    if (enc == ContentEncoding::Identity)
        return;
    std::string packed;
    if (!compressBody(enc, resp.body, packed) ||
        packed.size() >= resp.body.size())
        return;
    resp.body = std::move(packed);
    resp.headers["Content-Encoding"] = encodingName(enc);
    resp.headers["Vary"] = "Accept-Encoding";
}

} // namespace

HttpServer::HttpServer() : HttpServer(ServerOptions{}) {}

HttpServer::HttpServer(const ServerOptions &options)
    : opts_(options), mounts_(std::make_shared<std::vector<Mount>>())
{
}

HttpServer::~HttpServer()
{
    stop();
}

void
HttpServer::route(const std::string &method, const std::string &pattern,
                  Handler handler)
{
    router_.route(method, pattern, std::move(handler));
}

void
HttpServer::routeStream(const std::string &method,
                        const std::string &pattern,
                        StreamHandler handler)
{
    router_.routeStream(method, pattern, std::move(handler));
}

void
HttpServer::mount(const std::string &prefix,
                  std::shared_ptr<Router> router)
{
    Mount m;
    m.prefix = prefix;
    while (!m.prefix.empty() && m.prefix.back() == '/')
        m.prefix.pop_back();
    if (m.prefix.empty() || m.prefix[0] != '/' || !router)
        return;
    m.router = std::move(router);

    std::lock_guard<std::mutex> lk(mountsMu_);
    auto next = std::make_shared<std::vector<Mount>>(*mounts_);
    // Replace an existing mount at the same prefix (re-registration).
    next->erase(std::remove_if(next->begin(), next->end(),
                               [&](const Mount &e) {
                                   return e.prefix == m.prefix;
                               }),
                next->end());
    next->push_back(std::move(m));
    std::stable_sort(next->begin(), next->end(),
                     [](const Mount &a, const Mount &b) {
                         return a.prefix.size() > b.prefix.size();
                     });
    mounts_ = std::move(next);
}

bool
HttpServer::resolveRoute(const Request &req, Router::Route &out,
                         Request &stripped, const Request *&reqp,
                         std::string &redirect) const
{
    reqp = &req;
    std::shared_ptr<const std::vector<Mount>> mounts;
    {
        std::lock_guard<std::mutex> lk(mountsMu_);
        mounts = mounts_;
    }
    for (const Mount &m : *mounts) { // Longest prefix first.
        if (req.path == m.prefix) {
            // Bare prefix: redirect to the directory form so the
            // page's relative fetches resolve inside the mount.
            redirect = m.prefix + "/";
            return false;
        }
        if (req.path.size() <= m.prefix.size() ||
            req.path.compare(0, m.prefix.size(), m.prefix) != 0 ||
            req.path[m.prefix.size()] != '/')
            continue;
        stripped = req;
        stripped.path = req.path.substr(m.prefix.size());
        // Mount prefixes contain no percent-encoded characters, so the
        // raw target starts with the same bytes as the decoded path.
        if (req.target.compare(0, m.prefix.size(), m.prefix) == 0)
            stripped.target = req.target.substr(m.prefix.size());
        reqp = &stripped;
        // Inside a mount the sub-router is authoritative: a miss is a
        // 404, never a fall-through to the root routes.
        return m.router->find(stripped, out);
    }
    return router_.find(req, out);
}

bool
HttpServer::start(std::uint16_t port)
{
    if (running_.load())
        return false;

    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listenFd_ < 0)
        return false;

    int opt = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &opt, sizeof(opt));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(listenFd_, SOMAXCONN) < 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }

    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr), &len);
    port_ = ntohs(addr.sin_port);

    epollFd_ = ::epoll_create1(0);
    wakeFd_ = ::eventfd(0, EFD_NONBLOCK);
    if (epollFd_ < 0 || wakeFd_ < 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        if (epollFd_ >= 0)
            ::close(epollFd_);
        if (wakeFd_ >= 0)
            ::close(wakeFd_);
        epollFd_ = wakeFd_ = -1;
        return false;
    }

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenId;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev);
    ev.data.u64 = kWakeId;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev);

    opts_.workers = resolveWorkers(opts_.workers);
    running_.store(true);
    reactorThread_ = std::thread([this]() { reactorLoop(); });
    for (int i = 0; i < opts_.workers; i++)
        workers_.emplace_back([this]() { workerLoop(); });
    return true;
}

void
HttpServer::stop()
{
    if (!running_.exchange(false)) {
        if (reactorThread_.joinable())
            reactorThread_.join();
        for (auto &t : workers_) {
            if (t.joinable())
                t.join();
        }
        workers_.clear();
        return;
    }

    wakeReactor();
    jobsCv_.notify_all();
    if (reactorThread_.joinable())
        reactorThread_.join();
    for (auto &t : workers_) {
        if (t.joinable())
            t.join();
    }
    workers_.clear();

    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (epollFd_ >= 0) {
        ::close(epollFd_);
        epollFd_ = -1;
    }
    if (wakeFd_ >= 0) {
        ::close(wakeFd_);
        wakeFd_ = -1;
    }
    {
        std::lock_guard<std::mutex> lk(jobsMu_);
        jobs_.clear();
    }
    {
        std::lock_guard<std::mutex> lk(completionsMu_);
        completions_.clear();
    }
}

std::string
HttpServer::url() const
{
    return "http://127.0.0.1:" + std::to_string(port_);
}

void
HttpServer::wakeReactor()
{
    std::uint64_t one = 1;
    ssize_t n = ::write(wakeFd_, &one, sizeof(one));
    (void)n; // A full counter already guarantees a wakeup.
}

// ---------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------

void
HttpServer::reactorLoop()
{
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    auto lastSweep = std::chrono::steady_clock::now();

    while (running_.load()) {
        int timeout = numStreams_ > 0 ? kStreamPollMs : 250;
        int n = ::epoll_wait(epollFd_, events, kMaxEvents, timeout);
        if (!running_.load())
            break;
        for (int i = 0; i < n; i++) {
            std::uint64_t id = events[i].data.u64;
            if (id == kListenId) {
                onAccept();
                continue;
            }
            if (id == kWakeId) {
                std::uint64_t drained = 0;
                while (::read(wakeFd_, &drained, sizeof(drained)) > 0) {
                }
                continue;
            }
            auto it = conns_.find(id);
            if (it == conns_.end())
                continue;
            Conn &conn = *it->second;
            if (events[i].events & (EPOLLHUP | EPOLLERR)) {
                closeConn(id);
                continue;
            }
            if (events[i].events & EPOLLOUT) {
                if (!flush(conn))
                    continue; // Connection closed.
                if (!conn.busy && !conn.streaming &&
                    !processInput(conn))
                    continue; // Connection closed.
                updateEvents(conn);
            }
            if (events[i].events & EPOLLIN)
                onReadable(conn);
        }

        applyCompletions();
        if (numStreams_ > 0)
            pumpStreams();

        auto now = std::chrono::steady_clock::now();
        if (now - lastSweep >= std::chrono::milliseconds(250)) {
            lastSweep = now;
            sweepIdle();
        }
    }

    // Shutdown: close every connection; completions from still-running
    // workers are dropped (stop() clears the queue after joins).
    std::vector<std::uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto &kv : conns_)
        ids.push_back(kv.first);
    for (std::uint64_t id : ids)
        closeConn(id);
}

void
HttpServer::onAccept()
{
    while (true) {
        int fd = ::accept4(listenFd_, nullptr, nullptr, SOCK_NONBLOCK);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // EAGAIN or a transient error; epoll will re-arm.
        }
        if (conns_.size() >= opts_.maxConnections) {
            // Fast, bounded rejection: one best-effort send, then close.
            const std::string &wire = overloadedResponse();
            ssize_t sent =
                ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
            (void)sent;
            ::close(fd);
            continue;
        }
        int nodelay = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                     sizeof(nodelay));

        auto conn = std::make_unique<Conn>();
        conn->id = nextConnId_++;
        conn->fd = fd;
        conn->last = std::chrono::steady_clock::now();
        conn->events = EPOLLIN;
        epoll_event ev{};
        ev.events = conn->events;
        ev.data.u64 = conn->id;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
            ::close(fd);
            continue;
        }
        conns_.emplace(conn->id, std::move(conn));
    }
}

void
HttpServer::onReadable(Conn &conn)
{
    char buf[16384];
    while (true) {
        ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            conn.last = std::chrono::steady_clock::now();
            // Streams are write-only once established; drop client bytes.
            if (!conn.streaming)
                conn.in.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) {
            closeConn(conn.id);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        closeConn(conn.id);
        return;
    }
    if (!conn.busy && !conn.streaming && !processInput(conn))
        return; // Connection closed.
    updateEvents(conn);
}

bool
HttpServer::processInput(Conn &conn)
{
    if (conn.closing)
        return true;
    Request req;
    std::size_t consumed = 0;
    ParseResult pr = parseRequest(conn.in, conn.inOff, req, consumed);
    if (pr == ParseResult::Incomplete &&
        conn.in.size() - conn.inOff > kMaxRequestBytes)
        pr = ParseResult::Invalid;
    if (pr == ParseResult::Invalid) {
        conn.out.append(
            Response::error(400, "malformed request").serialize(false));
        conn.closing = true;
        // flush may close the connection outright; report it so no
        // caller touches the (then freed) Conn again.
        return flush(conn);
    }
    if (pr == ParseResult::Incomplete)
        return true;

    // Advance the parse cursor without the per-request erase(0, n) —
    // compaction is amortized O(1) over the bytes received.
    conn.inOff += consumed;
    if (conn.inOff == conn.in.size()) {
        conn.in.clear();
        conn.inOff = 0;
    } else if (conn.inOff > 4096 && conn.inOff >= conn.in.size() / 2) {
        conn.in.erase(0, conn.inOff);
        conn.inOff = 0;
    }

    requestCount_.fetch_add(1, std::memory_order_relaxed);

    bool keepAlive = true;
    auto connHdr = req.headers.find("connection");
    if (connHdr != req.headers.end() && connHdr->second == "close")
        keepAlive = false;

    // One request in flight per connection keeps responses in pipeline
    // order; the next buffered request is parsed when this completes.
    conn.busy = true;
    {
        std::lock_guard<std::mutex> lk(jobsMu_);
        jobs_.push_back(Job{conn.id, std::move(req), keepAlive});
    }
    jobsCv_.notify_one();
    return true;
}

bool
HttpServer::flush(Conn &conn)
{
    while (conn.outOff < conn.out.size()) {
        ssize_t n = ::send(conn.fd, conn.out.data() + conn.outOff,
                           conn.out.size() - conn.outOff, MSG_NOSIGNAL);
        if (n >= 0) {
            conn.outOff += static_cast<std::size_t>(n);
            conn.last = std::chrono::steady_clock::now();
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        closeConn(conn.id);
        return false;
    }
    if (conn.outOff == conn.out.size()) {
        conn.out.clear();
        conn.outOff = 0;
        if (conn.closing) {
            closeConn(conn.id);
            return false;
        }
    } else if (conn.outOff > (1u << 16)) {
        conn.out.erase(0, conn.outOff);
        conn.outOff = 0;
    }
    return true;
}

void
HttpServer::applyCompletions()
{
    std::deque<Completion> batch;
    {
        std::lock_guard<std::mutex> lk(completionsMu_);
        batch.swap(completions_);
    }
    for (auto &c : batch) {
        auto it = conns_.find(c.connId);
        if (it == conns_.end())
            continue; // The connection died while the handler ran.
        Conn &conn = *it->second;
        conn.busy = false;
        conn.out.append(c.bytes);
        if (c.isStream) {
            conn.streaming = true;
            conn.pump = std::move(c.pump);
            numStreams_++;
            // Anything the client pipelined after a stream request is
            // undeliverable on this connection; the stream owns it now.
            conn.in.clear();
            conn.inOff = 0;
        }
        if (c.close)
            conn.closing = true;
        if (!flush(conn))
            continue;
        if (!conn.busy && !conn.streaming && !conn.closing)
            processInput(conn); // Pipelined follow-up, if buffered.
        auto again = conns_.find(c.connId);
        if (again != conns_.end())
            updateEvents(*again->second);
    }
}

void
HttpServer::pumpStreams()
{
    std::vector<std::uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto &kv : conns_) {
        if (kv.second->streaming)
            ids.push_back(kv.first);
    }
    for (std::uint64_t id : ids) {
        auto it = conns_.find(id);
        if (it == conns_.end())
            continue;
        Conn &conn = *it->second;
        // Backpressure: pump only once the previous chunk has drained.
        if (conn.closing || conn.outOff < conn.out.size())
            continue;
        std::string chunk;
        bool more = false;
        try {
            more = conn.pump ? conn.pump(chunk) : false;
        } catch (const std::exception &) {
            more = false; // Best effort; the stream just ends.
        }
        if (!chunk.empty())
            conn.out.append(chunk);
        if (!more)
            conn.closing = true;
        if (!flush(conn))
            continue;
        auto again = conns_.find(id);
        if (again != conns_.end())
            updateEvents(*again->second);
    }
}

void
HttpServer::sweepIdle()
{
    if (opts_.idleTimeoutMs <= 0)
        return;
    auto now = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> dead;
    for (const auto &kv : conns_) {
        const Conn &conn = *kv.second;
        if (conn.streaming || conn.busy)
            continue;
        if (now - conn.last >
            std::chrono::milliseconds(opts_.idleTimeoutMs))
            dead.push_back(kv.first);
    }
    for (std::uint64_t id : dead)
        closeConn(id);
}

void
HttpServer::updateEvents(Conn &conn)
{
    bool pendingOut = conn.outOff < conn.out.size();
    // Backpressure: stop reading while the peer lets writes pile up.
    bool readPaused =
        conn.out.size() - conn.outOff > kWriteHighWater;
    std::uint32_t want = (readPaused ? 0u : EPOLLIN) |
                         (pendingOut ? EPOLLOUT : 0u);
    if (want == conn.events)
        return;
    conn.events = want;
    epoll_event ev{};
    ev.events = want;
    ev.data.u64 = conn.id;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void
HttpServer::closeConn(std::uint64_t id)
{
    auto it = conns_.find(id);
    if (it == conns_.end())
        return;
    if (it->second->streaming && numStreams_ > 0)
        numStreams_--;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
    ::close(it->second->fd);
    conns_.erase(it);
}

// ---------------------------------------------------------------------
// Handler pool
// ---------------------------------------------------------------------

void
HttpServer::workerLoop()
{
    while (true) {
        Job job;
        {
            std::unique_lock<std::mutex> lk(jobsMu_);
            jobsCv_.wait(lk, [this]() {
                return !jobs_.empty() || !running_.load();
            });
            if (!running_.load())
                return;
            job = std::move(jobs_.front());
            jobs_.pop_front();
        }
        Completion c = runJob(job);
        {
            std::lock_guard<std::mutex> lk(completionsMu_);
            completions_.push_back(std::move(c));
        }
        wakeReactor();
    }
}

HttpServer::Completion
HttpServer::runJob(const Job &job) const
{
    Completion c;
    c.connId = job.connId;

    Router::Route r;
    Request stripped;
    const Request *reqp = &job.req;
    std::string redirect;
    bool found = resolveRoute(job.req, r, stripped, reqp, redirect);
    if (!redirect.empty()) {
        Response moved;
        moved.status = 301;
        moved.headers["Location"] = redirect;
        c.bytes = moved.serialize(job.keepAlive);
        c.close = !job.keepAlive;
        return c;
    }
    if (!found) {
        c.bytes = Response::error(404, "no route for " + job.req.path)
                      .serialize(job.keepAlive);
        c.close = !job.keepAlive;
        return c;
    }
    const Request &req = *reqp;

    if (r.stream) {
        try {
            StreamSession s = r.stream(req);
            std::string head = "HTTP/1.1 " + std::to_string(s.status) +
                               " " + statusText(s.status) + "\r\n";
            for (const auto &kv : s.headers)
                head += kv.first + ": " + kv.second + "\r\n";
            head += "\r\n";
            c.bytes = std::move(head);
            c.pump = std::move(s.pump);
            c.isStream = true;
        } catch (const std::exception &e) {
            c.bytes = Response::error(
                          500, std::string("handler error: ") + e.what())
                          .serialize(false);
            c.close = true;
        }
        return c;
    }

    Response resp;
    try {
        resp = r.handler(req);
    } catch (const std::exception &e) {
        resp = Response::error(500,
                               std::string("handler error: ") + e.what());
    }
    maybeCompress(req, resp);
    c.bytes = resp.serialize(job.keepAlive);
    c.close = !job.keepAlive;
    return c;
}

} // namespace web
} // namespace akita
