/**
 * @file
 * Event-loop HTTP server.
 *
 * Starting an RTM-monitored simulation "effectively transform[s] any
 * simulation into a web server" (paper §IV-A). The server runs on
 * dedicated threads (the paper's design choice 3) so its execution
 * minimally interferes with the simulation thread — but unlike the
 * original thread-per-connection design, the cost of N dashboard
 * clients is now bounded: one epoll reactor thread owns every socket
 * (non-blocking accept/read/write, HTTP/1.1 keep-alive with pipelined
 * request parsing, per-connection write buffering with backpressure,
 * idle timeouts, a connection cap) and a fixed-size pool of handler
 * workers executes route callbacks, which may briefly borrow the
 * engine lock. Streaming (SSE) responses are long-lived connections
 * pumped from the same loop; they hold no thread.
 */

#ifndef AKITA_WEB_SERVER_HH
#define AKITA_WEB_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "web/http.hh"
#include "web/router.hh"

namespace akita
{
namespace web
{

/** Serving knobs (all have production-safe defaults). */
struct ServerOptions
{
    /** Handler pool size; 0 means auto: min(4, hardware_concurrency). */
    int workers = 0;
    /** Concurrent-connection cap; excess connects get a fast 503. */
    std::size_t maxConnections = 256;
    /** Keep-alive connections idle longer than this are closed. */
    int idleTimeoutMs = 30000;
};

/**
 * A small routing HTTP/1.1 server bound to 127.0.0.1.
 *
 * Routes are matched most-specific-first: exact paths win over prefix
 * ("/api/component/" + wildcard) routes, and longer prefixes win over
 * shorter. Exact-path lookup is a per-method hash probe.
 */
class HttpServer
{
  public:
    HttpServer();
    explicit HttpServer(const ServerOptions &options);
    ~HttpServer();

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /**
     * Registers a handler on the root router.
     *
     * @param method HTTP method ("GET"/"POST"); "*" matches any.
     * @param pattern Exact path, or a prefix ending in "/" followed by a star.
     */
    void route(const std::string &method, const std::string &pattern,
               Handler handler);

    /**
     * Registers a streaming handler (same pattern rules as route()).
     * The connection is closed when the session's pump returns false.
     */
    void routeStream(const std::string &method,
                     const std::string &pattern, StreamHandler handler);

    /** The root route table (the no-prefix routes). */
    Router &router() { return router_; }

    /**
     * Mounts @p router under @p prefix (e.g. "/sim/gpu0", no trailing
     * slash). A request whose path starts with "<prefix>/" is
     * dispatched inside @p router with the prefix stripped from both
     * the decoded path and the raw target — handlers (and anything
     * keyed on Request::target, like the response cache) see exactly
     * the bytes a request to a standalone server would carry. A
     * request for the bare prefix is redirected to "<prefix>/" so
     * relative links in served pages resolve under the mount. Longer
     * prefixes win when mounts nest; mount resolution runs before the
     * root routes, and an unmatched path inside a mount is a 404, not
     * a root-table fallback.
     */
    void mount(const std::string &prefix, std::shared_ptr<Router> router);

    /**
     * Binds and starts serving.
     *
     * @param port Requested TCP port; 0 picks an ephemeral port.
     * @return True on success; see port() for the bound port.
     */
    bool start(std::uint16_t port = 0);

    /** Stops serving and joins all threads. Idempotent. */
    void stop();

    /** The bound port (valid after start). */
    std::uint16_t port() const { return port_; }

    bool running() const { return running_.load(); }

    /** Root URL, e.g. "http://127.0.0.1:8080". */
    std::string url() const;

    /** Total requests served (for overhead accounting). */
    std::uint64_t
    requestCount() const
    {
        return requestCount_.load(std::memory_order_relaxed);
    }

    /** The effective options (workers resolved after start). */
    const ServerOptions &options() const { return opts_; }

  private:
    /** One mounted sub-router (see mount()). */
    struct Mount
    {
        std::string prefix; // Normalized: leading '/', no trailing '/'.
        std::shared_ptr<Router> router;
    };

    /** One connection; owned and touched only by the reactor thread. */
    struct Conn
    {
        std::uint64_t id = 0;
        int fd = -1;
        std::string in;          // Receive buffer.
        std::size_t inOff = 0;   // Parse cursor (no per-request erase).
        std::string out;         // Send buffer.
        std::size_t outOff = 0;  // Flush cursor.
        std::uint32_t events = 0; // Current epoll interest mask.
        bool busy = false;        // A handler job is in flight.
        bool closing = false;     // Close once the send buffer drains.
        bool streaming = false;
        std::function<bool(std::string &)> pump;
        std::chrono::steady_clock::time_point last;
    };

    /** Work for the handler pool. */
    struct Job
    {
        std::uint64_t connId = 0;
        Request req;
        bool keepAlive = true;
    };

    /** A worker's finished response, applied by the reactor. */
    struct Completion
    {
        std::uint64_t connId = 0;
        std::string bytes;
        bool close = false;
        bool isStream = false;
        std::function<bool(std::string &)> pump;
    };

    /**
     * Resolves @p req against the mounts, then the root router. When a
     * mount matches, @p stripped receives the prefix-stripped request
     * and @p reqp is pointed at it; otherwise @p reqp stays on @p req.
     *
     * @param[out] redirect Set to the "<prefix>/" location when the
     *        request names a bare mount prefix (the caller answers
     *        with a 301 and ignores the other outputs).
     * @return True when a route matched.
     */
    bool resolveRoute(const Request &req, Router::Route &out,
                      Request &stripped, const Request *&reqp,
                      std::string &redirect) const;

    void reactorLoop();
    void workerLoop();
    Completion runJob(const Job &job) const;

    void onAccept();
    void onReadable(Conn &conn);
    bool flush(Conn &conn);
    bool processInput(Conn &conn);
    void applyCompletions();
    void pumpStreams();
    void sweepIdle();
    void updateEvents(Conn &conn);
    void closeConn(std::uint64_t id);
    void wakeReactor();

    ServerOptions opts_;

    Router router_;
    mutable std::mutex mountsMu_;
    std::shared_ptr<const std::vector<Mount>> mounts_;

    int listenFd_ = -1;
    int epollFd_ = -1;
    int wakeFd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> running_{false};
    std::atomic<std::uint64_t> requestCount_{0};

    // Reactor-private state.
    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
    std::uint64_t nextConnId_ = 2; // 0 = listen fd, 1 = wake fd.
    std::size_t numStreams_ = 0;

    std::thread reactorThread_;
    std::vector<std::thread> workers_;

    std::mutex jobsMu_;
    std::condition_variable jobsCv_;
    std::deque<Job> jobs_;

    std::mutex completionsMu_;
    std::deque<Completion> completions_;
};

} // namespace web
} // namespace akita

#endif // AKITA_WEB_SERVER_HH
