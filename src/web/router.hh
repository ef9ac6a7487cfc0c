/**
 * @file
 * HTTP route table, usable standalone or mounted under a path prefix.
 *
 * Extracted from HttpServer so that one server can dispatch into many
 * independent route tables: the fleet gateway registers one Router per
 * monitored simulation and mounts each under /sim/{id}, while the
 * server's own root Router keeps serving the gateway-level endpoints.
 */

#ifndef AKITA_WEB_ROUTER_HH
#define AKITA_WEB_ROUTER_HH

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "web/http.hh"

namespace akita
{
namespace web
{

/** Request handler; runs on a pool worker thread. */
using Handler = std::function<Response(const Request &)>;

/**
 * One live streaming (SSE) response.
 *
 * A stream route returns a session per accepted request. The server
 * writes the head once, then calls pump() from the event loop every
 * 25 ms once the previous bytes have drained (built-in
 * backpressure: a slow client is never buffered beyond one chunk).
 * pump() appends any ready bytes to @p out and returns false to end
 * the stream — streaming responses carry no Content-Length, so the
 * connection close is the framing. pump() must not block.
 */
struct StreamSession
{
    int status = 200;
    std::vector<std::pair<std::string, std::string>> headers;
    std::function<bool(std::string &out)> pump;
};

/** Streaming handler; runs once per request on a pool worker thread. */
using StreamHandler = std::function<StreamSession(const Request &)>;

/**
 * A thread-safe routing table.
 *
 * Routes are matched most-specific-first: exact paths win over prefix
 * ("/api/component/" + wildcard) routes, and longer prefixes win over
 * shorter. Exact-path lookup is a per-method hash probe. Registration
 * rebuilds an immutable snapshot, so lookups never block behind a
 * registration and hold no lock while handlers run.
 */
class Router
{
  public:
    /** One registered route (exactly one of handler/stream is set). */
    struct Route
    {
        std::string method;
        std::string pattern; // Without the trailing "*".
        bool prefix = false;
        Handler handler;
        StreamHandler stream; // Set for routeStream registrations.
    };

    Router() : table_(std::make_shared<Table>()) {}

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /**
     * Registers a handler.
     *
     * @param method HTTP method ("GET"/"POST"); "*" matches any.
     * @param pattern Exact path, or a prefix ending in "/" followed by
     *        a star.
     */
    void route(const std::string &method, const std::string &pattern,
               Handler handler);

    /** Registers a streaming handler (same pattern rules as route()). */
    void routeStream(const std::string &method,
                     const std::string &pattern, StreamHandler handler);

    /**
     * Looks up the route for @p req (match rules above).
     *
     * @return True when a route matched; @p out is filled.
     */
    bool find(const Request &req, Route &out) const;

  private:
    /**
     * Immutable routing snapshot: exact paths bucketed by method for
     * O(1) lookup, prefixes in a small longest-first list.
     */
    struct Table
    {
        std::unordered_map<std::string,
                           std::unordered_map<std::string, Route>>
            exact;
        std::vector<Route> prefixes;
    };

    void addRoute(const std::string &method, const std::string &pattern,
                  Handler handler, StreamHandler stream);

    mutable std::mutex mu_;
    std::shared_ptr<const Table> table_;
};

} // namespace web
} // namespace akita

#endif // AKITA_WEB_ROUTER_HH
