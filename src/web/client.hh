/**
 * @file
 * Blocking keep-alive HTTP client.
 *
 * The one client of the RTM's HTTP API: akita-inspect, the
 * remote-monitor example (the paper's "other simulators can use the
 * HTTP API" path), the load and overhead benchmarks, and the test
 * suite all speak through it. A caller that wants one connection per
 * request sends "Connection: close" and the client reconnects on the
 * next call.
 */

#ifndef AKITA_WEB_CLIENT_HH
#define AKITA_WEB_CLIENT_HH

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "web/http.hh"

namespace akita
{
namespace web
{

/**
 * A blocking keep-alive HTTP/1.1 client pinned to one host/port.
 *
 * Reuses one TCP connection across requests (the dashboard-poller
 * traffic pattern); reconnects transparently once if the server closed
 * the idle connection. A response carrying "Connection: close", or one
 * delimited by the server closing, drops the socket, and the next
 * request opens a fresh one. Not thread-safe — one instance per client
 * thread.
 *
 * Gzip/deflate response bodies are decompressed transparently; the
 * Content-Encoding header and ParsedResponse::wireBodyBytes still
 * describe the wire form.
 */
class PersistentClient
{
  public:
    PersistentClient(std::string host, std::uint16_t port)
        : host_(std::move(host)), port_(port)
    {
    }

    ~PersistentClient() { disconnect(); }

    PersistentClient(const PersistentClient &) = delete;
    PersistentClient &operator=(const PersistentClient &) = delete;

    /**
     * Issues a GET; nullopt on connection failure.
     *
     * @param extraHeaders Extra header lines, e.g. {"If-None-Match", etag}.
     */
    std::optional<ParsedResponse>
    get(const std::string &target,
        const std::vector<std::pair<std::string, std::string>>
            &extraHeaders = {});

    /** Issues a POST with a Content-Length-framed body. */
    std::optional<ParsedResponse>
    post(const std::string &target, const std::string &body,
         const std::string &content_type = "application/json");

    /**
     * Issues a POST with a Transfer-Encoding: chunked body, split into
     * @p chunk_size-byte chunks (the proxied-browser wire shape).
     */
    std::optional<ParsedResponse>
    postChunked(const std::string &target, const std::string &body,
                std::size_t chunk_size = 1024,
                const std::string &content_type = "application/json");

    /** Whether the underlying connection is currently open. */
    bool connected() const { return fd_ >= 0; }

    /** Closes the connection (the next request reconnects). */
    void disconnect();

  private:
    bool ensureConnected();
    bool sendAll(const std::string &bytes);
    std::optional<ParsedResponse> readResponse();
    std::optional<ParsedResponse> roundTrip(const std::string &req);

    std::string host_;
    std::uint16_t port_;
    int fd_ = -1;
    std::string pending_; // Bytes past the last parsed response.
};

} // namespace web
} // namespace akita

#endif // AKITA_WEB_CLIENT_HH
