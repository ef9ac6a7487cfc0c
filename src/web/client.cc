#include "web/client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "web/encoding.hh"

namespace akita
{
namespace web
{

namespace
{

/** Largest body a client will inflate (zip-bomb guard). */
constexpr std::size_t kMaxInflatedBytes = 1u << 28;

/**
 * Inflates a gzip/deflate body in place (wireBodyBytes keeps the
 * compressed size). @return False on corrupt compressed data.
 */
bool
maybeDecompress(ParsedResponse &resp)
{
    auto it = resp.headers.find("content-encoding");
    if (it == resp.headers.end() || it->second == "identity")
        return true;
    if (it->second != "gzip" && it->second != "deflate")
        return false; // Unknown coding; the body is unusable.
    std::string plain;
    if (!decompressBody(resp.body, plain, kMaxInflatedBytes))
        return false;
    resp.body = std::move(plain);
    return true;
}

/** Wraps @p body in chunked transfer coding, @p chunk_size per chunk. */
std::string
encodeChunked(const std::string &body, std::size_t chunk_size)
{
    if (chunk_size == 0)
        chunk_size = 1024;
    std::string out;
    char hex[32];
    for (std::size_t pos = 0; pos < body.size(); pos += chunk_size) {
        std::size_t n = std::min(chunk_size, body.size() - pos);
        std::snprintf(hex, sizeof(hex), "%zx\r\n", n);
        out += hex;
        out.append(body, pos, n);
        out += "\r\n";
    }
    out += "0\r\n\r\n";
    return out;
}

} // namespace

void
PersistentClient::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    pending_.clear();
}

bool
PersistentClient::ensureConnected()
{
    if (fd_ >= 0)
        return true;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        return false;
    }
    fd_ = fd;
    pending_.clear();
    return true;
}

bool
PersistentClient::sendAll(const std::string &bytes)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                           MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

std::optional<ParsedResponse>
PersistentClient::readResponse()
{
    char buf[8192];
    bool eof = false;
    while (true) {
        std::size_t consumed = 0;
        ParseResult state = ParseResult::Incomplete;
        if (auto parsed = parseResponse(pending_, consumed, &state, eof)) {
            pending_.erase(0, consumed);
            // The server will not read another request on this socket;
            // the next one starts on a fresh connection.
            auto conn = parsed->headers.find("connection");
            if (eof || (conn != parsed->headers.end() &&
                        conn->second == "close"))
                disconnect();
            if (!maybeDecompress(*parsed))
                return std::nullopt;
            return parsed;
        }
        if (state == ParseResult::Invalid) {
            // Corrupt framing (bad chunk size line, malformed status
            // line): the stream can never resynchronize, so abort now
            // instead of blocking until the socket timeout fires.
            disconnect();
            return std::nullopt;
        }
        if (eof)
            return std::nullopt;
        ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n < 0)
            return std::nullopt;
        if (n == 0)
            eof = true; // Completes a close-delimited response.
        else
            pending_.append(buf, static_cast<std::size_t>(n));
    }
}

std::optional<ParsedResponse>
PersistentClient::roundTrip(const std::string &req)
{
    // One transparent retry: the server may have reaped the idle
    // connection between polls.
    for (int attempt = 0; attempt < 2; attempt++) {
        bool wasConnected = fd_ >= 0;
        if (!ensureConnected())
            return std::nullopt;
        if (sendAll(req)) {
            if (auto resp = readResponse())
                return resp;
        }
        disconnect();
        if (!wasConnected)
            break; // A fresh connection failed outright; don't loop.
    }
    return std::nullopt;
}

std::optional<ParsedResponse>
PersistentClient::get(
    const std::string &target,
    const std::vector<std::pair<std::string, std::string>> &extraHeaders)
{
    std::string req = "GET " + target + " HTTP/1.1\r\n" +
                      "Host: " + host_ + "\r\n";
    for (const auto &kv : extraHeaders)
        req += kv.first + ": " + kv.second + "\r\n";
    req += "\r\n";
    return roundTrip(req);
}

std::optional<ParsedResponse>
PersistentClient::post(const std::string &target, const std::string &body,
                       const std::string &content_type)
{
    std::string req = "POST " + target + " HTTP/1.1\r\n" +
                      "Host: " + host_ + "\r\n" +
                      "Content-Type: " + content_type + "\r\n" +
                      "Content-Length: " + std::to_string(body.size()) +
                      "\r\n\r\n" + body;
    return roundTrip(req);
}

std::optional<ParsedResponse>
PersistentClient::postChunked(const std::string &target,
                              const std::string &body,
                              std::size_t chunk_size,
                              const std::string &content_type)
{
    std::string req = "POST " + target + " HTTP/1.1\r\n" +
                      "Host: " + host_ + "\r\n" +
                      "Content-Type: " + content_type + "\r\n" +
                      "Transfer-Encoding: chunked\r\n\r\n" +
                      encodeChunked(body, chunk_size);
    return roundTrip(req);
}

} // namespace web
} // namespace akita
