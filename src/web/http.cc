#include "web/http.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace akita
{
namespace web
{

namespace
{

/** Lower-cases ASCII in place. */
std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

/** Strips leading/trailing spaces and tabs. */
std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

/** Splits a query string into decoded key/value pairs. */
std::map<std::string, std::string>
parseQuery(const std::string &q)
{
    std::map<std::string, std::string> out;
    std::size_t pos = 0;
    while (pos < q.size()) {
        std::size_t amp = q.find('&', pos);
        if (amp == std::string::npos)
            amp = q.size();
        std::string pair = q.substr(pos, amp - pos);
        std::size_t eq = pair.find('=');
        if (eq == std::string::npos) {
            if (!pair.empty())
                out[urlDecode(pair, true)] = "";
        } else {
            out[urlDecode(pair.substr(0, eq), true)] =
                urlDecode(pair.substr(eq + 1), true);
        }
        pos = amp + 1;
    }
    return out;
}

/**
 * Parses header lines between @p start and the blank line.
 *
 * @return Offset just past the blank line, or npos on missing terminator.
 */
std::size_t
parseHeaders(const std::string &data, std::size_t start,
             std::map<std::string, std::string> &headers, bool &valid)
{
    valid = true;
    std::size_t pos = start;
    while (true) {
        std::size_t eol = data.find("\r\n", pos);
        if (eol == std::string::npos)
            return std::string::npos;
        if (eol == pos)
            return eol + 2; // Blank line: end of headers.
        std::string line = data.substr(pos, eol - pos);
        std::size_t colon = line.find(':');
        if (colon == std::string::npos) {
            valid = false;
            return eol + 2;
        }
        std::string key = toLower(trim(line.substr(0, colon)));
        std::string value = trim(line.substr(colon + 1));
        auto it = headers.find(key);
        if (it == headers.end()) {
            headers.emplace(std::move(key), std::move(value));
        } else if (key == "content-length" ||
                   key == "transfer-encoding") {
            // Conflicting framing headers enable request smuggling;
            // reject rather than pick a winner.
            valid = false;
            return eol + 2;
        } else {
            // List-valued headers (Accept-Encoding, ...) merge per
            // RFC 9110 §5.3.
            it->second += ", " + value;
        }
        pos = eol + 2;
    }
}

/** Largest body either side of the wire will buffer (64 MiB). */
constexpr std::size_t kMaxBodyBytes = 1u << 26;

/**
 * Validates a Content-Length header value.
 *
 * @return False on garbage, negative, or > kMaxBodyBytes values.
 */
bool
parseContentLength(const std::string &value, std::size_t &len)
{
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(value.c_str(), &end, 10);
    if (errno != 0 || end == value.c_str() || v < 0 ||
        v > static_cast<long long>(kMaxBodyBytes))
        return false;
    len = static_cast<std::size_t>(v);
    return true;
}

/** True when the Transfer-Encoding header names chunked framing. */
bool
isChunked(const std::map<std::string, std::string> &headers)
{
    auto it = headers.find("transfer-encoding");
    return it != headers.end() && toLower(trim(it->second)) == "chunked";
}

/**
 * Decodes a chunked body starting at @p start.
 *
 * Accepts chunk extensions (";token") after the hex size and skips any
 * trailer section. On Ok, @p body holds the de-chunked payload and
 * @p end points just past the final CRLF.
 */
ParseResult
decodeChunked(const std::string &data, std::size_t start,
              std::string &body, std::size_t &end)
{
    std::string out;
    std::size_t pos = start;
    while (true) {
        std::size_t eol = data.find("\r\n", pos);
        if (eol == std::string::npos) {
            // A size line is a few hex digits; anything longer with no
            // terminator is garbage, not a partial read.
            return data.size() - pos > 1024 ? ParseResult::Invalid
                                            : ParseResult::Incomplete;
        }
        std::string line = data.substr(pos, eol - pos);
        std::size_t semi = line.find(';');
        std::string hex =
            trim(semi == std::string::npos ? line : line.substr(0, semi));
        // Strict size-line validation: hex digits only, short enough
        // that strtoull cannot saturate silently, fully consumed, and
        // inside the body cap. "12zz" and "ffffffffffffffff" are
        // framing corruption, not sizes.
        if (hex.empty() || hex.size() > 16 ||
            hex.find_first_not_of("0123456789abcdefABCDEF") !=
                std::string::npos)
            return ParseResult::Invalid;
        errno = 0;
        char *hexEnd = nullptr;
        unsigned long long size =
            std::strtoull(hex.c_str(), &hexEnd, 16);
        if (errno != 0 || hexEnd != hex.c_str() + hex.size() ||
            size > kMaxBodyBytes || out.size() + size > kMaxBodyBytes)
            return ParseResult::Invalid;
        pos = eol + 2;
        if (size == 0) {
            // Trailer section: zero or more header lines, then CRLF.
            while (true) {
                std::size_t teol = data.find("\r\n", pos);
                if (teol == std::string::npos) {
                    return data.size() - pos > 16384
                               ? ParseResult::Invalid
                               : ParseResult::Incomplete;
                }
                if (teol == pos) {
                    body = std::move(out);
                    end = teol + 2;
                    return ParseResult::Ok;
                }
                if (data.find(':', pos) > teol)
                    return ParseResult::Invalid;
                pos = teol + 2;
            }
        }
        if (data.size() < pos + size + 2)
            return ParseResult::Incomplete;
        if (data[pos + size] != '\r' || data[pos + size + 1] != '\n')
            return ParseResult::Invalid;
        out.append(data, pos, size);
        pos += size + 2;
    }
}

} // namespace

std::int64_t
Request::queryInt(const std::string &key, std::int64_t dflt) const
{
    auto it = query.find(key);
    if (it == query.end())
        return dflt;
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (errno != 0 || end == it->second.c_str())
        return dflt;
    return v;
}

Response
Response::ok(std::string body, std::string content_type)
{
    Response r;
    r.status = 200;
    r.headers["Content-Type"] = std::move(content_type);
    r.body = std::move(body);
    return r;
}

Response
Response::json(std::string body)
{
    return ok(std::move(body), "application/json");
}

Response
Response::html(std::string body)
{
    return ok(std::move(body), "text/html; charset=utf-8");
}

Response
Response::error(int status, std::string message)
{
    Response r;
    r.status = status;
    r.headers["Content-Type"] = "text/plain";
    r.body = std::move(message);
    return r;
}

std::string
Response::serialize(bool keep_alive) const
{
    std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                      statusText(status) + "\r\n";
    bool hasType = false;
    for (const auto &h : headers) {
        out += h.first + ": " + h.second + "\r\n";
        if (toLower(h.first) == "content-type")
            hasType = true;
    }
    if (!hasType)
        out += "Content-Type: text/plain\r\n";
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    out += keep_alive ? "Connection: keep-alive\r\n"
                      : "Connection: close\r\n";
    out += "\r\n";
    out += body;
    return out;
}

const char *
statusText(int status)
{
    switch (status) {
      case 200:
        return "OK";
      case 204:
        return "No Content";
      case 301:
        return "Moved Permanently";
      case 304:
        return "Not Modified";
      case 400:
        return "Bad Request";
      case 404:
        return "Not Found";
      case 405:
        return "Method Not Allowed";
      case 409:
        return "Conflict";
      case 500:
        return "Internal Server Error";
      case 503:
        return "Service Unavailable";
      default:
        return "Unknown";
    }
}

std::string
urlDecode(const std::string &s, bool plus_as_space)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); i++) {
        if (plus_as_space && s[i] == '+') {
            out.push_back(' ');
        } else if (s[i] == '%' && i + 2 < s.size() &&
            std::isxdigit(static_cast<unsigned char>(s[i + 1])) &&
            std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
            char hex[3] = {s[i + 1], s[i + 2], '\0'};
            out.push_back(
                static_cast<char>(std::strtol(hex, nullptr, 16)));
            i += 2;
        } else {
            out.push_back(s[i]);
        }
    }
    return out;
}

ParseResult
parseRequest(const std::string &data, Request &req, std::size_t &consumed)
{
    return parseRequest(data, 0, req, consumed);
}

ParseResult
parseRequest(const std::string &data, std::size_t start, Request &req,
             std::size_t &consumed)
{
    std::size_t eol = data.find("\r\n", start);
    if (eol == std::string::npos) {
        // Guard against unbounded garbage with no line ending.
        return data.size() - start > 16384 ? ParseResult::Invalid
                                           : ParseResult::Incomplete;
    }

    std::string line = data.substr(start, eol - start);
    std::size_t sp1 = line.find(' ');
    std::size_t sp2 = line.rfind(' ');
    if (sp1 == std::string::npos || sp2 == sp1)
        return ParseResult::Invalid;
    std::string method = line.substr(0, sp1);
    std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    std::string version = line.substr(sp2 + 1);
    if (version.rfind("HTTP/1.", 0) != 0 || method.empty() ||
        target.empty() || target[0] != '/')
        return ParseResult::Invalid;

    bool valid = true;
    std::map<std::string, std::string> headers;
    std::size_t bodyStart = parseHeaders(data, eol + 2, headers, valid);
    if (bodyStart == std::string::npos)
        return ParseResult::Incomplete;
    if (!valid)
        return ParseResult::Invalid;

    std::string body;
    std::size_t bodyEnd = bodyStart;
    auto te = headers.find("transfer-encoding");
    if (te != headers.end()) {
        // A request with both framings is a smuggling vector; anything
        // other than a lone "chunked" is unsupported.
        if (!isChunked(headers) || headers.count("content-length"))
            return ParseResult::Invalid;
        ParseResult rc = decodeChunked(data, bodyStart, body, bodyEnd);
        if (rc != ParseResult::Ok)
            return rc;
    } else {
        std::size_t contentLen = 0;
        auto it = headers.find("content-length");
        if (it != headers.end() &&
            !parseContentLength(it->second, contentLen))
            return ParseResult::Invalid;
        if (data.size() < bodyStart + contentLen)
            return ParseResult::Incomplete;
        body = data.substr(bodyStart, contentLen);
        bodyEnd = bodyStart + contentLen;
    }

    req = Request{};
    req.method = method;
    req.target = target;
    std::size_t qmark = target.find('?');
    if (qmark == std::string::npos) {
        req.path = urlDecode(target);
    } else {
        req.path = urlDecode(target.substr(0, qmark));
        req.query = parseQuery(target.substr(qmark + 1));
    }
    req.headers = std::move(headers);
    req.body = std::move(body);
    consumed = bodyEnd - start;
    return ParseResult::Ok;
}

std::optional<ParsedResponse>
parseResponse(const std::string &data, std::size_t &consumed,
              ParseResult *state, bool eof)
{
    auto fail = [&](ParseResult rc) {
        if (state != nullptr)
            *state = rc;
        return std::nullopt;
    };
    std::size_t eol = data.find("\r\n");
    if (eol == std::string::npos) {
        // A status line is tens of bytes; unbounded data with no line
        // ending is garbage, not a partial read.
        return fail(data.size() > 16384 ? ParseResult::Invalid
                                        : ParseResult::Incomplete);
    }
    std::string line = data.substr(0, eol);
    if (line.rfind("HTTP/1.", 0) != 0)
        return fail(ParseResult::Invalid);
    std::size_t sp = line.find(' ');
    if (sp == std::string::npos || sp + 3 >= line.size())
        return fail(ParseResult::Invalid);
    // Exactly three digits in the registered range, terminated by the
    // reason phrase or end of line — a garbage status must not decay
    // to atoi's 0 and flow downstream as a "status code".
    const char *digits = line.c_str() + sp + 1;
    if (!std::isdigit(static_cast<unsigned char>(digits[0])) ||
        !std::isdigit(static_cast<unsigned char>(digits[1])) ||
        !std::isdigit(static_cast<unsigned char>(digits[2])) ||
        (digits[3] != '\0' && digits[3] != ' '))
        return fail(ParseResult::Invalid);
    ParsedResponse resp;
    resp.status = (digits[0] - '0') * 100 + (digits[1] - '0') * 10 +
                  (digits[2] - '0');
    if (resp.status < 100 || resp.status > 599)
        return fail(ParseResult::Invalid);

    bool valid = true;
    std::size_t bodyStart = parseHeaders(data, eol + 2, resp.headers, valid);
    if (!valid)
        return fail(ParseResult::Invalid);
    if (bodyStart == std::string::npos)
        return fail(ParseResult::Incomplete);

    if (isChunked(resp.headers)) {
        std::size_t end = 0;
        ParseResult body = decodeChunked(data, bodyStart, resp.body, end);
        if (body != ParseResult::Ok) {
            // Invalid means corrupt framing: reading further can never
            // resynchronize this connection, so tell the caller to
            // abort rather than wait out a socket timeout.
            return fail(body);
        }
        resp.wireBodyBytes = resp.body.size();
        consumed = end;
        return resp;
    }
    auto it = resp.headers.find("content-length");
    if (it == resp.headers.end()) {
        // Close-delimited: the body is everything up to EOF.
        if (!eof)
            return fail(ParseResult::Incomplete);
        resp.body = data.substr(bodyStart);
        resp.wireBodyBytes = resp.body.size();
        consumed = data.size();
        return resp;
    }
    std::size_t contentLen = 0;
    if (!parseContentLength(it->second, contentLen))
        return fail(ParseResult::Invalid);
    if (data.size() < bodyStart + contentLen)
        return fail(ParseResult::Incomplete);
    resp.body = data.substr(bodyStart, contentLen);
    resp.wireBodyBytes = contentLen;
    consumed = bodyStart + contentLen;
    return resp;
}

} // namespace web
} // namespace akita
