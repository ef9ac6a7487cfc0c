/**
 * @file
 * HTTP/1.1 message types and wire parsing.
 *
 * The RTM frontend talks to the simulation through plain HTTP. No web
 * framework is available offline, so this module implements the small
 * subset of HTTP/1.1 the dashboard needs: request parsing with headers
 * and Content-Length bodies, query strings, and response serialization
 * with keep-alive support.
 */

#ifndef AKITA_WEB_HTTP_HH
#define AKITA_WEB_HTTP_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace akita
{
namespace web
{

/** A parsed HTTP request. */
struct Request
{
    std::string method;  // "GET", "POST", ...
    std::string target;  // Raw request target, e.g. "/api/x?y=1".
    std::string path;    // Decoded path component.
    std::map<std::string, std::string> query; // Decoded query params.
    /** Header map with lower-cased field names. */
    std::map<std::string, std::string> headers;
    std::string body;

    /** Query parameter with a default. */
    std::string
    queryParam(const std::string &key, std::string dflt = "") const
    {
        auto it = query.find(key);
        return it == query.end() ? std::move(dflt) : it->second;
    }

    /** Integer query parameter with a default. */
    std::int64_t queryInt(const std::string &key, std::int64_t dflt) const;
};

/** An HTTP response under construction. */
struct Response
{
    int status = 200;
    std::map<std::string, std::string> headers;
    std::string body;

    /** Creates a 200 response with the given content type and body. */
    static Response ok(std::string body,
                       std::string content_type = "text/plain");

    /** Creates a JSON 200 response. */
    static Response json(std::string body);

    /** Creates an HTML 200 response. */
    static Response html(std::string body);

    /** Creates an error response with a plain-text message. */
    static Response error(int status, std::string message);

    /** Serializes status line + headers + body to the wire format. */
    std::string serialize(bool keep_alive) const;
};

/** Reason phrase for a status code. */
const char *statusText(int status);

/**
 * Percent-decodes a URL component.
 *
 * @param plus_as_space Decode '+' to ' ' (query-string context only;
 *        '+' is a literal character in paths).
 */
std::string urlDecode(const std::string &s, bool plus_as_space = false);

/**
 * Incremental request parser outcomes.
 */
enum class ParseResult
{
    /** A complete request was parsed. */
    Ok,
    /** More bytes are needed. */
    Incomplete,
    /** The bytes do not form a valid request. */
    Invalid,
};

/**
 * Attempts to parse one request from the front of @p data.
 *
 * Bodies may be framed by Content-Length or by
 * "Transfer-Encoding: chunked" (decoded transparently; req.body holds
 * the de-chunked payload). A request carrying both framing headers, or
 * a duplicate Content-Length, is Invalid (request-smuggling hygiene).
 *
 * @param[out] req Filled on Ok.
 * @param[out] consumed Bytes to remove from the front of data on Ok.
 */
ParseResult parseRequest(const std::string &data, Request &req,
                         std::size_t &consumed);

/**
 * Offset-cursor variant: parses one request starting at @p start.
 * On Ok, @p consumed is the byte count from @p start (so the caller
 * advances its cursor instead of erasing the buffer front).
 */
ParseResult parseRequest(const std::string &data, std::size_t start,
                         Request &req, std::size_t &consumed);

/** A response parsed on the client side. */
struct ParsedResponse
{
    int status = 0;
    std::map<std::string, std::string> headers;
    std::string body;
    /**
     * Body size as framed on the wire (after transfer decoding, before
     * any client-side content decoding): for compressed responses this
     * is the compressed byte count even after the client inflates
     * body in place.
     */
    std::size_t wireBodyBytes = 0;
};

/**
 * Parses one response from the front of @p data and reports the bytes
 * it occupied, so a client can leave pipelined follow-up responses in
 * the buffer.
 *
 * A Content-Length- or chunked-framed response is complete as soon as
 * its bytes are. A response with neither header is close-delimited
 * (RFC 9112 §6.3): its body ends when the server closes, so it only
 * parses once the caller passes @p eof; until then it is Incomplete.
 *
 * @param[out] state When non-null, why nullopt was returned:
 *        Incomplete means more bytes (or EOF, for close framing) may
 *        complete the response; Invalid means the bytes can never form
 *        a valid response (corrupt chunk framing, malformed status
 *        line, conflicting headers) and the caller must abort the
 *        connection — no amount of further reading resynchronizes it.
 * @param eof The peer has closed: @p data is everything it sent.
 */
std::optional<ParsedResponse> parseResponse(const std::string &data,
                                            std::size_t &consumed,
                                            ParseResult *state = nullptr,
                                            bool eof = false);

} // namespace web
} // namespace akita

#endif // AKITA_WEB_HTTP_HH
