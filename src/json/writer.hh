/**
 * @file
 * Streaming JSON writer.
 *
 * The hot RTM read endpoints (/api/v1/components, /api/v1/buffers, /metrics
 * range queries) serve thousands of values per response. Building a
 * Json tree first costs one heap node per value plus a second pass to
 * serialize; Writer appends the compact wire form directly into the
 * response buffer in one pass. Output is byte-identical to
 * Json::dump() (compact mode) for the same logical document, so the
 * two paths stay interchangeable and cacheable under one ETag.
 *
 * The tree API remains the right tool for parsing and for cold
 * endpoints where clarity beats allocation count.
 */

#ifndef AKITA_JSON_WRITER_HH
#define AKITA_JSON_WRITER_HH

#include <cstdint>
#include <string>
#include <utility>

namespace akita
{
namespace json
{

class Json;

/**
 * Appends a compact JSON document into a caller-owned buffer.
 *
 * Usage:
 *   std::string out;
 *   Writer w(out);
 *   w.beginObject();
 *   w.key("values");
 *   w.beginArray();
 *   w.value(1.5);
 *   w.endArray();
 *   w.endObject();
 *
 * The writer inserts commas automatically. It does not validate
 * nesting (misuse produces malformed output, not UB); tests compare
 * output against Json::dump for equivalence.
 */
class Writer
{
  public:
    /** @param out Target buffer; bytes are appended, never cleared. */
    explicit Writer(std::string &out) : out_(out) {}

    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    Writer &beginObject();
    Writer &endObject();
    Writer &beginArray();
    Writer &endArray();

    /** Writes an object key (escaped) and the ':' separator. */
    Writer &key(const std::string &k);

    Writer &value(std::nullptr_t);
    Writer &value(bool b);
    Writer &value(int i);
    Writer &value(std::int64_t i);
    Writer &value(std::uint64_t i);
    Writer &value(double d);
    Writer &value(const char *s);
    Writer &value(const std::string &s);

    /** Serializes a Json subtree in place (bridge for mixed paths). */
    Writer &json(const Json &j);

    /**
     * Appends @p pre_serialized as one value, verbatim. The caller
     * guarantees it is valid JSON (e.g. a cached fragment produced by
     * another Writer); commas around it are still managed here.
     */
    Writer &raw(const std::string &pre_serialized);

    /** Shorthand for key(k) followed by value(v). */
    template <typename T>
    Writer &
    field(const std::string &k, T &&v)
    {
        key(k);
        return value(std::forward<T>(v));
    }

  private:
    /** Emits the ',' separator when needed and clears the pending flag. */
    void sep();

    std::string &out_;
    /** Whether the next value/key at this position needs a comma. */
    bool needComma_ = false;
};

} // namespace json
} // namespace akita

#endif // AKITA_JSON_WRITER_HH
