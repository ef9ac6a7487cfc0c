/**
 * @file
 * Strict number parsing for command-line flags and environment
 * variables, and the main() wrapper that reports a junk number.
 */

#ifndef AKITA_SIM_PARSE_HH
#define AKITA_SIM_PARSE_HH

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace akita
{
namespace sim
{

/**
 * Parses all of @p text as a decimal number of type @p T. Junk (an
 * empty value, a suffix such as "8M", a number outside T's range, a
 * non-finite float) throws std::invalid_argument naming @p what,
 * instead of running with a silently different setting.
 */
template <typename T>
T
parseNumber(const char *what, std::string_view text)
{
    T v{};
    auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    bool ok = ec == std::errc() && end == text.data() + text.size();
    if constexpr (std::is_floating_point_v<T>) {
        if (ok && std::isfinite(v))
            return v;
        throw std::invalid_argument(std::string(what) + ": '" +
                                    std::string(text) +
                                    "' is not a decimal number");
    } else {
        if (ok)
            return v;
        throw std::invalid_argument(
            std::string(what) + ": '" + std::string(text) +
            "' is not a decimal integer in [" +
            std::to_string(std::numeric_limits<T>::min()) + ", " +
            std::to_string(std::numeric_limits<T>::max()) + "]");
    }
}

/**
 * Runs @p body(@p args...) as a program's main and returns its exit
 * code. A junk number (the std::invalid_argument parseNumber and the
 * flag parsers built on it throw) prints its message and exits 1,
 * instead of escaping main into std::terminate.
 */
template <typename Body, typename... Args>
int
runMain(Body &&body, Args &&...args)
{
    try {
        return body(std::forward<Args>(args)...);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_PARSE_HH
