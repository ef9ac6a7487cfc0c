/**
 * @file
 * Strict number parsing for command-line flags and environment
 * variables.
 */

#ifndef AKITA_SIM_PARSE_HH
#define AKITA_SIM_PARSE_HH

#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

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

} // namespace sim
} // namespace akita

#endif // AKITA_SIM_PARSE_HH
