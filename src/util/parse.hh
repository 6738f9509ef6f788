/**
 * @file
 * Strict number parsing for text inputs (command-line flags, request
 * scripts, fault specs). A token is accepted only when the whole of
 * it is one finite number: "nan", "inf", "1e999", "12abc" and the
 * empty string are all rejected, so no non-finite value can reach an
 * engine precondition and abort the process.
 */

#ifndef SRSIM_UTIL_PARSE_HH_
#define SRSIM_UTIL_PARSE_HH_

#include <climits>
#include <cmath>
#include <cstdlib>
#include <string>

namespace srsim {

/** Parse all of `s` as a finite number into *out; false otherwise. */
inline bool
parseFinite(const std::string &s, double *out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

/**
 * Parse all of `s` as a round-robin stride (the N of `rr:N`): decimal
 * digits only, value in [1, INT_MAX]. "0", "-3", "+5", "abc" and
 * "99999999999" are rejected. @return false when `s` is not one.
 */
inline bool
parseStride(const std::string &s, int *out)
{
    if (s.empty())
        return false;
    long long v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + (c - '0');
        if (v > INT_MAX)
            return false;
    }
    if (v < 1)
        return false;
    *out = static_cast<int>(v);
    return true;
}

} // namespace srsim

#endif // SRSIM_UTIL_PARSE_HH_
