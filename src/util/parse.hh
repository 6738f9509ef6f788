/**
 * @file
 * Strict number parsing for text inputs (command-line flags, request
 * scripts, fault specs, daemon scripts, WALs and snapshots). A token
 * is accepted only when the whole of it is one finite number: "nan",
 * "inf", "1e999", "12abc" and the empty string are all rejected, so
 * no non-finite value can reach an engine precondition and abort the
 * process. Integers (counts, ids, seeds, thread budgets) go through
 * parseUnsigned(), never through a cast of a parsed double.
 */

#ifndef SRSIM_UTIL_PARSE_HH_
#define SRSIM_UTIL_PARSE_HH_

#include <climits>
#include <cmath>
#include <cstdint>
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
 * Parse all of `s` as a whole number in [lo, hi]: decimal digits
 * only, overflow-checked. "-1", "+5", "1.5", "1e3", " 7" and the
 * empty string are rejected, so no sign wrap or float cast can
 * reach a count, an id or a seed. @return false when `s` is not one.
 */
inline bool
parseUnsigned(const std::string &s, std::uint64_t lo, std::uint64_t hi,
              std::uint64_t *out)
{
    if (s.empty())
        return false;
    std::uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9' || v > hi / 10)
            return false;
        const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
        v *= 10;
        if (d > hi - v)
            return false;
        v += d;
    }
    if (v < lo)
        return false;
    *out = v;
    return true;
}

/**
 * Parse all of `s` as a round-robin stride (the N of `rr:N`): a
 * whole number in [1, INT_MAX]. "0", "-3", "+5", "abc" and
 * "99999999999" are rejected. @return false when `s` is not one.
 */
inline bool
parseStride(const std::string &s, int *out)
{
    std::uint64_t v = 0;
    if (!parseUnsigned(s, 1, INT_MAX, &v))
        return false;
    *out = static_cast<int>(v);
    return true;
}

} // namespace srsim

#endif // SRSIM_UTIL_PARSE_HH_
