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

} // namespace srsim

#endif // SRSIM_UTIL_PARSE_HH_
