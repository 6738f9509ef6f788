/**
 * @file
 * Text request scripts for the online scheduling service.
 *
 * `srsimc serve` drives the service from a plain-text script (a
 * file or stdin), one request per line:
 *
 *     # comment / blank lines ignored
 *     admit  <name> <srcTask> <dstTask> <bytes>
 *     remove <name>
 *     period <tau_in_us>
 *     fault  <fault-spec>          # src/fault grammar, rest of line
 *     batch  <N>                   # coalesce the next N admit
 *     admit  ...                   #   lines into one re-solve
 *
 * Parsing is total: malformed lines produce a structured error with
 * the 1-based line number, never an abort.
 */

#ifndef SRSIM_ONLINE_SCRIPT_HH_
#define SRSIM_ONLINE_SCRIPT_HH_

#include <istream>
#include <string>
#include <vector>

#include "online/requests.hh"

namespace srsim {
namespace online {

/** Outcome of parsing one request script. */
struct ScriptParseResult
{
    bool ok = false;
    std::vector<Request> requests;
    /** Parse failure, with the offending 1-based line. */
    std::string error;
    int errorLine = 0;
};

/** Parse a whole script; a `batch N` group becomes one Request. */
ScriptParseResult parseRequestScript(std::istream &is);

/** Parse one script line (no batch support); used by the REPL. */
ScriptParseResult parseRequestLine(const std::string &line);

/** Largest admit group one `batch N` line may announce. */
constexpr int kMaxBatch = 100000;

/**
 * Parse the N of `batch N` — the one rule for every script that
 * groups admits: a whole number in [1, kMaxBatch]. @return false
 * when `tok` is not one.
 */
bool parseBatchCount(const std::string &tok, int *n);

} // namespace online
} // namespace srsim

#endif // SRSIM_ONLINE_SCRIPT_HH_
