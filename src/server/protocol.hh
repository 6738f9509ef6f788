/**
 * @file
 * Text protocol of the scheduling daemon.
 *
 * Where `srsimc serve` drives one OnlineScheduler from a request
 * script, the daemon multiplexes many named *sessions*, so its
 * script prefixes every data-plane line with the session name and
 * adds control-plane verbs to open and close sessions:
 *
 *     # comment / blank lines ignored
 *     open <session> topo=SPEC period=US tfg=dvb|FILE
 *          [bw=B] [ap=S] [alloc=greedy|random|rr:<stride>]
 *          [seed=N] [cache=0|1] [threads=T]
 *     close <session>
 *     <session> admit  <name> <srcTask> <dstTask> <bytes>
 *     <session> remove <name>
 *     <session> period <tau_in_us>
 *     <session> fault  <fault-spec>      # rest of line
 *     <session> batch  <N>               # coalesce the next N
 *     <session> admit  ...               #   "<session> admit" lines
 *
 * `tfg=dvb` builds the paper's DARPA Vision Benchmark workload
 * in-process (no file dependency — recovery can always replay it);
 * any other value is a TFG file path. `ap=0` (the default) picks the
 * DVB-matched AP speed for tfg=dvb and 1.0 otherwise. Parsing is
 * total: malformed lines produce a structured error with the
 * 1-based line number, never an abort.
 */

#ifndef SRSIM_SERVER_PROTOCOL_HH_
#define SRSIM_SERVER_PROTOCOL_HH_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "online/requests.hh"

namespace srsim {
namespace server {

/**
 * Largest private thread budget (`threads=T`) a session may ask
 * for. A constant rather than a function of the host, so a WAL or a
 * snapshot one machine accepted replays the same on any other. The
 * daemon's session builder enforces it for every open, replay and
 * restore; the protocol checks it too, to reject a script line
 * before it reaches the daemon.
 */
constexpr std::size_t kMaxSessionThreads = 64;

/** Everything an `open` line configures for one session. */
struct SessionConfig
{
    /** Session name (unique among live sessions). */
    std::string name;
    /** Topology spec (topology/factory grammar). */
    std::string topo;
    /** Workload source: "dvb" (builtin) or a TFG file path. */
    std::string tfg = "dvb";
    /** Initial input period tau_in (us); must be > 0. */
    double period = 0.0;
    /** Link bandwidth (bytes/us). */
    double bandwidth = 64.0;
    /** AP speed (ops/us); 0 = matched speed for dvb, else 1.0. */
    double apSpeed = 0.0;
    /** Allocation kind: greedy | random | rr:<stride>. */
    std::string alloc = "greedy";
    /** Seed for random allocation and path-assignment restarts. */
    std::uint64_t seed = 12345;
    /** Whether this session may use the shared schedule cache. */
    bool cache = true;
    /**
     * Private thread budget for this session's engine context;
     * 0 shares the daemon's pool. At most kMaxSessionThreads.
     */
    std::size_t threads = 0;
};

/** One parsed daemon-script operation. */
struct DaemonOp
{
    enum class Kind { Open, Close, Request };
    Kind kind = Kind::Request;
    /** Target session name (all kinds). */
    std::string session;
    /** Kind::Open: the session configuration. */
    SessionConfig open;
    /** Kind::Request: the per-session request. */
    online::Request request;
    /** 1-based script line (0 for synthesized ops). */
    int line = 0;
};

/** Outcome of parsing one daemon script. */
struct DaemonScriptParseResult
{
    bool ok = false;
    std::vector<DaemonOp> ops;
    /** Parse failure, with the offending 1-based line. */
    std::string error;
    int errorLine = 0;
};

/** Parse a whole daemon script; `batch N` becomes one Request. */
DaemonScriptParseResult parseDaemonScript(std::istream &is);

} // namespace server
} // namespace srsim

#endif // SRSIM_SERVER_PROTOCOL_HH_
