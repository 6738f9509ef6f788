/**
 * @file
 * Daemon throughput benchmark: admits/sec and p95 admission latency
 * through the multi-tenant scheduling daemon, swept over worker
 * counts with the WAL on and off.
 *
 * Eight sessions each serve the fig10 workload (DVB TFG on the
 * 4x4x4 torus, bandwidth 128, round-robin placement, period
 * 2.4 tau_c) and absorb interleaved admit/remove rounds. The shared
 * cache is disabled so every request is a real incremental solve —
 * the sweep measures cross-session parallelism and WAL overhead,
 * not cache hits. Distinct sessions drain on distinct workers, so
 * on a multi-core host throughput scales with the worker count
 * until cores run out; on one core the sweep degenerates to the
 * dispatch overhead (recorded either way).
 *
 * Prints a human summary to stderr and a JSON document to stdout
 * (or to the file named by argv[1]).
 */

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "online/requests.hh"
#include "server/daemon.hh"
#include "server/protocol.hh"
#include "util/json.hh"

namespace {

using namespace srsim;

/** Skip edges over the DVB recognition chain, reused round-robin. */
const std::vector<std::pair<const char *, const char *>> kSkipPairs =
    {{"match", "probe"},   {"hough", "extend"},
     {"probe", "verify"},  {"extend", "filter"},
     {"verify", "score"},  {"match", "extend"}};

server::SessionConfig
figSession(int k)
{
    server::SessionConfig sc;
    sc.name = "s" + std::to_string(k);
    sc.topo = "torus:4,4,4";
    sc.tfg = "dvb";
    sc.period = 120.0; // 2.4 tau_c at bandwidth 128, matched AP.
    sc.bandwidth = 128.0;
    sc.alloc = "rr:13";
    return sc;
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const double rank =
        p / 100.0 * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

struct SweepPoint
{
    std::size_t workers = 1;
    bool wal = false;
    std::size_t requests = 0;
    std::size_t accepted = 0;
    double wallMs = 0.0;
    double requestsPerSec = 0.0;
    double admitP50Ms = 0.0;
    double admitP95Ms = 0.0;
    std::uint64_t walRecords = 0;
    std::uint64_t walFsyncs = 0;
};

SweepPoint
runPoint(std::size_t workers, bool wal, int sessions, int rounds)
{
    SweepPoint pt;
    pt.workers = workers;
    pt.wal = wal;

    const std::filesystem::path state =
        std::filesystem::temp_directory_path() /
        ("srsim-bench-daemon-" + std::to_string(workers) +
         (wal ? "-wal" : "-nowal"));
    std::filesystem::remove_all(state);

    server::DaemonConfig cfg;
    cfg.workers = workers;
    cfg.queueCap =
        static_cast<std::size_t>(sessions * rounds) * 2 + 16;
    cfg.cacheCapacity = 0; // every admit is a real solve
    cfg.walSyncEvery = 1;  // pay the honest fsync per record
    if (wal)
        cfg.stateDir = state.string();

    server::SchedulingDaemon daemon(cfg);
    for (int k = 0; k < sessions; ++k) {
        const server::DaemonResponse r = daemon.open(figSession(k));
        if (r.outcome != server::DaemonOutcome::Ok ||
            !r.result.accepted) {
            std::cerr << "session open failed: " << r.detail
                      << r.result.detail << "\n";
            std::exit(1);
        }
    }

    // The timed window: every admit/remove round across every
    // session, submitted up front (the queue is sized to hold them
    // all) and drained by the worker pool.
    std::vector<std::future<server::DaemonResponse>> futs;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
        for (int k = 0; k < sessions; ++k) {
            online::Request admit;
            admit.kind = online::RequestKind::AdmitMessage;
            online::AdmitSpec spec;
            spec.name = "bench" + std::to_string(r);
            spec.src =
                kSkipPairs[static_cast<std::size_t>(r) %
                           kSkipPairs.size()]
                    .first;
            spec.dst =
                kSkipPairs[static_cast<std::size_t>(r) %
                           kSkipPairs.size()]
                    .second;
            spec.bytes =
                128.0 + 16.0 * static_cast<double>(r) +
                static_cast<double>(k); // distinct per session
            admit.admits.push_back(std::move(spec));
            futs.push_back(daemon.submit("s" + std::to_string(k),
                                         std::move(admit)));

            online::Request remove;
            remove.kind = online::RequestKind::RemoveMessage;
            remove.name = "bench" + std::to_string(r);
            futs.push_back(daemon.submit("s" + std::to_string(k),
                                         std::move(remove)));
        }
    }
    std::vector<double> admitMs;
    for (auto &f : futs) {
        const server::DaemonResponse r = f.get();
        ++pt.requests;
        if (r.outcome == server::DaemonOutcome::Ok &&
            r.result.accepted) {
            ++pt.accepted;
            if (r.kind == "admit")
                admitMs.push_back(r.result.latencyMs);
        }
    }
    const auto t1 = std::chrono::steady_clock::now();

    pt.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    pt.requestsPerSec =
        pt.wallMs > 0.0
            ? 1000.0 * static_cast<double>(pt.requests) / pt.wallMs
            : 0.0;
    pt.admitP50Ms = percentile(admitMs, 50.0);
    pt.admitP95Ms = percentile(admitMs, 95.0);
    pt.walRecords = daemon.walRecords();
    pt.walFsyncs = daemon.walFsyncs();

    daemon.shutdown();
    std::filesystem::remove_all(state);
    return pt;
}

} // namespace

int
main(int argc, char **argv)
{
    const int sessions = 8;
    const int rounds = 3;

    std::vector<SweepPoint> points;
    for (const std::size_t workers : {1u, 2u, 4u})
        for (const bool wal : {false, true})
            points.push_back(
                runPoint(workers, wal, sessions, rounds));

    std::cerr << "# server_throughput: " << sessions
              << " sessions x " << rounds
              << " admit/remove rounds, cache off\n";
    for (const SweepPoint &pt : points)
        std::cerr << "#   workers " << pt.workers << ", wal "
                  << (pt.wal ? "on " : "off") << ": "
                  << pt.requestsPerSec << " req/s, admit p50 "
                  << pt.admitP50Ms << " ms, p95 " << pt.admitP95Ms
                  << " ms (" << pt.accepted << "/" << pt.requests
                  << " accepted, " << pt.walFsyncs << " fsyncs)\n";

    const auto find = [&](std::size_t w, bool wal) -> const
        SweepPoint & {
            for (const SweepPoint &pt : points)
                if (pt.workers == w && pt.wal == wal)
                    return pt;
            return points.front();
        };
    const double scaling =
        find(1, false).requestsPerSec > 0.0
            ? find(4, false).requestsPerSec /
                  find(1, false).requestsPerSec
            : 0.0;
    const double walOverhead =
        find(1, false).requestsPerSec > 0.0
            ? 1.0 - find(1, true).requestsPerSec /
                        find(1, false).requestsPerSec
            : 0.0;
    std::cerr << "#   4-worker / 1-worker throughput (wal off): "
              << scaling << "x\n"
              << "#   wal overhead at 1 worker: "
              << 100.0 * walOverhead << "%\n";

    std::ofstream file;
    std::ostream *os = &std::cout;
    if (argc > 1) {
        file.open(argv[1]);
        if (!file) {
            std::cerr << "cannot write " << argv[1] << "\n";
            return 1;
        }
        os = &file;
    }
    JsonWriter w(*os);
    w.beginObject();
    w.kv("sessions", static_cast<std::uint64_t>(sessions));
    w.kv("rounds", static_cast<std::uint64_t>(rounds));
    w.key("points").beginArray();
    for (const SweepPoint &pt : points) {
        w.beginObject();
        w.kv("workers", static_cast<std::uint64_t>(pt.workers));
        w.kv("wal", pt.wal);
        w.kv("requests", static_cast<std::uint64_t>(pt.requests));
        w.kv("accepted", static_cast<std::uint64_t>(pt.accepted));
        w.kv("wall_ms", pt.wallMs);
        w.kv("requests_per_sec", pt.requestsPerSec);
        w.kv("admit_p50_ms", pt.admitP50Ms);
        w.kv("admit_p95_ms", pt.admitP95Ms);
        w.kv("wal_records", pt.walRecords);
        w.kv("wal_fsyncs", pt.walFsyncs);
        w.endObject();
    }
    w.endArray();
    w.kv("scaling_4w_over_1w_wal_off", scaling);
    w.kv("wal_overhead_1w", walOverhead);
    w.endObject();
    *os << "\n";
    return 0;
}
