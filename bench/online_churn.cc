/**
 * @file
 * Online churn benchmark: incremental admission vs full recompile.
 *
 * The online service's pitch is that admitting one message into the
 * fig10 workload (DVB TFG on the 4x4x4 torus, bandwidth 128,
 * round-robin placement, period 2.4 tau_c) re-solves only the
 * maximal related subsets the new message touches. This benchmark
 * quantifies the pitch:
 *
 *  - `incremental`: N distinct skip-edge admissions through the
 *    service with the schedule cache OFF (every admission is a real
 *    incremental solve), reporting admissions/sec and the p50/p95
 *    admission latency;
 *  - `full-recompile`: the same N workloads compiled from scratch
 *    by the batch compiler — the latency an offline system would
 *    pay per admission;
 *  - `cache`: admit/remove cycles with the cache ON, reporting the
 *    hit rate once the workload starts revisiting states.
 *
 * Prints a human summary to stderr and a JSON document to stdout
 * (or to the file named by argv[1]).
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/sr_compiler.hh"
#include "mapping/allocation.hh"
#include "online/service.hh"
#include "tfg/dvb.hh"
#include "tfg/timing.hh"
#include "topology/factory.hh"
#include "util/json.hh"

namespace {

using namespace srsim;

/** Skip edges over the DVB recognition chain, reused round-robin. */
const std::vector<std::pair<const char *, const char *>> kSkipPairs =
    {{"match", "probe"},   {"hough", "extend"},
     {"probe", "verify"},  {"extend", "filter"},
     {"verify", "score"},  {"match", "extend"}};

struct Fig10
{
    DvbParams dvb;
    TaskFlowGraph g = buildDvbTfg(dvb);
    TimingModel tm;
    TaskAllocation alloc;
    Time period = 0.0;

    Fig10()
        : alloc(alloc::roundRobin(g, *makeTopology("torus:4,4,4"),
                                  13))
    {
        tm.apSpeed = dvb.matchedApSpeed();
        tm.bandwidth = 128.0;
        period = 2.4 * tm.tauC(g);
    }

    online::AdmitSpec spec(int r) const
    {
        online::AdmitSpec s;
        s.name = "bench" + std::to_string(r);
        s.src = kSkipPairs[static_cast<std::size_t>(r) %
                           kSkipPairs.size()]
                    .first;
        s.dst = kSkipPairs[static_cast<std::size_t>(r) %
                           kSkipPairs.size()]
                    .second;
        s.bytes = 128.0 + 16.0 * r;
        return s;
    }
};

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const double rank =
        p / 100.0 * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi =
        std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double
wallMs(const std::function<void()> &body)
{
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    const int rounds = 12;
    Fig10 f;

    // Incremental admissions, cache off: every admit is a real
    // dirty-subset re-solve; the remove returning to the base
    // workload is not measured.
    std::vector<double> incrMs;
    double incrTotalMs = 0.0;
    std::size_t copied = 0, resolved = 0;
    {
        online::OnlineSchedulerConfig scfg;
        scfg.compiler.inputPeriod = f.period;
        scfg.cacheCapacity = 0;
        online::OnlineScheduler svc(
            f.g, makeTopology("torus:4,4,4"), f.alloc, f.tm, scfg);
        if (!svc.start().accepted) {
            std::cerr << "initial compile rejected\n";
            return 1;
        }
        for (int r = 0; r < rounds; ++r) {
            const online::AdmitSpec s = f.spec(r);
            const online::RequestResult res = svc.admit(s);
            if (!res.accepted) {
                std::cerr << "admission '" << s.name
                          << "' rejected: " << res.detail << "\n";
                return 1;
            }
            incrMs.push_back(res.latencyMs);
            incrTotalMs += res.latencyMs;
            copied += res.subsetsCopied;
            resolved += res.subsetsResolved;
            svc.remove(s.name);
        }
    }

    // Full-recompile baseline: the same admitted workloads, from
    // scratch through the batch compiler.
    std::vector<double> fullMs;
    {
        const auto topo = makeTopology("torus:4,4,4");
        SrCompilerConfig cfg;
        cfg.inputPeriod = f.period;
        for (int r = 0; r < rounds; ++r) {
            const online::AdmitSpec s = f.spec(r);
            TaskFlowGraph g2 = f.g;
            TaskId src = kInvalidTask, dst = kInvalidTask;
            for (TaskId t = 0; t < g2.numTasks(); ++t) {
                if (g2.task(t).name == s.src)
                    src = t;
                if (g2.task(t).name == s.dst)
                    dst = t;
            }
            g2.addMessage(s.name, src, dst, s.bytes);
            fullMs.push_back(wallMs([&] {
                const SrCompileResult res = compileScheduledRouting(
                    g2, *topo, f.alloc, f.tm, cfg);
                if (!res.feasible)
                    std::cerr << "baseline compile " << r
                              << " infeasible\n";
            }));
        }
    }

    // Cache churn: admit/remove cycles revisit two workload states;
    // after the first cycle every solve is a lookup.
    std::uint64_t cacheHits = 0, cacheMisses = 0;
    {
        online::OnlineSchedulerConfig scfg;
        scfg.compiler.inputPeriod = f.period;
        online::OnlineScheduler svc(
            f.g, makeTopology("torus:4,4,4"), f.alloc, f.tm, scfg);
        svc.start();
        for (int r = 0; r < rounds; ++r) {
            svc.admit(f.spec(0));
            svc.remove(f.spec(0).name);
        }
        cacheHits = svc.cache().hits();
        cacheMisses = svc.cache().misses();
    }

    const double admitPerSec =
        incrTotalMs > 0.0 ? 1000.0 * rounds / incrTotalMs : 0.0;
    const double incrP50 = percentile(incrMs, 50.0);
    const double incrP95 = percentile(incrMs, 95.0);
    const double fullP50 = percentile(fullMs, 50.0);
    const double fullP95 = percentile(fullMs, 95.0);
    const double speedup =
        incrP95 > 0.0 ? fullP95 / incrP95 : 0.0;
    const double hitRate =
        cacheHits + cacheMisses > 0
            ? static_cast<double>(cacheHits) /
                  static_cast<double>(cacheHits + cacheMisses)
            : 0.0;
    const double copiedShare =
        copied + resolved > 0
            ? static_cast<double>(copied) /
                  static_cast<double>(copied + resolved)
            : 0.0;

    std::cerr << "# online_churn: " << rounds << " admissions\n"
              << "#   incremental: " << admitPerSec
              << " admits/s, p50 " << incrP50 << " ms, p95 "
              << incrP95 << " ms, " << 100.0 * copiedShare
              << "% subsets copied\n"
              << "#   full recompile: p50 " << fullP50
              << " ms, p95 " << fullP95 << " ms\n"
              << "#   speedup (p95 full / p95 incremental): "
              << speedup << "x\n"
              << "#   cache hit rate: " << hitRate << " ("
              << cacheHits << " hits, " << cacheMisses
              << " misses)\n";

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
    w.kv("rounds", static_cast<std::uint64_t>(rounds));
    w.key("incremental").beginObject();
    w.kv("admissions_per_sec", admitPerSec);
    w.kv("p50_ms", incrP50);
    w.kv("p95_ms", incrP95);
    w.kv("subsets_copied_share", copiedShare);
    w.endObject();
    w.key("full_recompile").beginObject();
    w.kv("p50_ms", fullP50);
    w.kv("p95_ms", fullP95);
    w.endObject();
    w.kv("speedup_p95", speedup);
    w.key("cache").beginObject();
    w.kv("hits", cacheHits);
    w.kv("misses", cacheMisses);
    w.kv("hit_rate", hitRate);
    w.endObject();
    w.endObject();
    *os << "\n";
    return 0;
}
