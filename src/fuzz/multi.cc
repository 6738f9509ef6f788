#include "fuzz/multi.hh"

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/schedule_io.hh"
#include "online/script.hh"
#include "server/daemon.hh"
#include "server/protocol.hh"
#include "tfg/tfg_io.hh"
#include "util/logging.hh"

namespace srsim {
namespace fuzz {

namespace {

RunResult
failure(std::string why)
{
    RunResult r;
    r.verdict = Verdict::Failure;
    r.report = std::move(why);
    return r;
}

RunResult
invalidCase(std::string why)
{
    RunResult r;
    r.verdict = Verdict::InvalidCase;
    r.report = std::move(why);
    return r;
}

/**
 * Self-cleaning scratch directory for the durable line's state.
 * Unique per run (pid + counter) so shrink candidates and parallel
 * fuzzers never share WAL files.
 */
struct ScratchDir
{
    std::filesystem::path path;

    explicit ScratchDir(std::uint64_t seed)
    {
        static std::atomic<std::uint64_t> counter{0};
        std::ostringstream name;
        name << "srsim-fuzz-multi-" << ::getpid() << "-" << seed
             << "-" << counter.fetch_add(1);
        path = std::filesystem::temp_directory_path() / name.str();
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
        std::filesystem::create_directories(path);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

/** Comparable one-line summary of a daemon response. */
std::string
verdictLine(const server::DaemonResponse &r)
{
    std::string out = server::daemonOutcomeName(r.outcome);
    if (r.outcome == server::DaemonOutcome::Ok) {
        out += r.result.accepted ? "/accepted" : "/rejected:";
        if (!r.result.accepted)
            out += online::rejectReasonName(r.result.reason);
    }
    return out;
}

/** Published schedule bytes of every live session, by name. */
std::map<std::string, std::string>
publishedBytes(const server::SchedulingDaemon &d)
{
    std::map<std::string, std::string> out;
    for (const std::string &name : d.sessionNames()) {
        const auto pub = d.published(name);
        if (!pub)
            continue;
        std::ostringstream os;
        writeSchedule(os, pub->omega);
        out[name] = os.str();
    }
    return out;
}

/** First divergence between two published-bytes maps, or "". */
std::string
diffBytes(const std::map<std::string, std::string> &want,
          const std::map<std::string, std::string> &got,
          const std::string &ctx)
{
    for (const auto &[name, bytes] : want) {
        auto it = got.find(name);
        if (it == got.end())
            return "session '" + name + "' missing " + ctx;
        if (it->second != bytes)
            return "session '" + name +
                   "' published bytes diverge " + ctx;
    }
    for (const auto &[name, bytes] : got)
        if (!want.count(name))
            return "unexpected session '" + name + "' " + ctx;
    return {};
}

/** The throwing core of runMultiCase(). */
RunResult
runMultiInner(const FuzzCase &c, const engine::EngineContext &ctx,
              const RunOptions &opts)
{
    (void)opts; // No cpsim cross-execution on the daemon lines.

    if (c.numSessions < 1 || c.numSessions > 16)
        return invalidCase("numSessions must be in [1, 16]");
    if (!c.faultSpec.empty())
        return invalidCase(
            "multi-session cases run on the healthy fabric");

    // Validate and parse every op up front; a malformed line is a
    // bad case, not a daemon bug.
    std::vector<std::pair<int, online::Request>> ops;
    for (const auto &[k, line] : c.multiOps) {
        if (k < 0 || k >= c.numSessions)
            return invalidCase("mchurn session index " +
                               std::to_string(k) +
                               " out of range");
        const online::ScriptParseResult pr =
            online::parseRequestLine(line);
        if (!pr.ok || pr.requests.size() != 1)
            return invalidCase("malformed mchurn op '" + line +
                               "': " + pr.error);
        const online::Request &r = pr.requests[0];
        if (r.kind != online::RequestKind::AdmitMessage &&
            r.kind != online::RequestKind::RemoveMessage)
            return invalidCase(
                "mchurn ops are admit/remove only, got '" + line +
                "'");
        ops.emplace_back(k, r);
    }

    ScratchDir scratch(c.seed);

    // Every session serves this case's workload from one TFG file
    // (the daemon re-reads it on open and on recovery replay).
    const std::string tfgPath =
        (scratch.path / "workload.tfg").string();
    {
        std::ofstream out(tfgPath);
        writeTfg(out, c.g);
        if (!out)
            return invalidCase("cannot write '" + tfgPath + "'");
    }

    std::vector<server::SessionConfig> sessions;
    for (int k = 0; k < c.numSessions; ++k) {
        server::SessionConfig sc;
        sc.name = "s" + std::to_string(k);
        sc.topo = c.topoSpec;
        sc.tfg = tfgPath;
        sc.period = c.inputPeriod;
        sc.bandwidth = c.tm.bandwidth;
        sc.apSpeed = c.tm.apSpeed;
        // Stride differs across (some) sessions: distinct strides
        // make distinct cache keys, equal strides make cross-
        // session cache hits — both paths stay exercised.
        sc.alloc =
            "rr:" + std::to_string(1 + (c.seed + static_cast<
                                            std::uint64_t>(k)) %
                                           5);
        sc.seed = c.assignSeed + static_cast<std::uint64_t>(k);
        sessions.push_back(std::move(sc));
    }

    const auto openAll = [&](server::SchedulingDaemon &d,
                             std::vector<std::string> &verdicts) {
        std::string invalid;
        for (const server::SessionConfig &sc : sessions) {
            const server::DaemonResponse r = d.open(sc);
            if (r.outcome == server::DaemonOutcome::InvalidConfig &&
                invalid.empty())
                invalid = r.detail;
            verdicts.push_back(verdictLine(r));
        }
        return invalid;
    };
    const auto applyOps =
        [&](server::SchedulingDaemon &d, std::size_t lo,
            std::size_t hi, std::vector<std::string> &verdicts) {
            for (std::size_t i = lo; i < hi; ++i)
                verdicts.push_back(verdictLine(
                    d.submit(sessions[static_cast<std::size_t>(
                                          ops[i].first)]
                                 .name,
                             ops[i].second)
                        .get()));
        };

    server::DaemonConfig base;
    base.workers = 1; // Inline + deterministic on both lines.
    base.queueCap = ops.size() + 16;
    base.cacheCapacity = 64;
    base.ctx = &ctx;

    const std::size_t half = ops.size() / 2;

    // ---- Straight line: one ephemeral daemon, start to finish.
    std::vector<std::string> refOpenV, refOpsV;
    std::map<std::string, std::string> refMid, refFinal;
    {
        server::SchedulingDaemon ref(base);
        if (std::string why = openAll(ref, refOpenV); !why.empty())
            return invalidCase("daemon cannot build the case: " +
                               why);
        if (ref.sessionNames().empty()) {
            RunResult out;
            out.verdict = Verdict::Infeasible;
            out.report =
                "every session open was rejected by the scheduler";
            return out;
        }
        applyOps(ref, 0, half, refOpsV);
        refMid = publishedBytes(ref);
        applyOps(ref, half, ops.size(), refOpsV);
        ref.drain();
        refFinal = publishedBytes(ref);
        ref.shutdown();
    }

    // ---- Recovered line, act 1: durable daemon serves the first
    // half, then crash-stops (drain() has synced the WAL, so the
    // crash only forfeits the final snapshot).
    server::DaemonConfig durable = base;
    durable.stateDir = (scratch.path / "state").string();
    durable.snapshotEvery = 1 + c.seed % 3;
    durable.walSyncEvery = 1 + c.seed % 2;
    {
        server::SchedulingDaemon a(durable);
        std::vector<std::string> openV, opsV;
        openAll(a, openV);
        if (openV != refOpenV)
            return failure("durable run's open verdicts diverge "
                           "from the ephemeral run's");
        applyOps(a, 0, half, opsV);
        if (opsV != std::vector<std::string>(refOpsV.begin(),
                                             refOpsV.begin() +
                                                 static_cast<
                                                     std::ptrdiff_t>(
                                                     half)))
            return failure("durable run's first-half verdicts "
                           "diverge from the ephemeral run's");
        a.drain();
        if (std::string why = diffBytes(refMid, publishedBytes(a),
                                        "before the crash");
            !why.empty())
            return failure(std::move(why));
        a.crashForTest();
    }

    // ---- Act 2: recover (newest snapshot + WAL suffix), serve the
    // remaining ops, shut down cleanly.
    {
        server::SchedulingDaemon b(durable);
        const server::RecoveryResult &rr = b.recovery();
        if (!rr.attempted)
            return failure("recovery did not run on a populated "
                           "state directory");
        if (!rr.rejectedSnapshots.empty())
            return failure("a daemon-written snapshot failed "
                           "verification: " +
                           rr.rejectedSnapshots.front());
        if (rr.replayRejected != 0)
            return failure(
                std::to_string(rr.replayRejected) +
                " WAL-logged (accepted) records replayed as "
                "rejected");
        if (std::string why = diffBytes(refMid, publishedBytes(b),
                                        "after crash recovery");
            !why.empty())
            return failure(std::move(why));

        std::vector<std::string> opsV(
            refOpsV.begin(),
            refOpsV.begin() + static_cast<std::ptrdiff_t>(half));
        applyOps(b, half, ops.size(), opsV);
        if (opsV != refOpsV)
            return failure("post-recovery verdicts diverge from "
                           "the ephemeral run's");
        b.drain();
        if (std::string why =
                diffBytes(refFinal, publishedBytes(b),
                          "after the recovered run finished");
            !why.empty())
            return failure(std::move(why));
        b.shutdown();
    }

    // ---- Act 3: a clean shutdown snapshots at the WAL tip, so a
    // third daemon must restore from the snapshot alone.
    {
        server::SchedulingDaemon cDaemon(durable);
        const server::RecoveryResult &rr = cDaemon.recovery();
        if (!rr.rejectedSnapshots.empty())
            return failure("the shutdown snapshot failed "
                           "verification: " +
                           rr.rejectedSnapshots.front());
        if (rr.snapshotPath.empty())
            return failure(
                "no snapshot found after a clean shutdown");
        if (rr.replayed != 0 || rr.replayRejected != 0)
            return failure("the shutdown snapshot does not cover "
                           "the WAL tip");
        if (std::string why =
                diffBytes(refFinal, publishedBytes(cDaemon),
                          "after snapshot-only recovery");
            !why.empty())
            return failure(std::move(why));
        cDaemon.shutdown();
    }

    RunResult out;
    out.verdict = Verdict::Feasible;
    return out;
}

} // namespace

RunResult
runMultiCase(const FuzzCase &c, const engine::EngineContext &ctx,
             const RunOptions &opts)
{
    // Same core contract as runCase(): nothing a case contains may
    // escape as an exception.
    try {
        return runMultiInner(c, ctx, opts);
    } catch (const PanicError &e) {
        return failure(std::string("panic: ") + e.what());
    } catch (const FatalError &e) {
        return failure(std::string("fatal: ") + e.what());
    } catch (const std::exception &e) {
        return failure(std::string("exception: ") + e.what());
    }
}

} // namespace fuzz
} // namespace srsim
