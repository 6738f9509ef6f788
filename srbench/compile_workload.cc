/**
 * @file
 * The `compile` workload: what an `srsimc compile` user waits on.
 *
 * One caller compiles the four healthy golden cases (the DVB TFG,
 * round-robin placement with stride 13, bandwidth 128, on the
 * Figs. 5-10 fabrics) in a seeded rotation, closed loop, under an
 * engine context with a one-thread budget, so the number is about
 * the algorithm and not about which cores a shared host has free.
 * Every schedule must equal its tests/golden/<case>.sched bytes.
 *
 * The traced run alternates, per case, a plain compile with a
 * stage-by-stage replay of the same compile, and reports each
 * stage's time, how much of the plain compile's wall time the stage
 * times account for, the deterministic counts, and the replay's
 * overhead over the plain compile.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "common.hh"
#include "core/schedule_io.hh"
#include "engine/context.hh"
#include "mapping/allocation.hh"
#include "metrics/metrics.hh"
#include "tfg/dvb.hh"
#include "topology/factory.hh"
// Complete types for the services an EngineContext may own.
#include "trace/trace.hh"
#include "util/thread_pool.hh"

namespace srbench {

using namespace srsim;

const char *const kStageNames[kStages] = {
    "time_bounds",         "intervals",
    "path_assignment",     "subsets",
    "interval_allocation", "interval_scheduling",
    "verifier",
};

std::string
scheduleBytes(const GlobalSchedule &omega)
{
    std::ostringstream os;
    writeSchedule(os, omega);
    return os.str();
}

StageReplay
replayCompileByStage(const TaskFlowGraph &g, const Topology &topo,
                     const TaskAllocation &alloc, const TimingModel &tm,
                     const SrCompilerConfig &cfg)
{
    StageReplay r;
    metrics::Registry &reg = cfg.ctx->metricsRegistry();
    const std::uint64_t solves0 = reg.counter("solver.solves").value();
    const std::uint64_t pivots0 = reg.counter("solver.pivots").value();

    // The option plumbing compileScheduledRouting() applies before
    // its first attempt.
    AssignPathsOptions assign = cfg.assign;
    if (assign.ctx == nullptr)
        assign.ctx = cfg.ctx;
    IntervalSchedulingOptions sched = cfg.scheduling;
    if (sched.ctx == nullptr)
        sched.ctx = cfg.ctx;
    if (sched.packetTime <= 0.0 && tm.packetBytes > 0.0)
        sched.packetTime = tm.packetTime();

    const auto start = Clock::now();
    auto mark = start;
    const auto lap = [&](int stage) {
        const auto now = Clock::now();
        r.stageMs[stage] = msBetween(mark, now);
        mark = now;
    };

    const TimeBounds bounds =
        computeTimeBounds(g, alloc, tm, cfg.inputPeriod);
    lap(0);
    const IntervalSet ivs(bounds);
    lap(1);
    AssignPathsResult ap = assignPaths(g, topo, alloc, bounds, ivs, assign);
    lap(2);
    if (!ap.ok || ap.report.peak > 1.0 + 1e-9) {
        r.why = ap.ok ? "peak utilization above 1" : ap.error;
        return r;
    }
    r.restarts = ap.restarts;
    r.reroutes = ap.reroutes;
    r.peakU = ap.report.peak;

    mark = Clock::now();
    const std::vector<MessageSubset> subsets =
        computeMaximalSubsets(bounds, ivs, ap.assignment);
    lap(3);
    r.subsets = subsets.size();
    const IntervalAllocation ia = allocateMessageIntervals(
        bounds, ivs, ap.assignment, subsets, cfg.allocMethod,
        sched.guardTime, sched.packetTime, &topo, nullptr, cfg.ctx);
    lap(4);
    if (!ia.feasible) {
        r.why = "message-interval allocation failed";
        return r;
    }
    const IntervalScheduleResult is =
        scheduleIntervals(bounds, ivs, ap.assignment, subsets, ia, sched);
    lap(5);
    if (!is.feasible) {
        r.why = "interval scheduling failed";
        return r;
    }

    mark = Clock::now();
    r.omega.period = cfg.inputPeriod;
    r.omega.segments = is.segments;
    r.omega.paths = std::move(ap.assignment);
    const VerifyResult ver = verifySchedule(g, topo, alloc, bounds, r.omega);
    lap(6);
    r.wallMs = msBetween(start, Clock::now());
    if (!ver.ok) {
        r.why = "verifier rejected the schedule";
        return r;
    }
    r.solves = reg.counter("solver.solves").value() - solves0;
    r.pivots = reg.counter("solver.pivots").value() - pivots0;
    r.ok = true;
    return r;
}

namespace {

/** One golden compile case. */
struct CaseSpec
{
    const char *key;         ///< metric suffix
    const char *golden;      ///< file stem under the golden directory
    const char *topo;        ///< fabric factory spec
    double periodFactor;     ///< inputPeriod = factor * tau_c
};

constexpr int kCases = 4;

/** Set-ups per untraced run (see runCompileWorkload). */
constexpr int kSetUps = 10;
const CaseSpec kCaseSpecs[kCases] = {
    {"cube6", "fig5-cube6-b128", "cube:6", 2.0},
    {"ghc444", "fig5-ghc444-b128", "ghc:4,4,4", 2.0},
    {"torus88", "fig9-torus88-b128", "torus:8,8", 3.2},
    {"torus444", "fig10-torus444-b128", "torus:4,4,4", 2.4},
};

/** Deterministic per-case counts of one compile. */
struct Counts
{
    int restarts = 0;
    int reroutes = 0;
    std::size_t subsets = 0;
    std::uint64_t solves = 0;
    std::uint64_t pivots = 0;
    double peakU = 0.0;
};

/**
 * The counts each case had when this benchmark was defined. A later
 * change that moves them is reported as a count change, never as a
 * failure: counts explain a wall-clock result, they do not decide it.
 */
const Counts kSeedCounts[kCases] = {
    {12, 876, 10, 98, 368, 0.72},
    {12, 422, 19, 174, 459, 0.5},
    {12, 420, 7, 52, 273, 0.72},
    {12, 819, 10, 105, 389, 0.5225298588490771},
};

/** A ready-to-compile case. */
struct Problem
{
    const CaseSpec *spec = nullptr;
    TaskFlowGraph g;
    std::unique_ptr<Topology> topo;
    std::optional<TaskAllocation> alloc;
    TimingModel tm;
    SrCompilerConfig cfg;
    std::string golden;
};

std::vector<Problem>
buildProblems(const Args &args, const engine::EngineContext &ctx)
{
    std::vector<Problem> ps(kCases);
    const DvbParams dvb;
    for (int c = 0; c < kCases; ++c) {
        Problem &p = ps[c];
        p.spec = &kCaseSpecs[c];
        p.g = buildDvbTfg(dvb);
        p.topo = makeTopology(p.spec->topo);
        p.tm.apSpeed = dvb.matchedApSpeed();
        p.tm.bandwidth = 128.0;
        p.alloc.emplace(alloc::roundRobin(p.g, *p.topo, 13));
        p.cfg.ctx = &ctx;
        p.cfg.inputPeriod = p.spec->periodFactor * p.tm.tauC(p.g);
        const std::string path =
            args.goldenDir + "/" + p.spec->golden + ".sched";
        if (!readFile(path, &p.golden))
            throw std::runtime_error("cannot read golden " + path);
    }
    return ps;
}

/** Count one compile's output check. */
void
checkOutput(const Problem &p, bool feasible, const GlobalSchedule &omega,
            const char *how, Outcome &out)
{
    ++out.attempted;
    if (!feasible) {
        ++out.failed;
        out.problem(std::string(p.spec->key) + ": " + how +
                    " compile found no schedule");
    } else if (scheduleBytes(omega) != p.golden) {
        ++out.failed;
        out.problem(std::string(p.spec->key) + ": " + how +
                    " schedule differs from golden " + p.spec->golden);
    }
}

/** A seeded permutation of the case indices. */
std::vector<int>
rotation(SeededStream &rng)
{
    std::vector<int> order(kCases);
    for (int c = 0; c < kCases; ++c)
        order[c] = c;
    for (int i = kCases - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(static_cast<std::size_t>(i) + 1)]);
    return order;
}

void
writeCounts(JsonWriter &w, const Counts &k, bool withSolver)
{
    w.kv("restarts", k.restarts);
    w.kv("reroutes", k.reroutes);
    w.kv("subsets", static_cast<std::uint64_t>(k.subsets));
    w.kv("peak_u", k.peakU);
    if (withSolver) {
        w.kv("solves", k.solves);
        w.kv("pivots", k.pivots);
    }
}

/** Report each count that moved since the seed table. */
void
compareCounts(JsonWriter &w, const Counts (&now)[kCases], bool withSolver)
{
    w.key("count_changes").beginArray();
    for (int c = 0; c < kCases; ++c) {
        const Counts &a = kSeedCounts[c];
        const Counts &b = now[c];
        const auto note = [&](const char *what, double from, double to) {
            if (from == to)
                return;
            char buf[160];
            std::snprintf(buf, sizeof(buf), "%s.%s: %.17g -> %.17g",
                          kCaseSpecs[c].key, what, from, to);
            w.value(std::string(buf));
            std::cerr << "srbench: count change " << buf << "\n";
        };
        note("restarts", a.restarts, b.restarts);
        note("reroutes", a.reroutes, b.reroutes);
        note("subsets", static_cast<double>(a.subsets),
             static_cast<double>(b.subsets));
        note("peak_u", a.peakU, b.peakU);
        if (withSolver) {
            note("solves", static_cast<double>(a.solves),
                 static_cast<double>(b.solves));
            note("pivots", static_cast<double>(a.pivots),
                 static_cast<double>(b.pivots));
        }
    }
    w.endArray();
}

} // namespace

void
runCompileWorkload(const Args &args, Outcome &out, JsonWriter &w)
{
    engine::EngineContext root;
    engine::ChildOptions co;
    co.name = "bench.compile";
    co.threads = 1;
    const auto ctx = root.createChild(co);
    // Counts (solves, pivots) are collected only in the traced run:
    // the untraced run keeps the compiler's default, metrics off.
    metrics::Registry::setEnabled(args.trace);

    // Set-up: build the inputs, read the goldens, and compile every
    // case once (the first compile pays for allocator growth and
    // lazy caches). One set-up precedes the timed loop; the untraced
    // run spreads the others evenly between its rotations, so their
    // median follows the host's speed over the run as the compile
    // times do. Their time is taken out of the loop's figures.
    std::vector<Problem> problems;
    SetupTimes setups;
    const auto setUp = [&] {
        setups.time([&] {
            problems = buildProblems(args, *ctx);
            for (const Problem &p : problems) {
                const SrCompileResult r = compileScheduledRouting(
                    p.g, *p.topo, *p.alloc, p.tm, p.cfg);
                checkOutput(p, r.feasible, r.omega, "warm-up", out);
            }
        });
    };
    setUp();

    SeededStream rng(args.seed);
    std::vector<double> plainMs[kCases];
    std::vector<double> wallMs[kCases];
    Counts counts[kCases];
    std::uint64_t compiles = 0;
    const auto t0 = Clock::now();
    const double budgetMs = args.seconds * 1000.0;

    if (!args.trace) {
        const double loopCpu0 = threadCpuMs();
        double setUpCpuS = 0.0, setUpWallS = 0.0;
        for (;;) {
            const double loopMs =
                msBetween(t0, Clock::now()) - setUpWallS * 1000.0;
            if (loopMs >= budgetMs)
                break;
            const auto done = static_cast<double>(setups.cpuS.size());
            if (done < kSetUps && loopMs >= done * budgetMs / kSetUps) {
                setUp();
                setUpCpuS += setups.cpuS.back();
                setUpWallS += setups.wallS.back();
            }
            for (const int c : rotation(rng)) {
                const Problem &p = problems[c];
                const auto a = Clock::now();
                const double cpu0 = threadCpuMs();
                const SrCompileResult r = compileScheduledRouting(
                    p.g, *p.topo, *p.alloc, p.tm, p.cfg);
                plainMs[c].push_back(threadCpuMs() - cpu0);
                wallMs[c].push_back(msBetween(a, Clock::now()));
                ++compiles;
                checkOutput(p, r.feasible, r.omega, "timed", out);
                counts[c] = {r.assignRestarts, r.assignReroutes,
                             r.numSubsets, 0, 0, r.utilization.peak};
            }
        }
        const double loopCpuS =
            (threadCpuMs() - loopCpu0) / 1000.0 - setUpCpuS;
        const double elapsedS =
            msBetween(t0, Clock::now()) / 1000.0 - setUpWallS;
        // A last slot the loop's final rotation ran past.
        while (setups.cpuS.size() < kSetUps)
            setUp();

        // The p90 pools every compile, each divided by its case's
        // median, and scales back by the geometric mean of the
        // medians: one case's p90 rests on the 4-5 compiles beyond it,
        // the pooled one on four times as many.
        std::vector<double> means, p50s, relative;
        w.key("cases").beginObject();
        for (int c = 0; c < kCases; ++c) {
            means.push_back(mean(plainMs[c]));
            p50s.push_back(median(plainMs[c]));
            for (const double ms : plainMs[c])
                relative.push_back(ms / p50s.back());
            w.key(kCaseSpecs[c].key).beginObject();
            writeSummary(w, "compile_ms", plainMs[c]);
            writeSummary(w, "compile_wall_ms", wallMs[c]);
            writeCounts(w, counts[c], false);
            w.endObject();
            std::cerr << "srbench: compile_ms." << kCaseSpecs[c].key
                      << " median " << p50s.back() << " ms over "
                      << plainMs[c].size() << " compiles\n";
        }
        w.endObject();
        compareCounts(w, counts, false);
        w.kv("compile_ms", geomean(p50s));
        w.kv("compiles", compiles);
        w.kv("elapsed_s", elapsedS);
        w.kv("compiles_per_wall_s", static_cast<double>(compiles) / elapsedS);
        writeSetup(w, setups);

        out.metric("setup_s", setups.medianS(), "s");
        out.metric("latency_ms_mean", geomean(means), "ms");
        out.metric("latency_ms_p90",
                   geomean(p50s) * percentile(relative, 90.0), "ms");
        out.metric("capacity_rps",
                   static_cast<double>(compiles) / loopCpuS, "1/s");
        out.metric("peak_rss_mb", peakRssMb(), "MiB");
        return;
    }

    // Traced run: per case, a plain compile and a stage replay, in
    // alternating order so neither always runs on a warmer cache.
    std::vector<double> stageRot[kStages];
    std::vector<double> replayRot, plainRot, replayCpuRot, plainCpuRot,
        coverageRot;
    int round = 0;
    while (msBetween(t0, Clock::now()) < budgetMs) {
        double rotStage[kStages] = {};
        double rotReplay = 0.0, rotPlain = 0.0;
        double rotReplayCpu = 0.0, rotPlainCpu = 0.0;
        for (const int c : rotation(rng)) {
            const Problem &p = problems[c];
            for (int k = 0; k < 2; ++k) {
                const double cpu0 = threadCpuMs();
                if ((k + round) % 2 == 0) {
                    const auto a = Clock::now();
                    const SrCompileResult r = compileScheduledRouting(
                        p.g, *p.topo, *p.alloc, p.tm, p.cfg);
                    const double cpuMs = threadCpuMs() - cpu0;
                    rotPlainCpu += cpuMs;
                    rotPlain += msBetween(a, Clock::now());
                    plainMs[c].push_back(cpuMs);
                    checkOutput(p, r.feasible, r.omega, "plain", out);
                } else {
                    const StageReplay r = replayCompileByStage(
                        p.g, *p.topo, *p.alloc, p.tm, p.cfg);
                    rotReplayCpu += threadCpuMs() - cpu0;
                    checkOutput(p, r.ok, r.omega, "stage-replay", out);
                    rotReplay += r.wallMs;
                    for (int s = 0; s < kStages; ++s)
                        rotStage[s] += r.stageMs[s];
                    counts[c] = {r.restarts, r.reroutes, r.subsets,
                                 r.solves, r.pivots, r.peakU};
                }
            }
        }
        double rotStageSum = 0.0;
        for (int s = 0; s < kStages; ++s) {
            stageRot[s].push_back(rotStage[s]);
            rotStageSum += rotStage[s];
        }
        coverageRot.push_back(rotStageSum / rotPlain);
        replayRot.push_back(rotReplay);
        plainRot.push_back(rotPlain);
        replayCpuRot.push_back(rotReplayCpu);
        plainCpuRot.push_back(rotPlainCpu);
        ++round;
    }
    metrics::Registry::setEnabled(false);

    // The stage split must account for the plain compile's wall time
    // of the same rotation: a stage it misses, or work it adds, shows.
    const double coverage = median(coverageRot);
    if (std::abs(coverage - 1.0) > 0.05)
        out.flags.push_back("stage times cover " +
                            std::to_string(coverage * 100.0) +
                            "% of the plain compile's wall time");
    // The overhead compares the CPU time of the same compiles with
    // and without stage timers; unlike wall time it excludes spells
    // in which the host ran someone else.
    const double overheadPct =
        100.0 * (median(replayCpuRot) / median(plainCpuRot) - 1.0);

    Counts sum;
    for (int c = 0; c < kCases; ++c) {
        sum.restarts += counts[c].restarts;
        sum.reroutes += counts[c].reroutes;
        sum.subsets += counts[c].subsets;
        sum.solves += counts[c].solves;
        sum.pivots += counts[c].pivots;
        sum.peakU = std::max(sum.peakU, counts[c].peakU);
    }
    w.key("cases").beginObject();
    for (int c = 0; c < kCases; ++c) {
        w.key(kCaseSpecs[c].key).beginObject();
        writeSummary(w, "compile_ms", plainMs[c]);
        writeCounts(w, counts[c], true);
        w.endObject();
    }
    w.endObject();
    compareCounts(w, counts, true);
    w.kv("rotations", static_cast<std::int64_t>(round));
    w.kv("replay_ms_per_rotation", median(replayRot));
    w.kv("plain_ms_per_rotation", median(plainRot));
    w.kv("replay_cpu_ms_per_rotation", median(replayCpuRot));
    w.kv("plain_cpu_ms_per_rotation", median(plainCpuRot));
    w.kv("stage_coverage", coverage);

    // Stage times are per rotation: the four golden compiles.
    for (int s = 0; s < kStages; ++s)
        out.metric(std::string("core.") + kStageNames[s] + ".ms",
                   median(stageRot[s]), "ms");
    out.metric("core.stage_coverage", coverage, "frac");
    out.metric("core.path_assignment.restarts", sum.restarts, "count");
    out.metric("core.path_assignment.reroutes", sum.reroutes, "count");
    out.metric("core.path_assignment.peak_u", sum.peakU, "frac");
    out.metric("core.subsets.count", static_cast<double>(sum.subsets),
               "count");
    out.metric("solver.solves", static_cast<double>(sum.solves), "count");
    out.metric("solver.pivots", static_cast<double>(sum.pivots), "count");
    out.metric("trace.overhead_pct", overheadPct, "%");
}

} // namespace srbench
