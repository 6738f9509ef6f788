#include "exp/experiment.hh"

#include <algorithm>

#include "core/intervals.hh"
#include "core/sr_executor.hh"
#include "engine/context.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace srsim {

std::vector<Time>
loadSweepPeriods(Time tauC, const ExperimentConfig &cfg)
{
    SRSIM_ASSERT(cfg.numLoadPoints >= 2, "need at least two points");
    std::vector<Time> out;
    for (int i = 0; i < cfg.numLoadPoints; ++i) {
        const double f =
            1.0 + (cfg.maxPeriodFactor - 1.0) *
                      (static_cast<double>(i) /
                       (cfg.numLoadPoints - 1));
        out.push_back(tauC * f);
    }
    return out;
}

std::vector<UtilizationPoint>
runUtilizationExperiment(const TaskFlowGraph &g, const Topology &topo,
                         const TaskAllocation &alloc,
                         const TimingModel &tm,
                         const ExperimentConfig &cfg)
{
    const Time tau_c = tm.tauC(g);
    const std::vector<Time> periods = loadSweepPeriods(tau_c, cfg);

    // Load points are independent; evaluate them concurrently, each
    // into its own slot, so the (ascending-load) series is identical
    // for every thread count.
    std::vector<UtilizationPoint> out(periods.size());
    const engine::EngineContext &ectx =
        engine::require(cfg.sr.ctx, "runUtilizationExperiment");
    ectx.pool().parallelFor(
        periods.size(), [&](std::size_t i) {
            const Time period = periods[i];
            UtilizationPoint pt;
            pt.inputPeriod = period;
            pt.load = tau_c / period;

            const TimeBounds bounds =
                computeTimeBounds(g, alloc, tm, period);
            const IntervalSet ivs(bounds);
            UtilizationAnalyzer ua(bounds, ivs, topo);

            AssignPathsOptions aopts = cfg.sr.assign;
            if (aopts.ctx == nullptr)
                aopts.ctx = &ectx;
            pt.uLsdToMsd =
                ua.analyze(
                      lsdToMsdAssignment(g, topo, alloc, bounds))
                    .peak;
            pt.uAssignPaths =
                assignPaths(g, topo, alloc, bounds, ivs, aopts)
                    .report.peak;
            out[i] = pt;
        });
    std::reverse(out.begin(), out.end()); // ascending load
    return out;
}

std::vector<LoadPoint>
runThroughputExperiment(const TaskFlowGraph &g, const Topology &topo,
                        const TaskAllocation &alloc,
                        const TimingModel &tm,
                        const ExperimentConfig &cfg)
{
    const Time tau_c = tm.tauC(g);
    const InvocationTiming canon = computeInvocationTiming(g, tm);
    const Time delta = canon.criticalPath;
    const std::vector<Time> periods = loadSweepPeriods(tau_c, cfg);

    // Each load point runs a full WR simulation plus an SR compile;
    // both are self-contained, so the sweep parallelizes across
    // points (and each SR compile parallelizes internally — the
    // pool's parallelFor nests without deadlock).
    std::vector<LoadPoint> out(periods.size());
    const engine::EngineContext &ectx =
        engine::require(cfg.sr.ctx, "runThroughputExperiment");
    ectx.pool().parallelFor(
        periods.size(), [&](std::size_t idx) {
        const Time period = periods[idx];
        LoadPoint pt;
        pt.inputPeriod = period;
        pt.load = tau_c / period;

        // --- Wormhole routing: simulate.
        WormholeSimulator wsim(g, topo, alloc, tm);
        WormholeConfig wcfg;
        wcfg.ctx = &ectx;
        wcfg.inputPeriod = period;
        wcfg.invocations = cfg.invocations;
        wcfg.warmup = cfg.warmup;
        const WormholeResult wr = wsim.run(wcfg);
        pt.wrDeadlocked = wr.deadlocked;
        pt.wrInconsistent = wr.outputInconsistent(cfg.warmup);
        if (!wr.deadlocked) {
            const SeriesStats thr = wr.outputIntervals(cfg.warmup);
            const SeriesStats lat = wr.latencies(cfg.warmup);
            // Normalized throughput tau_in / tau_out: the *min*
            // output interval yields the max throughput spike.
            pt.wrThrMin = period / thr.max();
            pt.wrThrAvg = period / thr.mean();
            pt.wrThrMax = period / thr.min();
            pt.wrLatMin = lat.min() / delta;
            pt.wrLatAvg = lat.mean() / delta;
            pt.wrLatMax = lat.max() / delta;
        }

        // --- Scheduled routing: compile (and execute if feasible).
        SrCompilerConfig scfg = cfg.sr;
        scfg.inputPeriod = period;
        const SrCompileResult sr = compileScheduledRouting(
            g, topo, alloc, tm, scfg);
        pt.srStage = sr.stage;
        pt.srPeakU = sr.utilization.peak;
        pt.srFeasible = sr.feasible;
        if (sr.feasible) {
            const SrExecutionResult ex = executeSchedule(
                g, alloc, tm, sr.bounds, sr.omega,
                cfg.invocations, ectx);
            SRSIM_ASSERT(ex.consistent(cfg.warmup),
                         "verified schedule must give constant "
                         "throughput");
            pt.srThroughput =
                period / ex.outputIntervals(cfg.warmup).mean();
            pt.srLatency =
                ex.latencies(cfg.warmup).mean() / delta;
        }
        out[idx] = pt;
        });
    std::reverse(out.begin(), out.end()); // ascending load
    return out;
}

void
printUtilizationSeries(std::ostream &os, const std::string &title,
                       const std::vector<UtilizationPoint> &points)
{
    os << title << "\n";
    Table t({"load", "U (LSD to MSD)", "U (AssignPaths final)",
             "SR attemptable"});
    for (const UtilizationPoint &p : points) {
        t.addRow({Table::num(p.load), Table::num(p.uLsdToMsd),
                  Table::num(p.uAssignPaths),
                  p.uAssignPaths <= 1.0 + 1e-9 ? "yes" : "no"});
    }
    t.print(os);
    os << "\n";
}

void
printThroughputSeries(std::ostream &os, const std::string &title,
                      const std::vector<LoadPoint> &points)
{
    os << title << "\n";
    Table t({"load", "thr,wh min/avg/max", "lat,wh min/avg/max",
             "OI(wh)", "thr,sch", "lat,sch", "sch status"});
    for (const LoadPoint &p : points) {
        std::string wr_thr, wr_lat, oi;
        if (p.wrDeadlocked) {
            wr_thr = wr_lat = "deadlock";
            oi = "yes";
        } else {
            wr_thr = Table::num(p.wrThrMin, 3) + "/" +
                     Table::num(p.wrThrAvg, 3) + "/" +
                     Table::num(p.wrThrMax, 3);
            wr_lat = Table::num(p.wrLatMin, 3) + "/" +
                     Table::num(p.wrLatAvg, 3) + "/" +
                     Table::num(p.wrLatMax, 3);
            oi = p.wrInconsistent ? "yes" : "no";
        }
        std::string sthr, slat, status;
        if (p.srFeasible) {
            sthr = Table::num(p.srThroughput, 3);
            slat = Table::num(p.srLatency, 3);
            status = "feasible";
        } else {
            sthr = slat = "-";
            status = std::string("fail:") +
                     srFailureStageName(p.srStage);
        }
        t.addRow({Table::num(p.load, 4), wr_thr, wr_lat, oi, sthr,
                  slat, status});
    }
    t.print(os);
    os << "\n";
}

void
writeUtilizationJson(std::ostream &os, const std::string &title,
                     const std::vector<UtilizationPoint> &points)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("title", title);
    w.kv("kind", "utilization");
    w.key("points").beginArray();
    for (const UtilizationPoint &p : points) {
        w.beginObject();
        w.kv("load", p.load);
        w.kv("input_period_us", p.inputPeriod);
        w.kv("u_lsd_to_msd", p.uLsdToMsd);
        w.kv("u_assign_paths", p.uAssignPaths);
        w.kv("sr_attemptable", p.uAssignPaths <= 1.0 + 1e-9);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

void
writeThroughputJson(std::ostream &os, const std::string &title,
                    const std::vector<LoadPoint> &points)
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("title", title);
    w.kv("kind", "throughput");
    w.key("points").beginArray();
    for (const LoadPoint &p : points) {
        w.beginObject();
        w.kv("load", p.load);
        w.kv("input_period_us", p.inputPeriod);
        w.key("wormhole").beginObject();
        w.kv("deadlocked", p.wrDeadlocked);
        w.kv("output_inconsistent", p.wrInconsistent);
        if (!p.wrDeadlocked) {
            w.key("throughput").beginObject();
            w.kv("min", p.wrThrMin);
            w.kv("avg", p.wrThrAvg);
            w.kv("max", p.wrThrMax);
            w.endObject();
            w.key("latency").beginObject();
            w.kv("min", p.wrLatMin);
            w.kv("avg", p.wrLatAvg);
            w.kv("max", p.wrLatMax);
            w.endObject();
        }
        w.endObject();
        w.key("scheduled").beginObject();
        w.kv("feasible", p.srFeasible);
        w.kv("stage", srFailureStageName(p.srStage));
        w.kv("peak_utilization", p.srPeakU);
        if (p.srFeasible) {
            w.kv("throughput", p.srThroughput);
            w.kv("latency", p.srLatency);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

} // namespace srsim
