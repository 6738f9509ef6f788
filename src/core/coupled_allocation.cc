#include "core/coupled_allocation.hh"

#include <algorithm>
#include <cmath>

#include "core/intervals.hh"
#include "core/time_bounds.hh"
#include "util/logging.hh"

namespace srsim {

namespace {

/**
 * Cheap score of one allocation: peak utilization of the
 * LSD-to-MSD assignment at the reference period. Co-locating
 * every message scores 0 (no network traffic at all).
 */
double
quickScore(const TaskFlowGraph &g, const Topology &topo,
           const TimingModel &tm, Time period,
           const TaskAllocation &alloc)
{
    const TimeBounds tb = computeTimeBounds(g, alloc, tm, period);
    if (tb.messages.empty())
        return 0.0;
    const IntervalSet ivs(tb);
    UtilizationAnalyzer ua(tb, ivs, topo);
    return ua.analyze(lsdToMsdAssignment(g, topo, alloc, tb)).peak;
}

/** Thorough score: a short AssignPaths run. */
double
fullScore(const TaskFlowGraph &g, const Topology &topo,
          const TimingModel &tm, Time period,
          const TaskAllocation &alloc,
          const AssignPathsOptions &opts)
{
    const TimeBounds tb = computeTimeBounds(g, alloc, tm, period);
    if (tb.messages.empty())
        return 0.0;
    const IntervalSet ivs(tb);
    return assignPaths(g, topo, alloc, tb, ivs, opts).report.peak;
}

} // namespace

CoupledAllocationResult
coupleAllocationWithPaths(const TaskFlowGraph &g,
                          const Topology &topo,
                          const TimingModel &tm, Time inputPeriod,
                          const TaskAllocation &seedAllocation,
                          Rng &rng, const engine::EngineContext &ctx,
                          const CoupledAllocationOptions &opts)
{
    if (!seedAllocation.complete()) {
        CoupledAllocationResult bad{seedAllocation, 0.0, 0};
        bad.ok = false;
        bad.error = "coupled allocation needs a complete seed "
                    "allocation";
        return bad;
    }

    const int num_tasks = g.numTasks();
    const int num_nodes = topo.numNodes();

    TaskAllocation current = seedAllocation;
    double cur_score =
        quickScore(g, topo, tm, inputPeriod, current);
    TaskAllocation best = current;
    double best_quick = cur_score;

    double temperature = opts.initialTemperature;
    CoupledAllocationResult out{seedAllocation, 0.0, 0};

    for (int it = 0; it < opts.iterations; ++it) {
        TaskAllocation cand = current;
        const TaskId t = static_cast<TaskId>(
            rng.index(static_cast<std::size_t>(num_tasks)));
        if (num_tasks > 1 && rng.chance(0.5)) {
            // Swap the nodes of two tasks.
            TaskId u = t;
            while (u == t) {
                u = static_cast<TaskId>(rng.index(
                    static_cast<std::size_t>(num_tasks)));
            }
            const NodeId nt = cand.nodeOf(t);
            cand.assign(t, cand.nodeOf(u));
            cand.assign(u, nt);
        } else {
            // Relocate one task to a random node.
            cand.assign(t, static_cast<NodeId>(rng.index(
                               static_cast<std::size_t>(num_nodes))));
        }

        const double cand_score =
            quickScore(g, topo, tm, inputPeriod, cand);
        const double delta = cand_score - cur_score;
        if (delta <= 0.0 ||
            rng.chance(std::exp(-delta / std::max(temperature,
                                                  1e-6)))) {
            current = cand;
            cur_score = cand_score;
            ++out.accepted;
            if (cur_score < best_quick) {
                best = current;
                best_quick = cur_score;
            }
        }
        temperature *= opts.cooling;
    }

    out.allocation = best;
    AssignPathsOptions scoring = opts.scoring;
    scoring.ctx = &ctx;
    out.peakUtilization =
        fullScore(g, topo, tm, inputPeriod, best, scoring);
    return out;
}

} // namespace srsim
