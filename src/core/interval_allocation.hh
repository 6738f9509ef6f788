/**
 * @file
 * Message-interval allocation (Sec. 5.2, constraints (3)-(4)).
 *
 * For each maximal subset, decide how much of each message is
 * transmitted in each of its active intervals: values X_hj >= 0 with
 *   (3)  sum_j X_hj = duration_h                      per message
 *   (4)  sum_{h uses link l} X_hj <= |A_j|            per (link, interval)
 *
 * srsim solves this as an LP that additionally minimizes the peak
 * per-(link, interval) load fraction Z (sum_h X_hj <= |A_j| * Z);
 * the allocation is feasible iff the optimum satisfies Z <= 1.
 * Spreading the load this way also eases the downstream interval
 * scheduling step. A first-fit greedy allocator is provided for the
 * solver ablation.
 */

#ifndef SRSIM_CORE_INTERVAL_ALLOCATION_HH_
#define SRSIM_CORE_INTERVAL_ALLOCATION_HH_

#include <string>
#include <vector>

#include "core/intervals.hh"
#include "core/path_assignment.hh"
#include "core/subsets.hh"
#include "core/time_bounds.hh"
#include "solver/lp.hh"
#include "util/matrix.hh"

namespace srsim {

namespace engine {
class EngineContext;
}

namespace lp {
class BasisCache;
}

/** Allocation outcome for the whole TFG. */
struct IntervalAllocation
{
    bool feasible = false;
    /** Peak link-interval load fraction achieved (LP objective Z). */
    double peakLoad = 0.0;
    /**
     * P matrix: time message index i transmits in interval k
     * (Nm x K; rows of local-only messages are absent because only
     * network messages are indexed).
     */
    Matrix<Time> allocation;
    /** Index of the subset that failed, or -1. */
    int failedSubset = -1;
    /**
     * Solver verdict behind a failure: Infeasible when the subset LP
     * proved the subset over-committed, NumericalFailure /
     * IterationLimit when the solver gave up without a verdict,
     * Optimal otherwise (including Z > 1, where the LP solved fine
     * but the load simply does not fit, and any greedy failure).
     */
    lp::Status solveStatus = lp::Status::Optimal;
    /** Human-readable failure description (empty when feasible). */
    std::string error;
};

/** Allocation strategy selector (LP is the paper's formulation). */
enum class AllocationMethod { Lp, Greedy };

/**
 * Allocate every message's transmission time to intervals, subset by
 * subset.
 *
 * @param guardTime CP-synchronization margin charged per
 *        transmission slot downstream (Sec. 7's suggested
 *        extension). The allocation conservatively reserves one
 *        guard per potentially-active message on each
 *        (link, interval), so the interval-scheduling stage has the
 *        headroom its guards will consume.
 * @param packetTime when positive, per-interval allocations are
 *        rounded to whole packets (largest-remainder rounding that
 *        preserves each message's total), matching Sec. 4.1's
 *        packet time base.
 * @param topo when given, per-(link, interval) capacity is scaled by
 *        Topology::linkCapacity so derated links only offer their
 *        surviving duty-cycle fraction of each interval.
 * @param basisCache when given, each subset LP warm-starts from the
 *        basis cached under its member set (and stores its optimal
 *        basis back), so re-solves of unchanged-structure subsets
 *        resume in a handful of pivots. nullptr keeps every solve
 *        cold.
 * @param ctx engine context supplying the thread pool and the
 *        metrics registry. Required.
 */
IntervalAllocation
allocateMessageIntervals(const TimeBounds &bounds,
                         const IntervalSet &intervals,
                         const PathAssignment &pa,
                         const std::vector<MessageSubset> &subsets,
                         AllocationMethod method, Time guardTime,
                         Time packetTime, const Topology *topo,
                         lp::BasisCache *basisCache,
                         const engine::EngineContext *ctx);

} // namespace srsim

#endif // SRSIM_CORE_INTERVAL_ALLOCATION_HH_
