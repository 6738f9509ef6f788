/**
 * @file
 * Incremental rescheduling: re-solve only dirty maximal subsets.
 *
 * Both degraded-mode repair (src/fault) and online admission control
 * (src/online) exploit the same two invariants of the Fig. 3
 * decomposition:
 *
 *  - message time bounds and the interval decomposition depend only
 *    on the TFG, the allocation, and the timing model — not on
 *    routes;
 *  - maximal related subsets share no (link, interval) pair, so a
 *    subset none of whose members changed (route, bounds, or link
 *    capacity) keeps its transmission segments verbatim.
 *
 * This module owns the shared mechanics: partition the messages into
 * maximal related subsets under a (possibly partially rerouted) path
 * assignment, mark the subsets touched by dirty messages or derated
 * links, run message-interval allocation and interval scheduling on
 * the dirty subsets only, and splice the fresh segments into the
 * prior schedule. Callers keep their own policy (what counts as
 * dirty, fallback strategy, metrics namespaces).
 */

#ifndef SRSIM_CORE_INCREMENTAL_HH_
#define SRSIM_CORE_INCREMENTAL_HH_

#include <string>
#include <vector>

#include "core/interval_allocation.hh"
#include "core/interval_scheduling.hh"
#include "core/intervals.hh"
#include "core/path_assignment.hh"
#include "core/time_bounds.hh"
#include "topology/topology.hh"
#include "util/time.hh"

namespace srsim {

/** Knobs of one incremental re-solve. */
struct IncrementalSolveOptions
{
    AllocationMethod allocMethod = AllocationMethod::Lp;
    /**
     * Scheduling options with packetTime already resolved (the
     * compiler's effective value, not the raw config).
     */
    IntervalSchedulingOptions scheduling;
    /**
     * When given, per-(link, interval) capacity honors
     * Topology::linkCapacity, and subsets touching a derated link
     * are re-solved even if none of their members is dirty.
     */
    const Topology *topo = nullptr;
    /**
     * Trace phase prefix: phases are named "<prefix>_allocation"
     * and "<prefix>_scheduling".
     */
    const char *tracePrefix = "incremental";
    /**
     * When given, the allocation and scheduling LPs of each dirty
     * subset warm-start from (and store back to) this basis cache,
     * so repeated re-solves of structurally unchanged subsets
     * resume in a handful of pivots. nullptr keeps solves cold.
     */
    lp::BasisCache *basisCache = nullptr;
    /**
     * Engine context the re-solve runs under (tracer, metrics,
     * thread pool). Propagated into the scheduling options unless
     * those name their own context. Required.
     */
    const engine::EngineContext *ctx = nullptr;
};

/** Outcome of one incremental re-solve. */
struct IncrementalSolveResult
{
    bool feasible = false;

    /** Subset bookkeeping. */
    std::size_t subsetsTotal = 0;
    std::size_t subsetsResolved = 0;
    std::size_t subsetsCopied = 0;

    /**
     * Per network-message transmission segments: fresh for members
     * of re-solved subsets, copied from the prior schedule
     * otherwise. Sized like bounds.messages.
     */
    std::vector<std::vector<TimeWindow>> segments;

    /** Stage that failed when !feasible. */
    enum class FailedStage { None, Allocation, Scheduling };
    FailedStage failedStage = FailedStage::None;
    lp::Status solveStatus = lp::Status::Optimal;
    /** Human-readable failure description (empty when feasible). */
    std::string detail;
};

/**
 * Re-solve the subsets touched by dirty messages.
 *
 * @param bounds   time bounds of the (new) workload
 * @param intervals interval decomposition of `bounds`
 * @param pa       complete path assignment for the workload
 * @param dirtyMessage per message index: true when the message's
 *        route, bounds, or existence changed — its subset must be
 *        re-solved
 * @param priorSegments per message index: the segments of the prior
 *        schedule (empty vectors for brand-new messages); rows of
 *        clean subsets are copied into the result verbatim
 */
IncrementalSolveResult
resolveDirtySubsets(const TimeBounds &bounds,
                    const IntervalSet &intervals,
                    const PathAssignment &pa,
                    const std::vector<char> &dirtyMessage,
                    const std::vector<std::vector<TimeWindow>>
                        &priorSegments,
                    const IncrementalSolveOptions &opts);

} // namespace srsim

#endif // SRSIM_CORE_INCREMENTAL_HH_
