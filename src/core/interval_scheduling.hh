/**
 * @file
 * Interval scheduling (Sec. 5.3): explicit preemptive schedules.
 *
 * Within one interval A_k, the messages with non-zero allocations
 * must be laid out on the timeline so that a message's entire link
 * set is free whenever it transmits (clear source-to-destination
 * path). This is preemptive scheduling of multiprocessor tasks
 * [Blazewicz-Drabowski-Weglarz 86]: links are processors, a message
 * needs all its links simultaneously.
 *
 * A *link-feasible set* (Def. 5.5) is a set of messages no two of
 * which share a link; its members can transmit simultaneously. The
 * solver enumerates the maximal link-feasible sets (Bron-Kerbosch on
 * the conflict graph's complement) and minimizes
 *     sum_j y_j   s.t.   sum_{j contains i} y_j >= p_i,  y >= 0,
 * where y_j is the time slice given to set j. The interval is
 * schedulable iff the optimum fits in |A_k|. (Covering a message
 * beyond p_i is harmless: it simply idles for the excess, so the
 * ">=" relaxation over *maximal* sets attains the same optimum as
 * the paper's "=" form over all sets.)
 *
 * A greedy list-scheduling fallback is provided for the ablation.
 */

#ifndef SRSIM_CORE_INTERVAL_SCHEDULING_HH_
#define SRSIM_CORE_INTERVAL_SCHEDULING_HH_

#include <string>
#include <vector>

#include "core/interval_allocation.hh"
#include "core/intervals.hh"
#include "core/path_assignment.hh"
#include "core/subsets.hh"
#include "core/time_bounds.hh"
#include "solver/lp.hh"
#include "tfg/tfg.hh"
#include "util/time.hh"

namespace srsim {

/** Scheduling strategy selector. */
enum class SchedulingMethod { LpFeasibleSets, ListScheduling };

/** Result of scheduling every interval of every subset. */
struct IntervalScheduleResult
{
    bool feasible = false;
    /**
     * Transmission segments per network message index, in frame
     * coordinates, non-overlapping and sorted by start.
     */
    std::vector<std::vector<TimeWindow>> segments;
    /** Interval index that failed, or -1. */
    int failedInterval = -1;
    /** Subset index that failed, or -1. */
    int failedSubset = -1;
    /** Demand minus capacity of the failing interval (if any). */
    double overrun = 0.0;
    /**
     * Solver verdict behind a failure: NumericalFailure /
     * IterationLimit when the covering LP gave up without a verdict,
     * Infeasible when it proved the interval over-committed,
     * Optimal otherwise (including a plain capacity overrun).
     */
    lp::Status solveStatus = lp::Status::Optimal;
    /** Offending message on a per-message failure, or invalid. */
    MessageId failedMessage = kInvalidMessage;
    /** Human-readable failure description (empty when feasible). */
    std::string error;
};

/** Knobs for the interval scheduler. */
struct IntervalSchedulingOptions
{
    SchedulingMethod method = SchedulingMethod::LpFeasibleSets;
    /** Cap on enumerated maximal link-feasible sets per interval. */
    std::size_t maxFeasibleSets = 4096;
    /**
     * Packet granularity (Sec. 4.1: "the basic time unit to be the
     * time for a single packet transmission"). When positive, every
     * transmission slot is rounded up to a whole number of packet
     * times, so segment boundaries land on the packet grid whenever
     * the interval boundaries do (i.e. when task times, message
     * times, and the input period are packet multiples -- the
     * paper's operating premise). 0 = continuous time.
     */
    Time packetTime = 0.0;
    /**
     * With packetTime > 0: solve the per-interval schedule as the
     * paper's *integer* program (slot lengths in whole packets, by
     * branch and bound) instead of rounding the LP relaxation up.
     * Exact but slower; falls back to the rounded LP if the
     * branch-and-bound node cap is hit.
     */
    bool exactPacketMip = false;
    /**
     * CP-synchronization guard (the paper's concluding remark): a
     * margin of at least twice the maximum clock difference
     * between CPs elapses before each transmission slot starts, so
     * every CP on the path has set up its crossbar. Charged once
     * per slot; tightens the schedulability test accordingly.
     */
    Time guardTime = 0.0;
    /**
     * When given, each (subset, interval) covering LP warm-starts
     * from the basis cached under its work item (and stores its
     * optimal basis back). Applies to the continuous formulation
     * only; the exact-packet MIP warm-starts internally from parent
     * branch-and-bound nodes instead. nullptr keeps solves cold.
     */
    lp::BasisCache *basisCache = nullptr;
    /**
     * Engine context supplying the thread pool and metrics
     * registry for the per-interval covering solves. Required.
     */
    const engine::EngineContext *ctx = nullptr;
};

/**
 * Enumerate the maximal link-feasible sets among `members` (message
 * indices) under path assignment `pa`. Exposed for tests and for the
 * ablation bench.
 */
std::vector<std::vector<std::size_t>>
maximalLinkFeasibleSets(const std::vector<std::size_t> &members,
                        const PathAssignment &pa,
                        std::size_t maxSets = 4096);

/** Schedule every (subset, interval) pair; assemble frame segments. */
IntervalScheduleResult
scheduleIntervals(const TimeBounds &bounds,
                  const IntervalSet &intervals,
                  const PathAssignment &pa,
                  const std::vector<MessageSubset> &subsets,
                  const IntervalAllocation &alloc,
                  const IntervalSchedulingOptions &opts);

} // namespace srsim

#endif // SRSIM_CORE_INTERVAL_SCHEDULING_HH_
