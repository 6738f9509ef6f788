/**
 * @file
 * Path assignment for scheduled routing (Sec. 5.1, Fig. 4).
 *
 * Each network message is assigned one of the multiple equivalent
 * minimal paths between its endpoints. A candidate assignment is
 * scored by the peak utilization
 *     U = max( max_j U'_j , max_{j,k} U^s_jk )
 * where U'_j is link utilization (total transmission demand on link
 * L_j over the total time in which at least one message is active on
 * it, Def. 5.1) and U^s_jk is spot utilization (the number of
 * no-slack messages using L_j in interval A_k, Def. 5.2). U <= 1 is
 * necessary for a feasible flow-control schedule to exist.
 *
 * AssignPaths (Fig. 4) performs iterative improvement: repeatedly
 * reroute one multi-hop message on the peak link/spot, choosing the
 * alternative path with the largest peak reduction (or, failing
 * that, one that repositions the same peak value elsewhere in the
 * link-interval space), and restart randomly to escape local minima.
 *
 * Defs. 5.1/5.2 have one implementation, LinkLoadState: per-link
 * message lists and per-(link, interval) counts that a reroute
 * updates only on the links it leaves or joins. A from-scratch
 * UtilizationAnalyzer::analyze() builds the state and reports it,
 * and an improvement walk scores each candidate move by applying it
 * to its own state. Every peak comparison and tie-break of the walk
 * depends on the report's exact bits, so the state reproduces the
 * from-scratch scan bit for bit:
 *   1. A touched link's demand is re-summed in message-index order,
 *      never kept as a running `+=`/`-=` total.
 *   2. Its available time is summed in interval order, and only
 *      recomputed when a "used" bit flips.
 *   3. Its local peak is the link utilization first, then the first
 *      interval whose no-slack count is both above 1 and highest.
 *   4. Equal local peaks of two links go to the link touched first
 *      by the scan: the lowest (first message on the link, position
 *      of the link in that message's path).
 *   5. A zero peak reports `position.link == kInvalidLink`.
 */

#ifndef SRSIM_CORE_PATH_ASSIGNMENT_HH_
#define SRSIM_CORE_PATH_ASSIGNMENT_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "core/intervals.hh"
#include "core/time_bounds.hh"
#include "mapping/allocation.hh"
#include "tfg/tfg.hh"
#include "topology/topology.hh"

namespace srsim {

/**
 * A complete path assignment: one route per network message, indexed
 * like TimeBounds::messages.
 */
struct PathAssignment
{
    std::vector<Path> paths;

    const Path &pathFor(std::size_t msgIdx) const
    {
        return paths[msgIdx];
    }
};

/** Where the peak utilization is attained. */
struct PeakPosition
{
    bool isSpot = false;
    LinkId link = kInvalidLink;
    /** Interval index; meaningful only when isSpot. */
    std::size_t interval = 0;

    bool
    operator==(const PeakPosition &o) const
    {
        return isSpot == o.isSpot && link == o.link &&
               (!isSpot || interval == o.interval);
    }
};

/** Peak utilization and its position. */
struct UtilizationReport
{
    double peak = 0.0;
    PeakPosition position;
};

/**
 * Computes link/spot utilizations of path assignments against fixed
 * time bounds and interval decomposition. Immutable after
 * construction, so concurrent walks share one analyzer.
 */
class UtilizationAnalyzer
{
  public:
    UtilizationAnalyzer(const TimeBounds &bounds,
                        const IntervalSet &intervals,
                        const Topology &topo);

    /** Link utilization U'_j (Def. 5.1). */
    double linkUtilization(const PathAssignment &pa, LinkId j) const;

    /** Spot utilization U^s_jk (Def. 5.2): raw no-slack count. */
    double
    spotUtilization(const PathAssignment &pa, LinkId j,
                    std::size_t k) const;

    /**
     * Peak U over all links and spots, with its position.
     *
     * Spots contribute only when they are hot-spots (two or more
     * no-slack messages on one link in one interval); a lone
     * no-slack message satisfies U^s_jk <= 1 and is not contention.
     * This matches the paper's plotted curves, which drop below 1.0
     * even at tau_m == tau_c where a no-slack message always exists.
     */
    UtilizationReport analyze(const PathAssignment &pa) const;

    const TimeBounds &bounds() const { return bounds_; }
    const IntervalSet &intervals() const { return intervals_; }

  private:
    friend class LinkLoadState;

    const TimeBounds &bounds_;
    const IntervalSet &intervals_;
    const Topology &topo_;

    // Precomputed per-message data.
    std::vector<Time> durations_;
    std::vector<bool> noSlack_;
    std::vector<std::vector<std::size_t>> activeIv_;
    /** Interval lengths, in interval order. */
    std::vector<Time> ivLength_;
};

/**
 * The link loads of one path assignment, kept up to date under
 * single-message reroutes (see the file comment for the bit-identity
 * rules). The state refers to each route by address: a route must
 * stay valid until its message moves again (the move reads the
 * route it leaves) or the state is gone. A route never crosses one
 * link twice. Not thread-safe; each walk owns its state.
 */
class LinkLoadState
{
  public:
    /** The loads of routing message i over *routes[i]. */
    LinkLoadState(const UtilizationAnalyzer &ua,
                  std::vector<const Path *> routes);
    /** The loads of `pa`, whose rows are the initial routes. */
    LinkLoadState(const UtilizationAnalyzer &ua,
                  const PathAssignment &pa);

    /** Reroute message i over `p`, re-costing only changed links. */
    void move(std::size_t i, const Path &p);

    /** Peak U and its position, as analyze() defines them. */
    UtilizationReport report() const;

    /** Message indices whose route crosses link j, ascending. */
    const std::vector<std::size_t> &
    messagesOn(LinkId j) const
    {
        return onLink_[static_cast<std::size_t>(j)];
    }

    /** Link utilization U'_j (Def. 5.1). */
    double linkUtilization(LinkId j) const
    {
        return link_[static_cast<std::size_t>(j)].u;
    }

    /** No-slack message count on link j in interval k (Def. 5.2). */
    int
    spotCount(LinkId j, std::size_t k) const
    {
        return spot_[static_cast<std::size_t>(j) * kk_ + k];
    }

    /**
     * The first tournament-tree node that does not hold the winner
     * of its two children, or 0 when every node does (for tests).
     */
    std::size_t staleNode() const;

  private:
    /** Per-link values, re-derived whenever the link's loads change. */
    struct LinkCache
    {
        /** Sum of `used` interval lengths times the capacity. */
        Time avail = 0.0;
        double u = 0.0;
        /** Highest no-slack count, at its first interval. */
        int bestSpot = 0;
        std::size_t bestSpotIv = 0;
        /** Local peak: max(u, hot-spot count), 0 when idle. */
        double peak = 0.0;
        bool peakIsSpot = false;
        /** Scan order: (first message, position in its route). */
        std::size_t firstMsg = SIZE_MAX;
        std::size_t firstPos = SIZE_MAX;
    };

    void leave(std::size_t i, std::size_t l);
    void join(std::size_t i, std::size_t l);
    /** Re-derive link l's cached values from its lists and counts. */
    void refresh(std::size_t l, bool usedFlipped, bool spotLost);
    /** Re-derive link l's scan-order key. */
    void rekey(std::size_t l);
    /**
     * Re-key l and replay its tree path, stopping at the first node
     * whose winner is unchanged and is not l.
     */
    void settle(std::size_t l);
    /** The winner of tree node n's two children. */
    std::size_t winner(std::size_t n) const;
    /** Whether link a's local peak outranks link b's. */
    bool outranks(std::size_t a, std::size_t b) const;

    const UtilizationAnalyzer &ua_;
    std::size_t kk_ = 0;
    std::vector<const Path *> route_;
    std::vector<double> capacity_;
    std::vector<std::vector<std::size_t>> onLink_;
    /** Per (link, interval): messages active there / no-slack ones. */
    std::vector<int> used_;
    std::vector<int> spot_;
    /** One entry per link plus an idle sentinel for tree padding. */
    std::vector<LinkCache> link_;
    /** Tournament tree over links; node 1 holds the global peak. */
    std::vector<std::size_t> tree_;
    std::size_t leaves_ = 1;
};

namespace engine {
class EngineContext;
}

/** Knobs of the AssignPaths heuristic. */
struct AssignPathsOptions
{
    /** Cap on enumerated minimal paths per message (0 = all). */
    std::size_t maxPathsPerMessage = 256;
    /**
     * Random restarts beyond the first walk. The maxRestarts + 1
     * improvement walks are independent (walk r seeds its RNG from
     * deriveSeed(seed, r)) and run concurrently on the context's
     * ThreadPool; the best result (lowest peak U, ties to the
     * lowest restart index) wins, so the outcome is identical for
     * every thread count including the serial pool.
     */
    int maxRestarts = 12;
    /** Safety bound on reroutes within one improvement sweep. */
    int maxInnerIterations = 2000;
    std::uint64_t seed = 12345;
    /**
     * Engine context supplying the thread pool the restart walks
     * run on. Required. The walk outcome is thread-count
     * independent, so the choice of pool never changes the
     * assignment.
     */
    const engine::EngineContext *ctx = nullptr;
};

/** Outcome of assignPaths(). */
struct AssignPathsResult
{
    PathAssignment assignment;
    UtilizationReport report;
    int restarts = 0;
    int reroutes = 0;
    /**
     * False when no candidate path exists for some message (e.g. a
     * disconnected fabric); the assignment is then unusable and
     * `error` / `failedMessage` describe the offender.
     */
    bool ok = true;
    MessageId failedMessage = kInvalidMessage;
    std::string error;
};

/** Outcome of greedyRouteMessages(). */
struct GreedyRouteResult
{
    /** False when some message has no surviving minimal path. */
    bool ok = false;
    MessageId failedMessage = kInvalidMessage;
    std::string error;
    /** Peak utilization of the final assignment. */
    UtilizationReport report;
};

/**
 * Route the given message indices greedily without a full compile:
 * every listed message first takes its first minimal path, then (in
 * list order) keeps the candidate minimizing the peak utilization
 * with all other routes fixed. All other rows of `pa` are left
 * untouched, so this is the single-message (and few-message) routing
 * entry point used by degraded-mode repair and by online admission.
 *
 * `pa` must be sized like bounds.messages; rows of the listed
 * indices may hold anything (they are overwritten).
 */
GreedyRouteResult
greedyRouteMessages(const TaskFlowGraph &g, const Topology &topo,
                    const TaskAllocation &alloc,
                    const TimeBounds &bounds,
                    const IntervalSet &intervals,
                    const std::vector<std::size_t> &indices,
                    std::size_t maxPathsPerMessage,
                    PathAssignment &pa);

/**
 * The deterministic-routing baseline: every message takes its
 * LSD-to-MSD path.
 */
PathAssignment
lsdToMsdAssignment(const TaskFlowGraph &g, const Topology &topo,
                   const TaskAllocation &alloc,
                   const TimeBounds &bounds);

/** Run the AssignPaths heuristic of Fig. 4. */
AssignPathsResult
assignPaths(const TaskFlowGraph &g, const Topology &topo,
            const TaskAllocation &alloc, const TimeBounds &bounds,
            const IntervalSet &intervals,
            const AssignPathsOptions &opts);

} // namespace srsim

#endif // SRSIM_CORE_PATH_ASSIGNMENT_HH_
