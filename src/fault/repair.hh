/**
 * @file
 * Fault-aware rescheduling: repair a healthy compile against a
 * degraded fabric.
 *
 * The repair pipeline exploits two invariants of the Fig. 3
 * decomposition:
 *
 *  - message time bounds and the interval decomposition depend only
 *    on the TFG, the allocation, and the timing model — not on
 *    routes — so they survive any link fault unchanged;
 *  - maximal related subsets share no (link, interval) pair, so a
 *    subset whose members kept their routes (and whose links kept
 *    full capacity) keeps its allocation and segments verbatim.
 *
 * The fast path therefore reroutes only the messages whose paths
 * cross a failed or derated resource and re-solves only the subsets
 * those messages land in; everything else is copied from the healthy
 * schedule. When that fails (or messages must be shed because a node
 * died or the fabric disconnected), it falls back to a full
 * recompilation on the surviving fabric, and finally to stretching
 * the input period — reporting per message whether its deadline
 * survived, was rerouted, degraded, or shed.
 */

#ifndef SRSIM_FAULT_REPAIR_HH_
#define SRSIM_FAULT_REPAIR_HH_

#include <cstddef>
#include <string>
#include <vector>

#include "core/sr_compiler.hh"

namespace srsim {

namespace lp {
class BasisCache;
}

namespace fault {

/** What happened to one message of the original TFG under repair. */
enum class MessageFate
{
    Survived,  ///< same route, same period, windows intact
    Rerouted,  ///< new route, original period still met
    Degraded,  ///< schedulable only at a stretched period
    Shed,      ///< dropped: endpoint dead or fabric disconnected
};

/** @return human-readable fate name. */
const char *messageFateName(MessageFate f);

/** Repair policy knobs. */
struct RepairOptions
{
    /** Try the incremental per-subset repair before recompiling. */
    bool allowIncremental = true;
    /** Try stretched periods when the original is infeasible. */
    bool allowPeriodStretch = true;
    /** Stretch factors tried in order on the original period. */
    std::vector<double> stretchFactors = {1.25, 1.5, 2.0, 3.0, 4.0};
    /** Fault spec recorded on the repaired schedule, if any. */
    std::string faultSpec;
    /**
     * When given, the incremental path's subset LPs warm-start from
     * (and store back to) this basis cache, so a caller repairing
     * against a sequence of faults re-solves recurring subsets in a
     * handful of pivots. nullptr keeps every solve cold.
     */
    lp::BasisCache *basisCache = nullptr;
};

/** Outcome of a repair. */
struct RepairResult
{
    bool feasible = false;
    /** The incremental per-subset path produced the schedule. */
    bool usedIncremental = false;
    /** A full recompile on the degraded fabric was needed. */
    bool usedFullRecompile = false;

    /** Period of the repaired schedule (== original unless stretched). */
    Time degradedPeriod = 0.0;

    /**
     * The degraded schedule. On the incremental path it indexes the
     * original network messages; after a shedding recompile it
     * indexes the reduced problem (see keptMessages).
     */
    GlobalSchedule omega;

    /** Full-recompile result (empty on the incremental path). */
    SrCompileResult compile;

    /** Per original MessageId: what happened to it. */
    std::vector<MessageFate> fates;
    /** Original ids of shed messages (sorted). */
    std::vector<MessageId> shedMessages;
    /**
     * After a shedding recompile: reduced MessageId -> original
     * MessageId. Identity-free (empty) when nothing was shed.
     */
    std::vector<MessageId> keptMessages;

    /** Subset bookkeeping of the incremental path. */
    std::size_t subsetsTotal = 0;
    std::size_t subsetsReused = 0;
    std::size_t subsetsResolved = 0;

    /** Independent verification on the degraded topology. */
    VerifyResult verification;

    /** Failure explanation when !feasible. */
    std::string detail;
};

/**
 * Repair `healthy` (a feasible compile of (g, alloc, tm, cfg) on the
 * healthy fabric) against the already-degraded `topo`.
 *
 * The incremental path runs when no message must be shed: dirty
 * messages (routes crossing a failed or derated resource) are
 * rerouted over the surviving fabric and only the subsets containing
 * them are re-solved. Otherwise — or when the fast path fails — the
 * whole problem is recompiled on the degraded topology (on a reduced
 * TFG when messages were shed), and finally retried at stretched
 * periods. Every produced schedule is re-verified on `topo`. The
 * repair runs under the compile's context, `cfg.ctx` (required).
 */
RepairResult
repairSchedule(const TaskFlowGraph &g, const Topology &topo,
               const TaskAllocation &alloc, const TimingModel &tm,
               const SrCompilerConfig &cfg,
               const SrCompileResult &healthy,
               const RepairOptions &opts = {});

} // namespace fault
} // namespace srsim

#endif // SRSIM_FAULT_REPAIR_HH_
