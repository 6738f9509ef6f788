#include "core/incremental.hh"

#include <sstream>
#include <string>

#include "core/subsets.hh"
#include "engine/context.hh"
#include "metrics/metrics.hh"
#include "trace/trace.hh"

namespace srsim {

IncrementalSolveResult
resolveDirtySubsets(const TimeBounds &bounds,
                    const IntervalSet &intervals,
                    const PathAssignment &pa,
                    const std::vector<char> &dirtyMessage,
                    const std::vector<std::vector<TimeWindow>>
                        &priorSegments,
                    const IncrementalSolveOptions &opts)
{
    IncrementalSolveResult res;
    const engine::EngineContext &ectx =
        engine::require(opts.ctx, "resolveDirtySubsets");

    // Re-partition under the (possibly rerouted) assignment. Subsets
    // free of dirty members and derated links kept exactly their
    // prior relatedness, so their segments are reused verbatim.
    const std::vector<MessageSubset> subsets =
        computeMaximalSubsets(bounds, intervals, pa);
    std::vector<MessageSubset> dirtySubsets;
    std::vector<char> inDirtySubset(bounds.messages.size(), 0);
    for (const MessageSubset &sub : subsets) {
        bool isDirty = false;
        for (std::size_t h : sub.members)
            isDirty = isDirty || dirtyMessage[h] != 0;
        if (opts.topo)
            for (LinkId l : sub.links)
                isDirty = isDirty || opts.topo->linkCapacity(l) < 1.0;
        if (isDirty) {
            dirtySubsets.push_back(sub);
            for (std::size_t h : sub.members)
                inDirtySubset[h] = 1;
        }
    }

    res.subsetsTotal = subsets.size();
    res.subsetsResolved = dirtySubsets.size();
    res.subsetsCopied = subsets.size() - dirtySubsets.size();

    IntervalScheduleResult freshSched;
    if (!dirtySubsets.empty()) {
        IntervalAllocation fresh;
        {
            const std::string name =
                std::string(opts.tracePrefix) + "_allocation";
            trace::ScopedPhase phase(name.c_str(), ectx.tracer(),
                                     ectx.metricsRegistry());
            fresh = allocateMessageIntervals(
                bounds, intervals, pa, dirtySubsets,
                opts.allocMethod, opts.scheduling.guardTime,
                opts.scheduling.packetTime, opts.topo,
                opts.basisCache, opts.ctx);
        }
        if (!fresh.feasible) {
            res.failedStage =
                IncrementalSolveResult::FailedStage::Allocation;
            res.solveStatus = fresh.solveStatus;
            std::ostringstream oss;
            oss << "incremental allocation failed on subset "
                << fresh.failedSubset;
            if (!fresh.error.empty())
                oss << ": " << fresh.error;
            res.detail = oss.str();
            return res;
        }
        {
            const std::string name =
                std::string(opts.tracePrefix) + "_scheduling";
            trace::ScopedPhase phase(name.c_str(), ectx.tracer(),
                                     ectx.metricsRegistry());
            IntervalSchedulingOptions sopts = opts.scheduling;
            if (sopts.basisCache == nullptr)
                sopts.basisCache = opts.basisCache;
            if (sopts.ctx == nullptr)
                sopts.ctx = opts.ctx;
            freshSched = scheduleIntervals(bounds, intervals, pa,
                                           dirtySubsets, fresh,
                                           sopts);
        }
        if (!freshSched.feasible) {
            res.failedStage =
                IncrementalSolveResult::FailedStage::Scheduling;
            res.solveStatus = freshSched.solveStatus;
            std::ostringstream oss;
            oss << "incremental scheduling failed: interval "
                << freshSched.failedInterval << " of subset "
                << freshSched.failedSubset << " (overrun "
                << freshSched.overrun << " us)";
            if (!freshSched.error.empty())
                oss << ": " << freshSched.error;
            res.detail = oss.str();
            return res;
        }
    }

    // Splice: fresh rows for members of re-solved subsets, prior
    // rows for everything else.
    res.segments.assign(bounds.messages.size(), {});
    for (std::size_t h = 0; h < bounds.messages.size(); ++h)
        res.segments[h] = inDirtySubset[h]
                              ? freshSched.segments[h]
                              : priorSegments[h];
    res.feasible = true;
    return res;
}

} // namespace srsim
