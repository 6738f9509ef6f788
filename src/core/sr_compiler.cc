#include "core/sr_compiler.hh"

#include <cmath>
#include <sstream>

#include "engine/context.hh"
#include "metrics/metrics.hh"
#include "trace/trace.hh"
#include "util/logging.hh"

namespace srsim {

const char *
srFailureStageName(SrFailureStage s)
{
    switch (s) {
      case SrFailureStage::None: return "none";
      case SrFailureStage::InvalidInput: return "invalid-input";
      case SrFailureStage::Utilization: return "utilization";
      case SrFailureStage::Allocation: return "allocation";
      case SrFailureStage::Scheduling: return "scheduling";
      case SrFailureStage::Numerical: return "numerical";
      case SrFailureStage::Verification: return "verification";
      case SrFailureStage::Fault: return "fault";
    }
    return "unknown";
}

namespace {

/** Record a failure on `res` in both legacy and structured form. */
void
fail(SrCompileResult &res, SrFailureStage stage, std::string detail,
     lp::Status solver = lp::Status::Optimal, int subset = -1,
     int interval = -1, MessageId msg = kInvalidMessage)
{
    res.stage = stage;
    res.detail = detail;
    res.error.stage = stage;
    res.error.solverStatus = solver;
    res.error.subset = subset;
    res.error.interval = interval;
    res.error.message = msg;
    res.error.detail = std::move(detail);
}

/** Did the solver give up without a verdict? */
bool
gaveUp(lp::Status s)
{
    return s == lp::Status::NumericalFailure ||
           s == lp::Status::IterationLimit;
}

/**
 * One pass of the Fig. 3 pipeline downstream of the time bounds:
 * path assignment -> utilization gate -> subsets -> allocation ->
 * scheduling. Fills `res` (overwriting any previous attempt) and
 * returns true when a schedule came out.
 */
bool
attemptCompile(const TaskFlowGraph &g, const Topology &topo,
               const TaskAllocation &alloc,
               const SrCompilerConfig &cfg,
               const AssignPathsOptions &assign_opts,
               SrCompileResult &res)
{
    const IntervalSet &ivs = *res.intervals;
    trace::Tracer &tracer = cfg.ctx->tracer();
    metrics::Registry &reg = cfg.ctx->metricsRegistry();

    if (cfg.useAssignPaths) {
        trace::ScopedPhase phase("assign_paths", tracer, reg);
        AssignPathsResult ap = assignPaths(g, topo, alloc,
                                           res.bounds, ivs,
                                           assign_opts);
        if (!ap.ok) {
            // On a degraded fabric, "no path" means faults
            // disconnected the endpoints — a Fault failure, not a
            // malformed problem.
            fail(res,
                 topo.degraded() ? SrFailureStage::Fault
                                 : SrFailureStage::InvalidInput,
                 ap.error, lp::Status::Optimal, -1, -1,
                 ap.failedMessage);
            return false;
        }
        res.paths = std::move(ap.assignment);
        res.utilization = ap.report;
        res.assignRestarts = ap.restarts;
        res.assignReroutes = ap.reroutes;
    } else {
        trace::ScopedPhase phase("lsd_to_msd", tracer, reg);
        res.paths = lsdToMsdAssignment(g, topo, alloc, res.bounds);
        for (std::size_t i = 0; i < res.paths.paths.size(); ++i) {
            if (res.paths.paths[i].empty()) {
                fail(res, SrFailureStage::Fault,
                     "faults disconnected the LSD-to-MSD route of "
                     "message index " + std::to_string(i),
                     lp::Status::Optimal, -1, -1,
                     res.bounds.messages[i].msg);
                return false;
            }
        }
        UtilizationAnalyzer ua(res.bounds, ivs, topo);
        res.utilization = ua.analyze(res.paths);
    }

    // Gate: U <= 1 is necessary for any feasible Omega.
    if (res.utilization.peak > 1.0 + 1e-9) {
        std::ostringstream oss;
        oss << "peak utilization " << res.utilization.peak
            << " exceeds link capacity";
        fail(res, SrFailureStage::Utilization, oss.str());
        return false;
    }

    // Sec. 5.2: maximal subsets, then message-interval allocation.
    const auto subsets = [&] {
        trace::ScopedPhase phase("subsets", tracer, reg);
        return computeMaximalSubsets(res.bounds, ivs, res.paths);
    }();
    res.numSubsets = subsets.size();

    {
        trace::ScopedPhase phase("interval_allocation", tracer, reg);
        res.allocation = allocateMessageIntervals(
            res.bounds, ivs, res.paths, subsets, cfg.allocMethod,
            cfg.scheduling.guardTime, cfg.scheduling.packetTime,
            &topo, nullptr, cfg.ctx);
    }
    if (!res.allocation.feasible) {
        std::ostringstream oss;
        oss << "message-interval allocation failed on subset "
            << res.allocation.failedSubset;
        if (!res.allocation.error.empty())
            oss << ": " << res.allocation.error;
        fail(res,
             gaveUp(res.allocation.solveStatus)
                 ? SrFailureStage::Numerical
                 : SrFailureStage::Allocation,
             oss.str(), res.allocation.solveStatus,
             res.allocation.failedSubset);
        return false;
    }

    // Sec. 5.3: interval scheduling.
    {
        trace::ScopedPhase phase("interval_scheduling", tracer, reg);
        res.schedule = scheduleIntervals(res.bounds, ivs, res.paths,
                                         subsets, res.allocation,
                                         cfg.scheduling);
    }
    if (!res.schedule.feasible) {
        std::ostringstream oss;
        oss << "interval " << res.schedule.failedInterval
            << " of subset " << res.schedule.failedSubset
            << " unschedulable (overrun "
            << res.schedule.overrun << " us)";
        if (!res.schedule.error.empty())
            oss << ": " << res.schedule.error;
        fail(res,
             gaveUp(res.schedule.solveStatus)
                 ? SrFailureStage::Numerical
                 : SrFailureStage::Scheduling,
             oss.str(), res.schedule.solveStatus,
             res.schedule.failedSubset,
             res.schedule.failedInterval,
             res.schedule.failedMessage);
        return false;
    }

    res.stage = SrFailureStage::None;
    res.detail.clear();
    res.error = CompileError{};
    return true;
}

} // namespace

SrCompileResult
compileScheduledRouting(const TaskFlowGraph &g, const Topology &topo,
                        const TaskAllocation &alloc,
                        const TimingModel &tm,
                        const SrCompilerConfig &cfg)
{
    SrCompileResult res;
    const engine::EngineContext &ectx =
        engine::require(cfg.ctx, "compileScheduledRouting");
    trace::Tracer &tracer = ectx.tracer();
    metrics::Registry &mreg = ectx.metricsRegistry();

    // Input validation up front: a compile must degrade into a
    // structured InvalidInput result, never abort the process, no
    // matter what problem the caller hands it.
    if (tm.apSpeed <= 0.0 || tm.bandwidth <= 0.0) {
        fail(res, SrFailureStage::InvalidInput,
             "timing model needs positive apSpeed and bandwidth");
        return res;
    }
    if (cfg.inputPeriod <= 0.0) {
        fail(res, SrFailureStage::InvalidInput,
             "input period must be positive");
        return res;
    }
    if (alloc.numTasks() != g.numTasks() || !alloc.complete()) {
        fail(res, SrFailureStage::InvalidInput,
             "task allocation is incomplete or sized for a "
             "different TFG");
        return res;
    }
    for (TaskId t = 0; t < g.numTasks(); ++t) {
        const NodeId n = alloc.nodeOf(t);
        if (n < 0 || n >= topo.numNodes()) {
            std::ostringstream oss;
            oss << "task " << t << " allocated to node " << n
                << " outside the " << topo.numNodes()
                << "-node fabric";
            fail(res, SrFailureStage::InvalidInput, oss.str());
            return res;
        }
    }
    const Time tau_c = tm.tauC(g);
    if (timeLt(cfg.inputPeriod, tau_c)) {
        std::ostringstream oss;
        oss << "input period " << cfg.inputPeriod
            << " is below tau_c " << tau_c
            << "; the pipeline cannot keep up";
        fail(res, SrFailureStage::InvalidInput, oss.str());
        return res;
    }
    // Sec. 4: message time bounds in the folded frame. The bounds
    // computation rejects messages whose transfer time cannot fit
    // their tau_c window (the tau_m <= tau_c premise); surface that
    // as a structured InvalidInput instead of aborting.
    try {
        trace::ScopedPhase phase("time_bounds", tracer, mreg);
        res.bounds = computeTimeBounds(g, alloc, tm, cfg.inputPeriod);
    } catch (const FatalError &e) {
        fail(res, SrFailureStage::InvalidInput, e.what());
        return res;
    }

    // Degenerate but legal: everything co-located.
    if (res.bounds.messages.empty()) {
        res.feasible = true;
        res.omega.period = cfg.inputPeriod;
        return res;
    }

    // Sec. 4.1 packet time base: derive the slot quantum from the
    // timing model when the caller did not set one explicitly, and
    // insist that message times are whole packets (set
    // TimingModel::packetBytes and the rounding is automatic).
    SrCompilerConfig eff = cfg;
    // Thread the compile's context into the downstream stage
    // options unless the caller pinned their own.
    if (eff.scheduling.ctx == nullptr)
        eff.scheduling.ctx = cfg.ctx;
    if (eff.assign.ctx == nullptr)
        eff.assign.ctx = cfg.ctx;
    if (eff.scheduling.packetTime <= 0.0 && tm.packetBytes > 0.0)
        eff.scheduling.packetTime = tm.packetTime();
    if (eff.scheduling.packetTime > 0.0) {
        for (const MessageBounds &b : res.bounds.messages) {
            const double q = b.duration / eff.scheduling.packetTime;
            if (std::abs(q - std::round(q)) > 1e-6) {
                std::ostringstream oss;
                oss << "message duration " << b.duration
                    << " us is not a whole number of packets; set "
                       "TimingModel::packetBytes to round message "
                       "times to the packet grid";
                fail(res, SrFailureStage::InvalidInput, oss.str(),
                     lp::Status::Optimal, -1, -1, b.msg);
                return res;
            }
        }
    }

    // Sec. 5.1: interval decomposition and activity matrix.
    {
        trace::ScopedPhase phase("intervals", tracer, mreg);
        res.intervals.emplace(res.bounds);
    }

    // The Fig. 3 pipeline, with optional feedback: a failed
    // allocation or scheduling (or utilization gate) retries with
    // a re-seeded path assignment, moving the walk to a different
    // region of the path space.
    bool ok = false;
    for (int round = 0; round <= cfg.feedbackRounds; ++round) {
        AssignPathsOptions opts = eff.assign;
        opts.seed = cfg.assign.seed +
                    static_cast<std::uint64_t>(round) * 7919;
        ok = attemptCompile(g, topo, alloc, eff, opts, res);
        res.feedbackRoundsUsed = round;
        if (ok)
            break;
        // LSD-to-MSD paths are deterministic: feedback cannot
        // change anything, so do not loop.
        if (!cfg.useAssignPaths)
            break;
    }
    if (SRSIM_METRICS_ENABLED()) {
        mreg.counter("sr.compiles").add();
        mreg.counter("sr.assign_restarts")
            .add(static_cast<std::uint64_t>(res.assignRestarts));
        mreg.counter("sr.assign_reroutes")
            .add(static_cast<std::uint64_t>(res.assignReroutes));
        mreg.counter("sr.feedback_rounds")
            .add(static_cast<std::uint64_t>(res.feedbackRoundsUsed));
    }
    if (!ok) {
        if (SRSIM_METRICS_ENABLED())
            mreg.counter(std::string("sr.failures.") +
                         srFailureStageName(res.stage))
                .add();
        return res;
    }

    // Sec. 5.4: assemble Omega.
    res.omega.period = cfg.inputPeriod;
    res.omega.segments = res.schedule.segments;
    res.omega.paths = res.paths;

    if (cfg.verify) {
        trace::ScopedPhase phase("verify", tracer, mreg);
        res.verification = verifySchedule(g, topo, alloc, res.bounds,
                                          res.omega);
        if (!res.verification.ok) {
            fail(res, SrFailureStage::Verification,
                 res.verification.violations.empty()
                     ? "verifier rejected schedule"
                     : res.verification.violations.front());
            if (SRSIM_METRICS_ENABLED())
                mreg.counter("sr.failures.verification").add();
            return res;
        }
    }

    res.feasible = true;
    return res;
}

} // namespace srsim
