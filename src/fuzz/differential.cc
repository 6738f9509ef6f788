#include "fuzz/differential.hh"

#include <cmath>
#include <exception>
#include <sstream>

#include "core/sr_executor.hh"
#include "core/verifier.hh"
#include "cpsim/cp_simulator.hh"
#include "fault/fault.hh"
#include "fuzz/churn.hh"
#include "fuzz/multi.hh"
#include "topology/factory.hh"
#include "util/logging.hh"

namespace srsim {
namespace fuzz {

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::Feasible: return "feasible";
      case Verdict::Infeasible: return "infeasible";
      case Verdict::InvalidCase: return "invalid-case";
      case Verdict::Failure: return "FAILURE";
    }
    return "unknown";
}

namespace {

RunResult
failure(std::string why)
{
    RunResult r;
    r.verdict = Verdict::Failure;
    r.report = std::move(why);
    return r;
}

/** The throwing core of runCase(). */
RunResult
runCaseInner(const FuzzCase &c, const engine::EngineContext &ctx,
             const RunOptions &opts)
{
    const auto topo = makeTopology(c.topoSpec);

    // Static faults degrade the fabric before compilation; all
    // three oracles then judge the degraded fabric. A spec the
    // fault layer rejects (or one with timed events, which need a
    // mid-run simulation story, not a static compile) is outside
    // the differential domain, not a harness failure.
    if (!c.faultSpec.empty()) {
        try {
            const fault::FaultSpec fs =
                fault::parseFaultSpec(c.faultSpec);
            for (const fault::FaultEvent &ev : fs.events)
                if (ev.timed()) {
                    RunResult out;
                    out.verdict = Verdict::InvalidCase;
                    out.report = "timed fault events are outside "
                                 "the differential domain";
                    return out;
                }
            fault::applyFaultSpec(c.faultSpec, *topo);
        } catch (const FatalError &e) {
            RunResult out;
            out.verdict = Verdict::InvalidCase;
            out.report =
                std::string("fault spec rejected: ") + e.what();
            return out;
        }
    }

    const TaskAllocation alloc = c.makeAllocation(*topo);
    const SrCompilerConfig cfg = c.makeConfig(ctx);

    // The differential domain requires the dedicated-AP premise: a
    // case that co-locates two tasks is legal input to the compiler
    // but outside what the analytic executor models (cpsim would
    // serialize the tasks through the shared AP, the executor
    // flags it), so it cannot be cross-checked.
    for (TaskId a = 0; a < c.g.numTasks(); ++a)
        for (TaskId b = a + 1; b < c.g.numTasks(); ++b)
            if (alloc.nodeOf(a) == alloc.nodeOf(b)) {
                RunResult out;
                out.verdict = Verdict::InvalidCase;
                out.report = "case co-locates tasks '" +
                             c.g.task(a).name + "' and '" +
                             c.g.task(b).name +
                             "'; outside the dedicated-AP "
                             "differential domain";
                return out;
            }

    const SrCompileResult r =
        compileScheduledRouting(c.g, *topo, alloc, c.tm, cfg);

    if (!r.feasible) {
        // An infeasible compile must explain itself: a stage, a
        // human-readable detail, and a structured error that agrees
        // with the legacy fields.
        if (r.stage == SrFailureStage::None)
            return failure("infeasible compile reports stage None");
        if (r.detail.empty())
            return failure("infeasible compile has empty detail");
        if (r.error.stage != r.stage)
            return failure(
                std::string("CompileError stage '") +
                srFailureStageName(r.error.stage) +
                "' disagrees with result stage '" +
                srFailureStageName(r.stage) + "'");
        RunResult out;
        out.verdict = r.stage == SrFailureStage::InvalidInput
                          ? Verdict::InvalidCase
                          : Verdict::Infeasible;
        out.stage = r.stage;
        return out;
    }

    // Oracle 1: the static verifier.
    const VerifyResult v =
        verifySchedule(c.g, *topo, alloc, r.bounds, r.omega);
    if (!v.ok)
        return failure(
            "verifier rejected a compiled schedule: " +
            (v.violations.empty() ? std::string("?")
                                  : v.violations.front()));

    // Oracle 2: the CP-level discrete-event simulation.
    CpSimConfig sim_cfg;
    sim_cfg.invocations = opts.invocations;
    sim_cfg.warmup = opts.warmup;
    sim_cfg.ctx = &ctx;
    const CpSimResult dyn = simulateCps(c.g, *topo, alloc, c.tm,
                                        r.bounds, r.omega, sim_cfg);
    if (!dyn.ok())
        return failure("cpsim violation on a verified schedule: " +
                       dyn.violations.front());

    // Oracle 3: the analytic executor.
    const SrExecutionResult ana = executeSchedule(
        c.g, alloc, c.tm, r.bounds, r.omega, opts.invocations, ctx);
    if (ana.premiseViolated)
        return failure(
            "analytic executor premise violated: " +
            (ana.notes.empty() ? std::string("?")
                               : ana.notes.front()));
    if (!ana.consistent(opts.warmup))
        return failure("analytic executor output interval is not "
                       "constant at the input period");

    // Differential: both executions must see the same completions.
    if (dyn.completions.size() != ana.completions.size())
        return failure("cpsim and analytic executor replayed a "
                       "different number of invocations");
    for (std::size_t j = 0; j < dyn.completions.size(); ++j) {
        if (std::abs(dyn.completions[j] - ana.completions[j]) >
            opts.agreementEps) {
            std::ostringstream oss;
            oss << "completion divergence at invocation " << j
                << ": cpsim " << dyn.completions[j]
                << " vs analytic " << ana.completions[j];
            return failure(oss.str());
        }
    }

    RunResult out;
    out.verdict = Verdict::Feasible;
    return out;
}

} // namespace

RunResult
runCase(const FuzzCase &c, const engine::EngineContext &ctx,
        const RunOptions &opts)
{
    // Multi-session cases exercise the scheduling daemon and its
    // crash-recovery oracle (fuzz/multi.hh).
    if (c.numSessions > 0 || !c.multiOps.empty())
        return runMultiCase(c, ctx, opts);
    // Churny cases exercise the online service against the
    // from-scratch oracle instead of the batch three-oracle run.
    if (!c.churnOps.empty())
        return runChurnCase(c, ctx, opts);
    // The harness's core contract: *nothing* a case contains may
    // escape as an exception — a throw is itself the bug being
    // hunted (the compiler must return structured errors).
    try {
        return runCaseInner(c, ctx, opts);
    } catch (const PanicError &e) {
        return failure(std::string("panic: ") + e.what());
    } catch (const FatalError &e) {
        return failure(std::string("fatal: ") + e.what());
    } catch (const std::exception &e) {
        return failure(std::string("exception: ") + e.what());
    }
}

} // namespace fuzz
} // namespace srsim
