#include "fuzz/churn.hh"

#include <cmath>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include "core/sr_executor.hh"
#include "core/verifier.hh"
#include "cpsim/cp_simulator.hh"
#include "fault/fault.hh"
#include "online/script.hh"
#include "online/service.hh"
#include "topology/factory.hh"
#include "util/logging.hh"

namespace srsim {
namespace fuzz {

namespace {

RunResult
failure(std::string why)
{
    RunResult r;
    r.verdict = Verdict::Failure;
    r.report = std::move(why);
    return r;
}

RunResult
invalidCase(std::string why)
{
    RunResult r;
    r.verdict = Verdict::InvalidCase;
    r.report = std::move(why);
    return r;
}

/** The churn mirror: the workload the service *should* be serving. */
struct MirrorMsg
{
    std::string name, src, dst;
    double bytes;
};

TaskFlowGraph
buildMirror(const TaskFlowGraph &base,
            const std::vector<MirrorMsg> &msgs)
{
    TaskFlowGraph g;
    for (const Task &t : base.tasks())
        g.addTask(t.name, t.operations);
    const auto idOf = [&](const std::string &name) {
        for (TaskId t = 0; t < g.numTasks(); ++t)
            if (g.task(t).name == name)
                return t;
        return kInvalidTask;
    };
    for (const MirrorMsg &m : msgs)
        g.addMessage(m.name, idOf(m.src), idOf(m.dst), m.bytes);
    return g;
}

/** The throwing core of runChurnCase(). */
RunResult
runChurnInner(const FuzzCase &c, const engine::EngineContext &ctx,
              const RunOptions &opts)
{
    auto topo = makeTopology(c.topoSpec);

    if (!c.faultSpec.empty()) {
        try {
            const fault::FaultSpec fs =
                fault::parseFaultSpec(c.faultSpec);
            for (const fault::FaultEvent &ev : fs.events)
                if (ev.timed())
                    return invalidCase(
                        "timed fault events are outside the "
                        "differential domain");
            fault::applyFaultSpec(c.faultSpec, *topo);
        } catch (const FatalError &e) {
            return invalidCase(
                std::string("fault spec rejected: ") + e.what());
        }
    }

    const TaskAllocation alloc = c.makeAllocation(*topo);
    const SrCompilerConfig cfg = c.makeConfig(ctx);

    // Same domain restriction as the batch runner: the final
    // cpsim/analytic cross-execution needs the dedicated-AP premise.
    for (TaskId a = 0; a < c.g.numTasks(); ++a)
        for (TaskId b = a + 1; b < c.g.numTasks(); ++b)
            if (alloc.nodeOf(a) == alloc.nodeOf(b))
                return invalidCase(
                    "case co-locates tasks '" + c.g.task(a).name +
                    "' and '" + c.g.task(b).name +
                    "'; outside the dedicated-AP differential "
                    "domain");

    // From-scratch oracle: compile the workload on a fresh,
    // identically degraded fabric. 1 = feasible, 0 = infeasible,
    // -1 = invalid input.
    const auto oracle = [&](const TaskFlowGraph &g2) {
        const auto t2 = makeTopology(c.topoSpec);
        if (!c.faultSpec.empty())
            fault::applyFaultSpec(c.faultSpec, *t2);
        const SrCompileResult r =
            compileScheduledRouting(g2, *t2, alloc, c.tm, cfg);
        if (r.feasible)
            return 1;
        return r.stage == SrFailureStage::InvalidInput ? -1 : 0;
    };

    online::OnlineSchedulerConfig scfg;
    scfg.compiler = cfg;
    // Stretch probing multiplies rejection cost by the factor list
    // and its classification detail is not under differential test.
    scfg.probeStretch = false;
    online::OnlineScheduler svc(c.g, std::move(topo), alloc, c.tm,
                                scfg);

    // Independent certification of the current published schedule.
    const auto certify = [&](const std::string &when) {
        const auto pub = svc.published();
        const VerifyResult v =
            verifySchedule(pub->g, svc.topology(), alloc,
                           pub->bounds, pub->omega);
        if (!v.ok)
            return "verifier rejected the published schedule " +
                   when + ": " +
                   (v.violations.empty() ? std::string("?")
                                         : v.violations.front());
        return std::string();
    };

    const online::RequestResult st = svc.start();
    if (!st.accepted) {
        if (oracle(c.g) == 1)
            return failure(
                std::string("service rejected the initial "
                            "workload (") +
                online::rejectReasonName(st.reason) + ": " +
                st.detail +
                ") but a from-scratch compile is feasible");
        RunResult out;
        out.verdict = st.reason ==
                              online::RejectReason::InvalidRequest
                          ? Verdict::InvalidCase
                          : Verdict::Infeasible;
        out.report = st.detail;
        return out;
    }
    if (std::string err = certify("after start()"); !err.empty())
        return failure(std::move(err));

    std::vector<MirrorMsg> msgs;
    for (const Message &m : c.g.messages())
        msgs.push_back({m.name, c.g.task(m.src).name,
                        c.g.task(m.dst).name, m.bytes});

    for (const std::string &op : c.churnOps) {
        const online::ScriptParseResult pr =
            online::parseRequestLine(op);
        if (!pr.ok || pr.requests.size() != 1)
            return invalidCase("malformed churn op '" + op +
                               "': " + pr.error);
        const online::Request &r = pr.requests[0];
        if (r.kind != online::RequestKind::AdmitMessage &&
            r.kind != online::RequestKind::RemoveMessage)
            return invalidCase(
                "churn ops are admit/remove only, got '" + op +
                "'");

        // The mirror after this op, had it been accepted.
        std::vector<MirrorMsg> msgs2 = msgs;
        if (r.kind == online::RequestKind::AdmitMessage) {
            for (const online::AdmitSpec &s : r.admits)
                msgs2.push_back({s.name, s.src, s.dst, s.bytes});
        } else {
            for (auto it = msgs2.begin(); it != msgs2.end(); ++it)
                if (it->name == r.name) {
                    msgs2.erase(it);
                    break;
                }
        }

        const online::RequestResult res = svc.process(r);
        if (res.accepted) {
            msgs = std::move(msgs2);
            if (std::string err = certify("after '" + op + "'");
                !err.empty())
                return failure(std::move(err));
            const auto pub = svc.published();
            if (pub->bounds.messages.size() !=
                [&] {
                    std::size_t n = 0;
                    const TaskFlowGraph g2 =
                        buildMirror(c.g, msgs);
                    for (const Message &m : g2.messages())
                        n += alloc.nodeOf(m.src) !=
                             alloc.nodeOf(m.dst);
                    return n;
                }())
                return failure(
                    "published workload diverged from the "
                    "request mirror after '" +
                    op + "'");
        } else if (res.reason !=
                   online::RejectReason::InvalidRequest) {
            // A structured infeasibility claim: the from-scratch
            // compiler must agree there is no schedule.
            if (oracle(buildMirror(c.g, msgs2)) == 1)
                return failure(
                    std::string("service rejected '") + op +
                    "' (" + online::rejectReasonName(res.reason) +
                    ": " + res.detail +
                    ") but a from-scratch compile is feasible");
        }
        // InvalidRequest rejections (unknown task, duplicate or
        // missing name, cyclic admit) are request validation, not
        // schedulability; there is nothing to cross-check.
    }

    // Final differential: the surviving published schedule must
    // execute. Both engines replay it and must agree.
    const auto pub = svc.published();
    if (!pub->bounds.messages.empty()) {
        CpSimConfig sim_cfg;
        sim_cfg.invocations = opts.invocations;
        sim_cfg.warmup = opts.warmup;
        sim_cfg.ctx = &ctx;
        const CpSimResult dyn =
            simulateCps(pub->g, svc.topology(), alloc, c.tm,
                        pub->bounds, pub->omega, sim_cfg);
        if (!dyn.ok())
            return failure(
                "cpsim violation on the final published "
                "schedule: " +
                dyn.violations.front());
        const SrExecutionResult ana =
            executeSchedule(pub->g, alloc, c.tm, pub->bounds,
                            pub->omega, opts.invocations, ctx);
        if (ana.premiseViolated)
            return failure(
                "analytic executor premise violated on the final "
                "published schedule: " +
                (ana.notes.empty() ? std::string("?")
                                   : ana.notes.front()));
        if (!ana.consistent(opts.warmup))
            return failure(
                "analytic executor output interval is not "
                "constant on the final published schedule");
        if (dyn.completions.size() != ana.completions.size())
            return failure(
                "cpsim and analytic executor replayed a "
                "different number of invocations");
        for (std::size_t j = 0; j < dyn.completions.size(); ++j)
            if (std::abs(dyn.completions[j] -
                         ana.completions[j]) > opts.agreementEps) {
                std::ostringstream oss;
                oss << "completion divergence at invocation " << j
                    << " on the final published schedule: cpsim "
                    << dyn.completions[j] << " vs analytic "
                    << ana.completions[j];
                return failure(oss.str());
            }
    }

    RunResult out;
    out.verdict = Verdict::Feasible;
    return out;
}

} // namespace

RunResult
runChurnCase(const FuzzCase &c, const engine::EngineContext &ctx,
             const RunOptions &opts)
{
    // Same core contract as runCase(): nothing a case contains may
    // escape as an exception.
    try {
        return runChurnInner(c, ctx, opts);
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
