#include "online/service.hh"

#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/incremental.hh"
#include "core/subsets.hh"
#include "engine/context.hh"
#include "solver/revised.hh"
#include "core/verifier.hh"
#include "fault/fault.hh"
#include "metrics/metrics.hh"
#include "trace/trace.hh"
#include "util/logging.hh"

namespace srsim {
namespace online {

const char *
requestKindName(RequestKind k)
{
    switch (k) {
      case RequestKind::AdmitMessage: return "admit";
      case RequestKind::RemoveMessage: return "remove";
      case RequestKind::UpdatePeriod: return "period";
      case RequestKind::InjectFault: return "fault";
    }
    return "unknown";
}

const char *
rejectReasonName(RejectReason r)
{
    switch (r) {
      case RejectReason::None: return "none";
      case RejectReason::InvalidRequest: return "invalid-request";
      case RejectReason::NoRoute: return "no-route";
      case RejectReason::UtilizationCeiling:
          return "utilization-ceiling";
      case RejectReason::InfeasibleSubset:
          return "infeasible-subset";
      case RejectReason::PeriodStretchRequired:
          return "period-stretch-required";
      case RejectReason::VerificationFailed:
          return "verification-failed";
    }
    return "unknown";
}

namespace {

void
bump(metrics::Registry &reg, const char *name,
     std::uint64_t n = 1)
{
    if (SRSIM_METRICS_ENABLED())
        reg.counter(name).add(n);
}

Time
effectivePacketTime(const SrCompilerConfig &cfg,
                    const TimingModel &tm)
{
    if (cfg.scheduling.packetTime > 0.0)
        return cfg.scheduling.packetTime;
    return tm.packetBytes > 0.0 ? tm.packetTime() : 0.0;
}

bool
crossesDerated(const Topology &topo, const Path &p)
{
    for (LinkId l : p.links)
        if (topo.linkCapacity(l) < 1.0)
            return true;
    return false;
}

/**
 * Exact equality: the bounds computation is a deterministic
 * function of (TFG, allocation, timing, period), so a surviving
 * message whose inputs did not change reproduces bit-identical
 * bounds; any drift means its windows moved and its subsets must
 * be re-solved.
 */
bool
boundsEqual(const MessageBounds &a, const MessageBounds &b)
{
    if (a.duration != b.duration || a.release != b.release ||
        a.deadline != b.deadline ||
        a.absoluteRelease != b.absoluteRelease)
        return false;
    if (a.windows.size() != b.windows.size())
        return false;
    for (std::size_t i = 0; i < a.windows.size(); ++i)
        if (a.windows[i].start != b.windows[i].start ||
            a.windows[i].end != b.windows[i].end)
            return false;
    return true;
}

TaskId
findTask(const TaskFlowGraph &g, const std::string &name)
{
    for (const Task &t : g.tasks())
        if (t.name == name)
            return t.id;
    return kInvalidTask;
}

bool
hasMessage(const TaskFlowGraph &g, const std::string &name)
{
    for (const Message &m : g.messages())
        if (m.name == name)
            return true;
    return false;
}

} // namespace

struct OnlineScheduler::SolveOutcome
{
    bool ok = false;
    RequestResult res;
    std::shared_ptr<PublishedState> next;
};

OnlineScheduler::OnlineScheduler(TaskFlowGraph g,
                                 std::unique_ptr<Topology> topo,
                                 TaskAllocation alloc,
                                 TimingModel tm,
                                 OnlineSchedulerConfig cfg)
    : g_(std::move(g)),
      topo_(std::move(topo)),
      alloc_(std::move(alloc)),
      tm_(tm),
      cfg_(std::move(cfg)),
      ctx_(engine::require(cfg_.compiler.ctx, "OnlineScheduler")),
      cache_(cfg_.sharedCache
                 ? cfg_.sharedCache
                 : std::make_shared<ScheduleCache>(
                       cfg_.cacheCapacity == 0
                           ? 1
                           : cfg_.cacheCapacity,
                       &ctx_.metricsRegistry())),
      basisCache_(std::make_shared<lp::BasisCache>(
          &ctx_.metricsRegistry()))
{
}

std::shared_ptr<const PublishedState>
OnlineScheduler::published() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
}

void
OnlineScheduler::publish(std::shared_ptr<PublishedState> next,
                         Time period)
{
    next->version = ++version_;
    g_ = next->g;
    cfg_.compiler.inputPeriod = period;
    std::lock_guard<std::mutex> lock(mu_);
    state_ = std::move(next);
}

RequestResult
OnlineScheduler::finish(RequestResult res, const char *what,
                        double startUs, bool admission)
{
    const double endUs = trace::Tracer::nowWallUs();
    res.latencyMs = (endUs - startUs) / 1000.0;
    metrics::Registry &reg = ctx_.metricsRegistry();
    bump(reg, "online.requests");
    if (res.accepted) {
        bump(reg, "online.subsets_resolved",
             static_cast<std::uint64_t>(res.subsetsResolved));
        bump(reg, "online.subsets_copied",
             static_cast<std::uint64_t>(res.subsetsCopied));
        if (res.usedCache)
            bump(reg, "online.cache_served");
        if (res.usedIncremental)
            bump(reg, "online.incremental");
    } else {
        bump(reg, "online.rejected");
    }
    if (admission && SRSIM_METRICS_ENABLED())
        reg.histogram("online.admit_latency_us",
                      metrics::Histogram::timeBucketsUs())
            .add(endUs - startUs);
    if (SRSIM_TRACE_ENABLED()) {
        std::ostringstream oss;
        oss << what << " -> "
            << (res.accepted ? "accepted"
                             : rejectReasonName(res.reason));
        if (!res.accepted && !res.detail.empty())
            oss << ": " << res.detail;
        trace::onlineRequest(ctx_.tracer(), oss.str(), endUs);
    }
    return res;
}

Time
OnlineScheduler::probeStretchedPeriods(const TaskFlowGraph &g2,
                                       Time period)
{
    trace::ScopedPhase phase("online_stretch_probe", ctx_.tracer(),
                             ctx_.metricsRegistry());
    for (double f : cfg_.stretchFactors) {
        SrCompilerConfig ccfg = cfg_.compiler;
        ccfg.inputPeriod = period * f;
        ccfg.verify = true;
        const SrCompileResult attempt = compileScheduledRouting(
            g2, *topo_, alloc_, tm_, ccfg);
        if (attempt.feasible)
            return ccfg.inputPeriod;
    }
    return 0.0;
}

void
OnlineScheduler::classifyRejection(const SrCompileResult &compile,
                                   const TaskFlowGraph &g2,
                                   Time period, RequestResult &res)
{
    switch (compile.stage) {
      case SrFailureStage::InvalidInput:
          res.reason = RejectReason::InvalidRequest;
          break;
      case SrFailureStage::Fault:
          res.reason = RejectReason::NoRoute;
          break;
      case SrFailureStage::Utilization:
          res.reason = RejectReason::UtilizationCeiling;
          break;
      case SrFailureStage::Verification:
          res.reason = RejectReason::VerificationFailed;
          break;
      default:
          res.reason = RejectReason::InfeasibleSubset;
          break;
    }
    res.detail = compile.detail;

    // An infeasible workload is often schedulable at a longer
    // period; probing turns a bare "no" into "yes at period p".
    if (cfg_.probeStretch &&
        (res.reason == RejectReason::UtilizationCeiling ||
         res.reason == RejectReason::InfeasibleSubset)) {
        const Time p = probeStretchedPeriods(g2, period);
        if (p > 0.0) {
            res.reason = RejectReason::PeriodStretchRequired;
            res.requiredPeriod = p;
            std::ostringstream oss;
            oss << res.detail << "; feasible at period " << p
                << " us";
            res.detail = oss.str();
        }
    }
}

OnlineScheduler::SolveOutcome
OnlineScheduler::solveWorkload(const TaskFlowGraph &g2, Time period,
                               bool allowIncremental)
{
    SolveOutcome out;
    RequestResult &res = out.res;
    res.period = period;
    metrics::Registry &reg = ctx_.metricsRegistry();

    // Time bounds and the interval decomposition are route-free
    // (Sec. 4 / Sec. 5.1): recomputing them for the new workload is
    // cheap and exact.
    TimeBounds bounds2;
    try {
        bounds2 = computeTimeBounds(g2, alloc_, tm_, period);
    } catch (const FatalError &e) {
        res.reason = RejectReason::InvalidRequest;
        res.detail = e.what();
        return out;
    }

    SrCompilerConfig ccfg = cfg_.compiler;
    ccfg.inputPeriod = period;
    ccfg.verify = true;

    // Mirror the batch compiler's packet-grid gate so the
    // incremental path can never accept a problem the compiler
    // would reject as InvalidInput.
    const Time ptime = effectivePacketTime(ccfg, tm_);
    if (ptime > 0.0) {
        for (const MessageBounds &b : bounds2.messages) {
            const double q = b.duration / ptime;
            if (std::abs(q - std::round(q)) > 1e-6) {
                std::ostringstream oss;
                oss << "message duration " << b.duration
                    << " us is not a whole number of packets";
                res.reason = RejectReason::InvalidRequest;
                res.detail = oss.str();
                return out;
            }
        }
    }

    // Degenerate: all messages local, nothing to schedule.
    if (bounds2.messages.empty()) {
        auto next = std::make_shared<PublishedState>();
        next->g = g2;
        next->bounds = std::move(bounds2);
        next->omega.period = period;
        next->omega.faultSpec = faultSpecAccum_;
        next->verification.ok = true;
        out.ok = true;
        out.next = std::move(next);
        return out;
    }

    // Content-addressed cache: churny workloads revisit earlier
    // states (admit X, remove X, admit X again); a revisit is a
    // lookup, not a re-solve. Entries are only ever inserted after
    // verification, so a hit republishes a certified schedule.
    std::string key;
    if (cfg_.cacheCapacity > 0) {
        key = canonicalWorkloadKey(g2, *topo_, alloc_, tm_, ccfg);
        if (const auto e = cache_->lookup(key)) {
            bump(reg, "online.cache_hits");
            auto next = std::make_shared<PublishedState>();
            next->g = g2;
            next->bounds = std::move(bounds2);
            next->intervals.emplace(next->bounds);
            next->omega = e->omega;
            // Stamp this session's own provenance: on a shared
            // cache the entry may have been compiled by a session
            // whose fault-spec *string* (or stretch history)
            // differs even though the canonical key — and hence the
            // schedule — is identical. Republishing must serialize
            // exactly what a no-cache solve would have.
            next->omega.faultSpec = faultSpecAccum_;
            if (const auto prior = published())
                next->omega.degradedFrom =
                    prior->omega.degradedFrom;
            next->verification.ok = true;
            next->numSubsets = e->numSubsets;
            next->peakUtilization = e->peakUtilization;
            res.usedCache = true;
            res.subsetsTotal = e->numSubsets;
            res.subsetsCopied = e->numSubsets;
            res.peakUtilization = e->peakUtilization;
            out.ok = true;
            out.next = std::move(next);
            return out;
        }
        bump(reg, "online.cache_misses");
    }

    // Incremental path: keep every surviving message's route and
    // segments, route only the new (or fault-dirtied) messages,
    // re-solve only the maximal related subsets they touch.
    const std::shared_ptr<const PublishedState> prior = published();
    if (allowIncremental && prior &&
        period == prior->omega.period) {
        trace::ScopedPhase phase("online_incremental",
                                 ctx_.tracer(),
                                 ctx_.metricsRegistry());
        IntervalSet ivs2(bounds2);

        std::unordered_map<std::string, std::size_t> oldIdx;
        for (std::size_t j = 0; j < prior->bounds.messages.size();
             ++j)
            oldIdx[prior->g
                       .message(prior->bounds.messages[j].msg)
                       .name] = j;

        const std::size_t n2 = bounds2.messages.size();
        PathAssignment pa2;
        pa2.paths.resize(n2);
        std::vector<char> dirty(n2, 0);
        std::vector<std::vector<TimeWindow>> priorSegs(n2);
        std::vector<std::size_t> routeIdx;
        for (std::size_t i = 0; i < n2; ++i) {
            const MessageBounds &nb = bounds2.messages[i];
            const auto it =
                oldIdx.find(g2.message(nb.msg).name);
            if (it == oldIdx.end()) {
                // Brand new: needs a route and a fresh solve.
                dirty[i] = 1;
                routeIdx.push_back(i);
                continue;
            }
            const std::size_t j = it->second;
            pa2.paths[i] = prior->omega.paths.pathFor(j);
            priorSegs[i] = prior->omega.segments[j];
            if (!topo_->pathAlive(pa2.paths[i]) ||
                crossesDerated(*topo_, pa2.paths[i])) {
                // Route crosses a failed/derated resource:
                // reroute it like fault repair would.
                dirty[i] = 1;
                routeIdx.push_back(i);
            } else if (!boundsEqual(
                           nb, prior->bounds.messages[j])) {
                // Same route, moved windows: subsets re-solve.
                dirty[i] = 1;
            }
        }

        bool incrementalViable = true;
        if (!routeIdx.empty()) {
            const GreedyRouteResult gr = greedyRouteMessages(
                g2, *topo_, alloc_, bounds2, ivs2, routeIdx,
                ccfg.assign.maxPathsPerMessage, pa2);
            // On failure (disconnected endpoints, or greedy routes
            // bust the utilization ceiling where a global re-route
            // might not) fall back to the full compiler so the
            // accept/reject verdict matches a from-scratch compile.
            if (!gr.ok || gr.report.peak > 1.0 + 1e-9)
                incrementalViable = false;
        }

        if (incrementalViable) {
            IncrementalSolveOptions iopts;
            iopts.allocMethod = ccfg.allocMethod;
            iopts.scheduling = ccfg.scheduling;
            iopts.scheduling.packetTime = ptime;
            iopts.topo = topo_.get();
            iopts.tracePrefix = "online";
            iopts.basisCache = basisCache_.get();
            iopts.ctx = cfg_.compiler.ctx;
            const IncrementalSolveResult inc = resolveDirtySubsets(
                bounds2, ivs2, pa2, dirty, priorSegs, iopts);
            if (inc.feasible) {
                GlobalSchedule omega2;
                omega2.period = period;
                omega2.paths = pa2;
                omega2.segments = inc.segments;
                omega2.faultSpec = faultSpecAccum_;
                omega2.degradedFrom = prior->omega.degradedFrom;
                const VerifyResult ver = verifySchedule(
                    g2, *topo_, alloc_, bounds2, omega2);
                if (ver.ok) {
                    const double peak =
                        UtilizationAnalyzer(bounds2, ivs2, *topo_)
                            .analyze(pa2)
                            .peak;
                    auto next =
                        std::make_shared<PublishedState>();
                    next->g = g2;
                    next->bounds = std::move(bounds2);
                    next->intervals = std::move(ivs2);
                    next->omega = std::move(omega2);
                    next->verification = ver;
                    next->numSubsets = inc.subsetsTotal;
                    next->peakUtilization = peak;
                    res.usedIncremental = true;
                    res.subsetsTotal = inc.subsetsTotal;
                    res.subsetsResolved = inc.subsetsResolved;
                    res.subsetsCopied = inc.subsetsCopied;
                    res.peakUtilization = next->peakUtilization;
                    if (cfg_.cacheCapacity > 0)
                        cache_->insert(
                            key, {next->omega, next->numSubsets,
                                  next->peakUtilization});
                    out.ok = true;
                    out.next = std::move(next);
                    return out;
                }
            }
            // Incremental produced nothing publishable; the full
            // compiler gets the final word below.
        }
    }

    // Full compile: the fallback and the source of truth for
    // rejection classification.
    trace::ScopedPhase phase("online_full_compile", ctx_.tracer(),
                             ctx_.metricsRegistry());
    bump(reg, "online.full_compiles");
    SrCompileResult comp =
        compileScheduledRouting(g2, *topo_, alloc_, tm_, ccfg);
    if (!comp.feasible) {
        classifyRejection(comp, g2, period, res);
        return out;
    }

    auto next = std::make_shared<PublishedState>();
    next->g = g2;
    next->bounds = std::move(comp.bounds);
    if (comp.intervals)
        next->intervals = std::move(*comp.intervals);
    next->omega = std::move(comp.omega);
    next->omega.faultSpec = faultSpecAccum_;
    next->verification = comp.verification;
    next->numSubsets = comp.numSubsets;
    next->peakUtilization = comp.utilization.peak;
    res.usedFullCompile = true;
    res.subsetsTotal = comp.numSubsets;
    res.subsetsResolved = comp.numSubsets;
    res.peakUtilization = next->peakUtilization;
    if (cfg_.cacheCapacity > 0)
        cache_->insert(key, {next->omega, next->numSubsets,
                             next->peakUtilization});
    out.ok = true;
    out.next = std::move(next);
    return out;
}

RequestResult
OnlineScheduler::start()
{
    const double t0 = trace::Tracer::nowWallUs();
    RequestResult res;
    res.period = cfg_.compiler.inputPeriod;
    if (started()) {
        res.reason = RejectReason::InvalidRequest;
        res.detail = "service already started";
        return finish(res, "start", t0, false);
    }
    SolveOutcome out =
        solveWorkload(g_, cfg_.compiler.inputPeriod, false);
    res = out.res;
    if (out.ok) {
        publish(std::move(out.next), res.period);
        res.accepted = true;
    }
    return finish(res, "start", t0, false);
}

RequestResult
OnlineScheduler::restore(const GlobalSchedule &omega,
                         const std::string &faultSpecAccum)
{
    const double t0 = trace::Tracer::nowWallUs();
    RequestResult res;
    res.period = omega.period;
    const auto reject = [&](RejectReason r, std::string detail) {
        topo_->clearFaults();
        res.reason = r;
        res.detail = std::move(detail);
        return finish(res, "restore", t0, false);
    };
    if (started())
        return reject(RejectReason::InvalidRequest,
                      "service already started");
    if (!(omega.period > 0.0))
        return reject(RejectReason::InvalidRequest,
                      "restored schedule has no period");

    // Re-degrade the fabric exactly as the accumulated fault
    // history left it; the snapshot's schedule was compiled against
    // that mask, so verification below must see it too.
    if (!faultSpecAccum.empty()) {
        try {
            fault::applyFaultSpec(faultSpecAccum, *topo_);
        } catch (const FatalError &e) {
            return reject(RejectReason::InvalidRequest, e.what());
        }
    }

    TimeBounds bounds;
    try {
        bounds = computeTimeBounds(g_, alloc_, tm_, omega.period);
    } catch (const FatalError &e) {
        return reject(RejectReason::InvalidRequest, e.what());
    }

    auto next = std::make_shared<PublishedState>();
    next->g = g_;
    next->omega = omega;
    if (bounds.messages.empty()) {
        // Degenerate workload (no network messages): nothing to
        // verify, the schedule must be empty too.
        if (!omega.segments.empty())
            return reject(RejectReason::VerificationFailed,
                          "restored schedule has segments but the "
                          "workload has no network messages");
        next->bounds = std::move(bounds);
        next->verification.ok = true;
    } else {
        const VerifyResult ver =
            verifySchedule(g_, *topo_, alloc_, bounds, omega);
        if (!ver.ok)
            return reject(RejectReason::VerificationFailed,
                          ver.violations.empty()
                              ? "restored schedule failed "
                                "verification"
                              : ver.violations.front());
        IntervalSet ivs(bounds);
        next->numSubsets =
            computeMaximalSubsets(bounds, ivs, omega.paths).size();
        next->peakUtilization =
            UtilizationAnalyzer(bounds, ivs, *topo_)
                .analyze(omega.paths)
                .peak;
        next->bounds = std::move(bounds);
        next->intervals = std::move(ivs);
        next->verification = ver;
    }
    res.subsetsTotal = next->numSubsets;
    res.subsetsCopied = next->numSubsets;
    res.peakUtilization = next->peakUtilization;
    faultSpecAccum_ = faultSpecAccum;
    publish(std::move(next), omega.period);
    res.accepted = true;
    return finish(res, "restore", t0, false);
}

RequestResult
OnlineScheduler::process(const Request &r)
{
    switch (r.kind) {
      case RequestKind::AdmitMessage: return admitBatch(r.admits);
      case RequestKind::RemoveMessage: return remove(r.name);
      case RequestKind::UpdatePeriod: return updatePeriod(r.period);
      case RequestKind::InjectFault: return injectFault(r.faultSpec);
    }
    RequestResult res;
    res.reason = RejectReason::InvalidRequest;
    res.detail = "unknown request kind";
    return res;
}

RequestResult
OnlineScheduler::admit(const AdmitSpec &spec)
{
    return admitBatch({spec});
}

RequestResult
OnlineScheduler::admitBatch(const std::vector<AdmitSpec> &specs)
{
    const double t0 = trace::Tracer::nowWallUs();
    const char *what = specs.size() > 1 ? "admit-batch" : "admit";
    RequestResult res;
    res.period = cfg_.compiler.inputPeriod;
    const auto reject = [&](std::string detail) {
        res.reason = RejectReason::InvalidRequest;
        res.detail = std::move(detail);
        return finish(res, what, t0, true);
    };

    if (!started())
        return reject("service not started");
    if (specs.empty())
        return reject("empty admission batch");
    std::unordered_set<std::string> batchNames;
    for (const AdmitSpec &s : specs) {
        if (s.name.empty())
            return reject("message name is empty");
        if (hasMessage(g_, s.name))
            return reject("message '" + s.name +
                          "' already exists");
        if (!batchNames.insert(s.name).second)
            return reject("duplicate message '" + s.name +
                          "' in batch");
        if (findTask(g_, s.src) == kInvalidTask)
            return reject("unknown source task '" + s.src + "'");
        if (findTask(g_, s.dst) == kInvalidTask)
            return reject("unknown destination task '" + s.dst +
                          "'");
        if (s.src == s.dst)
            return reject("message '" + s.name +
                          "' has identical source and "
                          "destination task");
        if (!(s.bytes > 0.0))
            return reject("message '" + s.name +
                          "' must have positive bytes");
    }

    TaskFlowGraph g2 = g_;
    for (const AdmitSpec &s : specs)
        g2.addMessage(s.name, findTask(g2, s.src),
                      findTask(g2, s.dst), s.bytes);

    SolveOutcome out =
        solveWorkload(g2, cfg_.compiler.inputPeriod, true);
    res = out.res;
    if (out.ok) {
        publish(std::move(out.next), res.period);
        res.accepted = true;
        metrics::Registry &reg =
            ctx_.metricsRegistry();
        bump(reg, "online.admitted");
        bump(reg, "online.messages_admitted",
             static_cast<std::uint64_t>(specs.size()));
    }
    return finish(res, what, t0, true);
}

RequestResult
OnlineScheduler::remove(const std::string &msgName)
{
    const double t0 = trace::Tracer::nowWallUs();
    RequestResult res;
    res.period = cfg_.compiler.inputPeriod;
    if (!started()) {
        res.reason = RejectReason::InvalidRequest;
        res.detail = "service not started";
        return finish(res, "remove", t0, false);
    }
    if (!hasMessage(g_, msgName)) {
        res.reason = RejectReason::InvalidRequest;
        res.detail = "no message named '" + msgName + "'";
        return finish(res, "remove", t0, false);
    }

    // Rebuild without the message; task ids are preserved because
    // addTask assigns them sequentially.
    TaskFlowGraph g2;
    for (const Task &t : g_.tasks())
        g2.addTask(t.name, t.operations);
    for (const Message &m : g_.messages())
        if (m.name != msgName)
            g2.addMessage(m.name, m.src, m.dst, m.bytes);

    SolveOutcome out =
        solveWorkload(g2, cfg_.compiler.inputPeriod, true);
    res = out.res;
    if (out.ok) {
        publish(std::move(out.next), res.period);
        res.accepted = true;
        bump(ctx_.metricsRegistry(),
             "online.removed");
    }
    return finish(res, "remove", t0, false);
}

RequestResult
OnlineScheduler::updatePeriod(Time period)
{
    const double t0 = trace::Tracer::nowWallUs();
    RequestResult res;
    res.period = cfg_.compiler.inputPeriod;
    if (!started()) {
        res.reason = RejectReason::InvalidRequest;
        res.detail = "service not started";
        return finish(res, "period", t0, false);
    }
    if (!(period > 0.0)) {
        res.reason = RejectReason::InvalidRequest;
        res.detail = "period must be positive";
        return finish(res, "period", t0, false);
    }

    // A period change moves every message's windows, so there is
    // nothing to reuse: this is a full compile (or a cache hit).
    SolveOutcome out = solveWorkload(g_, period, false);
    res = out.res;
    if (out.ok) {
        publish(std::move(out.next), period);
        res.accepted = true;
        res.period = period;
        bump(ctx_.metricsRegistry(),
             "online.period_updates");
    } else {
        res.period = cfg_.compiler.inputPeriod;
    }
    return finish(res, "period", t0, false);
}

RequestResult
OnlineScheduler::injectFault(const std::string &spec)
{
    const double t0 = trace::Tracer::nowWallUs();
    RequestResult res;
    res.period = cfg_.compiler.inputPeriod;
    const auto invalid = [&](std::string detail) {
        res.reason = RejectReason::InvalidRequest;
        res.detail = std::move(detail);
        return finish(res, "fault", t0, false);
    };
    if (!started())
        return invalid("service not started");

    fault::FaultSpec fs;
    try {
        fs = fault::parseFaultSpec(spec);
    } catch (const FatalError &e) {
        return invalid(e.what());
    }
    for (const fault::FaultEvent &ev : fs.events)
        if (ev.timed())
            return invalid(
                "timed fault events are not supported online");

    // InjectFault is transactional: apply the new mask, repair,
    // and on failure restore the fabric so the published schedule
    // stays valid for the hardware it describes.
    const auto restoreFabric = [&]() {
        topo_->clearFaults();
        if (!faultSpecAccum_.empty())
            fault::applyFaultSpec(faultSpecAccum_, *topo_);
    };
    try {
        fault::applyFaultSpec(spec, *topo_);
    } catch (const FatalError &e) {
        restoreFabric();
        return invalid(e.what());
    }

    const std::shared_ptr<const PublishedState> prior = published();
    SrCompileResult healthy;
    healthy.feasible = true;
    healthy.bounds = prior->bounds;
    if (prior->intervals)
        healthy.intervals.emplace(*prior->intervals);
    healthy.paths = prior->omega.paths;
    healthy.omega = prior->omega;
    healthy.verification = prior->verification;
    healthy.numSubsets = prior->numSubsets;

    SrCompilerConfig ccfg = cfg_.compiler;
    fault::RepairOptions ropts = cfg_.repair;
    const std::string accum2 =
        faultSpecAccum_.empty() ? spec
                                : faultSpecAccum_ + ";" + spec;
    ropts.faultSpec = accum2;

    const fault::RepairResult rep = fault::repairSchedule(
        prior->g, *topo_, alloc_, tm_, ccfg, healthy, ropts);
    res.subsetsTotal = rep.subsetsTotal;
    res.subsetsResolved = rep.subsetsResolved;
    res.subsetsCopied = rep.subsetsReused;
    res.usedIncremental = rep.usedIncremental;
    res.usedFullCompile = rep.usedFullRecompile;

    if (!rep.feasible) {
        restoreFabric();
        res.reason = RejectReason::InfeasibleSubset;
        res.detail = rep.detail.empty()
                         ? "repair found no feasible schedule"
                         : rep.detail;
        return finish(res, "fault", t0, false);
    }

    faultSpecAccum_ = accum2;
    auto next = std::make_shared<PublishedState>();
    if (rep.shedMessages.empty()) {
        next->g = prior->g;
    } else {
        // Shed messages leave the workload for good.
        for (const Task &t : prior->g.tasks())
            next->g.addTask(t.name, t.operations);
        for (const Message &m : prior->g.messages())
            if (std::find(rep.shedMessages.begin(),
                          rep.shedMessages.end(),
                          m.id) == rep.shedMessages.end())
                next->g.addMessage(m.name, m.src, m.dst, m.bytes);
    }
    if (rep.usedIncremental) {
        next->bounds = prior->bounds;
        if (prior->intervals)
            next->intervals.emplace(*prior->intervals);
        next->numSubsets = prior->numSubsets;
    } else {
        next->bounds = rep.compile.bounds;
        if (rep.compile.intervals)
            next->intervals.emplace(*rep.compile.intervals);
        next->numSubsets = rep.compile.numSubsets;
    }
    next->omega = rep.omega;
    next->verification = rep.verification;
    if (next->intervals) {
        UtilizationAnalyzer ua(next->bounds, *next->intervals,
                               *topo_);
        next->peakUtilization =
            ua.analyze(next->omega.paths).peak;
    }
    res.peakUtilization = next->peakUtilization;
    res.period = rep.degradedPeriod;

    publish(std::move(next), rep.degradedPeriod);
    res.accepted = true;
    bump(ctx_.metricsRegistry(),
         "online.faults_injected");
    return finish(res, "fault", t0, false);
}

} // namespace online
} // namespace srsim
