#include "cpsim/cp_simulator.hh"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <sstream>

#include "engine/context.hh"
#include "metrics/metrics.hh"
#include "sim/event_queue.hh"
#include "trace/trace.hh"
#include "util/logging.hh"

namespace srsim {

SeriesStats
CpSimResult::outputIntervals(int warmup) const
{
    SeriesStats s;
    for (std::size_t j = 1; j < completions.size(); ++j)
        if (static_cast<int>(j) > warmup && completions[j] > 0.0 &&
            completions[j - 1] > 0.0)
            s.add(completions[j] - completions[j - 1]);
    return s;
}

SeriesStats
CpSimResult::latencies(int warmup) const
{
    SeriesStats s;
    for (std::size_t j = 0; j < completions.size(); ++j)
        if (static_cast<int>(j) >= warmup && completions[j] > 0.0)
            s.add(completions[j] - starts[j]);
    return s;
}

namespace {

/** One scheduled transmission window, absolute time, one message
 *  instance. */
struct SegmentEvent
{
    std::size_t msgIdx;     ///< index into bounds.messages
    int invocation;
    Time start;
    Time end;
    bool last;              ///< final segment of the instance
    /** Schedule this window came from (primary or degraded). */
    const GlobalSchedule *sched;
};

/** Everything mutable during one simulateCps run. */
struct CpSimState
{
    const TaskFlowGraph &g;
    const Topology &topo;
    const TaskAllocation &alloc;
    const TimingModel &tm;
    const TimeBounds &bounds;
    const GlobalSchedule &omega;
    const CpSimConfig &cfg;
    const engine::EngineContext &ectx;
    trace::Tracer &tracer;

    EventQueue eq;
    CpSimResult result;
    bool aborted = false;

    /** Per link: current reservation [claim, until) and claimant. */
    struct LinkClaim
    {
        Time until = -1.0;
        std::size_t msgIdx = SIZE_MAX;
        int invocation = -1;
        /** Schedule the claimant executed (swap-transition id). */
        const GlobalSchedule *sched = nullptr;
    };
    std::vector<LinkClaim> linkClaims;

    /** Deposit time of (msgIdx, invocation) into the source CP's
     *  output buffer; +inf until the AP finishes the source task. */
    std::vector<Time> deposit;
    /** Bytes accumulated at the destination so far. */
    std::vector<double> bytesDone;

    /** Task-instance arrival bookkeeping. */
    std::vector<int> arrived;
    std::vector<Time> taskFinish;

    /** Per-node single-server AP. */
    struct ApState
    {
        bool busy = false;
        std::deque<std::pair<TaskId, int>> ready;
    };
    std::vector<ApState> aps;

    std::vector<Time> outputFinish;
    std::vector<int> outputsRemaining;
    std::vector<bool> isOutputTask;

    /** Dedup: violation key -> index into result.violations. */
    std::map<std::string, std::size_t> violationIdx;

    /** Per link: absolute failure instant (+inf = never fails). */
    std::vector<Time> linkFailAt;
    /** Invocations that lost a message instance to a fault. */
    std::vector<char> lostInv;

    // Observability (dormant unless the run is traced/metered).
    const bool tracing = SRSIM_TRACE_ENABLED();
    const bool metering = SRSIM_METRICS_ENABLED();
    metrics::Counter *violationCtr = nullptr;
    metrics::Counter *commandCtr = nullptr;
    metrics::LinkTimeline *timeline = nullptr;

    CpSimState(const TaskFlowGraph &g_, const Topology &topo_,
               const TaskAllocation &alloc_, const TimingModel &tm_,
               const TimeBounds &bounds_,
               const GlobalSchedule &omega_, const CpSimConfig &c)
        : g(g_), topo(topo_), alloc(alloc_), tm(tm_),
          bounds(bounds_), omega(omega_), cfg(c),
          ectx(engine::require(c.ctx, "simulateCps")), tracer(ectx.tracer())
    {
        const std::size_t nmi =
            bounds.messages.size() *
            static_cast<std::size_t>(cfg.invocations);
        linkClaims.resize(
            static_cast<std::size_t>(topo.numLinks()));
        deposit.assign(nmi,
                       std::numeric_limits<Time>::infinity());
        bytesDone.assign(nmi, 0.0);
        arrived.assign(static_cast<std::size_t>(g.numTasks()) *
                           static_cast<std::size_t>(
                               cfg.invocations),
                       0);
        taskFinish.assign(arrived.size(), -1.0);
        aps.resize(static_cast<std::size_t>(topo.numNodes()));
        outputFinish.assign(
            static_cast<std::size_t>(cfg.invocations), 0.0);
        outputsRemaining.assign(
            static_cast<std::size_t>(cfg.invocations),
            static_cast<int>(g.outputTasks().size()));
        isOutputTask.assign(
            static_cast<std::size_t>(g.numTasks()), false);
        for (TaskId t : g.outputTasks())
            isOutputTask[static_cast<std::size_t>(t)] = true;
        result.starts.resize(
            static_cast<std::size_t>(cfg.invocations));
        result.completions.assign(
            static_cast<std::size_t>(cfg.invocations), 0.0);
        linkFailAt.assign(
            static_cast<std::size_t>(topo.numLinks()),
            std::numeric_limits<Time>::infinity());
        for (const auto &f : cfg.linkFailures)
            linkFailAt[static_cast<std::size_t>(f.first)] =
                std::min(
                    linkFailAt[static_cast<std::size_t>(f.first)],
                    f.second);
        lostInv.assign(
            static_cast<std::size_t>(cfg.invocations), 0);
        if (metering) {
            auto &reg = ectx.metricsRegistry();
            violationCtr = &reg.counter("cpsim.violations");
            commandCtr = &reg.counter("cpsim.commands_executed");
            timeline = &reg.timeline("cpsim.links");
        }
    }

    std::size_t
    miIdx(std::size_t msgIdx, int j) const
    {
        return static_cast<std::size_t>(j) *
                   bounds.messages.size() +
               msgIdx;
    }

    std::size_t
    tiIdx(TaskId t, int j) const
    {
        return static_cast<std::size_t>(j) *
                   static_cast<std::size_t>(g.numTasks()) +
               static_cast<std::size_t>(t);
    }

    /**
     * Record one invariant violation.
     *
     * @param key context-free identity of the failure (no times,
     * no invocation numbers); repeats under the same key collapse
     * into one reported message with a count.
     * @param why the full human-readable report (first occurrence
     * is the one kept).
     */
    void
    violation(const std::string &key, const std::string &why)
    {
        ++result.totalViolations;
        if (violationCtr)
            violationCtr->add();
        if (tracing)
            trace::violation(tracer, why, eq.now());
        auto [it, fresh] = violationIdx.emplace(
            key, result.violations.size());
        if (fresh) {
            result.violations.push_back(why);
            result.violationRepeats.push_back(1);
        } else {
            ++result.violationRepeats[it->second];
        }
        if (cfg.stopOnViolation)
            aborted = true;
    }

    // ----- schedule construction -------------------------------

    /**
     * Schedule governing invocation j: the degraded Omega once the
     * repaired node switching schedules have been distributed.
     */
    const GlobalSchedule &
    schedFor(int j) const
    {
        if (cfg.degradedOmega &&
            timeGe(j * omega.period, cfg.repairAt))
            return *cfg.degradedOmega;
        return omega;
    }

    /**
     * Mark an invocation as lost to an injected fault. Lost
     * invocations are expected damage: their remaining data checks
     * are suppressed and their non-completion is reported in
     * faultNotes rather than as a violation.
     */
    void
    loseInstance(int j, const std::string &note)
    {
        ++result.droppedSegments;
        if (tracing)
            trace::faultEvent(tracer, note, eq.now());
        if (lostInv[static_cast<std::size_t>(j)])
            return;
        lostInv[static_cast<std::size_t>(j)] = 1;
        ++result.lostInvocations;
        result.faultNotes.push_back(note);
    }

    /**
     * First link of the path failed by time t: at or before t
     * (window-start test), or strictly before t (window-end test —
     * a link failing exactly at the end carried the whole window).
     */
    LinkId
    deadLinkOn(const Path &p, Time t, bool strict = false) const
    {
        for (LinkId l : p.links) {
            const Time at = linkFailAt[static_cast<std::size_t>(l)];
            if (strict ? timeLt(at, t) : timeLe(at, t))
                return l;
        }
        return -1;
    }

    /** Absolute segment events of one message instance. */
    std::vector<SegmentEvent>
    instanceSegments(std::size_t msgIdx, int j) const
    {
        const GlobalSchedule &sched = schedFor(j);
        const MessageBounds &b = bounds.messages[msgIdx];
        const Time release =
            j * omega.period + b.absoluteRelease;
        std::vector<SegmentEvent> out;
        for (const TimeWindow &w : sched.segments[msgIdx]) {
            const Time off = timeGe(w.start, b.release)
                                 ? w.start - b.release
                                 : w.start - b.release +
                                       omega.period;
            SegmentEvent ev;
            ev.msgIdx = msgIdx;
            ev.invocation = j;
            ev.start = release + off;
            ev.end = ev.start + w.length();
            ev.last = false;
            ev.sched = &sched;
            out.push_back(ev);
        }
        std::sort(out.begin(), out.end(),
                  [](const SegmentEvent &a, const SegmentEvent &b2) {
                      return a.start < b2.start;
                  });
        if (!out.empty())
            out.back().last = true;
        return out;
    }

    void
    start()
    {
        // Input arrivals.
        for (int j = 0; j < cfg.invocations; ++j) {
            const Time t = j * omega.period;
            result.starts[static_cast<std::size_t>(j)] = t;
            for (TaskId task : g.inputTasks())
                eq.schedule(t, [this, task, j] {
                    taskReady(task, j);
                });
        }
        // CP controllers: every commanded transmission window of
        // every invocation, independently per node -- modelled by
        // the shared segment events (each checks the state all the
        // CPs on the path would see).
        for (std::size_t i = 0; i < bounds.messages.size(); ++i) {
            for (int j = 0; j < cfg.invocations; ++j) {
                for (const SegmentEvent &ev :
                     instanceSegments(i, j)) {
                    eq.schedule(ev.start, [this, ev] {
                        segmentStart(ev);
                    });
                    eq.schedule(ev.end, [this, ev] {
                        segmentEnd(ev);
                    });
                    result.commandsExecuted +=
                        ev.sched->paths.pathFor(i).nodes.size();
                }
            }
        }
        // Fault instants as visible events.
        for (const auto &f : cfg.linkFailures) {
            const LinkId l = f.first;
            const Time at = f.second;
            eq.schedule(at, [this, l, at] {
                if (tracing)
                    trace::faultEvent(
                        tracer,
                        "link " + std::to_string(l) + " failed",
                        at);
            });
        }
        if (cfg.degradedOmega) {
            for (int j = 0; j < cfg.invocations; ++j) {
                const Time t = j * omega.period;
                if (timeGe(t, cfg.repairAt)) {
                    std::ostringstream oss;
                    oss << "degraded schedule takes effect at "
                        << "invocation " << j << " (t=" << t
                        << ")";
                    result.faultNotes.push_back(oss.str());
                    eq.schedule(t, [this, note = oss.str()] {
                        if (tracing)
                            trace::faultEvent(tracer, note,
                                              eq.now());
                    });
                    break;
                }
            }
        }
    }

    // ----- AP model --------------------------------------------

    void
    taskReady(TaskId t, int j)
    {
        if (aborted)
            return;
        const NodeId node = alloc.nodeOf(t);
        ApState &ap = aps[static_cast<std::size_t>(node)];
        if (ap.busy)
            ap.ready.emplace_back(t, j);
        else
            startTask(t, j);
    }

    void
    startTask(TaskId t, int j)
    {
        const NodeId node = alloc.nodeOf(t);
        aps[static_cast<std::size_t>(node)].busy = true;
        if (tracing)
            trace::taskBegin(tracer, node, g.task(t).name, j,
                             eq.now());
        eq.scheduleAfter(tm.taskTime(g, t),
                         [this, t, j] { finishTask(t, j); });
    }

    void
    finishTask(TaskId t, int j)
    {
        if (aborted)
            return;
        taskFinish[tiIdx(t, j)] = eq.now();
        if (tracing)
            trace::taskEnd(tracer, alloc.nodeOf(t), j, eq.now());
        if (isOutputTask[static_cast<std::size_t>(t)])
            outputDone(j);

        for (MessageId m : g.outgoing(t)) {
            const int bi =
                bounds.indexOf[static_cast<std::size_t>(m)];
            if (bi < 0) {
                // Local delivery through the node's buffers.
                arriveAt(g.message(m).dst, j);
            } else {
                // Deposit into the CP output buffer.
                deposit[miIdx(static_cast<std::size_t>(bi), j)] =
                    eq.now();
            }
        }

        const NodeId node = alloc.nodeOf(t);
        ApState &ap = aps[static_cast<std::size_t>(node)];
        ap.busy = false;
        if (!ap.ready.empty()) {
            auto [nt, nj] = ap.ready.front();
            ap.ready.pop_front();
            startTask(nt, nj);
        }
    }

    void
    arriveAt(TaskId t, int j)
    {
        int &cnt = arrived[tiIdx(t, j)];
        ++cnt;
        if (cnt == static_cast<int>(g.incoming(t).size()))
            taskReady(t, j);
    }

    void
    outputDone(int j)
    {
        const std::size_t ji = static_cast<std::size_t>(j);
        outputFinish[ji] = std::max(outputFinish[ji], eq.now());
        if (--outputsRemaining[ji] == 0) {
            result.completions[ji] = outputFinish[ji];
            if (tracing)
                trace::invocationComplete(tracer, j, eq.now());
        }
    }

    // ----- CP / link model -------------------------------------

    void
    segmentStart(const SegmentEvent &ev)
    {
        if (aborted)
            return;
        const Path &p = ev.sched->paths.pathFor(ev.msgIdx);
        const Message &m =
            g.message(bounds.messages[ev.msgIdx].msg);
        const Time dur = ev.end - ev.start;
        // A window opening on a dead link is dropped whole: the CP
        // commands execute but the chain never closes end-to-end.
        if (const LinkId dead = deadLinkOn(p, ev.start);
            dead >= 0) {
            std::ostringstream oss;
            oss << "message '" << m.name << "'@inv"
                << ev.invocation << " dropped: link " << dead
                << " dead at window start t=" << ev.start;
            loseInstance(ev.invocation, oss.str());
            return;
        }
        if (tracing) {
            trace::msgWindowSpan(tracer, m.id, m.name,
                                 ev.invocation, ev.start, dur);
            // One crossbar command per CP on the path (the node
            // switching schedules omega_i of Sec. 4.1).
            for (NodeId n : p.nodes)
                trace::xbarExecute(tracer, n, m.name, m.id,
                                   ev.invocation, ev.start, dur);
        }
        if (commandCtr)
            commandCtr->add(p.nodes.size());
        for (LinkId l : p.links) {
            if (tracing)
                trace::linkOccupy(tracer, l, m.name, m.id,
                                  ev.invocation, ev.start, dur);
            if (timeline)
                timeline->occupy(l, ev.start, ev.end);
            LinkClaim &c = linkClaims[static_cast<std::size_t>(l)];
            if (timeLt(eq.now(), c.until) &&
                !(c.msgIdx == ev.msgIdx &&
                  c.invocation == ev.invocation)) {
                // Contention between an in-flight invocation of the
                // old schedule and one of the new is reconfiguration
                // damage, not a schedule bug: each schedule is only
                // contention-free against itself. The colliding
                // instance is lost, not a violation.
                if (c.sched && c.sched != ev.sched) {
                    std::ostringstream oss;
                    oss << "message '" << m.name << "'@inv"
                        << ev.invocation
                        << " lost to schedule-swap transition "
                        << "contention on link " << l << " at t="
                        << eq.now();
                    loseInstance(ev.invocation, oss.str());
                    return;
                }
                std::ostringstream key;
                key << "double-booked link " << l << " msg "
                    << ev.msgIdx << " vs " << c.msgIdx;
                std::ostringstream oss;
                oss << "link " << l << " double-booked at t="
                    << eq.now() << ": '" << m.name << "'@inv"
                    << ev.invocation << " vs message index "
                    << c.msgIdx << "@inv" << c.invocation;
                violation(key.str(), oss.str());
                if (aborted)
                    return;
                continue;
            }
            c.until = ev.end;
            c.msgIdx = ev.msgIdx;
            c.invocation = ev.invocation;
            c.sched = ev.sched;
        }
    }

    void
    segmentEnd(const SegmentEvent &ev)
    {
        if (aborted)
            return;
        const std::size_t mi = miIdx(ev.msgIdx, ev.invocation);
        const Message &m =
            g.message(bounds.messages[ev.msgIdx].msg);

        // A failure cutting through the window drops the in-flight
        // flits; the instance is lost, not a schedule bug.
        if (const LinkId dead =
                deadLinkOn(ev.sched->paths.pathFor(ev.msgIdx),
                           ev.end, /*strict=*/true);
            dead >= 0 &&
            !lostInv[static_cast<std::size_t>(ev.invocation)]) {
            std::ostringstream oss;
            oss << "message '" << m.name << "'@inv"
                << ev.invocation << " lost in flight: link "
                << dead << " failed during window ending t="
                << ev.end;
            loseInstance(ev.invocation, oss.str());
            return;
        }
        // Lost invocations transmit garbage downstream of the
        // break; suppress their data checks (expected damage).
        if (lostInv[static_cast<std::size_t>(ev.invocation)])
            return;

        // Premature-setup check: the data must have been in the
        // source CP's output buffer when the window opened.
        if (timeGt(deposit[mi], ev.start)) {
            std::ostringstream oss;
            oss << "message '" << m.name << "'@inv"
                << ev.invocation << " transmitted at t="
                << ev.start << " before its data was ready (AP "
                << "deposit at "
                << (deposit[mi] ==
                            std::numeric_limits<Time>::infinity()
                        ? -1.0
                        : deposit[mi])
                << ")";
            violation("premature msg " + std::to_string(ev.msgIdx),
                      oss.str());
            if (aborted)
                return;
        }

        bytesDone[mi] += (ev.end - ev.start) * tm.bandwidth;

        if (!ev.last)
            return;

        // Byte conservation at delivery. The schedule transfers the
        // *quantized* message (packet mode rounds the duration up to
        // whole packets, padding the payload), so the scheduled
        // bytes are duration * bandwidth, not the raw payload size.
        const double scheduledBytes =
            bounds.messages[ev.msgIdx].duration * tm.bandwidth;
        if (std::abs(bytesDone[mi] - scheduledBytes) >
            tm.bandwidth * kTimeEps * 10.0 + 1e-6) {
            std::ostringstream oss;
            oss << "message '" << m.name << "'@inv"
                << ev.invocation << " delivered "
                << bytesDone[mi] << " of " << scheduledBytes
                << " scheduled bytes (" << m.bytes << " payload)";
            violation("short-delivery msg " +
                          std::to_string(ev.msgIdx),
                      oss.str());
            if (aborted)
                return;
        }

        // Deadline check: delivery within tau_c of availability.
        const MessageBounds &b = bounds.messages[ev.msgIdx];
        const Time release =
            ev.invocation * omega.period + b.absoluteRelease;
        if (timeGt(eq.now(), release + bounds.tauC)) {
            std::ostringstream oss;
            oss << "message '" << m.name << "'@inv"
                << ev.invocation << " missed its deadline by "
                << eq.now() - (release + bounds.tauC) << " us";
            violation("deadline msg " + std::to_string(ev.msgIdx),
                      oss.str());
            if (aborted)
                return;
        }

        arriveAt(m.dst, ev.invocation);
    }
};

} // namespace

CpSimResult
simulateCps(const TaskFlowGraph &g, const Topology &topo,
            const TaskAllocation &alloc, const TimingModel &tm,
            const TimeBounds &bounds, const GlobalSchedule &omega,
            const CpSimConfig &cfg)
{
    if (cfg.invocations <= cfg.warmup)
        fatal("need more invocations than warmup");
    if (omega.segments.size() != bounds.messages.size())
        fatal("schedule does not match the time bounds");
    for (const auto &f : cfg.linkFailures) {
        if (f.first < 0 || f.first >= topo.numLinks())
            fatal("link failure on link ", f.first,
                  " outside the ", topo.numLinks(),
                  "-link fabric");
        if (f.second < 0.0)
            fatal("link failure at negative time ", f.second);
    }
    if (cfg.degradedOmega) {
        if (cfg.degradedOmega->segments.size() !=
            bounds.messages.size())
            fatal("degraded schedule does not match the time "
                  "bounds");
        if (timeLt(cfg.degradedOmega->period, omega.period) ||
            timeGt(cfg.degradedOmega->period, omega.period))
            fatal("degraded schedule period ",
                  cfg.degradedOmega->period,
                  " differs from the primary period ",
                  omega.period,
                  " (period-stretched swaps need a fresh run)");
    }

    CpSimState st(g, topo, alloc, tm, bounds, omega, cfg);
    st.start();
    st.eq.run();

    // Invocations that never completed (possible under injected
    // corruption) are reported, collapsed like any other repeated
    // violation. Invocations lost to an injected *fault* are
    // expected damage, already explained in faultNotes.
    for (int j = 0; j < cfg.invocations; ++j) {
        if (st.result.completions[static_cast<std::size_t>(j)] <=
                0.0 &&
            !st.aborted &&
            !st.lostInv[static_cast<std::size_t>(j)]) {
            std::ostringstream oss;
            oss << "invocation " << j << " never completed";
            st.violation("never-completed", oss.str());
        }
    }

    // Dedup finalization: annotate collapsed repeats.
    for (std::size_t i = 0; i < st.result.violations.size(); ++i) {
        if (st.result.violationRepeats[i] > 1)
            st.result.violations[i] +=
                " [x" +
                std::to_string(st.result.violationRepeats[i]) +
                "]";
    }
    return std::move(st.result);
}

} // namespace srsim
