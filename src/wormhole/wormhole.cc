#include "wormhole/wormhole.hh"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <sstream>

#include "engine/context.hh"
#include "metrics/metrics.hh"
#include "sim/event_queue.hh"
#include "trace/trace.hh"
#include "util/logging.hh"

namespace srsim {

SeriesStats
WormholeResult::outputIntervals(int warmup) const
{
    SeriesStats s;
    for (std::size_t j = 1; j < records.size(); ++j) {
        if (records[j].index <= warmup)
            continue;
        s.add(records[j].complete - records[j - 1].complete);
    }
    return s;
}

SeriesStats
WormholeResult::latencies(int warmup) const
{
    SeriesStats s;
    for (const InvocationRecord &r : records)
        if (r.index >= warmup)
            s.add(r.latency());
    return s;
}

WormholeSimulator::WormholeSimulator(const TaskFlowGraph &g,
                                     const Topology &topo,
                                     TaskAllocation alloc,
                                     const TimingModel &tm)
    : g_(g), topo_(topo), alloc_(std::move(alloc)), tm_(tm)
{
    if (!alloc_.complete())
        fatal("wormhole simulation needs a complete allocation");
    paths_.resize(static_cast<std::size_t>(g_.numMessages()));
    for (const Message &m : g_.messages()) {
        const NodeId s = alloc_.nodeOf(m.src);
        const NodeId d = alloc_.nodeOf(m.dst);
        if (s != d)
            paths_[static_cast<std::size_t>(m.id)] =
                topo_.routeLsdToMsd(s, d);
    }
}

void
WormholeSimulator::setPath(MessageId m, Path p)
{
    SRSIM_ASSERT(m >= 0 && m < g_.numMessages(), "bad message id");
    const NodeId s = alloc_.nodeOf(g_.message(m).src);
    const NodeId d = alloc_.nodeOf(g_.message(m).dst);
    if (!topo_.validPath(p) || p.source() != s || p.destination() != d)
        fatal("setPath: invalid path for message ", m);
    paths_[static_cast<std::size_t>(m)] = std::move(p);
}

const Path &
WormholeSimulator::pathOf(MessageId m) const
{
    SRSIM_ASSERT(m >= 0 && m < g_.numMessages(), "bad message id");
    return paths_[static_cast<std::size_t>(m)];
}

/**
 * All mutable simulation state for one run().
 */
struct WormholeSimulator::Impl
{
    /** One in-flight message instance (message x invocation). */
    struct MsgInstance
    {
        MessageId msg = kInvalidMessage;
        int invocation = 0;
        /** Links already captured (prefix of the path). */
        std::size_t acquired = 0;
        /** Link this instance is queued on, or kInvalidLink. */
        LinkId waitingOn = kInvalidLink;
        bool transmitting = false;
        bool delivered = false;
        // Fair-share transfer progress.
        double remainingBytes = 0.0;
        double rate = 0.0;        ///< bytes per microsecond
        Time lastUpdate = 0.0;
        std::uint32_t gen = 0;    ///< invalidates stale events
        /**
         * Acquire instant per captured link (parallel to the
         * acquired prefix of the path); populated only while
         * tracing/metrics are on.
         */
        std::vector<Time> acquireTs;
    };

    /** FCFS state of one half-duplex link. */
    struct LinkState
    {
        /** Indices into instances_ currently holding a virtual
         *  channel of this link (size <= virtualChannels). */
        std::vector<std::size_t> occupants;
        std::deque<std::size_t> waiters;

        bool
        hasRoom(int capacity) const
        {
            return static_cast<int>(occupants.size()) < capacity;
        }
    };

    /** One task instance's dependence bookkeeping. */
    struct TaskInstance
    {
        int arrived = 0;
        bool started = false;
        bool finished = false;
    };

    /** Per-node application processor (single FCFS server). */
    struct ApState
    {
        bool busy = false;
        std::deque<std::pair<TaskId, int>> ready;
    };

    WormholeSimulator &sim;
    const WormholeConfig &cfg;
    const engine::EngineContext &ectx;
    trace::Tracer &tracer;
    EventQueue eq;
    std::vector<MsgInstance> instances;
    /** Instances currently flowing (fair-share mode only). */
    std::vector<std::size_t> flowing;
    std::vector<LinkState> links;
    std::vector<TaskInstance> taskInst;
    std::vector<ApState> aps;
    std::vector<Time> outputFinish;
    std::vector<int> outputsRemaining;
    std::vector<bool> isOutputTask;
    WormholeResult result;
    int recorded = 0;

    // Observability (all dormant unless the run is traced/metered).
    const bool tracing = SRSIM_TRACE_ENABLED();
    const bool metering = SRSIM_METRICS_ENABLED();
    metrics::Counter *injectedCtr = nullptr;
    metrics::Counter *blockCtr = nullptr;
    metrics::Counter *deadlockCtr = nullptr;
    metrics::LinkTimeline *timeline = nullptr;

    Impl(WormholeSimulator &s, const WormholeConfig &c)
        : sim(s), cfg(c),
          ectx(engine::require(c.ctx, "WormholeSimulator::run")),
          tracer(ectx.tracer())
    {
        if (metering) {
            auto &reg = ectx.metricsRegistry();
            injectedCtr =
                &reg.counter("wormhole.messages_injected");
            blockCtr = &reg.counter("wormhole.link_blocks");
            deadlockCtr = &reg.counter("wormhole.deadlocks");
            timeline = &reg.timeline("wormhole.links");
        }
        const std::size_t nmsg =
            static_cast<std::size_t>(sim.g_.numMessages());
        const std::size_t ninv =
            static_cast<std::size_t>(cfg.invocations);
        instances.resize(nmsg * ninv);
        links.resize(static_cast<std::size_t>(sim.topo_.numLinks()));
        taskInst.resize(
            static_cast<std::size_t>(sim.g_.numTasks()) * ninv);
        aps.resize(static_cast<std::size_t>(sim.topo_.numNodes()));
        outputFinish.assign(ninv, 0.0);
        outputsRemaining.assign(
            ninv,
            static_cast<int>(sim.g_.outputTasks().size()));
        isOutputTask.assign(
            static_cast<std::size_t>(sim.g_.numTasks()), false);
        for (TaskId t : sim.g_.outputTasks())
            isOutputTask[static_cast<std::size_t>(t)] = true;
    }

    /** Virtual channels per link (>= 1). */
    int vcs() const { return cfg.virtualChannels; }

    std::size_t
    instIdx(MessageId m, int j) const
    {
        return static_cast<std::size_t>(j) *
                   static_cast<std::size_t>(sim.g_.numMessages()) +
               static_cast<std::size_t>(m);
    }

    std::size_t
    taskIdx(TaskId t, int j) const
    {
        return static_cast<std::size_t>(j) *
                   static_cast<std::size_t>(sim.g_.numTasks()) +
               static_cast<std::size_t>(t);
    }

    const Path &path(std::size_t inst) const
    {
        return sim.paths_[static_cast<std::size_t>(
            instances[inst].msg)];
    }

    void
    start()
    {
        for (int j = 0; j < cfg.invocations; ++j) {
            const Time t = j * cfg.inputPeriod;
            for (TaskId task : sim.g_.inputTasks()) {
                eq.schedule(t, [this, task, j] {
                    taskReady(task, j);
                });
            }
        }
    }

    void
    taskReady(TaskId t, int j)
    {
        TaskInstance &ti = taskInst[taskIdx(t, j)];
        SRSIM_ASSERT(!ti.started, "task instance ready twice");
        const NodeId node = sim.alloc_.nodeOf(t);
        ApState &ap = aps[static_cast<std::size_t>(node)];
        if (ap.busy) {
            ap.ready.emplace_back(t, j);
        } else {
            startTask(t, j);
        }
    }

    void
    startTask(TaskId t, int j)
    {
        TaskInstance &ti = taskInst[taskIdx(t, j)];
        ti.started = true;
        const NodeId node = sim.alloc_.nodeOf(t);
        aps[static_cast<std::size_t>(node)].busy = true;
        if (tracing)
            trace::taskBegin(tracer, node, sim.g_.task(t).name,
                             j, eq.now());
        const Time dur = sim.tm_.taskTime(sim.g_, t);
        eq.scheduleAfter(dur, [this, t, j] { finishTask(t, j); });
    }

    void
    finishTask(TaskId t, int j)
    {
        TaskInstance &ti = taskInst[taskIdx(t, j)];
        ti.finished = true;
        if (tracing)
            trace::taskEnd(tracer, sim.alloc_.nodeOf(t), j,
                           eq.now());
        if (isOutputTask[static_cast<std::size_t>(t)])
            outputDone(t, j);

        // Inject outgoing messages before freeing the AP so that
        // messages precede any same-instant task start.
        for (MessageId m : sim.g_.outgoing(t))
            injectMessage(m, j);

        const NodeId node = sim.alloc_.nodeOf(t);
        ApState &ap = aps[static_cast<std::size_t>(node)];
        ap.busy = false;
        if (!ap.ready.empty()) {
            auto [nt, nj] = ap.ready.front();
            ap.ready.pop_front();
            startTask(nt, nj);
        }
    }

    void
    outputDone(TaskId, int j)
    {
        const std::size_t ji = static_cast<std::size_t>(j);
        outputFinish[ji] = std::max(outputFinish[ji], eq.now());
        if (--outputsRemaining[ji] == 0) {
            InvocationRecord rec;
            rec.index = j;
            rec.start = j * cfg.inputPeriod;
            rec.complete = outputFinish[ji];
            result.records.push_back(rec);
            ++recorded;
            if (tracing)
                trace::invocationComplete(tracer, j, eq.now());
        }
    }

    void
    injectMessage(MessageId m, int j)
    {
        const std::size_t idx = instIdx(m, j);
        MsgInstance &mi = instances[idx];
        mi.msg = m;
        mi.invocation = j;
        if (injectedCtr)
            injectedCtr->add();
        const Message &msg = sim.g_.message(m);
        if (sim.alloc_.nodeOf(msg.src) ==
            sim.alloc_.nodeOf(msg.dst)) {
            // Local delivery through the node's buffers: no network
            // resources, negligible time.
            deliver(idx);
            return;
        }
        requestNextLink(idx);
    }

    void
    requestNextLink(std::size_t idx)
    {
        MsgInstance &mi = instances[idx];
        const Path &p = path(idx);
        if (mi.acquired == p.links.size()) {
            // Whole path captured: transmit.
            mi.transmitting = true;
            if (tracing)
                trace::msgWindowBegin(
                    tracer, mi.msg, sim.g_.message(mi.msg).name,
                    mi.invocation, eq.now());
            if (cfg.fairShare) {
                // Progressive filling: rate depends on the sharing
                // pattern, recomputed as it changes.
                mi.remainingBytes = sim.g_.message(mi.msg).bytes;
                mi.lastUpdate = eq.now();
                flowing.push_back(idx);
                recomputeRates();
            } else {
                // Static model: bandwidth divided by the channel
                // count (Sec. 6's stricter model).
                const Time dur =
                    sim.tm_.messageTime(sim.g_, mi.msg) * vcs();
                const std::uint32_t gen = ++mi.gen;
                eq.scheduleAfter(dur, [this, idx, gen] {
                    completeTx(idx, gen);
                });
            }
            return;
        }
        const LinkId l = p.links[mi.acquired];
        LinkState &ls = links[static_cast<std::size_t>(l)];
        if (ls.hasRoom(vcs()) && ls.waiters.empty()) {
            ls.occupants.push_back(idx);
            ++mi.acquired;
            noteAcquire(mi, l);
            requestNextLink(idx);
        } else {
            mi.waitingOn = l;
            ls.waiters.push_back(idx);
            if (blockCtr)
                blockCtr->add();
            if (tracing)
                trace::linkBlocked(tracer, l,
                                   sim.g_.message(mi.msg).name,
                                   mi.msg, mi.invocation,
                                   eq.now());
        }
    }

    /** Record a successful link capture (trace + timeline). */
    void
    noteAcquire(MsgInstance &mi, LinkId l)
    {
        if (!tracing && !metering)
            return;
        mi.acquireTs.push_back(eq.now());
        if (tracing)
            trace::linkAcquire(tracer, l,
                               sim.g_.message(mi.msg).name,
                               mi.msg, mi.invocation, eq.now());
    }

    /**
     * Settle fair-share progress up to now and recompute every
     * flowing message's rate from the current sharing pattern;
     * reschedule the completion events.
     */
    void
    recomputeRates()
    {
        const Time now = eq.now();
        // Settle progress at the old rates.
        for (std::size_t idx : flowing) {
            MsgInstance &mi = instances[idx];
            mi.remainingBytes -= mi.rate * (now - mi.lastUpdate);
            mi.remainingBytes = std::max(0.0, mi.remainingBytes);
            mi.lastUpdate = now;
        }
        // Sharers per link (only flowing messages move flits).
        std::vector<int> sharers(links.size(), 0);
        for (std::size_t idx : flowing)
            for (LinkId l : path(idx).links)
                ++sharers[static_cast<std::size_t>(l)];
        // New rate = B / most contended link; reschedule.
        for (std::size_t idx : flowing) {
            MsgInstance &mi = instances[idx];
            int worst = 1;
            for (LinkId l : path(idx).links)
                worst = std::max(
                    worst, sharers[static_cast<std::size_t>(l)]);
            mi.rate = sim.tm_.bandwidth / worst;
            const Time eta = mi.remainingBytes / mi.rate;
            const std::uint32_t gen = ++mi.gen;
            eq.scheduleAfter(eta, [this, idx, gen] {
                completeTx(idx, gen);
            });
        }
    }

    void
    completeTx(std::size_t idx, std::uint32_t gen)
    {
        MsgInstance &mi = instances[idx];
        if (!mi.transmitting || gen != mi.gen)
            return; // superseded by a rate change
        const Path &p = path(idx);
        mi.transmitting = false;
        if (cfg.fairShare) {
            flowing.erase(
                std::find(flowing.begin(), flowing.end(), idx));
        }

        // Release every link, then hand each to its next waiter.
        // Two passes so a cascading re-acquire sees all releases.
        for (std::size_t k = 0; k < p.links.size(); ++k) {
            const LinkId l = p.links[k];
            LinkState &ls = links[static_cast<std::size_t>(l)];
            auto it = std::find(ls.occupants.begin(),
                                ls.occupants.end(), idx);
            SRSIM_ASSERT(it != ls.occupants.end(),
                         "release of foreign link");
            ls.occupants.erase(it);
            if (tracing)
                trace::linkRelease(tracer, l, mi.msg,
                                   mi.invocation, eq.now());
            if (timeline && k < mi.acquireTs.size())
                timeline->occupy(l, mi.acquireTs[k], eq.now());
        }
        if (tracing)
            trace::msgWindowEnd(tracer, mi.msg, mi.invocation,
                                eq.now());
        deliver(idx);
        for (LinkId l : p.links)
            grantNext(l);
        if (cfg.fairShare)
            recomputeRates();
    }

    void
    grantNext(LinkId l)
    {
        LinkState &ls = links[static_cast<std::size_t>(l)];
        while (ls.hasRoom(vcs()) && !ls.waiters.empty()) {
            const std::size_t next = ls.waiters.front();
            ls.waiters.pop_front();
            MsgInstance &mi = instances[next];
            SRSIM_ASSERT(mi.waitingOn == l, "waiter bookkeeping");
            mi.waitingOn = kInvalidLink;
            ls.occupants.push_back(next);
            ++mi.acquired;
            noteAcquire(mi, l);
            requestNextLink(next);
        }
    }

    void
    deliver(std::size_t idx)
    {
        MsgInstance &mi = instances[idx];
        mi.delivered = true;
        const Message &msg = sim.g_.message(mi.msg);
        TaskInstance &ti = taskInst[taskIdx(msg.dst, mi.invocation)];
        ++ti.arrived;
        const int need = static_cast<int>(
            sim.g_.incoming(msg.dst).size());
        if (ti.arrived == need)
            taskReady(msg.dst, mi.invocation);
    }

    /**
     * Wait-for cycle detection over blocked message instances.
     * With virtual channels a waiter depends on *every* occupant
     * of the link it waits on, so this is general DFS cycle
     * detection, not just functional-graph chasing.
     * @return human-readable cycle description, empty if none.
     */
    std::string
    findDeadlock() const
    {
        const std::size_t n = instances.size();
        // color: 0 = unvisited, 1 = on stack, 2 = done.
        std::vector<int> color(n, 0);
        std::vector<std::size_t> stack;

        auto successors = [&](std::size_t i)
            -> const std::vector<std::size_t> * {
            const MsgInstance &mi = instances[i];
            if (mi.waitingOn == kInvalidLink)
                return nullptr;
            return &links[static_cast<std::size_t>(mi.waitingOn)]
                        .occupants;
        };

        // Iterative DFS with an explicit edge cursor.
        std::vector<std::size_t> cursor(n, 0);
        for (std::size_t s0 = 0; s0 < n; ++s0) {
            if (color[s0] != 0 || !successors(s0))
                continue;
            stack.assign(1, s0);
            color[s0] = 1;
            while (!stack.empty()) {
                const std::size_t u = stack.back();
                const auto *succ = successors(u);
                if (!succ ||
                    cursor[u] >= succ->size()) {
                    color[u] = 2;
                    stack.pop_back();
                    continue;
                }
                const std::size_t v = (*succ)[cursor[u]++];
                if (color[v] == 1) {
                    // Found a cycle: report the stack from v.
                    std::ostringstream oss;
                    oss << "wait-for cycle:";
                    bool in_cycle = false;
                    for (std::size_t w : stack) {
                        if (w == v)
                            in_cycle = true;
                        if (in_cycle) {
                            const MsgInstance &mi = instances[w];
                            oss << " msg " << mi.msg << "@inv"
                                << mi.invocation;
                        }
                    }
                    return oss.str();
                }
                if (color[v] == 0 && successors(v)) {
                    color[v] = 1;
                    stack.push_back(v);
                }
            }
        }
        return {};
    }

    WormholeResult
    finish()
    {
        if (recorded < cfg.invocations) {
            const std::string cycle = findDeadlock();
            result.deadlocked = true;
            result.deadlockInfo =
                cycle.empty()
                    ? "simulation stalled before all invocations "
                      "completed"
                    : cycle;
            if (deadlockCtr)
                deadlockCtr->add();
            if (tracing)
                trace::deadlock(tracer, result.deadlockInfo,
                                eq.now());
        }
        std::sort(result.records.begin(), result.records.end(),
                  [](const InvocationRecord &a,
                     const InvocationRecord &b) {
                      return a.index < b.index;
                  });
        result.completedInvocations = recorded;
        return std::move(result);
    }
};

WormholeResult
WormholeSimulator::run(const WormholeConfig &cfg)
{
    if (cfg.inputPeriod <= 0.0)
        fatal("wormhole run needs a positive input period");
    if (cfg.virtualChannels < 1)
        fatal("need at least one virtual channel per link");
    if (cfg.fairShare && cfg.virtualChannels < 2)
        fatal("fair sharing needs at least two virtual channels");
    if (cfg.invocations <= cfg.warmup)
        fatal("need more invocations than warmup");

    Impl impl(*this, cfg);
    impl.start();
    impl.eq.run();
    return impl.finish();
}

} // namespace srsim
