#include "core/sr_executor.hh"

#include <algorithm>
#include <sstream>

#include "engine/context.hh"
#include "metrics/metrics.hh"
#include "trace/trace.hh"
#include "util/logging.hh"

namespace srsim {

SeriesStats
SrExecutionResult::outputIntervals(int warmup) const
{
    SeriesStats s;
    for (std::size_t j = 1; j < completions.size(); ++j)
        if (static_cast<int>(j) > warmup)
            s.add(completions[j] - completions[j - 1]);
    return s;
}

SeriesStats
SrExecutionResult::latencies(int warmup) const
{
    SeriesStats s;
    for (std::size_t j = 0; j < completions.size(); ++j)
        if (static_cast<int>(j) >= warmup)
            s.add(completions[j] - starts[j]);
    return s;
}

SrExecutionResult
executeSchedule(const TaskFlowGraph &g, const TaskAllocation &alloc,
                const TimingModel &tm, const TimeBounds &bounds,
                const GlobalSchedule &omega, int invocations,
                const engine::EngineContext &ctx)
{
    SRSIM_ASSERT(invocations > 0, "need at least one invocation");
    trace::Tracer &tracer = ctx.tracer();
    const Time period = omega.period;

    // Frame-relative first-transmission offset and delivery offset
    // of every network message, measured from the message's release.
    const std::size_t nmsg = bounds.messages.size();
    std::vector<Time> first_tx_off(nmsg, 0.0);
    std::vector<Time> delivery_off(nmsg, 0.0);
    for (std::size_t i = 0; i < nmsg; ++i) {
        const MessageBounds &b = bounds.messages[i];
        SRSIM_ASSERT(!omega.segments[i].empty(),
                     "message without schedule segments");
        Time first = -1.0;
        Time last = 0.0;
        for (const TimeWindow &w : omega.segments[i]) {
            // A frame segment before the release point belongs to
            // the next frame (wrapped deadline window).
            const Time off = timeGe(w.start, b.release)
                                 ? w.start - b.release
                                 : w.start - b.release + period;
            if (first < 0.0 || off < first)
                first = off;
            last = std::max(last, off + w.length());
        }
        first_tx_off[i] = first;
        delivery_off[i] = last;
    }

    SrExecutionResult res;
    const std::size_t nt = static_cast<std::size_t>(g.numTasks());
    const auto order = g.topologicalOrder();
    std::vector<Time> start(nt), finish(nt);
    std::vector<Time> prev_finish(nt, -1.0);

    const bool tracing = SRSIM_TRACE_ENABLED();
    metrics::Counter *premiseCtr =
        SRSIM_METRICS_ENABLED()
            ? &ctx.metricsRegistry().counter(
                  "sr_exec.premise_violations")
            : nullptr;

    for (int j = 0; j < invocations; ++j) {
        const Time arrival = j * period;
        for (TaskId t : order) {
            const std::size_t ti = static_cast<std::size_t>(t);
            Time s = g.incoming(t).empty() ? arrival : 0.0;
            for (MessageId m : g.incoming(t)) {
                const Message &msg = g.message(m);
                const std::size_t si =
                    static_cast<std::size_t>(msg.src);
                const int bi =
                    bounds.indexOf[static_cast<std::size_t>(m)];
                if (bi < 0) {
                    // Local message: arrives when the source ends.
                    s = std::max(s, finish[si]);
                    continue;
                }
                const MessageBounds &b =
                    bounds.messages[static_cast<std::size_t>(bi)];
                const Time release = j * period + b.absoluteRelease;
                const Time tx_start =
                    release +
                    first_tx_off[static_cast<std::size_t>(bi)];
                if (timeGt(finish[si], tx_start)) {
                    res.premiseViolated = true;
                    std::ostringstream oss;
                    oss << "invocation " << j << ": message '"
                        << msg.name << "' scheduled at " << tx_start
                        << " but data ready only at " << finish[si];
                    res.notes.push_back(oss.str());
                }
                s = std::max(
                    s, release + delivery_off[
                                     static_cast<std::size_t>(bi)]);
            }
            // The single AP per node is free by now because
            // dur <= tau_c <= period; assert rather than assume.
            if (prev_finish[ti] >= 0.0 &&
                timeGt(prev_finish[ti], s)) {
                res.premiseViolated = true;
                std::ostringstream oss;
                oss << "invocation " << j << ": task '"
                    << g.task(t).name
                    << "' not yet finished for previous invocation";
                res.notes.push_back(oss.str());
                s = prev_finish[ti];
            }
            start[ti] = s;
            finish[ti] = s + tm.taskTime(g, t);
            if (tracing)
                trace::taskSpan(tracer, alloc.nodeOf(t),
                                g.task(t).name, j, start[ti],
                                finish[ti] - start[ti]);
        }

        // The analytic model gives every task its own AP: it never
        // serializes two different tasks sharing a node. Detect the
        // out-of-premise case instead of silently returning times a
        // real machine could not achieve.
        for (TaskId a = 0; a < g.numTasks(); ++a) {
            for (TaskId b2 = a + 1; b2 < g.numTasks(); ++b2) {
                if (alloc.nodeOf(a) != alloc.nodeOf(b2))
                    continue;
                const std::size_t ai = static_cast<std::size_t>(a);
                const std::size_t bi2 = static_cast<std::size_t>(b2);
                if (timeLt(start[ai], finish[bi2]) &&
                    timeLt(start[bi2], finish[ai])) {
                    res.premiseViolated = true;
                    std::ostringstream oss;
                    oss << "invocation " << j << ": tasks '"
                        << g.task(a).name << "' and '"
                        << g.task(b2).name
                        << "' overlap on node " << alloc.nodeOf(a)
                        << "; the analytic model assumes a "
                           "dedicated AP per task";
                    res.notes.push_back(oss.str());
                }
            }
        }

        Time complete = 0.0;
        for (TaskId t : g.outputTasks())
            complete = std::max(
                complete, finish[static_cast<std::size_t>(t)]);
        res.starts.push_back(arrival);
        res.completions.push_back(complete);
        prev_finish = finish;
        if (tracing)
            trace::invocationComplete(tracer, j, complete);
    }
    if (res.premiseViolated) {
        if (premiseCtr)
            premiseCtr->add(res.notes.size());
        if (tracing)
            for (const std::string &n : res.notes)
                trace::violation(tracer, n, 0.0);
    }
    return res;
}

} // namespace srsim
