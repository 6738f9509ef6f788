/**
 * @file
 * Executor for scheduled routing: replays Omega over many
 * invocations and measures end-to-end pipeline behaviour.
 *
 * The CPs transmit each message at its *scheduled* frame times every
 * period (buffering early availability), so the executor
 * reconstructs, per invocation j:
 *   - the absolute delivery time of every network message,
 *   - the actual start/finish of every task (a task starts when all
 *     its messages of that invocation have arrived),
 *   - the completion time of the invocation,
 * and verifies the schedule's premise that a message's data is
 * available at its source CP no later than its first scheduled
 * transmission window.
 *
 * Under a verified Omega, output intervals equal the input period
 * exactly: the constant-throughput guarantee of Sec. 4.
 */

#ifndef SRSIM_CORE_SR_EXECUTOR_HH_
#define SRSIM_CORE_SR_EXECUTOR_HH_

#include <string>
#include <vector>

#include "core/schedule.hh"
#include "core/time_bounds.hh"
#include "mapping/allocation.hh"
#include "sim/stats.hh"
#include "tfg/tfg.hh"
#include "tfg/timing.hh"

namespace srsim {

namespace engine {
class EngineContext;
}

/** Result of executing a schedule for several invocations. */
struct SrExecutionResult
{
    /** Input arrival time of each invocation. */
    std::vector<Time> starts;
    /** Completion time of each invocation. */
    std::vector<Time> completions;
    /** True if a message was scheduled before its data was ready. */
    bool premiseViolated = false;
    std::vector<std::string> notes;

    /** Output-generation intervals over post-warmup invocations. */
    SeriesStats outputIntervals(int warmup) const;
    /** Latencies over post-warmup invocations. */
    SeriesStats latencies(int warmup) const;
    /** Eq. (1) holds: constant output interval. */
    bool
    consistent(int warmup, double eps = 1e-3) const
    {
        return !premiseViolated &&
               outputIntervals(warmup).constant(eps);
    }
};

/**
 * Execute Omega for `invocations` periods.
 *
 * @param ctx engine context whose tracer receives the task spans and
 *        whose registry counts premise violations.
 */
SrExecutionResult
executeSchedule(const TaskFlowGraph &g, const TaskAllocation &alloc,
                const TimingModel &tm, const TimeBounds &bounds,
                const GlobalSchedule &omega, int invocations,
                const engine::EngineContext &ctx);

} // namespace srsim

#endif // SRSIM_CORE_SR_EXECUTOR_HH_
