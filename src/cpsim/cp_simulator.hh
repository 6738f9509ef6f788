/**
 * @file
 * Discrete-event simulation of the communication processors of
 * Fig. 2 executing their node switching schedules.
 *
 * Where core/sr_executor replays Omega analytically (closed-form
 * delivery times), this simulator actually *runs* the hardware
 * model: every node's CP executes its own omega_i command list
 * independently — setting up crossbar connections at the commanded
 * times with no knowledge of the other CPs — while the node's AP
 * executes tasks and exchanges messages with the CP through
 * per-channel input/output buffers. Data moves only while the
 * commanded crossbar chain happens to be closed end-to-end, exactly
 * as on the real machine.
 *
 * The simulator therefore checks dynamic invariants the analytic
 * executor cannot observe:
 *   - a CP never connects two commands to one port at once
 *     (crossbar double-booking);
 *   - a link never carries data in both directions at once;
 *   - transmission never starts before the message's data has been
 *     deposited in the source CP's output buffer (the AP finished);
 *   - every message accumulates exactly its byte count by the end
 *     of its scheduled windows and is delivered before the
 *     destination task is due.
 *
 * On a verified Omega all invariants hold and the observed output
 * intervals equal the input period; on a corrupted Omega the
 * violations are reported (used by the failure-injection tests).
 */

#ifndef SRSIM_CPSIM_CP_SIMULATOR_HH_
#define SRSIM_CPSIM_CP_SIMULATOR_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "core/schedule.hh"
#include "core/time_bounds.hh"
#include "mapping/allocation.hh"
#include "sim/stats.hh"
#include "tfg/tfg.hh"
#include "tfg/timing.hh"
#include "topology/topology.hh"

namespace srsim {

namespace engine {
class EngineContext;
}

/** Run parameters for the CP-level simulation. */
struct CpSimConfig
{
    int invocations = 30;
    int warmup = 5;
    /**
     * Stop-and-report rather than continue when an invariant
     * breaks (continuing collects every violation).
     */
    bool stopOnViolation = false;

    // ----- fault injection -------------------------------------
    /**
     * Mid-run link deaths: link id -> absolute failure instant.
     * From that instant the link carries nothing: a scheduled
     * window starting on a dead link is dropped whole, and a
     * window the failure cuts through loses its in-flight flits.
     * Message instances touched either way are *lost*, not
     * violations — they are reported in faultNotes / counted in
     * lostInvocations so the run distinguishes injected damage
     * from genuine schedule bugs.
     */
    std::vector<std::pair<LinkId, Time>> linkFailures{};
    /**
     * Degraded-mode schedule to swap to (same period and message
     * count as the primary Omega). Invocations whose release is at
     * or after repairAt execute this schedule's windows and routes
     * instead — modelling the moment the recompiled node switching
     * schedules are distributed to the CPs.
     */
    const GlobalSchedule *degradedOmega = nullptr;
    /** Absolute instant the degraded schedule takes effect. */
    Time repairAt = 0.0;
    /**
     * Engine context whose tracer receives the simulation events
     * and whose registry counts cpsim.* metrics. Required.
     */
    const engine::EngineContext *ctx = nullptr;
};

/** Outcome of a CP-level run. */
struct CpSimResult
{
    /** Input arrival per invocation. */
    std::vector<Time> starts;
    /** Completion per invocation (0 when it never completed). */
    std::vector<Time> completions;
    /**
     * Dynamic invariant violations observed, deduplicated: repeats
     * of the same violation (same kind, link/message — differing
     * only in invocation or instant) collapse into the first
     * occurrence, suffixed with " [xN]" when N > 1, so a
     * corrupted-Omega run reports each distinct failure once
     * instead of flooding one line per invocation.
     */
    std::vector<std::string> violations;
    /** Occurrences behind each violations[i] (>= 1). */
    std::vector<std::size_t> violationRepeats;
    /** Violations observed before deduplication. */
    std::uint64_t totalViolations = 0;
    /** Crossbar commands executed across all CPs. */
    std::uint64_t commandsExecuted = 0;

    // ----- fault accounting ------------------------------------
    /** Scheduled windows dropped or cut short by link failures. */
    std::uint64_t droppedSegments = 0;
    /** Invocations that lost at least one message to a fault. */
    std::uint64_t lostInvocations = 0;
    /**
     * Human-readable fault consequences (first loss per
     * invocation, schedule swap). Expected damage from injected
     * faults lands here, never in violations.
     */
    std::vector<std::string> faultNotes;

    bool ok() const { return violations.empty(); }

    /** Output intervals over post-warmup invocations. */
    SeriesStats outputIntervals(int warmup) const;
    /** Latencies over post-warmup invocations. */
    SeriesStats latencies(int warmup) const;
};

/**
 * Execute Omega on the CP hardware model for several invocations.
 *
 * @param omega a compiled schedule for (g, topo, alloc, bounds)
 */
CpSimResult
simulateCps(const TaskFlowGraph &g, const Topology &topo,
            const TaskAllocation &alloc, const TimingModel &tm,
            const TimeBounds &bounds, const GlobalSchedule &omega,
            const CpSimConfig &cfg);

} // namespace srsim

#endif // SRSIM_CPSIM_CP_SIMULATOR_HH_
