/**
 * @file
 * Wormhole-routing simulator for task-level pipelining (Sec. 3).
 *
 * Model (the paper's): each message follows the deterministic
 * LSD-to-MSD route; link arbitration is first-come-first-served; a
 * message acquires its links in path order, holds every acquired link
 * while blocked (wormhole back-pressure), transmits for m/B once the
 * whole path is set up (transmission time is insensitive to distance
 * after path setup), and releases all links on delivery. Links are
 * bidirectional half-duplex: one message at a time, either direction.
 *
 * The TFG is invoked every inputPeriod; an invocation's input tasks
 * become ready at j * inputPeriod, a task runs on its node's single
 * application processor (FCFS when instances of successive
 * invocations pile up), and sends its messages when it completes.
 * The simulator records per-invocation completion times, from which
 * the harness derives the output-interval/latency spikes of
 * Figs. 7-10 and the output-inconsistency verdict.
 *
 * Deadlock (possible on tori under pure path-holding) is detected via
 * a wait-for cycle check and reported, never silently ignored.
 */

#ifndef SRSIM_WORMHOLE_WORMHOLE_HH_
#define SRSIM_WORMHOLE_WORMHOLE_HH_

#include <map>
#include <string>
#include <vector>

#include "mapping/allocation.hh"
#include "sim/stats.hh"
#include "tfg/tfg.hh"
#include "tfg/timing.hh"
#include "topology/topology.hh"
#include "util/time.hh"

namespace srsim {

namespace engine {
class EngineContext;
}

/** Run parameters for a wormhole simulation. */
struct WormholeConfig
{
    /** Invocation period tau_in (microseconds). */
    Time inputPeriod = 0.0;
    /** Total invocations to simulate. */
    int invocations = 60;
    /** Leading invocations excluded from statistics (pipe fill). */
    int warmup = 10;
    /**
     * Virtual channels per physical link (the paper's "stricter
     * model", Sec. 6): each physical channel is multiplexed among
     * this many virtual channels, so a link admits that many
     * messages simultaneously but the bandwidth available to each
     * message is divided by the same factor. 1 = the paper's plain
     * capture model.
     */
    int virtualChannels = 1;
    /**
     * Progressive-filling refinement of the virtual-channel model:
     * instead of dividing the bandwidth by the channel count
     * unconditionally, a link's bandwidth is split evenly among
     * the messages *currently flowing* across it and a message's
     * rate is set by its most-contended link, recomputed whenever
     * the sharing pattern changes. Requires virtualChannels >= 2.
     */
    bool fairShare = false;
    /**
     * Engine context whose tracer receives the simulation events
     * and whose registry counts wormhole.* metrics. Required.
     */
    const engine::EngineContext *ctx = nullptr;
};

/** Timing record of one TFG invocation. */
struct InvocationRecord
{
    int index = 0;
    /** Input arrival (start of the invocation). */
    Time start = 0.0;
    /** Completion of the last output task. */
    Time complete = 0.0;
    /** Latency Lambda_j = complete - start. */
    Time latency() const { return complete - start; }
};

/** Outcome of a wormhole simulation. */
struct WormholeResult
{
    std::vector<InvocationRecord> records;
    bool deadlocked = false;
    std::string deadlockInfo;
    /** Invocations completed before any deadlock. */
    int completedInvocations = 0;

    /**
     * Output-generation intervals tau_out over post-warmup
     * invocations.
     */
    SeriesStats outputIntervals(int warmup) const;

    /** Latencies over post-warmup invocations. */
    SeriesStats latencies(int warmup) const;

    /**
     * Output inconsistency verdict (Eq. (1) violated): intervals
     * between successive outputs differ beyond tolerance.
     */
    bool
    outputInconsistent(int warmup, double eps = 1e-3) const
    {
        return deadlocked ||
               !outputIntervals(warmup).constant(eps);
    }
};

/**
 * Discrete-event wormhole-routing simulator.
 *
 * The path of every network message defaults to the topology's
 * LSD-to-MSD route; setPath() overrides it (used by tests and by the
 * three-message adaptive-routing scenario of Sec. 3).
 */
class WormholeSimulator
{
  public:
    /**
     * @param g the task-flow graph (kept by reference)
     * @param topo the interconnect (kept by reference)
     * @param alloc complete task-to-node mapping (copied)
     * @param tm AP speed and link bandwidth
     */
    WormholeSimulator(const TaskFlowGraph &g, const Topology &topo,
                      TaskAllocation alloc, const TimingModel &tm);

    /** Override the route of message m. */
    void setPath(MessageId m, Path p);

    /** Path currently assigned to message m. */
    const Path &pathOf(MessageId m) const;

    /** Run one simulation. */
    WormholeResult run(const WormholeConfig &cfg);

  private:
    struct Impl;

    const TaskFlowGraph &g_;
    const Topology &topo_;
    TaskAllocation alloc_;
    TimingModel tm_;
    std::vector<Path> paths_;
};

} // namespace srsim

#endif // SRSIM_WORMHOLE_WORMHOLE_HH_
