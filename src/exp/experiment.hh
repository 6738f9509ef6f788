/**
 * @file
 * Experiment harness for reproducing the paper's evaluation
 * (Sec. 6, Figs. 5-10).
 *
 * Methodology, exactly as in the paper:
 *  - workload: the DVB TFG, allocated once per fabric;
 *  - twelve input periods tau_in in [tau_c, 5 tau_c];
 *  - normalized load       = tau_c / tau_in,
 *    normalized throughput = tau_in / tau_out,
 *    normalized latency    = Lambda / Delta (Delta = critical path);
 *  - wormhole routing is *simulated* over many invocations; output
 *    inconsistency shows as min/avg/max spikes of the throughput and
 *    latency series;
 *  - scheduled routing is *computed*; where a feasible Omega exists
 *    its throughput is constant (verified by the executor) and its
 *    latency is the critical path of the tau_c-window schedule.
 */

#ifndef SRSIM_EXP_EXPERIMENT_HH_
#define SRSIM_EXP_EXPERIMENT_HH_

#include <ostream>
#include <string>
#include <vector>

#include "core/sr_compiler.hh"
#include "mapping/allocation.hh"
#include "tfg/tfg.hh"
#include "tfg/timing.hh"
#include "topology/topology.hh"
#include "wormhole/wormhole.hh"

namespace srsim {

/** Shared experiment knobs. */
struct ExperimentConfig
{
    int numLoadPoints = 12;
    /** Largest period as a multiple of tau_c. */
    double maxPeriodFactor = 5.0;
    int invocations = 60;
    int warmup = 10;
    /**
     * Compiler knobs for every load point. `sr.ctx` is the engine
     * context the whole sweep runs under (thread pool, tracer,
     * metrics): load points also compile and simulate under it.
     * Required.
     */
    SrCompilerConfig sr;
};

/** One load point of a Fig. 7-10 style experiment. */
struct LoadPoint
{
    double load = 0.0;
    Time inputPeriod = 0.0;

    // Wormhole routing (simulated).
    bool wrDeadlocked = false;
    bool wrInconsistent = false;
    double wrThrMin = 0.0, wrThrAvg = 0.0, wrThrMax = 0.0;
    double wrLatMin = 0.0, wrLatAvg = 0.0, wrLatMax = 0.0;

    // Scheduled routing (computed).
    bool srFeasible = false;
    SrFailureStage srStage = SrFailureStage::None;
    double srPeakU = 0.0;
    double srThroughput = 0.0;
    double srLatency = 0.0;
};

/** One load point of a Fig. 5/6 style utilization experiment. */
struct UtilizationPoint
{
    double load = 0.0;
    Time inputPeriod = 0.0;
    /** Peak U of the LSD-to-MSD routing-function assignment. */
    double uLsdToMsd = 0.0;
    /** Peak U after AssignPaths. */
    double uAssignPaths = 0.0;
};

/** The twelve input periods of the paper's sweep. */
std::vector<Time>
loadSweepPeriods(Time tauC, const ExperimentConfig &cfg);

/**
 * Figs. 5/6: peak utilization versus load, LSD-to-MSD versus
 * AssignPaths, for one fabric at one bandwidth.
 */
std::vector<UtilizationPoint>
runUtilizationExperiment(const TaskFlowGraph &g, const Topology &topo,
                         const TaskAllocation &alloc,
                         const TimingModel &tm,
                         const ExperimentConfig &cfg);

/**
 * Figs. 7-10: throughput/latency of WR (simulated) and SR
 * (computed + executed) versus load for one fabric at one bandwidth.
 */
std::vector<LoadPoint>
runThroughputExperiment(const TaskFlowGraph &g, const Topology &topo,
                        const TaskAllocation &alloc,
                        const TimingModel &tm,
                        const ExperimentConfig &cfg);

/** Print a utilization series in the paper's terms. */
void
printUtilizationSeries(std::ostream &os, const std::string &title,
                       const std::vector<UtilizationPoint> &points);

/** Print a throughput/latency series in the paper's terms. */
void
printThroughputSeries(std::ostream &os, const std::string &title,
                      const std::vector<LoadPoint> &points);

/**
 * Machine-readable mirror of printUtilizationSeries: one JSON
 * object `{"title": ..., "points": [...]}` with every field of
 * every UtilizationPoint, for plotting pipelines.
 */
void
writeUtilizationJson(std::ostream &os, const std::string &title,
                     const std::vector<UtilizationPoint> &points);

/**
 * Machine-readable mirror of printThroughputSeries: one JSON
 * object with every field of every LoadPoint per load point.
 */
void
writeThroughputJson(std::ostream &os, const std::string &title,
                    const std::vector<LoadPoint> &points);

} // namespace srsim

#endif // SRSIM_EXP_EXPERIMENT_HH_
