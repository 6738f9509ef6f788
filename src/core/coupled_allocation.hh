/**
 * @file
 * Allocation-path coupling (the paper's suggested extension).
 *
 * "Since allocation determines the set of alternative paths for
 * each message, coupling it with path assignment so as to set up
 * less stringent constraints for SR computation should be
 * explored." (Sec. 7)
 *
 * This module explores exactly that: a simulated-annealing search
 * over task-to-node maps whose objective is the peak utilization U
 * the path-assignment stage can reach at a reference input period.
 * Moves relocate one task to a free node or swap two tasks; each
 * candidate is scored with a cheap path assignment (the LSD-to-MSD
 * baseline during the walk, a configurable short AssignPaths run
 * for the incumbent), so the search stays fast while still
 * optimizing the quantity that gates schedule feasibility.
 */

#ifndef SRSIM_CORE_COUPLED_ALLOCATION_HH_
#define SRSIM_CORE_COUPLED_ALLOCATION_HH_

#include <string>

#include "core/path_assignment.hh"
#include "mapping/allocation.hh"
#include "tfg/tfg.hh"
#include "tfg/timing.hh"
#include "topology/topology.hh"
#include "util/rng.hh"

namespace srsim {

/** Knobs of the coupled allocation search. */
struct CoupledAllocationOptions
{
    /** Annealing iterations. */
    int iterations = 400;
    /** Initial acceptance temperature (in units of U). */
    double initialTemperature = 0.3;
    /** Geometric cooling factor per iteration. */
    double cooling = 0.99;
    /**
     * AssignPaths effort used to score accepted incumbents. Its
     * `ctx` is replaced by the search's own context.
     */
    AssignPathsOptions scoring;

    CoupledAllocationOptions()
    {
        // Keep incumbent scoring cheap; the final caller-side
        // compile still runs a full AssignPaths.
        scoring.maxRestarts = 2;
        scoring.maxPathsPerMessage = 64;
    }
};

/** Outcome of the coupled search. */
struct CoupledAllocationResult
{
    TaskAllocation allocation;
    /** Peak utilization of the returned allocation (scored). */
    double peakUtilization = 0.0;
    /** Annealing moves accepted. */
    int accepted = 0;
    /** False when the search could not run (e.g. incomplete seed). */
    bool ok = true;
    /** Human-readable failure description (empty when ok). */
    std::string error;
};

/**
 * Search for a task allocation that minimizes the reachable peak
 * utilization at `inputPeriod`.
 *
 * @param seedAllocation starting point (must be complete)
 * @param ctx engine context the scoring AssignPaths runs under
 *        (`opts.scoring.ctx` is not read)
 */
CoupledAllocationResult
coupleAllocationWithPaths(const TaskFlowGraph &g,
                          const Topology &topo,
                          const TimingModel &tm, Time inputPeriod,
                          const TaskAllocation &seedAllocation,
                          Rng &rng, const engine::EngineContext &ctx,
                          const CoupledAllocationOptions &opts = {});

} // namespace srsim

#endif // SRSIM_CORE_COUPLED_ALLOCATION_HH_
