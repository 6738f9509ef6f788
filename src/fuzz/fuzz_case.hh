/**
 * @file
 * A self-contained, replayable fuzz case for the SR compiler.
 *
 * A FuzzCase captures everything the differential harness needs to
 * reproduce one compile → verify → simulate run bit-for-bit: the
 * TFG, the fabric spec, the task placement, the timing model, and
 * every compiler knob the generator randomizes. Cases serialize to
 * a line-oriented `.srfuzz` text file (the TFG is embedded in its
 * own srsim-tfg v1 format), so a failure found by `srfuzz` can be
 * checked into tests/corpus/ and replayed forever.
 *
 *   srsim-fuzz v1
 *   seed 42
 *   topo torus:4,4
 *   ap-speed 1.25
 *   bandwidth 64
 *   packet-bytes 0
 *   period 37.5
 *   guard 0
 *   alloc-method lp
 *   sched-method lp
 *   exact-packet-mip 0
 *   use-assign-paths 1
 *   assign-seed 7
 *   max-restarts 2
 *   feedback-rounds 0
 *   faults link:#3;derate:#7=0.5     (optional; omitted = healthy)
 *   churn admit zc0 t2 t5 512        (optional; online request
 *   churn remove zc0                  lines, replayed in order)
 *   sessions 3                       (optional; daemon sessions)
 *   mchurn 1 admit zm0 t2 t5 512     (optional; per-session daemon
 *   mchurn 0 remove zm1               request lines, in order)
 *   tfg
 *   srsim-tfg v1
 *   ...
 *   end
 *   map <task-name> <node>
 *   ...
 *   end
 */

#ifndef SRSIM_FUZZ_FUZZ_CASE_HH_
#define SRSIM_FUZZ_FUZZ_CASE_HH_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/sr_compiler.hh"
#include "mapping/allocation.hh"
#include "tfg/tfg.hh"
#include "tfg/timing.hh"
#include "topology/topology.hh"

namespace srsim {
namespace fuzz {

/** One randomized compile instance, fully value-typed. */
struct FuzzCase
{
    /** Generator seed (provenance only; replay does not re-draw). */
    std::uint64_t seed = 0;
    /** Topology factory spec, e.g. "ghc:2,4". */
    std::string topoSpec = "cube:3";
    TaskFlowGraph g;
    /** Node of each task, indexed by TaskId. */
    std::vector<NodeId> taskNode;
    TimingModel tm;

    // Compiler knobs (mirrors SrCompilerConfig).
    Time inputPeriod = 0.0;
    Time guardTime = 0.0;
    AllocationMethod allocMethod = AllocationMethod::Lp;
    SchedulingMethod schedMethod = SchedulingMethod::LpFeasibleSets;
    bool exactPacketMip = false;
    bool useAssignPaths = true;
    std::uint64_t assignSeed = 1;
    int maxRestarts = 2;
    int feedbackRounds = 0;
    /**
     * Static fault spec (src/fault grammar) applied to the fabric
     * before compiling; empty = healthy fabric. Timed events are
     * outside the differential domain (InvalidCase).
     */
    std::string faultSpec;
    /**
     * Online churn sequence: admit/remove request lines in the
     * src/online script grammar (e.g. "admit zc0 t2 t5 512"),
     * replayed in order against an OnlineScheduler and
     * differentially checked against from-scratch recompiles.
     * Empty = batch case (the classic three-oracle run).
     */
    std::vector<std::string> churnOps;
    /**
     * Multi-session daemon dimension: when > 0 the case runs
     * through the scheduling daemon (fuzz/multi.hh) with this many
     * sessions, each serving this case's workload, instead of the
     * batch or churn runner.
     */
    int numSessions = 0;
    /**
     * Daemon request sequence: (session index, request line) pairs
     * in submission order. Lines use the src/online grammar
     * (admit/remove only); session indices are < numSessions.
     */
    std::vector<std::pair<int, std::string>> multiOps;

    /** Allocation object for this case's task placement. */
    TaskAllocation makeAllocation(const Topology &topo) const;

    /** Compiler configuration for this case. */
    SrCompilerConfig makeConfig(const engine::EngineContext &ctx) const;
};

/** Write c in the srsim-fuzz v1 text format. */
void writeFuzzCase(std::ostream &os, const FuzzCase &c);

/**
 * Parse a case written by writeFuzzCase() (or by hand).
 * Fatal on malformed input.
 */
FuzzCase readFuzzCase(std::istream &is);

} // namespace fuzz
} // namespace srsim

#endif // SRSIM_FUZZ_FUZZ_CASE_HH_
