/**
 * @file
 * The golden conformance corpus: one table of pinned compiler
 * outputs, shared by tests/test_golden.cc (byte-diffs recompiled
 * schedules against the checked-in .sched files) and
 * tools/regen_golden.cc (refreshes the files after an *intentional*
 * output change).
 *
 * Every case uses the same recipe as the paper's evaluation: the DVB
 * TFG at the matched AP speed, round-robin allocation with stride
 * 13, compiled on a Fig. 5-10 fabric. Fault cases additionally
 * degrade the fabric with a static fault spec and pin the *repaired*
 * (v2) schedule, covering the incremental path, the shedding
 * recompile, derating, and random multi-link damage.
 *
 * The pinned bytes are the conformance contract: an unintentional
 * diff anywhere in the compile or repair pipeline (routing order,
 * LP pivoting, subset merging, serialization) fails `ctest -L
 * golden` before it reaches a user.
 */

#ifndef SRSIM_TESTS_GOLDEN_CASES_HH_
#define SRSIM_TESTS_GOLDEN_CASES_HH_

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/schedule_io.hh"
#include "core/sr_compiler.hh"
#include "engine/context.hh"
#include "fault/fault.hh"
#include "fault/repair.hh"
#include "mapping/allocation.hh"
#include "tfg/dvb.hh"
#include "tfg/timing.hh"
#include "topology/factory.hh"
#include "util/logging.hh"

namespace srsim {
namespace golden {

/** One pinned conformance case. */
struct GoldenCase
{
    const char *name;       ///< file stem under tests/golden/
    const char *topoSpec;   ///< fabric factory spec
    double bandwidth;       ///< bytes/us
    double periodFactor;    ///< inputPeriod = factor * tau_c
    const char *faultSpec;  ///< "" = healthy compile
};

/** The conformance table (order is the regeneration order). */
inline const std::vector<GoldenCase> &
goldenCases()
{
    static const std::vector<GoldenCase> cases = {
        // Healthy compiles on the paper's evaluation fabrics.
        {"fig5-cube6-b128", "cube:6", 128.0, 2.0, ""},
        {"fig5-ghc444-b128", "ghc:4,4,4", 128.0, 2.0, ""},
        {"fig9-torus88-b128", "torus:8,8", 128.0, 3.2, ""},
        {"fig10-torus444-b128", "torus:4,4,4", 128.0, 2.4, ""},
        // Degraded-mode repairs on the 4x4x4 torus.
        {"fault-1link", "torus:4,4,4", 128.0, 2.4, "rand:1:1"},
        {"fault-2link", "torus:4,4,4", 128.0, 2.4, "rand:2:2"},
        {"fault-node", "torus:4,4,4", 128.0, 2.4, "node:13"},
        {"fault-derate", "torus:4,4,4", 128.0, 2.4,
         "derate:#40=0.5"},
        {"fault-mixed", "torus:4,4,4", 128.0, 2.4,
         "rand:2:5;derate:#40=0.5"},
        {"fault-rand", "torus:4,4,4", 128.0, 2.4, "rand:4:7"},
    };
    return cases;
}

/** The inputs of one case, built from its table row. */
struct GoldenInputs
{
    TaskFlowGraph g;
    std::unique_ptr<Topology> topo;
    TimingModel tm;
    TaskAllocation alloc;
    SrCompilerConfig cfg;

    GoldenInputs(const GoldenCase &gc, const engine::EngineContext &ctx)
        : g(buildDvbTfg(DvbParams{})), topo(makeTopology(gc.topoSpec)),
          alloc(alloc::roundRobin(g, *topo, 13))
    {
        tm.apSpeed = DvbParams{}.matchedApSpeed();
        tm.bandwidth = gc.bandwidth;
        cfg.ctx = &ctx;
        cfg.inputPeriod = gc.periodFactor * tm.tauC(g);
    }

    /** The healthy compile; FatalError when infeasible. */
    SrCompileResult
    compile(const GoldenCase &gc) const
    {
        SrCompileResult r =
            compileScheduledRouting(g, *topo, alloc, tm, cfg);
        if (!r.feasible)
            fatal("golden case '", gc.name, "' infeasible: ",
                  r.detail);
        return r;
    }
};

/**
 * Compile one case and serialize the (possibly repaired) schedule —
 * exactly the bytes its tests/golden/<name>.sched must hold.
 * FatalError when the case is infeasible (the table itself is then
 * broken). The case compiles under `ctx` (e.g. a child whose
 * registry isolates the case's counters).
 */
inline std::string
compileGoldenCase(const GoldenCase &gc, const engine::EngineContext &ctx)
{
    const GoldenInputs in(gc, ctx);
    const SrCompileResult r = in.compile(gc);

    std::ostringstream os;
    if (gc.faultSpec[0] == '\0') {
        writeSchedule(os, r.omega);
        return os.str();
    }

    fault::applyFaultSpec(gc.faultSpec, *in.topo);
    fault::RepairOptions ropts;
    ropts.faultSpec = gc.faultSpec;
    const fault::RepairResult rep =
        fault::repairSchedule(in.g, *in.topo, in.alloc, in.tm, in.cfg,
                              r, ropts);
    if (!rep.feasible)
        fatal("golden case '", gc.name,
              "' repair infeasible: ", rep.detail);
    if (!rep.verification.ok)
        fatal("golden case '", gc.name,
              "' repair failed verification");
    writeSchedule(os, rep.omega);
    return os.str();
}

} // namespace golden
} // namespace srsim

#endif // SRSIM_TESTS_GOLDEN_CASES_HH_
