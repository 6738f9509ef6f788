/**
 * @file
 * The differential oracle: one fuzz case, three independent checks.
 *
 * A case is compiled with the compiler's own verification gate OFF,
 * then every successful compile is cross-checked by:
 *
 *  1. the static verifier (completeness, timeliness, contention
 *     freedom, path validity, crossbar consistency);
 *  2. the CP-level discrete-event simulator (crossbars actually
 *     executing omega_i command lists — zero dynamic violations);
 *  3. the analytic executor (closed-form replay — premise holds,
 *     output interval constant);
 *
 * and the two executions must report identical invocation
 * completion times (within 1e-6 us). Any disagreement, any
 * exception, and any infeasible result without a well-formed
 * structured CompileError is a Failure.
 */

#ifndef SRSIM_FUZZ_DIFFERENTIAL_HH_
#define SRSIM_FUZZ_DIFFERENTIAL_HH_

#include <string>

#include "core/sr_compiler.hh"
#include "fuzz/fuzz_case.hh"

namespace srsim {
namespace fuzz {

/** What a differential run concluded about one case. */
enum class Verdict
{
    /** Compiled; all three oracles agree the schedule is correct. */
    Feasible,
    /** Structured infeasibility with a well-formed CompileError. */
    Infeasible,
    /** Structured InvalidInput (generator strayed off-contract). */
    InvalidCase,
    /** Crash, solver abort, oracle divergence, malformed error. */
    Failure,
};

/** @return human-readable verdict name. */
const char *verdictName(Verdict v);

/** Outcome of one differential run. */
struct RunResult
{
    Verdict verdict = Verdict::Failure;
    /** Failing stage for Infeasible / InvalidCase. */
    SrFailureStage stage = SrFailureStage::None;
    /** What went wrong (non-empty exactly for Failure). */
    std::string report;

    bool failed() const { return verdict == Verdict::Failure; }
};

/** Run options for the differential oracles. */
struct RunOptions
{
    /** Invocations simulated/replayed per successful compile. */
    int invocations = 30;
    /** Warmup invocations excluded from interval statistics. */
    int warmup = 5;
    /** Tolerance on cpsim vs analytic completion agreement (us). */
    double agreementEps = 1e-6;
};

/** Compile `c` and cross-check the three oracles. Never throws. */
RunResult runCase(const FuzzCase &c, const engine::EngineContext &ctx,
                  const RunOptions &opts = {});

} // namespace fuzz
} // namespace srsim

#endif // SRSIM_FUZZ_DIFFERENTIAL_HH_
