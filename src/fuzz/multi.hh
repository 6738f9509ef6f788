/**
 * @file
 * Differential multi-session daemon runner with a recovery oracle.
 *
 * A multi case (numSessions > 0) replays its op sequence through
 * the scheduling daemon twice and demands byte-identical results:
 *
 *  - the *straight line*: one ephemeral daemon (no state directory)
 *    opens every session and serves every op start to finish;
 *  - the *recovered line*: a durable daemon serves the first half
 *    of the ops, crash-stops (unsynced WAL bytes dropped, no final
 *    snapshot), a second daemon recovers from the newest snapshot
 *    plus the WAL suffix and serves the remaining ops, and after a
 *    clean shutdown a third daemon restores from the final
 *    snapshot alone.
 *
 * The oracle: every per-op verdict (accept/reject and reason) and
 * every session's published schedule bytes must agree across the
 * lines at the matching points, no WAL-logged request may replay as
 * rejected, and no snapshot the daemon wrote may fail verification.
 * Both lines run with one worker, which the daemon serves inline
 * and deterministically, so any divergence is a durability bug,
 * not scheduling nondeterminism.
 *
 * Domain notes: multi cases run on the healthy fabric (the WAL
 * replays fault requests, but mid-sequence masks are outside this
 * oracle's scope), and the daemon's timing model has no packet
 * grid, so `packet-bytes` is ignored here. Placement comes from a
 * per-session round-robin stride derived from the seed — distinct
 * strides exercise distinct cache keys, equal strides exercise
 * cross-session cache hits — so the case's `map` lines only apply
 * to the batch/churn runners.
 */

#ifndef SRSIM_FUZZ_MULTI_HH_
#define SRSIM_FUZZ_MULTI_HH_

#include "fuzz/differential.hh"
#include "fuzz/fuzz_case.hh"

namespace srsim {
namespace fuzz {

/**
 * Run `c` through the daemon straight-line and crash-recovery
 * lines and cross-check them. Never throws.
 */
RunResult runMultiCase(const FuzzCase &c,
                       const engine::EngineContext &ctx,
                       const RunOptions &opts = {});

} // namespace fuzz
} // namespace srsim

#endif // SRSIM_FUZZ_MULTI_HH_
