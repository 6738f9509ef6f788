#!/bin/sh
# Ratchet against re-introducing ambient environment reads.
#
# Code receives its metrics registry, tracer and thread pool through
# an explicit engine::EngineContext (DESIGN.md §14); there is no
# process-wide registry or tracer left to reach. The one ambient
# input that remains is the environment, so this check fails on any
# NEW use of
#
#   std::getenv            (environment reads)
#
# in product code (src/) outside src/util/, where the shared thread
# pool reads SRSIM_THREADS once when it is first built. tools/ (the
# CLI entry points) is outside the scan: that is the one layer
# allowed to resolve the environment, exactly once, into the root
# context. Run from the repository root; exits non-zero with one
# line per violation.

set -u

out=$(mktemp)
trap 'rm -f "$out"' EXIT

# Comment lines (leading // or *) may cite the call when documenting
# the policy; only code lines count.
grep -rn 'std::getenv' src 2>/dev/null |
    grep -v '^src/util/' |
    grep -v -E '^[^:]+:[0-9]+:[[:space:]]*(//|\*)' >"$out" || true

if [ -s "$out" ]; then
    echo "check_globals: new std::getenv use outside src/util/:"
    sed 's/^/  /' "$out"
    echo "check_globals: FAILED — resolve the environment at CLI" \
         "entry and pass it down (see DESIGN.md §14)." >&2
    exit 1
fi
echo "check_globals: ok"
