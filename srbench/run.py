#!/usr/bin/env python3
"""Build and run the srsim benchmark.

    python3 srbench/run.py --workload compile|churn \\
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and
builds srbench/ (a CMake project that compiles ../src) into
.bench_build/srbench with a Release build; later runs only rebuild
what changed. Build output goes to stderr. The benchmark's stdout is
passed through: its last line is the JSON result. Exits non-zero,
without a result, when the sources or the build are missing.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "srbench")
RUN_TIMEOUT_S = 170


def die(msg):
    print("srbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no srsim sources next to srbench/ (expected src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "srbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "srbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["compile", "churn"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Self-test hooks (srbench/selftest.py).
    ap.add_argument("--golden-dir",
                    default=os.path.join(ROOT, "tests", "golden"))
    ap.add_argument("--flip-expected-verdict", action="store_true")
    args = ap.parse_args()

    binary = build()
    state = os.path.join(ROOT, ".bench_build", "state",
                         "%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden-dir", args.golden_dir, "--state-dir", state,
           "--git-sha", git_sha()]
    if args.flip_expected_verdict:
        cmd.append("--flip-expected-verdict")
    try:
        rc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(state, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
