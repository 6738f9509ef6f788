#!/usr/bin/env python3
"""Self-test of the srsim benchmark's output checks.

    python3 srbench/selftest.py

Runs short benchmark runs through srbench/run.py and confirms that
  * the compile workload reports failure when one golden schedule is
    altered by a single byte, and passes with the real goldens;
  * the churn workload reports failure when the expected verdict of
    one replayed request is inverted, and passes without that.
Exits 0 when every expectation holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")


def run(workload, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                         text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit("selftest: %s run exited %d without a result"
                         % (workload, out.returncode))
    return json.loads(lines[-1])


def altered_goldens():
    """A copy of the goldens with one byte of one schedule changed."""
    dst = os.path.join(SCRATCH, "golden")
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "tests", "golden"), dst)
    path = os.path.join(dst, "fig5-ghc444-b128.sched")
    with open(path, "rb") as f:
        data = bytearray(f.read())
    i = next(k for k in range(len(data) // 2, len(data))
             if chr(data[k]).isdigit())
    data[i] = ord("7") if data[i] != ord("7") else ord("3")
    with open(path, "wb") as f:
        f.write(data)
    return dst


def main():
    failures = []

    def expect(name, result, correct):
        ok = result["correct"] == correct and (correct or result["failed"] > 0)
        print("%-40s %s (correct=%s, failed=%d)" % (
            name, "ok" if ok else "WRONG", result["correct"],
            result["failed"]))
        if not ok:
            failures.append(name)

    try:
        expect("compile, real goldens", run("compile"), True)
        expect("compile, one golden byte altered",
               run("compile", "--golden-dir", altered_goldens()), False)
        expect("churn, true verdicts", run("churn"), True)
        expect("churn, one expected verdict inverted",
               run("churn", "--flip-expected-verdict"), False)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    if failures:
        raise SystemExit("selftest: FAILED: " + ", ".join(failures))
    print("selftest: all checks behave")


if __name__ == "__main__":
    main()
