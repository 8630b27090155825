#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
repository's libraries plus the benchmark binary into .bench_build/ (a
few minutes); later calls rebuild incrementally. Build output goes to
stderr, so the binary's report is all that reaches stdout and its last
line is the JSON result. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
WORKLOADS = ("fig18_mobile", "stream_churn", "net_handover")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_step(cmd):
    # Build logs go to stderr: stdout carries only the benchmark report.
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"build step failed ({result.returncode}): {' '.join(cmd)}", 1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"repository sources not found under {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_step(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    run_step(["cmake", "--build", str(BUILD), "--target", "perfbench",
              "-j", jobs])
    return BUILD / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    binary = build()
    WORK.mkdir(parents=True, exist_ok=True)
    result = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--work-dir", str(WORK.relative_to(ROOT))],
        cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
