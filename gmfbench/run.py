#!/usr/bin/env python3
"""Builds gmfnetd and the gmfbench program from this checkout, then runs one
benchmark run:

    python3 gmfbench/run.py --workload campus_whatif|mesh_whatif|tree_churn \
        --seed N --seconds S --trace 0|1

Run it from the repository root.  The build goes to $CARGO_TARGET_DIR when
set, else .bench_build; the daemon's boot files, log, socket and span dumps
go to its out/ subdirectory.  The last line of stdout is gmfbench's JSON
result.  Exits non-zero, printing no result,
when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out_dir = os.path.join(build, "out")
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    steps = [
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", jobs, "--target", "gmfbench", "gmfnetd"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("gmfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return 1

    cmd = [
        os.path.join(build, "gmfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--daemon", os.path.join(build, "gmfnetd"),
        # Relative, to keep the daemon's Unix socket path short.
        "--out-dir", os.path.relpath(out_dir),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd, timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
