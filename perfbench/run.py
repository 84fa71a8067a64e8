#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-fig5 --seed 42 \
        --seconds 20 --trace 0

The first call configures and builds ssp_core plus the harness in
Release into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later calls rebuild only what changed.  The harness prints its tables and,
as its last line, one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 1 it also writes a Chrome Trace Event
file under <build dir>/traces/.

Workloads: paper-fig5, mesh-scaling, serve-queue, cluster-faults.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure (once) and build the harness; return its path."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target",
                  "perfbench_harness", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=max(1, deadline - time.monotonic()))
    return out / "perfbench_harness"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no simulator sources under {ROOT}; run from a checkout")
        return 2
    out = build_dir()
    try:
        harness = build(out)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 2
    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(harness), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT),
           "--trace-dir", str(traces)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
