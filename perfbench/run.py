#!/usr/bin/env python3
"""Builds and runs the benchmark of this repository.

    python3 perfbench/run.py --workload ycsb-c-fit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. The first call configures and builds
perfbench/ (the library sources under src/ plus the benchmark binary) into
.bench_build/perfbench with CMake; later calls rebuild only what changed.
After a build the benchmark's self-tests run once. The binary's standard
output is passed through: its last line is the JSON result. Traced runs
(--trace 1) write their sampled spans under .bench_build/traces/.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "ditto_perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns True when it built
    anything, False when it was up to date. Exits 3 on failure."""
    stamp = BINARY.stat().st_mtime if BINARY.exists() else None
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(min(os.cpu_count() or 1, 4))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            log("build failed: " + " ".join(cmd))
            sys.exit(3)
    return not BINARY.exists() or stamp != BINARY.stat().st_mtime


def run(cmd):
    """Runs the binary, passing its output through; returns its exit code."""
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 4
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    built = build()
    if built or args.selftest:
        code = run([str(BINARY), "--selftest"])
        if code != 0:
            log("self-tests failed")
            BINARY.unlink(missing_ok=True)  # rebuild and re-test next time
            return 5
        if args.selftest:
            return 0

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = ROOT / ".bench_build" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-dir", str(trace_dir)]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
