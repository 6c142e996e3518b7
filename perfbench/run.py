#!/usr/bin/env python3
"""Benchmark entry point for sysmap.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (which builds libsysmap from src/) in Release under
.bench_build/, measures set-up time over several cold launches, then runs one
closed-loop benchmark process and prints its lines.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Run files (draws, executions, facts, spans) go to .bench_out/<workload>/.
Build output goes to stderr.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve", "joint", "verify")
# Cold launches per run whose median is reported as setup_s.  A launch's
# set-up time depends on the core it runs on (one core of a shared host can
# run 25-30% slower for minutes), so launches take the allowed cores in
# turn, and there are many of them: every run then sees the same mix.
SETUP_LAUNCHES = 81
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures once, then builds incrementally; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no sysmap sources at {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  stdin=subprocess.DEVNULL, check=False)
        except OSError as err:
            fail(f"cannot run {cmd[0]}: {err}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return out


def setup_seconds(driver, workload, seed):
    """Median wall time from spawning perfbench_driver to its 'ready' line:
    process start, building the algorithms and drawing the seeded inputs."""
    samples = []
    # The launched process inherits this process's affinity.
    cores = sorted(os.sched_getaffinity(0))
    try:
        for i in range(SETUP_LAUNCHES):
            os.sched_setaffinity(0, {cores[i % len(cores)]})
            start = time.perf_counter()
            proc = subprocess.Popen(
                [str(driver), "--workload", workload, "--seed", str(seed),
                 "--setup-only"],
                stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            proc.wait()
            if proc.returncode != 0 or not line.startswith("ready"):
                fail(f"set-up launch failed (exit {proc.returncode})")
    finally:
        os.sched_setaffinity(0, cores)
    return statistics.median(samples), samples


def run_driver(driver, args):
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(ROOT / ".bench_out")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              stdin=subprocess.DEVNULL, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"benchmark driver exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark driver did not end with a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark result has unexpected keys")
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()

    if args.selftest:
        out = build()
        sys.exit(subprocess.run([str(out / "perfbench_selftest")],
                                check=False).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    driver = build() / "perfbench_driver"
    setup = None
    if args.trace == 0:
        setup = setup_seconds(driver, args.workload, args.seed)
    lines, result = run_driver(driver, args)
    for line in lines:
        print(line)
    if setup is not None:
        median, samples = setup
        print("setup_s samples " + " ".join(f"{s:.6f}" for s in samples))
        result["metrics"]["setup_s"] = {"value": median, "unit": "s"}
        print(f"metric setup_s {median!r} s")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
