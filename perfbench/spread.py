#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one workload at a time.

    python3 perfbench/spread.py --workloads solve verify --seeds 1-10

Runs perfbench/run.py once per seed (sequentially, one process at a time),
then prints for every end-to-end metric its median over the runs and the
spread (q3 - q1) / median, with quartiles as statistics.quantiles(values,
n=4) gives them, next to the metric's bound from BENCHMARK.json.  A spread
above its bound fails the check, setup_s included.
The per-seed results are written to .bench_out/spread_<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10",
                        help="a range like 1-10 or a list like 3,5,8")
    parser.add_argument("--seconds", type=float,
                        help="defaults to run_seconds from BENCHMARK.json")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in seeds_from(args.seeds):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result")
                ok = False
            runs.append({"seed": seed, "result": result})
        out = ROOT / ".bench_out" / f"spread_{workload}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(runs, indent=1) + "\n")
        print(f"{workload}: {len(runs)} runs, {seconds:g} s each")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            verdict = "ok" if spread <= bound else "TOO WIDE"
            if spread > bound:
                ok = False
            print(f"  {name:16s} median {median:12.6g}  quartiles "
                  f"{q1:.6g} / {q3:.6g}  spread {spread:6.3f}  "
                  f"bound {bound:.2f} ({bound / 3:.3f} target)  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
