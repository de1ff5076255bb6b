"""Steadiness check: run workloads repeatedly and judge each metric's spread.

    python3 casbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]

Runs BENCHMARK.json's command once per seed (first-seed, first-seed+1, ...)
for each workload, one run at a time, from the repository root.  For every
end-to-end metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, judged
against the metric's bound: "steady" below a third of the bound, "ok"
within it, "WIDE" beyond it.  setup_s is reported but not judged, since
only its median is compared between two sets of runs.  It also checks that
the share of failed requests is the same in every run and that every run
reports correct outputs.  Exits 1 when any judged spread is WIDE or a
check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bad = False
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, wall = run_once(bench["command"], workload, seed, bench["run_seconds"])
            results.append(result)
            print(f"{workload} seed {seed}: {wall:.1f}s wall, attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}", flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        if len(shares) != 1 or not all(r["correct"] for r in results):
            bad = True
            print(f"{workload}: failed shares {sorted(map(str, shares))}, "
                  f"correct {[r['correct'] for r in results]}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if name == "setup_s":
                verdict = "not judged"
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "ok"
            else:
                verdict, bad = "WIDE", True
            print(f"{workload:18} {name:15} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:6.3f}  bound {bound:5.2f}  {verdict}")
        print(json.dumps({"workload": workload, "runs": results}), file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
