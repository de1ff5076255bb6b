"""casimir-lab benchmark: one closed-loop client driving the package in-process.

    python3 casbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  The run sets up (fresh import of the package plus request
generation) five times, prepares reference values, then repeats whole
rounds of the workload's requests until S seconds have passed and at least
MIN_REQUESTS requests were served.  Every output is checked against the
references in oracles.py.  Before every request a fixed calibration kernel
is timed; each round's latencies are divided by the round's host speed
(median kernel time over CALIBRATION_REF_S), so every time metric is
expressed at the reference speed and the host's speed swings drop out.
With --trace 1 every request is served twice,
untraced and traced, for the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_REQUESTS = 100
SPAN_DIR = HERE / "out"
# Median time of calibration_kernel on the reference machine (2 vCPUs,
# Python 3.11.7), in seconds; time metrics are reported at this speed.
CALIBRATION_REF_S = 0.0075


def calibration_kernel():
    """Fixed exact-rational work, shaped like the package's own arithmetic."""
    acc, x = Fraction(0), Fraction(3, 7)
    for k in range(1, 400):
        acc += x * Fraction(k, k + 1) - Fraction(1, k)
        x = x * Fraction(5, 4) % 7
    return acc


def kernel_seconds():
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def set_up(workloads, name, seed):
    """Import the package afresh and generate the round; returns (seconds, program, round)."""
    for mod in [m for m in sys.modules if m == "casimir_lab" or m.startswith("casimir_lab.")]:
        del sys.modules[mod]
    start = time.perf_counter()
    program = workloads.Program()
    requests = workloads.build_round(name, seed)
    return time.perf_counter() - start, program, requests


class Tally:
    """Outcome of every request of a run."""

    def __init__(self, checker):
        self.checker = checker
        self.attempted = 0
        self.faults = Counter()
        self.problems = []

    def serve(self, program, req, tracer=None):
        """Time the calibration kernel, then serve and check one request.

        Returns (request latency, kernel time) in seconds.
        """
        kernel = kernel_seconds()
        if tracer is not None:
            tracer.request = f"{self.attempted}:{req.kind}"
        start = time.perf_counter()
        result = program.serve(req)
        latency = time.perf_counter() - start
        problems, fault = self.checker.check(req, result)
        self.attempted += 1
        self.problems += problems
        if fault:
            self.faults[fault] += 1
        return latency, kernel

    def play(self, program, requests):
        """Serve one round; returns its raw latencies and the host speed during it."""
        timings = [self.serve(program, req) for req in requests]
        speed = statistics.median(k for _, k in timings) / CALIBRATION_REF_S
        return [lat for lat, _ in timings], speed

    @property
    def failed(self):
        return sum(self.faults.values())


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "casimir_lab" / "__init__.py").is_file():
        print(f"casbench: no package source at {SRC}/casimir_lab; run from a casimir-lab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (the package's one dependency, loaded before set-up is timed)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"casbench: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workloads.build_round(args.workload, args.seed)  # fills the reference class tables, untimed
    setups = []
    for _ in range(SETUP_REPEATS):
        speed = statistics.median(kernel_seconds() for _ in range(3)) / CALIBRATION_REF_S
        seconds, program, requests = set_up(workloads, args.workload, args.seed)
        setups.append(seconds / speed)
    if not str(Path(program.cli.__file__).resolve()).startswith(str(SRC)):
        print(f"casbench: imported casimir_lab from {program.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    checker = workloads.Checker()
    checker.prepare(requests)
    tally = Tally(checker)

    if args.trace:
        metrics, rounds, host = traced_run(program, requests, tally, args)
    else:
        raw, latencies, speeds = [], [], []
        start = time.perf_counter()
        while not speeds or time.perf_counter() - start < args.seconds or len(latencies) < MIN_REQUESTS:
            lats, speed = tally.play(program, requests)
            raw += lats
            latencies += [lat / speed for lat in lats]
            speeds.append(speed)
        rounds = len(speeds)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "requests_per_s": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
            "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        host = {
            "host_speed": statistics.median(speeds),
            "raw_requests_per_s": len(raw) / sum(raw),
            "raw_latency_p50_ms": percentile(raw, 50) * 1e3,
            "raw_latency_p90_ms": percentile(raw, 90) * 1e3,
        }

    for problem in tally.problems[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "requests_per_round": len(requests),
        "failures": dict(tally.faults),
        **host,
    }
    print("casbench " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(program, requests, tally, args):
    """Serve every request twice, untraced and traced, until the time is up.

    The order of the two alternates from round to round, so host speed
    drift and warm caches fall on both sides alike.  Per-layer figures are
    per round of traced requests; the overhead is their summed serving time
    over that of the untraced twins.
    """
    from spans import Tracer

    tracer = Tracer()
    tracer.prepare()
    plain = traced = 0.0
    kernels = []
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        for req in requests:
            for with_trace in (False, True) if rounds % 2 == 0 else (True, False):
                if not with_trace:
                    latency, kernel = tally.serve(program, req)
                    plain += latency
                else:
                    tracer.install()
                    try:
                        latency, kernel = tally.serve(program, req, tracer)
                    finally:
                        tracer.uninstall()
                    traced += latency
                kernels.append(kernel)
        rounds += 1
    tracer.write(SPAN_DIR / f"spans-{args.workload}.jsonl")
    speed = statistics.median(kernels) / CALIBRATION_REF_S
    metrics = tracer.metrics(rounds, speed)
    metrics["trace.overhead_pct"] = (100 * (traced / plain - 1), "%")
    return metrics, rounds, {"host_speed": speed}


if __name__ == "__main__":
    sys.exit(main())
