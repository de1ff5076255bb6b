"""A long-lived process that serves the benchmark's requests keeps its
memory flat: caches fill in the first rounds, and later rounds add nothing."""

import gc
import importlib
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 4
GROWTH_LIMIT = 64 * 1024


def test_memory_stays_flat_across_rounds(monkeypatch):
    # Seed-1 rounds of every workload, served through workloads.Program as the
    # benchmark and tests/output_digest.py serve them, under tracemalloc.
    monkeypatch.syspath_prepend(str(ROOT / "casbench"))
    workloads = importlib.import_module("workloads")
    program = workloads.Program()
    requests = [req for name in workloads.WORKLOADS for req in workloads.build_round(name, 1)]
    traced = []
    tracemalloc.start()
    try:
        for _ in range(ROUNDS):
            for req in requests:
                program.serve(req)
            gc.collect()
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert traced[-1] - traced[1] < GROWTH_LIMIT, traced
