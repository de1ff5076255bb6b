"""One sha256 over every output of the benchmark workloads, for checking that
a change keeps every output byte-identical.

    python3 tests/output_digest.py 1 2 3

For each seed and each of the four workloads of casbench/workloads.py, every
request of the seed's round is served through `workloads.Program`, as the
benchmark serves it: in json (with the float multiplicity cross-check of an
`operator-spectrum` request, whose verdicts are part of the digest) and again
with `--output table`.  Each request adds (argv, exit code, stdout, stderr,
verdicts) to the digest.  One line per workload and seed gives that part's
request count and sha256; the last line is the sha256 over everything.

Run it from a checkout's root, or copy it into another checkout's tests/
and run it there: the package comes from ./src and the workloads from
./casbench of the checkout that holds the script.  The script only reads
casbench.  It is not a test module (pytest does not collect this file name).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "casbench")]
    import workloads

    return workloads


def digest(seeds) -> list:
    """[(label, requests, sha256)] per workload and seed, then ("total", n, sha256)."""
    workloads = _load_workloads()
    program = workloads.Program()
    total, count, lines = hashlib.sha256(), 0, []
    for seed in seeds:
        for name in workloads.WORKLOADS:
            part, n = hashlib.sha256(), 0
            for req in workloads.build_round(name, seed):
                code, out, err, verdicts = program.serve(req)
                table = program.run_cli([*req.argv, "--output", "table"])
                for record in ((req.argv, code, out, err, verdicts), ([*req.argv, "--output", "table"], *table, None)):
                    blob = repr(record).encode()
                    part.update(blob)
                    total.update(blob)
                    n += 1
            lines.append((f"{name} seed {seed}", n, part.hexdigest()))
            count += n
    lines.append(("total", count, total.hexdigest()))
    return lines


def main(argv) -> int:
    if not argv:
        print("usage: python3 tests/output_digest.py SEED [SEED ...]", file=sys.stderr)
        return 2
    for label, n, sha in digest([int(s) for s in argv]):
        print(f"{label}: {n} requests {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
