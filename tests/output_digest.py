"""One sha256 over every output of the benchmark workloads, and one over a
fixed sweep of every subcommand, for checking that a change keeps every
output byte-identical.

    python3 tests/output_digest.py 1 2 3

For each seed and each of the four workloads of casbench/workloads.py, every
request of the seed's round is served through `workloads.Program`, as the
benchmark serves it: in json (with the float multiplicity cross-check of an
`operator-spectrum` request, whose verdicts are part of the digest) and again
with `--output table`.  Each request adds (argv, exit code, stdout, stderr,
verdicts) to the digest.  One line per workload and seed gives that part's
request count and sha256, and the "total" line the sha256 over the four
workloads.

The sweep (sweep_requests) does not depend on the seeds.  It runs reptype,
classes, coincidences, hidden, estimate, report and hodge-rank1 on small
inputs, valid and invalid, each in json and with `--output table`, and adds
(argv, exit code, stdout, stderr) per request.  One line per subcommand
gives its part, and the "sweep total" line the sha256 over the sweep.

The operator sweep (operator_sweep_requests) runs spectrum and certify on
every group SU(2)^c x T^n with 1 <= c + n <= 3 at rep caps 0-2: spectrum at
one diagonal and one full metric, plain, with `--numeric` and with
`--numeric --ustar-dim 3`, and certify at budgets 1, 2, 7 and 12 and two
seeds; then certify on T^2 at rep cap 3 and SU(2) x T at rep cap 2 at
budget 40 and the same two seeds, where twenty diagonal candidates are
rejected before an off-diagonal one certifies.  Each request runs in json
and with `--output table`.  Its lines follow the sweep's, and end with
the "operator sweep total" line.

The large-hidden part (large_hidden_requests) runs hidden on every
weight-lattice class with a dominant member of A4 up to a^2 = 40, of B4,
C4 and D4 up to 50 and of F4 up to 80, all at `--point-cap 1152`, and on
the 2,800-point D5 class a^2 = 40 at `--point-cap 2800 --rank-cap 5`, each
in json and with `--output table`.  Its lines follow the operator sweep's:
one per type, then the "large hidden total" line, the sha256 over the part.

The report part (report_requests) runs report on A2, B2 and G2 at cap
120, on A3, B3 and C3 at cap 30 and on D4, B4 and C4 at cap 20 with
`--point-cap 1152`, each type in one K-mode (trivial, diagonal and torus in
turn, with the trivial U*), each in json and with `--output table`.  Its
lines follow the large-hidden part's: one per type, then the "report total"
line.

The report-paths part (report_path_requests) runs report on the paths the
report part does not reach: the root lattice, metric scale 3/2, point and
rank caps that refuse some or every class, `--real`, and rank-4 and rank-5
types at raised caps, each in json and with `--output table`.  Its lines
follow the report part's: one per path, then the "report paths total" line.

The classes part (classes_requests) runs classes and coincidences on every
type up to rank 4, on the weight and the root lattice, at caps that the
whole-ball walk of earlier versions served within its node cap (see
CLASSES_PART_CAPS), each in json and with `--output table`.  Its lines
follow the report-paths part's: one per subcommand, then the "classes
total" line.

Run it from a checkout's root, or copy it into another checkout's tests/
and run it there: the package comes from ./src and the workloads from
./casbench of the checkout that holds the script.  The script only reads
casbench.  It is not a test module (pytest does not collect this file name).
"""

from __future__ import annotations

import hashlib
import itertools
import json
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


# Types of the sweep, with the largest coordinate of their reptype weights.
SWEEP_TYPES = {
    "A1": 2, "A2": 2, "A3": 2, "A4": 1, "B2": 2, "B3": 2, "B4": 1, "C2": 2, "C3": 2, "C4": 1,
    "D4": 1, "F4": 1, "G2": 2, "E6": 1,
}
# Squared-radius caps of classes and coincidences per rank.
CLASS_CAPS = {1: ("30", "201/2"), 2: ("30", "182/3"), 3: ("14",), 4: ("8",), 6: ("6",)}


def _type_args(name, *extra):
    return ["--type", name[0], "--rank", name[1:], *extra]


def _ustars(rank):
    """U* texts: trivial, valid, a zero multiplicity, non-dominant, of the
    wrong length and a weight listed twice."""
    one = [1] + [0] * (rank - 1)
    low = [0] * (rank - 1) + [-1] if rank > 1 else [-1]
    return [
        "trivial",
        json.dumps([[one, 1], [[0] * rank, 2]]),
        json.dumps([[one, 0]]),
        json.dumps([[low, 1]]),
        json.dumps([[one + [0], 1]]),
        json.dumps([[one, 1], [one, 2]]),
    ]


def sweep_requests() -> dict:
    """{subcommand: [argv, ...]}, a fixed list of small requests."""
    reqs = {name: [] for name in ("reptype", "classes", "coincidences", "hidden", "estimate", "report", "hodge-rank1")}
    for name, top in SWEEP_TYPES.items():
        rank = int(name[1:])
        weights = [",".join(map(str, w)) for w in itertools.product(range(top + 1), repeat=rank)]
        weights += [",".join(["1"] * (rank - 1) + ["-1"]), ",".join(["1"] * (rank + 1))]
        reqs["reptype"] += [["reptype", *_type_args(name, "--weight", w)] for w in weights]
        for cap in CLASS_CAPS[rank]:
            for lattice in ("weight", "root"):
                for cmd in ("classes", "coincidences"):
                    reqs[cmd].append([cmd, *_type_args(name, "--lattice", lattice, "--cap", cap)])
    for name, a_sq in (("A2", "98/3"), ("B2", "25/2"), ("G2", "98/3"), ("B3", "21/2"), ("A3", "8")):
        for cap in ("0", "12", "1152", "10080"):
            reqs["hidden"].append(["hidden", *_type_args(name, "--a2", a_sq, "--weyl-cap", cap)])
    for name in ("A1", "A2", "B2", "G2", "A3"):
        rank = int(name[1:])
        ustars = _ustars(rank)
        for kmode in ("trivial", "diagonal", "torus"):
            for w in itertools.product(range(2), repeat=rank):
                for ustar in ustars:
                    argv = _type_args(name, "--weight", ",".join(map(str, w)), "--kmode", kmode, "--ustar", ustar)
                    reqs["estimate"].append(["estimate", *argv])
            for real in ((), ("--real",)):
                for ustar in ustars[:4]:
                    argv = _type_args(name, "--cap", "30" if rank < 3 else "12", "--kmode", kmode, "--ustar", ustar)
                    reqs["report"].append(["report", *argv, *real])
    reqs["hodge-rank1"] = [["hodge-rank1", "--cap", cap] for cap in ("-1", "0", "2", "7/2", "20", "100")]
    return reqs


# Groups (SU(2) copies, torus rank) of the operator sweep.
OPERATOR_SHAPES = [(c, n) for c in range(4) for n in range(4) if 1 <= c + n <= 3]


def _full_kappa(n: int) -> str:
    """Inline JSON of a definite metric with every entry nonzero: diagonal
    (i + 3)/2, off-diagonal +-1/(n + i + j + 5), so each row is dominated
    by its diagonal."""
    entries = [[i, i, f"{i + 3}/2"] for i in range(n)]
    entries += [[i, j, f"{(-1) ** (i + j)}/{n + i + j + 5}"] for i in range(n) for j in range(i + 1, n)]
    return json.dumps({"n": n, "entries": entries})


def operator_sweep_requests() -> dict:
    """{subcommand: [argv, ...]} of the operator sweep."""
    reqs = {"spectrum": [], "certify": []}
    for (su2, torus), cap in itertools.product(OPERATOR_SHAPES, range(3)):
        group = ["--su2", str(su2), "--torus", str(torus), "--rep-cap", str(cap)]
        n = 3 * su2 + torus
        for kappa in ("diag:" + ",".join(f"{i + 2}/{i + 1}" for i in range(n)), _full_kappa(n)):
            for numeric in ((), ("--numeric",), ("--numeric", "--ustar-dim", "3")):
                reqs["spectrum"].append(["spectrum", *group, "--kappa", kappa, *numeric])
        for budget, seed in itertools.product(("1", "2", "7", "12"), ("2026", "7")):
            reqs["certify"].append(["certify", *group, "--budget", budget, "--seed", seed])
    for (su2, torus, cap), seed in itertools.product(((0, 2, 3), (1, 1, 2)), ("2026", "7")):
        group = ["--su2", str(su2), "--torus", str(torus), "--rep-cap", str(cap)]
        reqs["certify"].append(["certify", *group, "--budget", "40", "--seed", seed])
    return reqs


# Squared-radius caps of the rank-4 types of the large-hidden part.
LARGE_HIDDEN_CAPS = {"A4": 40, "B4": 50, "C4": 50, "D4": 50, "F4": 80}


def large_hidden_requests() -> dict:
    """{type: [argv, ...]} of the large-hidden part."""
    _load_workloads()
    from casimir_lab.rootsys import RootSystemType, build_root_system
    from casimir_lab.weights import LatticeChoice, classes_up_to

    reqs = {}
    for name, cap in LARGE_HIDDEN_CAPS.items():
        rs = build_root_system(RootSystemType(name[0], int(name[1:])))
        reqs[name] = [
            ["hidden", *_type_args(name, "--a2", str(cls.a_sq), "--point-cap", "1152")]
            for cls in classes_up_to(rs, LatticeChoice.WEIGHT, cap)
        ]
    reqs["D5"] = [["hidden", *_type_args("D5", "--a2", "40", "--point-cap", "2800", "--rank-cap", "5")]]
    return reqs


# (squared-radius cap, extra arguments) of the report part per type, and the
# K-mode of each type in turn.
REPORT_CAPS = {
    "A2": ("120",), "B2": ("120",), "G2": ("120",), "A3": ("30",), "B3": ("30",), "C3": ("30",),
    "D4": ("20", "--point-cap", "1152"), "B4": ("20", "--point-cap", "1152"), "C4": ("20", "--point-cap", "1152"),
}
REPORT_KMODES = ("trivial", "diagonal", "torus")


def report_requests() -> dict:
    """{type: [argv]} of the report part."""
    return {
        name: [["report", *_type_args(name, "--cap", cap, *extra, "--kmode", kmode)]]
        for (name, (cap, *extra)), kmode in zip(REPORT_CAPS.items(), itertools.cycle(REPORT_KMODES))
    }


# {path: [(type, squared-radius cap, extra arguments), ...]} of the
# report-paths part.
REPORT_PATHS = {
    "root lattice": [
        (name, cap, "--lattice", "root", "--kmode", kmode)
        for name, cap in (("A2", "120"), ("B2", "120"), ("G2", "120"), ("A3", "30"), ("C3", "30"))
        for kmode in REPORT_KMODES
    ],
    "scale 3/2": [
        (name, cap, "--scale", "3/2", "--kmode", kmode)
        for name, cap in (("A2", "180"), ("B2", "180"), ("G2", "180"), ("B3", "45"))
        for kmode in REPORT_KMODES
    ],
    "point cap": [
        (name, cap, "--point-cap", pc)
        for name, cap in (("A2", "120"), ("G2", "120"), ("B3", "30"))
        for pc in ("0", "6", "24", "48")
    ],
    "rank cap": [
        (name, cap, "--rank-cap", rc) for name, cap in (("A2", "60"), ("A3", "30")) for rc in ("0", "1", "2", "3")
    ],
    "real": [
        (name, cap, "--kmode", kmode, "--real")
        for name, cap in (("A2", "120"), ("B2", "120"), ("G2", "120"), ("A3", "30"))
        for kmode in REPORT_KMODES
    ],
    "raised caps": [
        ("A4", "20", "--lattice", "root", "--point-cap", "1000"),
        ("B4", "30", "--point-cap", "1152", "--kmode", "diagonal"),
        ("C4", "30", "--point-cap", "1152", "--kmode", "torus"),
        ("F4", "52", "--point-cap", "2000"),
        ("A5", "20", "--lattice", "root", "--rank-cap", "5", "--point-cap", "4000", "--kmode", "diagonal"),
        ("D5", "34", "--rank-cap", "5", "--point-cap", "4000"),
    ],
}


def report_path_requests() -> dict:
    """{path: [argv, ...]} of the report-paths part."""
    return {
        path: [["report", *_type_args(name, "--cap", cap, *extra)] for name, cap, *extra in runs]
        for path, runs in REPORT_PATHS.items()
    }


# Squared-radius cap of the classes part per type.
CLASSES_PART_CAPS = {
    "A1": "400", "A2": "200", "B2": "200", "C2": "200", "G2": "200", "A3": "60", "B3": "60", "C3": "60",
    "D3": "60", "A4": "40", "B4": "40", "C4": "40", "D4": "40", "F4": "80",
}


def classes_requests() -> dict:
    """{subcommand: [argv, ...]} of the classes part."""
    return {
        cmd: [
            [cmd, *_type_args(name, "--lattice", lattice, "--cap", cap)]
            for name, cap in CLASSES_PART_CAPS.items()
            for lattice in ("weight", "root")
        ]
        for cmd in ("classes", "coincidences")
    }


def sweep_digest(requests, prefix: str) -> list:
    """[(label, requests, sha256)] per subcommand of requests, then
    (prefix + " total", n, sha256)."""
    workloads = _load_workloads()
    program = workloads.Program()
    total, count, lines = hashlib.sha256(), 0, []
    for name, argvs in requests.items():
        part, n = hashlib.sha256(), 0
        for argv in argvs:
            for full in (argv, [*argv, "--output", "table"]):
                blob = repr((full, *program.run_cli(full))).encode()
                part.update(blob)
                total.update(blob)
                n += 1
        lines.append((f"{prefix} {name}", n, part.hexdigest()))
        count += n
    lines.append((f"{prefix} total", count, total.hexdigest()))
    return lines


def main(argv) -> int:
    if not argv:
        print("usage: python3 tests/output_digest.py SEED [SEED ...]", file=sys.stderr)
        return 2
    lines = digest([int(s) for s in argv])
    lines += sweep_digest(sweep_requests(), "sweep") + sweep_digest(operator_sweep_requests(), "operator sweep")
    lines += sweep_digest(large_hidden_requests(), "large hidden") + sweep_digest(report_requests(), "report")
    lines += sweep_digest(report_path_requests(), "report paths") + sweep_digest(classes_requests(), "classes")
    for label, n, sha in lines:
        print(f"{label}: {n} requests {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
