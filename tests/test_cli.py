"""Command-line surface: payload shapes, exit codes, canonical output."""

import argparse
import ast
import hashlib
import io
import importlib
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from enum import Enum, IntEnum
from fractions import Fraction as Q
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_lab import cli
from casimir_lab.cli import main, parse_kappa, parse_ustar
from casimir_lab.errors import CapExceeded, InternalConsistencyError
from casimir_lab import hidden, oplab, polyq, spectra
from casimir_lab.oplab import GroupSpec, IrrepSpec, multiplicity_at_float
from casimir_lab.polyq import RationalPoly
from casimir_lab.reps import KMode, RepType
from casimir_lab.rootsys import RootSystemType, build_root_system, weyl_orbit
from casimir_lab.weights import DEFAULT_NODE_CAP, LatticeChoice, classes_up_to
from jsonref import jsonable
from polyref import doubled_den, rpoly

ROOT = Path(__file__).resolve().parents[1]
A2 = build_root_system(RootSystemType("A", 2))


def _child_env() -> dict:
    """The environment of a child interpreter: this one's, with the
    package's src first on PYTHONPATH, which pytest's pythonpath setting
    does not reach."""
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert err == ""
    return json.loads(out)


def test_classes_payload(capsys):
    data = run_json(capsys, "classes", "--type", "A", "--rank", "2", "--cap", "182/3")
    assert data["schema"] == "casimir-lab/1"
    assert data["context"]["family"] == "A"
    last = data["classes"][-1]
    assert last["a_sq"] == "182/3"
    assert last["lambda"] == "176/3"
    assert last["dominant_members"] == [[0, 8], [4, 5], [5, 4], [8, 0]]
    assert last["sphere_size"] == 24


def test_coincidences_filters_dual_pairs(capsys):
    data = run_json(capsys, "coincidences", "--type", "A", "--rank", "2", "--cap", "182/3")
    # only classes holding a pair that is NOT exchanged by duality remain
    assert [c["a_sq"] for c in data["classes"]] == ["182/3"]


def test_hidden_hexagon(capsys):
    data = run_json(capsys, "hidden", "--type", "A", "--rank", "2", "--a2", "8")
    assert data["points"] == 6
    assert data["order"] == 12
    assert data["orbits"] == 1
    assert data["transitive"] is True
    assert data["weyl_included"] is True


def test_hidden_nontransitive_class(capsys):
    data = run_json(capsys, "hidden", "--type", "B", "--rank", "2", "--a2", "25/2")
    assert data["points"] == 12
    assert data["orbits"] == 2
    assert data["transitive"] is False
    assert data["weyl_included"] is True


def test_hidden_cap_refusal_machine_readable(capsys):
    code, out, err = run(
        capsys, "hidden", "--type", "A", "--rank", "2", "--a2", "98/3", "--point-cap", "10"
    )
    assert code == 3
    assert out == ""  # no partial JSON on stdout
    reason = json.loads(err)
    assert reason == {"error": "cap-exceeded", "what": "configuration size", "actual": 18, "limit": 10}


@pytest.mark.parametrize(
    "argv",
    [
        ("hidden", "--type", "E", "--rank", "6", "--a2", "80"),
        ("classes", "--type", "A", "--rank", "3", "--cap", "100000"),
        ("report", "--type", "A", "--rank", "3", "--cap", "10000"),
    ],
)
def test_enumeration_refused_while_it_runs(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (3, "")
    reason = json.loads(err)
    assert reason["what"] == "enumeration nodes" and reason["limit"] == DEFAULT_NODE_CAP < reason["actual"]


@pytest.mark.parametrize(
    "family,a_sq,points", [("D", "14", 192), ("B", "30", 576), ("C", "15", 576)]
)
def test_rank4_hidden_at_raised_point_cap(capsys, family, a_sq, points):
    data = run_json(capsys, "hidden", "--type", family, "--rank", "4", "--a2", a_sq, "--point-cap", "600")
    assert (data["points"], data["order"], data["orbits"]) == (points, 1152, 1)
    assert data["transitive"] is True and data["weyl_included"] is True


def test_hidden_exits_4_when_the_sift_identity_fails(capsys, monkeypatch):
    search = hidden._search

    def drop_first_generator(cfg, basis):
        group = search(cfg, basis)
        return hidden.PermGroup(group.base, group.gens[1:], group.orbit_lengths)

    monkeypatch.setattr(hidden, "_search", drop_first_generator)
    code, out, err = run(capsys, "hidden", "--type", "B", "--rank", "3", "--a2", "35/4")
    assert (code, out) == (4, "")
    assert err.startswith("internal consistency failure: ") and "Traceback" not in err


def test_point_cap_refuses_before_the_gram_matrix(capsys):
    # 4800 points: the point cap must refuse before the search and the sift,
    # whose work and memory grow with the number of points.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "hidden", "--type", "D", "--rank", "5", "--a2", "60")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "cap-exceeded", "what": "configuration size", "actual": 4800, "limit": 60}


def test_lie_rank_cap_refuses_before_the_cartan_matrix(capsys):
    for family in "ABCD":
        t0 = time.perf_counter()
        code, out, err = run(capsys, "classes", "--type", family, "--rank", "33", "--cap", "1")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "cap-exceeded", "what": "Lie rank", "actual": 33, "limit": 32}
    data = run_json(capsys, "classes", "--type", "A", "--rank", "32", "--cap", "1")
    assert data["context"]["rank"] == 32


SUPPORTED_TYPES = (
    [("A", n) for n in range(1, 5)] + [(f, n) for f in "BC" for n in range(2, 5)]
    + [("D", n) for n in range(3, 6)] + [("E", n) for n in range(6, 9)] + [("F", 4), ("G", 2)]
)


@st.composite
def capped_requests(draw):
    """A classes, coincidences, hidden or reptype request with small caps, radii and weights."""
    family, rank = draw(st.sampled_from(SUPPORTED_TYPES))
    argv = ["--type", family, "--rank", str(rank), "--lattice", draw(st.sampled_from(["weight", "root"]))]
    radius = str(Q(draw(st.integers(-2, 240)), draw(st.sampled_from([1, 2, 3, 4, 12]))))
    command = draw(st.sampled_from(["classes", "coincidences", "hidden", "reptype"]))
    if command == "reptype":
        weight = draw(st.lists(st.integers(-1, 3), min_size=rank, max_size=rank))
        return ["reptype", *argv, "--weight", ",".join(map(str, weight))]
    if command != "hidden":
        return [command, *argv, "--cap", radius]
    caps = [
        "--point-cap", str(draw(st.integers(0, 60))),
        "--rank-cap", str(draw(st.integers(0, 4))),
        "--weyl-cap", str(draw(st.sampled_from([0, 12, 1152, 10080]))),
    ]
    return ["hidden", *argv, "--a2", radius, *caps]


def _exit_code_within_contract(argv) -> int:
    """main's exit code on argv, after checking that it is one of the
    contract's codes, came within 10 s and left no traceback."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - t0 < 10.0, argv
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(capped_requests())
@example(["reptype", "--type", "E", "--rank", "8", "--weight", "0,0,0,0,0,0,0,1"])
@example(["hidden", "--type", "E", "--rank", "8", "--a2", "640"])
@example(["reptype", "--type", "A", "--rank", "2", "--weight", ",".join(["9" * 1500] * 2)])
def test_capped_commands_keep_the_exit_code_contract(argv):
    assert _exit_code_within_contract(argv) in (0, 2, 3)


@st.composite
def operator_requests(draw):
    """A spectrum or certify request on a small SU(2)^c x T^n with a small
    rep cap; spectra at a random symmetric rational kappa, definite or not,
    with or without --numeric."""
    su2, torus = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    group = ["--su2", str(su2), "--torus", str(torus), "--rep-cap", str(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        return ["certify", *group, "--budget", str(draw(st.integers(0, 20))), "--seed", str(draw(st.integers(0, 99)))]
    n = max(1, 3 * su2 + torus + draw(st.sampled_from([0] * 8 + [1, -1])))
    value = st.builds(lambda p, q: str(Q(p, q)), st.integers(-12, 12), st.integers(1, 12))
    # a diagonal past 12 (n - 1) dominates every row, so half of the kappas are definite
    diagonal = st.integers(12 * n, 24 * n).map(str) if draw(st.booleans()) else value
    if draw(st.booleans()):
        # half of the kappas may hold numerators or denominators of 100 to
        # 1,300 digits, around the metric bits cap and the float range
        long = st.integers(100, 1_300).map(lambda e: 10**e + 7)
        value = st.one_of(value, st.builds(lambda x, sign: str(sign * x), long, st.sampled_from([1, -1])))
        diagonal = st.one_of(diagonal, long.map(str), long.map(lambda x: f"1/{x}"))
    entries = [[i, j, draw(diagonal if i == j else value)] for i in range(n) for j in range(i, n)
               if i == j or draw(st.booleans())]
    kappa = json.dumps({"n": n, "entries": entries})
    return ["spectrum", *group, "--kappa", kappa, *(["--numeric"] if draw(st.booleans()) else [])]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(operator_requests())
@example(["certify", "--su2", "1", "--torus", "1", "--rep-cap", "4", "--budget", "20"])
@example(["spectrum", "--su2", "1", "--rep-cap", "4", "--kappa", "diag:1,-2,3", "--numeric"])
@example(["spectrum", "--su2", "1", "--rep-cap", "12", "--kappa", f"diag:{10**999 + 7},1,1"])
@example(["spectrum", "--su2", "1", "--rep-cap", "2", "--kappa", f"diag:{10**999 + 7},1,1", "--numeric"])
@example(["spectrum", "--su2", "1", "--rep-cap", "8", "--kappa", "diag:1,2,3", "--ustar-dim", "9" * 4299, "--numeric"])
def test_operator_commands_keep_the_exit_code_contract(argv):
    _exit_code_within_contract(argv)


# Types of the spectral fuzz, each with its largest radius: the rank-1
# Hodge table and rank-3 reports stay well inside the 10 s bound.
SPECTRAL_TYPES = {
    ("A", 1): 200, ("A", 2): 40, ("B", 2): 40, ("G", 2): 40, ("A", 3): 14, ("B", 3): 14, ("C", 3): 14, ("B", 4): 8,
}


@st.composite
def spectral_requests(draw):
    """An estimate, report or hodge-rank1 request on a small type: weights
    and U* weights in -1..3, every K mode, complex or real, small caps."""
    command = draw(st.sampled_from(["estimate", "report", "hodge-rank1"]))
    (family, rank), top = draw(st.sampled_from(sorted(SPECTRAL_TYPES.items())))
    radius = str(Q(draw(st.integers(-2, top * 4)), draw(st.sampled_from([1, 2, 3, 4]))))
    if command == "hodge-rank1":
        return ["hodge-rank1", "--cap", radius]
    argv = ["--type", family, "--rank", str(rank), "--lattice", draw(st.sampled_from(["weight", "root"]))]
    argv += ["--kmode", draw(st.sampled_from([k.value for k in KMode]))]
    coords = st.lists(st.integers(-1, 3), min_size=rank, max_size=rank)
    if draw(st.booleans()):
        items = draw(st.lists(st.tuples(coords, st.integers(0, 2)), max_size=3, unique_by=lambda t: tuple(t[0])))
        argv += ["--ustar", json.dumps([list(t) for t in items])]
    if command == "estimate":
        return ["estimate", *argv, "--weight", ",".join(map(str, draw(coords)))]
    caps = ["--point-cap", str(draw(st.integers(0, 60))), "--rank-cap", str(draw(st.integers(0, 4)))]
    return ["report", *argv, "--cap", radius, *caps, *(["--real"] if draw(st.booleans()) else [])]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(spectral_requests())
@example(["estimate", "--type", "B", "--rank", "4", "--weight", "2,2,2,2", "--kmode", "torus"])
@example(["report", "--type", "A", "--rank", "2", "--cap", "20", "--kmode", "torus", "--ustar", "[[[-1, 0], 1]]", "--real"])
@example(["hodge-rank1", "--cap", "-1"])
@example(["estimate", "--type", "A", "--rank", "1", "--weight", "9" * 4000, "--kmode", "trivial"])
def test_spectral_commands_keep_the_exit_code_contract(argv):
    _exit_code_within_contract(argv)


# Requests whose payload holds an int past the interpreter's 4,300-digit
# int-to-str limit, with that int's digit count: a dimension (N + 1)^3, a
# squared radius 10^8000 / 2 and an assembled dimension.
LONG_OUTPUT_REQUESTS = [
    (["reptype", "--type", "A", "--rank", "2", "--weight", ",".join(["9" * 1500] * 2)], 4501),
    (["estimate", "--type", "A", "--rank", "1", "--weight", "9" * 4000, "--kmode", "trivial"], 8000),
    (["spectrum", "--su2", "1", "--rep-cap", "8", "--kappa", "diag:1,2,3", "--ustar-dim", "9" * 4299, "--numeric"], 4301),
]


@pytest.mark.parametrize("argv,digits", LONG_OUTPUT_REQUESTS, ids=["reptype", "estimate", "spectrum"])
def test_an_int_too_long_to_write_is_refused(capsys, argv, digits):
    limit = sys.get_int_max_str_digits()
    for output in ("json", "table"):
        code, out, err = run(capsys, *argv, "--output", output)
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "cap-exceeded", "what": "output integer digits", "actual": digits, "limit": limit}


def test_refused_ints_report_their_exact_digit_count():
    for k in (4300, 4301, 5000, 12_345):
        assert cli._too_long(10**k).actual == k + 1
        assert cli._too_long(-(10**k - 1)).actual == k


def test_a_cap_refusal_with_a_count_too_long_to_write_exits_3(capsys):
    # 1/N scale and cap N for N of 4,300 nines: the enumeration would try a
    # count of 4,301 digits, which the refusal writes as its digit count
    n = "9" * 4300
    code, out, err = run(capsys, "classes", "--type", "A", "--rank", "1", "--scale", f"1/{n}", "--cap", n)
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "cap-exceeded", "what": "enumeration nodes",
                               "actual": "4301 digits", "limit": DEFAULT_NODE_CAP}
    assert str(CapExceeded("x", -(10**5000), 7)) == "x = 5001 digits exceeds cap 7"
    assert CapExceeded("x", 10**4299, 7).actual == 10**4299


# A short decimal whose exponent would expand past the interpreter's
# 4,300-digit limit, in each kind of place that reads a rational.
LONG_EXPONENT_INPUTS = [
    ("classes", "--type", "A", "--rank", "1", "--cap", "1e1000000"),
    ("hidden", "--type", "A", "--rank", "2", "--a2", "1e-1000000"),
    ("classes", "--type", "A", "--rank", "1", "--cap", "2", "--scale", "1e1000000"),
    ("spectrum", "--su2", "1", "--kappa", '{"n": 3, "entries": [[0, 0, "1e1000000"], [1, 1, "1"], [2, 2, "1"]]}'),
]


@pytest.mark.parametrize("argv", LONG_EXPONENT_INPUTS, ids=["cap", "a2", "scale", "kappa"])
def test_a_long_exponent_is_refused_before_it_is_expanded(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err and "Traceback" not in err
    assert time.perf_counter() - t0 < 1.0


def test_rational_inputs_are_refused_past_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    assert cli.rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert cli.rational(f"-5e-{limit - 1}") == Q(-1, 2 * 10 ** (limit - 2))
    assert cli.rational(f"0e{10**7}") == cli.rational(" -0.0E+9_999_999 ") == 0
    assert cli.rational("1.5E+3") == 1500
    for text in (f"1e{limit}", f"1e-{limit}", f"0.{'0' * (limit - 1)}1", f"7e{3 * limit}", f"7e-{3 * limit}"):
        with pytest.raises(ValueError, match=f"more than {limit} digits"):
            cli.rational(text)
    # not a literal, however long the exponent
    for text in (f"1/2e{10**7}", f"1/0e{10**7}", f"e{10**7}"):
        with pytest.raises(ValueError, match="Invalid literal"):
            cli.rational(text)
    # a value under the limit still reaches the caps
    code, out, err = run(capsys, "classes", "--type", "A", "--rank", "1", "--cap", "1e4000")
    assert (code, out, json.loads(err)["what"]) == (3, "", "enumeration nodes")


def test_weight_table_cap_refuses_a_large_estimate(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "estimate", "--type", "B", "--rank", "4", "--weight", "2,2,2,2", "--kmode", "torus")
    assert time.perf_counter() - t0 < 2.0
    assert (code, out) == (3, "")
    reason = json.loads(err)
    assert (reason["what"], reason["limit"]) == ("weight table size", 4096) and reason["actual"] > 4096


def _hidden_argv(name, a_sq, *extra):
    return ["hidden", "--type", name[0], "--rank", name[1:], "--a2", str(a_sq), *extra]


def _pinned_hidden_requests():
    """Every class of A2, B2 and G2 with a^2 <= 60, edge radii, other
    scales and lattices, and each cap refusal."""
    argvs = []
    for name in ("A2", "B2", "G2"):
        rs = build_root_system(RootSystemType(name[0], int(name[1:])))
        argvs += [_hidden_argv(name, c.a_sq) for c in classes_up_to(rs, LatticeChoice.WEIGHT, 60)]
        argvs += [
            _hidden_argv(name, 0),
            _hidden_argv(name, -1),
            _hidden_argv(name, 5),
            _hidden_argv(name, "7/5"),
            _hidden_argv(name, 12, "--scale", "3/2"),
            _hidden_argv(name, 15, "--scale", "3/2"),
            _hidden_argv(name, 13, "--scale", "3/2"),
            _hidden_argv(name, 8, "--lattice", "root"),
            _hidden_argv(name, "26/3", "--lattice", "root"),
            _hidden_argv(name, "25/2", "--lattice", "root"),
            _hidden_argv(name, "98/3", "--point-cap", "10"),
            _hidden_argv(name, "13/2", "--rank-cap", "1"),
            _hidden_argv(name, "26/3", "--weyl-cap", "5"),
            _hidden_argv(name, 25, "--output", "table"),
        ]
    return argvs


# sha256 of the exit code, stdout and stderr of every request above, recorded
# before the integer lattice core replaced the Fraction stabilizer and the
# all-of-W Weyl check.
HIDDEN_PIN = "aa672d65b603a47b5d73567d07c9898e08ed45f85ffa8ff46aba1ed93d5d4c42"


def test_hidden_output_pinned(capsys):
    digest = hashlib.sha256()
    argvs = _pinned_hidden_requests()
    assert len(argvs) > 100
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        digest.update(json.dumps([argv, code, out, err]).encode())
    assert digest.hexdigest() == HIDDEN_PIN


# (request function, request count, sha256) of the six totals of
# tests/output_digest.py, each request in json and with --output table: the
# sweep of every subcommand but spectrum and certify, the report part and
# the report-paths part, recorded before U* became one KModule value, the
# classes part, recorded on the whole-ball walk before classes_up_to
# walked only the closed chamber, and the operator sweep and the
# large-hidden part, recorded before oplab kept operator data per process.
DIGEST_PINS = {
    "sweep": ("sweep_requests", 1820, "40d2f88304e6e39fc742de81697c26fe1d26cd5b1456b652e71b77d3b8bb68d4"),
    "operator sweep": (
        "operator_sweep_requests", 764, "d64bd0d027a7ac12b0179052520d03811d9087c79c1ea06f26b8b6eb74bfc7a9"),
    "large hidden": ("large_hidden_requests", 166, "4607766d15ee457d7eab4b9a2b41e469a98d0e063134caa73070be458631a8d5"),
    "report": ("report_requests", 18, "1ee85a34088b13b96395d21260025c8cbad69d4986fcb04fcf959149aa7cd5ef"),
    "report paths": ("report_path_requests", 130, "dfe45c2d680ea8aca33553a6ddc8f17d3387b56289003be58c30e68bb4d92ed1"),
    "classes": ("classes_requests", 112, "01220d01fb4a07b97b785da0b91fa2a192fb41ac41a30ce3e686376704d25782"),
}


@pytest.mark.parametrize("prefix", DIGEST_PINS)
def test_output_digest_total_pinned(monkeypatch, prefix):
    monkeypatch.setattr(sys, "path", list(sys.path))  # output_digest prepends src and casbench
    import output_digest

    requests, count, sha = DIGEST_PINS[prefix]
    lines = output_digest.sweep_digest(getattr(output_digest, requests)(), prefix)
    assert lines[-1] == (f"{prefix} total", count, sha)


def test_operator_sweep_digest_is_the_same_cold_and_warm(monkeypatch):
    # with oplab's per-process tables emptied, then filled by the first pass
    monkeypatch.setattr(sys, "path", list(sys.path))  # output_digest prepends src and casbench
    import output_digest

    oplab._rep_list.cache_clear()
    oplab._quad_pieces.cache_clear()
    cold = output_digest.sweep_digest(output_digest.operator_sweep_requests(), "operator sweep")
    assert oplab._quad_pieces.cache_info().currsize > 0
    warm = output_digest.sweep_digest(output_digest.operator_sweep_requests(), "operator sweep")
    assert cold == warm and cold[-1] == ("operator sweep total", *DIGEST_PINS["operator sweep"][1:])


# The seed-1 lines of tests/output_digest.py: every request of each
# benchmark workload's seed-1 round, served as the benchmark serves it, in
# json (with the float cross-check verdicts of operator-spectrum) and with
# --output table.
WORKLOAD_SEED1_PINS = [
    ("hidden-sweep seed 1", 96, "667381c3f559bd834abc2f514e250bb94e7f3bdc6452b20a98748d8a0a723aa8"),
    ("spectral-report seed 1", 70, "6b876abb6c689eb7200a943f946cfbe5742f94fe0d43d84ce7da2dd92224f667"),
    ("operator-certify seed 1", 50, "e9c41bd8cba16472fe4d7d20764519108a8a0b54bfdc7fc9885c5728d56f8a48"),
    ("operator-spectrum seed 1", 34, "61eaa424fbbcaa6311f0c6a2ddc7d2a8e4c48b1f676d4b9f1572b377ddd050da"),
]


def test_output_digest_workload_lines_pinned(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # output_digest prepends src and casbench
    import output_digest

    assert output_digest.digest([1])[:-1] == WORKLOAD_SEED1_PINS


def _pinned_rank3_hidden_requests():
    """Every 48-point class of A3, B3 and C3 with a^2 <= 21."""
    argvs = []
    for name in ("A3", "B3", "C3"):
        rs = build_root_system(RootSystemType(name[0], int(name[1:])))
        classes = classes_up_to(rs, LatticeChoice.WEIGHT, 21)
        argvs += [_hidden_argv(name, c.a_sq) for c in classes if c.sphere_size == 48]
    return argvs


# sha256 of the exit code, stdout and stderr of every request above, recorded
# while sphere sets still came from the Fraction ellipsoid scan.
RANK3_HIDDEN_PIN = "f5ac9f3d8a5d3e4b9dfc4ae58199a863dd6485c195c193f66d7a82831988b712"


def test_rank3_hidden_output_pinned(capsys):
    digest = hashlib.sha256()
    argvs = _pinned_rank3_hidden_requests()
    assert len(argvs) == 12
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        digest.update(json.dumps([argv, code, out, err]).encode())
    assert digest.hexdigest() == RANK3_HIDDEN_PIN


# A1 at a^2 = 5 * 10^39: the points are y = +-10^20, past the int64 bound of
# hidden.ShiftedConfig, so the Gram matrix holds Python ints.  sha256 of
# argv, exit code, stdout and stderr, recorded while the Gram matrix was a
# tuple of Python-int rows.
HUGE_A1_HIDDEN = ["hidden", "--type", "A", "--rank", "1", "--a2", "5" + "0" * 39]
HUGE_A1_HIDDEN_PIN = "d6b33a3d72f4af65f0afac07f8d62e67f487d95f71228af32a7b13acd03a3f4c"


def test_hidden_past_the_int64_bound_pinned(capsys):
    code, out, err = run(capsys, *HUGE_A1_HIDDEN)
    data = json.loads(out)
    assert (code, data["points"], data["order"], data["orbits"]) == (0, 2, 2, 1)
    assert data["dominant_members"] == [[10**20 - 1]]
    digest = hashlib.sha256(json.dumps([HUGE_A1_HIDDEN, code, out, err]).encode())
    assert digest.hexdigest() == HUGE_A1_HIDDEN_PIN


def _sys_argv(name):
    return ["--type", name[0], "--rank", name[1:]]


REPORT_CAPS = {"A1": 60, "A2": 20, "B2": 20, "G2": 22, "A3": 8, "B3": 10, "C3": 9}
REPTYPE_WEIGHTS = {
    "D5": ("1,0,0,0,0", "0,0,0,1,0", "0,0,0,0,1", "1,0,0,1,0", "0,1,0,0,1", "2,1,0,1,0"),
    "E6": ("1,0,0,0,0,0", "0,0,0,0,0,1", "1,0,0,0,0,1", "0,0,1,0,0,0", "0,1,0,0,1,0", "2,0,0,0,1,0"),
    "F4": ("1,0,0,0", "0,0,0,1", "1,1,0,1", "0,0,1,0"),
}


def _pinned_spectral_requests():
    """Reports in every K mode, complex and real, estimates, rep types,
    classes and coincidences on A1-G2 and rank 3, another scale and the
    root lattice, and rep types on D5, E6 and F4, whose duals need long
    chamber walks."""
    argvs = [["hodge-rank1", "--cap", str(cap)] for cap in (30, 50, 90)]
    for name, cap in REPORT_CAPS.items():
        sys_argv = _sys_argv(name)
        for kmode in ("trivial", "diagonal", "torus"):
            argvs += [["report", *sys_argv, "--cap", str(cap), "--kmode", kmode, *real] for real in ([], ["--real"])]
        argvs += [["classes", *sys_argv, "--cap", str(2 * cap)], ["coincidences", *sys_argv, "--cap", str(3 * cap)]]
        rank = int(name[1:])
        weights = [",".join(map(str, w)) for w in itertools.product(range(3), repeat=rank)]
        argvs += [["reptype", *sys_argv, "--weight", w] for w in weights]
        for w, kmode in zip(weights[1 :: 3 * rank - 2], itertools.cycle(("trivial", "diagonal", "torus"))):
            argvs.append(["estimate", *sys_argv, "--weight", w, "--kmode", kmode])
    for name, weights in REPTYPE_WEIGHTS.items():
        argvs += [["reptype", *_sys_argv(name), "--weight", w] for w in weights]
    for extra in (["--scale", "3/2"], ["--lattice", "root"]):
        for name in ("A2", "B2", "G2"):
            sys_argv = [*_sys_argv(name), *extra]
            argvs += [
                ["report", *sys_argv, "--cap", "30", "--kmode", "diagonal"],
                ["report", *sys_argv, "--cap", "30", "--kmode", "torus", "--real"],
                ["classes", *sys_argv, "--cap", "40"],
                ["coincidences", *sys_argv, "--cap", "90"],
                ["estimate", *sys_argv, "--weight", "1,1", "--kmode", "diagonal"],
                ["estimate", *sys_argv, "--weight", "3,0", "--kmode", "torus"],
                ["reptype", *sys_argv, "--weight", "2,1"],
            ]
    argvs += [
        ["report", *_sys_argv("A2"), "--cap", "20", "--kmode", "diagonal", "--ustar", "[[[1, 1], 1], [[0, 0], 2]]"],
        ["report", *_sys_argv("B2"), "--cap", "20", "--kmode", "torus", "--ustar", "[[[1, -1], 1], [[0, 0], 1]]"],
        ["estimate", *_sys_argv("G2"), "--weight", "1,1", "--ustar", "[[[1, 0], 1]]"],
        ["report", *_sys_argv("G2"), "--cap", "22", "--real", "--output", "table"],
        ["reptype", *_sys_argv("A2"), "--weight", "1,-1"],
        ["estimate", *_sys_argv("A2"), "--weight", "1,2,3"],
        ["estimate", *_sys_argv("A2"), "--weight", "1,0", "--lattice", "root"],
        ["report", *_sys_argv("B3"), "--cap", "10", "--point-cap", "10"],
    ]
    return argvs


# sha256 of the exit code, stdout and stderr of every request above, recorded
# while dual weights, tensor signs and Weyl dimensions still went through
# ambient rational vectors, and re-recorded when the E-series simple roots
# were corrected: that changed exactly the six E6 `reptype` requests, whose
# answers test_e6_rep_types pins.
SPECTRAL_PIN = "4c33296377815cf3cf2e580ed9f07bdd70929655e8f835350d690bf8fe441344"


def test_spectral_output_pinned(capsys):
    digest = hashlib.sha256()
    argvs = _pinned_spectral_requests()
    assert len(argvs) > 200
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        digest.update(json.dumps([argv, code, out, err]).encode())
    assert digest.hexdigest() == SPECTRAL_PIN


E6_REPTYPES = {
    "1,0,0,0,0,0": (27, "complex", [0, 0, 0, 0, 0, 1]),
    "0,0,0,0,0,1": (27, "complex", [1, 0, 0, 0, 0, 0]),
    "1,0,0,0,0,1": (650, "real", [1, 0, 0, 0, 0, 1]),
    "0,0,1,0,0,0": (351, "complex", [0, 0, 0, 0, 1, 0]),
    "0,1,0,0,1,0": (17550, "complex", [0, 1, 1, 0, 0, 0]),
    "2,0,0,0,1,0": (78975, "complex", [0, 0, 1, 0, 0, 2]),
}


@pytest.mark.parametrize("weight", sorted(E6_REPTYPES))
def test_e6_rep_types(capsys, weight):
    # Bourbaki numbering: duality swaps 1<->6 and 3<->5 and fixes 2 and 4.
    data = run_json(capsys, "reptype", "--type", "E", "--rank", "6", "--weight", weight)
    assert (data["dim"], data["type"], data["dual"]) == E6_REPTYPES[weight]


def test_e8_adjoint_is_real(capsys):
    data = run_json(capsys, "reptype", "--type", "E", "--rank", "8", "--weight", "0,0,0,0,0,0,0,1")
    assert (data["dim"], data["type"], data["dual"]) == (248, "real", [0, 0, 0, 0, 0, 0, 0, 1])


@dataclass(frozen=True)
class _Leaf:
    lam: Q
    kind: RepType


@dataclass(frozen=True)
class _Node:
    rows: tuple
    note: str

    @property
    def total(self) -> int:
        return len(self.rows)


def _written(obj, output="json") -> str:
    """What the command line prints for obj as its payload."""
    out = io.StringIO()
    with redirect_stdout(out):
        print(cli._render(obj, output))
    return out.getvalue()


def test_jsonable_dataclass_rule():
    rows = ((_Leaf(Q(1, 3), RepType.REAL),), (_Leaf(Q(-2), RepType.COMPLEX), _Leaf(Q(0), RepType.QUATERNIONIC)))
    node = _Node(rows, "x")
    # each field is its JSON key except lam; properties are not fields
    assert json.loads(_written(node)) == {
        "rows": [
            [{"lambda": "1/3", "kind": "real"}],
            [{"lambda": "-2", "kind": "complex"}, {"lambda": "0", "kind": "quaternionic"}],
        ],
        "note": "x",
    }
    # _fields applies the same key rule one level deep and converts nothing
    assert cli._fields(node) == {"rows": rows, "note": "x"}
    assert cli._fields(rows[0][0]) == {"lambda": Q(1, 3), "kind": RepType.REAL}
    # the operator labels go into a payload as they are
    assert json.loads(_written([IrrepSpec((2, 1), (-1,)), GroupSpec(2, 1)])) == [
        {"spins": [2, 1], "torus": [-1]},
        {"su2_copies": 2, "torus_rank": 1},
    ]
    with pytest.raises(TypeError):
        _written({"rows": [object()]})


@pytest.mark.parametrize("payload", [{1: "a"}, {"a": {None: 1}}, [{Q(1, 2): 0}]], ids=repr)
def test_non_string_keys_are_refused(payload):
    with pytest.raises(TypeError):
        _written(payload)


class _Boxed(Enum):
    LEAF = _Leaf(Q(1, 3), RepType.REAL)


class _Pair(NamedTuple):
    a: int
    b: int


class _Items(list):
    pass


@pytest.mark.parametrize(
    "value", [_Boxed.LEAF, _Pair(1, 2), _Items([1])], ids=["enum-of-dataclass", "namedtuple", "list-subclass"]
)
def test_types_no_payload_holds_are_refused(value):
    # an Enum is written from a leaf value, and a subclass that is not an Enum is refused
    with pytest.raises(TypeError):
        _written({"x": [value]})


class _Tag(str, Enum):
    A = "a"
    B = "é"


class _Level(IntEnum):
    LOW = 1
    HIGH = 10**30


_ENUMS = st.sampled_from([*RepType, *KMode, *LatticeChoice, *_Tag, *_Level])

_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(),
    st.fractions(),
    _ENUMS,
    st.builds(
        IrrepSpec,
        st.lists(st.integers(0, 9), max_size=3).map(tuple),
        st.lists(st.integers(-3, 3), max_size=2).map(tuple),
    ),
    st.builds(GroupSpec, st.integers(0, 4), st.integers(1, 6)),
    st.builds(_Leaf, st.fractions(), st.sampled_from(RepType)),
)

_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
        st.builds(_Node, st.lists(inner, max_size=3).map(tuple), st.text()),
        st.lists(st.tuples(inner, inner, inner, inner), max_size=3).map(cli._Rows),
        # enum leaves inside a list, a dict and a dataclass
        st.lists(_ENUMS, min_size=1, max_size=3),
        st.dictionaries(st.text(), _ENUMS, min_size=1, max_size=3),
        st.builds(_Leaf, st.fractions(), _ENUMS),
    ),
    max_leaves=24,
)

_ROW_KEYS = ("kind", "rep", "rep2", "value")


def _rows_as_dicts(obj):
    """obj with every _Rows table in it replaced by the list of row objects
    it stands for, so that the reference walk can read it."""
    if type(obj) is cli._Rows:
        return [dict(zip(_ROW_KEYS, map(_rows_as_dicts, row))) for row in obj]
    if type(obj) in (list, tuple):
        return [_rows_as_dicts(item) for item in obj]
    if type(obj) is dict:
        return {key: _rows_as_dicts(value) for key, value in obj.items()}
    if type(obj) is _Node:
        return _Node(_rows_as_dicts(obj.rows), obj.note)
    return obj


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_JSON_PAYLOADS)
@example({})
@example({"": [], "é": {}, "雪": ()})
@example([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e300, 5e-324])
@example({"big": Q(10**199 + 7, 3), "neg": Q(-(10**199 + 7), 10**50)})
@example(((), ((),), ((), ((),))))
@example({"\x00\x1f\t\n\"\\\x7f": "\u2028\x08\x0c\r", "\U0001f600𝔤": ["\U0010ffff", "\ud800"]})
def test_json_hook_writes_what_the_reference_walk_writes(payload):
    ref = jsonable(_rows_as_dicts(payload))
    assert _written(payload) == json.dumps(ref, indent=2, sort_keys=True) + "\n"
    assert _written(payload, "table") == "\n".join(cli._render_table(ref)) + "\n"


_SHARED = _Leaf(Q(-2, 5), RepType.COMPLEX)


@pytest.mark.parametrize("payload", [
    # one instance at several depths, and twice at one depth
    {"a": _SHARED, "b": [_SHARED, _SHARED], "c": _Node((_SHARED, (_SHARED,)), "x")},
    # equal and equally hashed, written differently: True == 1
    [_Node((True,), "x"), _Node((1,), "x"), {"d": [_Node((1,), "x"), _Node((True,), "x")]}],
], ids=["depths", "equal-not-identical"])
def test_writer_reuses_text_by_identity_and_depth(payload):
    assert _Node((True,), "x") == _Node((1,), "x") and hash(_Node((True,), "x")) == hash(_Node((1,), "x"))
    ref = jsonable(payload)
    assert _written(payload) == json.dumps(ref, indent=2, sort_keys=True) + "\n"
    assert _written(payload, "table") == "\n".join(cli._render_table(ref)) + "\n"


@pytest.mark.parametrize("rows", [
    (),
    (("b", IrrepSpec((1,)), None, Q(9, 4)),),
    (("c", IrrepSpec((1,)), None, Q(-3)), ("a", IrrepSpec((0,), (1,)), IrrepSpec((2,), (-1,)), Q(10**80, 7)),
     ("a", _SHARED, [_SHARED, True], "é")),
], ids=["empty", "one", "mixed"])
def test_table_rows_write_as_objects_with_the_four_keys(rows):
    # the dict form _Rows stands for, checked by the reference walk
    payload = {"rows": cli._Rows(rows), "nested": [cli._Rows(rows)]}
    plain = [dict(zip(_ROW_KEYS, row)) for row in rows]
    ref = jsonable({"rows": plain, "nested": [plain]})
    assert _written(payload) == json.dumps(ref, indent=2, sort_keys=True) + "\n"
    assert _written(payload, "table") == "\n".join(cli._render_table(ref)) + "\n"


def test_reptype(capsys):
    data = run_json(capsys, "reptype", "--type", "B", "--rank", "2", "--weight", "0,1")
    assert data["type"] == "quaternionic"
    assert data["dim"] == 4
    assert data["dual"] == [0, 1]
    assert data["bold_g"] == "Q8xG"


def test_certify_su2(capsys):
    data = run_json(capsys, "certify", "--su2", "1", "--rep-cap", "2", "--budget", "6")
    assert data["certified"] is True
    assert data["status"] == "certified"
    assert data["violations"] == []
    assert data["witness_kappa"]["n"] == 3
    kinds = {row["kind"] for row in data["table"]}
    assert kinds == {"a", "b", "c"}
    assert all(row["value"] != "0" for row in data["table"])


# sha256 prefixes of `certify ... --seed 2026` stdout, recorded before the
# Gaussian-integer kernel replaced the Gaussian-rational one; the budget-1
# rows are inconclusive and list every violation of their single candidate.
CERTIFY_PINS = [
    ((2, 0, 1, None), "60f19eb5ef3b6684"),
    ((1, 1, 2, None), "185b62420d8c175a"),
    ((0, 2, 2, None), "46ad7df5b6e29236"),
    ((3, 0, 1, None), "676fb5bb0fb76a19"),
    ((2, 0, 1, 3), "342e4a1de3613b7a"),
    ((1, 0, 6, None), "50b50b205891bb2f"),
    ((2, 0, 1, 1), "84800523f80c97b9"),
    ((0, 2, 2, 1), "dab36c1285cd8fd0"),
]


@pytest.mark.parametrize("shape,digest", CERTIFY_PINS)
def test_certify_output_pinned(capsys, shape, digest):
    su2, torus, cap, budget = shape
    argv = ["certify", "--su2", str(su2), "--torus", str(torus), "--rep-cap", str(cap), "--seed", "2026"]
    if budget is not None:
        argv += ["--budget", str(budget)]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
    if budget == 1:
        data = json.loads(out)
        assert data["status"] == "inconclusive"
        assert len(data["violations"]) == {2: 1, 0: 16}[su2]


# Every `spectrum --numeric` request of the operator-spectrum rounds for
# seeds 1 and 2, in round order (the four fixed requests occur in both).
# A kappa is `diag:...` or `upper:...`, the upper triangle row by row.
OPERATOR_SPECTRUM_REQUESTS = [
    # seed 1
    (2, 0, 1, "diag:3/2,13/4,15/4,3,5/2,7/4"),
    (1, 1, 3, "upper:9/4,-1/15,-1/30,-1/30;11/4,1/30,-1/15;3,-1/15;1"),
    (1, 0, 3, "diag:15/4,5/4,2"),
    (1, 1, 3, "diag:7/2,7/4,2,15/4"),
    (1, 0, 12, "diag:1,2,3"),
    (1, 0, 3, "upper:15/4,1/30,1/15;7/4,1/30;5/4"),
    (2, 0, 2, "diag:1,2,3,4,5,6"),
    (1, 0, 8, "upper:1,1/5,0;2,-1/7;3"),
    (1, 1, 4, "diag:1,2,3,4"),
    (1, 0, 3, "upper:5/2,1/15,1/30;5/4,-1/30;9/4"),
    (1, 1, 3, "upper:11/4,1/15,-1/30,1/30;9/4,-1/15,-1/15;15/4,-1/15;2"),
    (1, 1, 3, "upper:11/4,-1/30,-1/30,1/30;5/2,1/30,-1/30;15/4,-1/15;9/4"),
    (1, 0, 3, "diag:4,7/4,13/4"),
    (1, 1, 3, "diag:1,4,5/2,11/4"),
    (1, 1, 3, "diag:5/4,13/4,4,2"),
    (2, 0, 1, "diag:1,5/2,3/2,2,3,11/4"),
    (2, 0, 1, "upper:13/4,1/30,1/30,1/15,1/15,1/30;5/4,-1/30,-1/30,-1/15,-1/30;11/4,1/15,1/15,1/30;9/4,1/15,1/30;4,-1/30;3/2"),
    # seed 2
    (2, 0, 1, "upper:13/4,1/30,1/15,-1/15,-1/15,1/30;15/4,1/15,1/15,1/30,-1/15;11/4,-1/15,1/30,-1/15;5/4,1/30,1/30;2,1/15;9/4"),
    (1, 1, 3, "upper:2,1/30,1/15,1/15;1,-1/30,1/15;7/4,1/15;4"),
    (1, 1, 3, "diag:5/2,3/2,9/4,7/4"),
    (2, 0, 2, "diag:1,2,3,4,5,6"),
    (1, 0, 12, "diag:1,2,3"),
    (1, 0, 3, "diag:15/4,7/4,5/4"),
    (1, 0, 8, "upper:1,1/5,0;2,-1/7;3"),
    (1, 1, 3, "upper:15/4,-1/30,1/15,-1/15;7/4,1/30,-1/15;2,1/15;7/2"),
    (1, 0, 3, "upper:15/4,1/15,1/30;13/4,1/15;3"),
    (1, 1, 3, "upper:5/2,-1/30,-1/15,1/30;3,1/15,1/15;13/4,1/30;11/4"),
    (1, 1, 3, "diag:3/2,3,13/4,9/4"),
    (2, 0, 1, "diag:3/2,4,7/2,1,3,9/4"),
    (1, 0, 3, "upper:5/4,1/30,1/15;7/2,1/15;7/4"),
    (1, 1, 4, "diag:1,2,3,4"),
    (2, 0, 1, "diag:3,3/2,2,7/2,7/4,1"),
    (1, 0, 3, "diag:7/4,3/2,2"),
    (1, 1, 3, "diag:7/4,5/4,7/2,9/4"),
]


# Every `certify` request of the operator-certify round for seed 1, as
# (su2, torus, rep cap, seed).
OPERATOR_CERTIFY_REQUESTS = [
    (0, 2, 3, 67580),
    (1, 0, 3, 727524),
    (2, 0, 1, 581051),
    (1, 1, 2, 734782),
    (0, 2, 1, 902883),
    (1, 0, 4, 230902),
    (1, 0, 2, 689603),
    (2, 0, 1, 2544),
    (0, 2, 1, 551563),
    (2, 0, 1, 764751),
    (1, 2, 1, 159200),
    (1, 0, 6, 776140),
    (1, 1, 1, 368812),
    (1, 1, 1, 885073),
    (3, 0, 1, 630240),
    (3, 0, 1, 494046),
    (1, 0, 5, 970183),
    (2, 0, 2, 732658),
    (1, 0, 7, 818978),
    (2, 0, 1, 725064),
    (1, 0, 8, 927737),
    (3, 0, 1, 342844),
    (1, 1, 1, 187075),
    (2, 0, 1, 824268),
    (0, 2, 2, 229186),
]


def _spectrum_argv(su2, torus, cap, kappa):
    if kappa.startswith("upper:"):
        rows = [row.split(",") for row in kappa[len("upper:"):].split(";")]
        entries = [[i, i + j, x] for i, row in enumerate(rows) for j, x in enumerate(row) if x != "0"]
        kappa = json.dumps({"n": len(rows), "entries": entries})
    return ["spectrum", "--su2", str(su2), "--torus", str(torus), "--rep-cap", str(cap), "--kappa", kappa, "--numeric"]


def _membership_verdicts(payload):
    """multiplicity_at_float on every (cluster, rep) membership: the result or the error text."""
    polys = {json.dumps(e["rep"]): rpoly(*(Q(c) for c in e["char_poly"])) for e in payload["reps"]}
    verdicts = []
    for cluster in payload["clusters"]:
        for member in cluster["members"]:
            try:
                verdicts.append(multiplicity_at_float(polys[json.dumps(member["rep"])], cluster["center"]))
            except InternalConsistencyError as exc:
                verdicts.append(str(exc))
    return verdicts


# sha256 of the exit code, stdout, stderr and membership verdicts of every
# request above, recorded while squarefree layers and resultants still ran
# in Fraction arithmetic.  The spectrum pin was recorded again when the
# later member of each dual pair began to take its partner's float
# eigenvalues, which moved some cluster centres of the SU(2) x T requests
# in their last bits and nothing else.
OPERATOR_SPECTRUM_PIN = "2727a96d67ac88d025ec1f26c72bc52a4f1d792753517776ef70dc93f825ad9e"
OPERATOR_CERTIFY_PIN = "86c755b061ef9c066bf17d2e1227c7d14dcc4a0b44358ac9df4790cf5a74f7b3"


def test_operator_spectrum_output_pinned(capsys):
    digest = hashlib.sha256()
    assert len(OPERATOR_SPECTRUM_REQUESTS) == 34
    for spec in OPERATOR_SPECTRUM_REQUESTS:
        argv = _spectrum_argv(*spec)
        code, out, err = run(capsys, *argv)
        verdicts = _membership_verdicts(json.loads(out)) if code == 0 else []
        digest.update(json.dumps([argv, code, out, err, verdicts]).encode())
    assert digest.hexdigest() == OPERATOR_SPECTRUM_PIN


def test_operator_certify_output_pinned(capsys):
    digest = hashlib.sha256()
    assert len(OPERATOR_CERTIFY_REQUESTS) == 25
    for su2, torus, cap, seed in OPERATOR_CERTIFY_REQUESTS:
        argv = ["certify", "--su2", str(su2), "--torus", str(torus), "--rep-cap", str(cap), "--seed", str(seed)]
        code, out, err = run(capsys, *argv)
        digest.update(json.dumps([argv, code, out, err]).encode())
    assert digest.hexdigest() == OPERATOR_CERTIFY_PIN


def test_spectrum_numeric_builds_each_operator_once(capsys, monkeypatch):
    calls = []
    build = oplab.build_operator

    def counting(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(oplab, "build_operator", counting)
    data = run_json(capsys, "spectrum", "--su2", "1", "--torus", "1", "--rep-cap", "1",
                    "--kappa", "diag:1,2,3,4", "--numeric")
    # no operator twice, and none for the later member of a dual pair: it
    # passes the earlier member's operator
    reps, _ = oplab.enumerate_reps(oplab.GroupSpec(1, 1), 1)
    firsts = [v for i, v in enumerate(reps) if v.dual() not in reps[:i]]
    assert len(data["reps"]) == 6
    assert calls == firsts and len(set(calls)) == len(calls) == 4


def _identifiers(path):
    """Every identifier a module reads, defines, imports or binds."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        for field in ("id", "attr", "name", "arg"):
            if isinstance(getattr(node, field, None), str):
                yield getattr(node, field)


# The operator-side rule of dual pairs and of the den scaling: oplab.spectrum
# builds each pair's operator, polynomial and float solve, for the member
# listed first, and writes D's coefficients over powers of den.
OPERATOR_PAIR_NAMES = {
    "build_operator", "char_poly", "numeric_spectrum", "admit_metric", "root_multiplicity_profile",
    "enumerate_reps", "dual_positions", "duals", "dual", "den",
}


def test_cli_holds_no_dual_pair_rule():
    assert OPERATOR_PAIR_NAMES & set(_identifiers(Path(cli.__file__))) == set()
    # the scan sees the names where they live
    assert OPERATOR_PAIR_NAMES - {"admit_metric", "dual_positions"} <= set(_identifiers(Path(oplab.__file__)))


def test_spectrum_numeric_solves_each_dual_pair_once(capsys, monkeypatch):
    # SU(2) x T at rep cap 2 and a full metric, where the operators are
    # complex: 15 reps in 9 dual classes (m, z) ~ (m, -z), each solved once,
    # so even at tol 0 every cluster holds V and V* with equal multiplicity
    solves, solve = [], np.linalg.eigvalsh

    def counting(a):
        solves.append(a.shape)
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    data = run_json(capsys, *_spectrum_argv(1, 1, 2, "upper:3,1/5,0,1/7;2,-1/3,0;4,1/11;5"), "--tol", "0")
    assert solves == [(3, 1, 1), (3, 2, 2), (3, 3, 3)]
    memberships = 0
    for cluster in data["clusters"]:
        mult = {(tuple(m["rep"]["spins"]), tuple(m["rep"]["torus"])): m["multiplicity"] for m in cluster["members"]}
        for (spins, torus), count in mult.items():
            assert mult.get((spins, tuple(-z for z in torus))) == count
        memberships += len(mult)
    assert len(data["reps"]) == 15 and memberships >= 15


@pytest.mark.parametrize("argv,what", [
    (("certify", "--su2", "1", "--rep-cap", "40"), "total rep dimension"),
    (("spectrum", "--su2", "1", "--rep-cap", "40", "--kappa", "diag:1,2,3", "--numeric"), "total rep dimension"),
    (("certify", "--torus", "3", "--rep-cap", "2"), "rep count"),
    (("spectrum", "--torus", "6", "--rep-cap", "1000", "--kappa", "diag:1,2,3,4,5,6"), "rep count"),
    (("certify", "--su2", "1", "--rep-cap", "1", "--budget", str(oplab.BUDGET_CAP + 1)), "budget"),
])
def test_rep_caps_refuse_before_any_operator(capsys, monkeypatch, argv, what):
    built = []
    monkeypatch.setattr(oplab, "build_operator", lambda *args, **kwargs: built.append(args))
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out, built) == (3, "", [])
    reason = json.loads(err)
    assert reason["error"] == "cap-exceeded" and reason["what"] == what
    assert reason["actual"] > reason["limit"]


@pytest.mark.parametrize("argv", [
    ("certify", "--su2", "2000", "--rep-cap", "0"),
    ("spectrum", "--su2", "2000", "--rep-cap", "0", "--kappa", "diag:" + ",".join(["1"] * 6000)),
])
def test_algebra_dimension_refused_before_any_label(capsys, monkeypatch, argv):
    # refused before parse_kappa builds a 6000 x 6000 metric or enumerate_reps walks 2000 copies
    touched = []
    monkeypatch.setattr(cli, "parse_kappa", lambda *args: touched.append("parse_kappa"))
    monkeypatch.setattr(oplab, "enumerate_reps", lambda *args: touched.append("enumerate_reps"))
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert peak < 1_000_000
    assert (code, out, touched) == (3, "", [])
    assert json.loads(err) == {"error": "cap-exceeded", "what": "algebra dimension", "actual": 6000,
                               "limit": oplab.ALGEBRA_DIM_CAP}


def test_large_budget_certifies_at_its_first_candidate(capsys):
    # candidates are made as certify asks for them, not all up front
    t0 = time.perf_counter()
    data = run_json(capsys, "certify", "--su2", "1", "--rep-cap", "0", "--budget", str(oplab.BUDGET_CAP))
    assert time.perf_counter() - t0 < 1.0
    assert (data["status"], data["candidates_tried"]) == ("certified", 1)


def test_cli_does_not_load_gaussian():
    # a fresh interpreter: this one has loaded gaussian for the tests
    code = "import sys, casimir_lab.cli; assert 'casimir_lab.gaussian' not in sys.modules, sorted(sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


def test_certify_exits_4_on_a_denominator_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(oplab, "char_poly", doubled_den(oplab.char_poly, IrrepSpec((2,))))
    code, out, err = run(capsys, "certify", "--su2", "1", "--rep-cap", "2")
    assert (code, out) == (4, "")
    assert err.startswith("internal consistency failure: operator of") and "denominator" in err


def test_certify_and_spectrum_stay_in_integer_polynomials(capsys, monkeypatch):
    counts = {"integer_parts": 0, "RationalPoly": 0}
    clear, init = polyq.integer_parts, RationalPoly.__init__

    def counting_parts(p):
        counts["integer_parts"] += 1
        return clear(p)

    def counting_init(self, *args, **kwargs):
        counts["RationalPoly"] += 1
        init(self, *args, **kwargs)

    # every module that holds integer_parts by name
    for mod in [m for name, m in sys.modules.items() if name.startswith("casimir_lab")]:
        for attr, value in list(vars(mod).items()):
            if value is clear:
                monkeypatch.setattr(mod, attr, counting_parts)
    monkeypatch.setattr(RationalPoly, "__init__", counting_init)
    run_json(capsys, "certify", "--su2", "1", "--torus", "1", "--rep-cap", "2")
    data = run_json(capsys, "spectrum", "--su2", "1", "--torus", "1", "--rep-cap", "2",
                    "--kappa", "diag:1,2,3,4", "--numeric")
    assert counts == {"integer_parts": 0, "RationalPoly": 0}
    # multiplicity_at_float clears its RationalPoly argument exactly once,
    # and a second call on the same polynomial not again
    entry = data["reps"][-1]
    p = rpoly(*(Q(c) for c in entry["char_poly"]))
    counts.update(integer_parts=0, RationalPoly=0)
    center = next(c["center"] for c in data["clusters"] if any(m["rep"] == entry["rep"] for m in c["members"]))
    assert multiplicity_at_float(p, center) == 1
    assert counts == {"integer_parts": 1, "RationalPoly": 0}
    assert multiplicity_at_float(p, center) == 1
    assert counts == {"integer_parts": 1, "RationalPoly": 0}


def test_spectrum_exact(capsys):
    data = run_json(capsys, "spectrum", "--su2", "1", "--rep-cap", "2", "--kappa", "diag:1,2,3")
    assert data["numeric"] is False
    assert data["kappa"] == {"n": 3, "entries": [[0, 0, "1"], [1, 1, "2"], [2, 2, "3"]]}
    by_spin = {tuple(e["rep"]["spins"]): e for e in data["reps"]}
    assert by_spin[(1,)]["char_poly"] == ["9/4", "-3", "1"]
    assert by_spin[(1,)]["multiplicity_profile"] == {"2": 1}
    assert by_spin[(2,)]["char_poly"] == ["-60", "47", "-12", "1"]
    assert by_spin[(2,)]["multiplicity_profile"] == {"1": 3}


def test_spectrum_numeric(capsys):
    data = run_json(
        capsys,
        "spectrum", "--su2", "1", "--rep-cap", "2",
        "--kappa", "diag:1,1,1", "--numeric", "--ustar-dim", "2",
    )
    assert data["numeric"] is True and data["ustar_dim"] == 2
    centers = [c["center"] for c in data["clusters"]]
    assert len(centers) == 3  # 0, 3/4, 2
    for cluster, (lam, m) in zip(data["clusters"], ((0.0, 0), (0.75, 1), (2.0, 2))):
        assert abs(cluster["center"] - lam) < 1e-12
        (member,) = cluster["members"]
        assert member["rep"]["spins"] == [m]
        assert member["multiplicity"] == m + 1
        assert member["assembled_dim"] == 2 * (m + 1) ** 2


def test_spectrum_numeric_rejects_indefinite(capsys):
    code, out, err = run(
        capsys, "spectrum", "--su2", "1", "--kappa", "diag:1,-1,1", "--numeric"
    )
    assert code == 2
    assert out == ""
    assert "positive definite" in err


def test_spectrum_numeric_refuses_an_indefinite_kappa_before_any_operator(capsys, monkeypatch):
    calls = []
    for name in ("build_operator", "char_poly"):
        real = getattr(oplab, name)
        monkeypatch.setattr(oplab, name, lambda *a, real=real, name=name, **kw: calls.append(name) or real(*a, **kw))
    argv = ["spectrum", "--su2", "1", "--rep-cap", "12", "--kappa", "diag:1,-2,3"]
    assert run(capsys, *argv, "--numeric") == (2, "", "error: kappa is not positive definite\n")
    assert calls == []
    # the exact spectrum asks for no definite metric: the same kappa passes without --numeric
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert calls == ["build_operator", "char_poly"] * 13


def test_spectrum_numeric_tests_kappa_definite_once(capsys, monkeypatch):
    calls = []
    real = oplab.is_positive_definite
    monkeypatch.setattr(oplab, "is_positive_definite", lambda g: calls.append(g) or real(g))
    run_json(capsys, "spectrum", "--su2", "1", "--rep-cap", "3", "--kappa", "diag:1,2,3", "--numeric")
    assert len(calls) == 1


def test_estimate_total(capsys):
    data = run_json(
        capsys, "estimate", "--type", "A", "--rank", "2", "--weight", "8,0", "--kmode", "diagonal"
    )
    assert data["a_sq"] == "182/3"
    assert data["total_dim"] == 420
    assert {tuple(t["mu"]) for t in data["terms"]} == {(8, 0), (0, 8), (5, 4), (4, 5)}


def test_report_and_real_report(capsys):
    common = ("report", "--type", "A", "--rank", "2", "--cap", "182/3", "--kmode", "diagonal")
    cx = run_json(capsys, *common)
    re = run_json(capsys, *common, "--real")
    assert cx["total_dim"] == re["total_dim"]
    assert cx["real"] is False and re["real"] is True
    last = cx["classes"][-1]
    assert last["flag"] == "hidden-orbit certificate: 2 orbit(s), not transitive"
    assert last["eigenspace_dim"] == 420
    assert [m["mu"] for m in re["classes"][-1]["members"]] == [[0, 8], [4, 5]]


@pytest.mark.parametrize("rank,ustar,code", [
    ("1", "[[[1], 1], [[0], 2]]", 2),
    ("2", "[[[1, 0], 1], [[0, 0], 2]]", 2),
    ("2", "[[[1, 0], 1], [[-1, 0], 1], [[0, 0], 2]]", 0),
])
def test_real_report_of_a_torus_ustar_that_is_not_real_is_bad_input(capsys, rank, ustar, code):
    # U* = (1) + 2 (0) is not closed under nu -> -nu, so it has no real form
    argv = ["report", "--type", "A", "--rank", rank, "--cap", "30", "--kmode", "torus", "--ustar", ustar]
    assert run(capsys, *argv)[0] == 0
    got, out, err = run(capsys, *argv, "--real")
    assert got == code, err
    if code:
        assert out == "" and err.startswith("error: U* is not a real K-module")
    else:
        assert err == "" and json.loads(out)["real"] is True


def test_real_report_refuses_a_non_real_ustar_before_any_class(capsys, monkeypatch):
    # At cap 400 the complex report takes seconds; the refusal computes no class.
    calls = []
    real = spectra._hidden_data
    monkeypatch.setattr(spectra, "_hidden_data", lambda *args: calls.append(1) or real(*args))
    argv = ("report", "--type", "A", "--rank", "2", "--cap", "400", "--kmode", "torus", "--real", "--ustar")
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv, "[[[1,0],1]]")
    assert time.perf_counter() - t0 < 0.1
    assert (code, out, calls) == (2, "", [])
    assert err == "error: U* is not a real K-module: [1, 0] has multiplicity 1, its dual [-1, 0] 0\n"
    # a real U* at the same cap still gets its whole report, unchanged
    code, out, err = run(capsys, *argv, "[[[1,0],1],[[-1,0],1]]")
    assert (code, err, len(out)) == (0, "", 51522) and calls
    assert hashlib.sha256(out.encode()).hexdigest() == "47957d02facb7f1ce61963750f4c76bd8c6bd36766bf372d13bef5e4f87082a2"


# The classes of `report --type F --rank 2 --cap 60 --kmode trivial` whose
# stabilizer is still searched: on every other class the Weyl reflections
# and -1 are transitive.  Each searched class has two stabilizer orbits.
SEARCHED_REPORT_CLASSES = {"A": ["98/3"], "B": ["25/2", "25", "65/2", "85/2", "50"], "G": ["98/3"]}


def test_report_searches_the_stabilizer_only_where_weyl_and_minus_one_are_not_transitive(capsys, monkeypatch):
    searched = []
    real = hidden.stabilizer_group
    monkeypatch.setattr(hidden, "stabilizer_group", lambda cfg, *a, **kw: searched.append(str(cfg.a_sq)) or real(cfg, *a, **kw))
    for family, classes in SEARCHED_REPORT_CLASSES.items():
        searched.clear()
        data = run_json(capsys, "report", "--type", family, "--rank", "2", "--cap", "60", "--kmode", "trivial")
        assert searched == classes
        assert [c["a_sq"] for c in data["classes"] if c["orbit_count"] != 1] == classes
        assert all(c["orbit_count"] == 2 for c in data["classes"] if c["a_sq"] in classes)


def _without_first_chamber_point(rs, cls):
    """cls without its first closed-chamber point, |X| recounted without
    that point's Weyl orbit."""
    lost = len(weyl_orbit(rs, tuple(c + 1 for c in cls.chamber_members[0])))
    return replace(cls, chamber_members=cls.chamber_members[1:], sphere_size=cls.sphere_size - lost)


def test_report_of_a_class_missing_a_point_exits_4(capsys, monkeypatch):
    """A class that lacks its first closed-chamber point, and counts |X|
    without it, fails an identity: report exits 4 and prints nothing.  On
    A2, a^2 = 2 keeps no chamber point, so it counts no orbit and X is
    walked, whose 6 points are not the 0 left; a^2 = 14/3 keeps (1, 0)
    without (0, 1), which -w0 swaps with it."""
    real = spectra.classes_up_to
    for a_sq, why in (
        (2, "the walked sphere fails the orbit sum of the closed-chamber points"),
        (Q(14, 3), "the closed-chamber points fail the -w0 pairing"),
    ):
        monkeypatch.setattr(
            spectra,
            "classes_up_to",
            lambda *args: [_without_first_chamber_point(args[0], c) if c.a_sq == a_sq else c for c in real(*args)],
        )
        code, out, err = run(capsys, "report", "--type", "A", "--rank", "2", "--cap", "20")
        assert (code, out, err) == (4, "", f"internal consistency failure: {why}\n")


def test_report_with_a_wrong_parabolic_order_exits_4(capsys, monkeypatch):
    """A root system whose |W_J| for J = {0} is 1, not 2: the class sizes
    read it, and Solomon's identity refuses it, so report exits 4."""
    a2 = build_root_system(RootSystemType("A", 2))
    bad = type(a2)(a2.typ, a2.cartan_matrix, a2.metric_scale)
    bad._parabolic_orders[(0,)] = 1
    monkeypatch.setattr(cli, "build_root_system", lambda typ, metric_scale: bad)
    code, out, err = run(capsys, "report", "--type", "A", "--rank", "2", "--cap", "20")
    assert (code, out) == (4, "")
    assert err == "internal consistency failure: the parabolic indices of A2 fail Solomon's identity\n"


def test_report_with_a_corrupted_form_exits_4(capsys, monkeypatch):
    """A root system whose integer form is not invariant under its
    reflections: report exits 4.  No such form keeps every coroot pairing
    integral, so the pairings, which the member dimensions read before the
    hidden data, are the check that refuses it; the reflection identity's
    own refusal is tested on a configuration built before the corruption."""
    a2 = build_root_system(RootSystemType("A", 2))
    bad = type(a2)(a2.typ, a2.cartan_matrix, a2.metric_scale)
    den, g = a2.gram_fw_int
    bad.__dict__["gram_fw_int"] = (den, ((g[0][0] + 1, g[0][1]), g[1]))
    monkeypatch.setattr(cli, "build_root_system", lambda typ, metric_scale: bad)
    code, out, err = run(capsys, "report", "--type", "A", "--rank", "2", "--cap", "20")
    assert (code, out) == (4, "")
    assert err == "internal consistency failure: non-integral coroot pairing\n"


def test_hodge_cli(capsys):
    data = run_json(capsys, "hodge-rank1", "--cap", "50")
    assert len(data["rows"]) == 10
    assert data["rows"][0]["invariant_dims"] == [1, 0, 0, 1]
    assert [(d["mu"], d["p"]) for d in data["discrepancies"]] == [([0], 1), ([0], 2)]
    assert all("harmonic" in d["annotation"] for d in data["discrepancies"])


def test_byte_stable_output(capsys):
    args = ("report", "--type", "B", "--rank", "2", "--cap", "20", "--kmode", "diagonal")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    json.loads(out1)  # and it is valid JSON


def test_table_output_renders(capsys):
    code, out, err = run(
        capsys, "classes", "--type", "A", "--rank", "1", "--cap", "5", "--output", "table"
    )
    assert code == 0
    assert "a_sq: 1/2" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


_CLASSES_A2 = ["--type", "A", "--rank", "2", "--cap", "30"]
# argv shapes for the parse dispatch.  The subcommand plans read these: one
# valid argv per subcommand, a repeated option and an empty value.
PLANNED_ARGVS = [
    ["classes", *_CLASSES_A2, "--lattice", "root", "--scale", "3/2"],
    ["coincidences", *_CLASSES_A2, "--output", "table"],
    ["hidden", "--type", "B", "--rank", "2", "--a2", "25/2", "--point-cap", "9", "--weyl-cap", "0"],
    ["reptype", "--type", "G", "--rank", "2", "--weight", "1,0"],
    ["certify", "--su2", "1", "--torus", "1", "--rep-cap", "2", "--budget", "3", "--seed", "7"],
    ["spectrum", "--su2", "1", "--kappa", "diag:1,2,3", "--numeric", "--tol", "1e-6", "--ustar-dim", "2"],
    ["estimate", "--type", "A", "--rank", "2", "--weight", "1,1", "--kmode", "torus", "--ustar", "[[[1, 0], 1]]"],
    ["report", *_CLASSES_A2, "--kmode", "diagonal", "--real", "--rank-cap", "1"],
    ["hodge-rank1", "--cap", "7/2"],
    ["classes", *_CLASSES_A2, "--lattice", "root", "--cap", "12", "--lattice", "weight"],  # the last one wins
    ["reptype", "--type", "G", "--rank", "2", "--weight", ""],
]
# The full parser reads these, which parse: abbreviated options, an
# attached value and a value that starts with "-".
PARSED_ARGVS = PLANNED_ARGVS + [
    ["classes", "--ty", "A", "--ra", "2", "--cap", "30"],
    ["hidden", "--type", "B", "--rank", "2", "--a2=25/2"],
    ["certify", "--su2", "1", "--seed", "-5"],
]
# Errors, help and argvs that only the full parser reads, which exit.
EXITING_ARGVS = [
    ["classes", *_CLASSES_A2, "--bogus"],  # unknown option after the subcommand
    ["report", *_CLASSES_A2, "--real", "stray"],
    ["hidden", "--type", "B", "--rank", "2", "--a2"],  # no value at the end
    ["reptype", "--type", "G", "--rank", "2", "--weight", "-1,0"],  # not a number, so not a value
    ["reptype", "--type", "G", "--rank", "", "--weight", "1,0"],
    ["classes", "--type", "A", "--rank", "2", "--rank", "two", "--cap", "30"],  # every repeat is converted
    ["classes", *_CLASSES_A2, "extra"],  # unknown positional
    ["classes", *_CLASSES_A2, "--", "--bogus"],
    ["classes", "--type", "A", "--rank", "2"],  # missing required option
    ["classes", "--type", "A", "--rank", "two", "--bogus"],  # bad value and a leftover
    ["classes", *_CLASSES_A2, "--output", "xml"],
    ["report", "-h"],
    ["certify", "--help", "--bogus"],
    [],
    ["no-such-command", "--cap", "1"],
    ["--output", "table", "classes", *_CLASSES_A2],  # option before the subcommand
    ["-h"],
    ["--bogus"],
]


def _parsed(parse, argv):
    """vars of parse(argv), or the SystemExit code it raises; with the text
    it writes to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSED_ARGVS + EXITING_ARGVS, ids=lambda argv: " ".join(argv) or "empty")
def test_parse_dispatch_matches_the_full_parser(argv):
    got = _parsed(cli._parse_argv, argv)
    assert got == _parsed(cli.build_parser().parse_args, argv)
    assert isinstance(got[0], dict) == (argv in PARSED_ARGVS)
    assert (cli._read_argv(argv) is not None) == (argv in PLANNED_ARGVS)  # the rest go to the full parser


# sha256 of the text that -h writes to stdout, at the top level and after
# each subcommand, at 80 columns under Python 3.11's argparse (its layout
# moves between Python versions).
HELP_SHA256 = {
    "": "5db01413c4c90b4309bf1293789b63b1caadc7a1aaddd5f9b46a841bd6a33393",
    "classes": "c893312f95b172a0ee6649c88179d7de652875f204fd099d2acc77453565d909",
    "coincidences": "12234817661db8277cc4c9c36167a8f8eb31c087435fbda67883746304e9e83e",
    "hidden": "14cb86e44598e91c00bf7f8ded87ac55599b1753a60c7bc093ef0fc519dc2958",
    "reptype": "fdd8f196997f6296076f9dc4caa823cc015ca102bf3b9c983a400e796ffda515",
    "certify": "0eef2740428accc41dcf22066a4507357d9fc47b1e0a70e2f440d55e7c7bd908",
    "spectrum": "cb54221bb9c4d0aaaafd30ec3cf405f2061337b8a2b54a30126c30c73d6c735c",
    "estimate": "910775027f742af832685f1556aa39ff90f4f07bd9f92934f67d33d0b15dff8d",
    "report": "a7b87fbb80d569f7f82c447463b79758b7cad578ffac70f00e66ee71dbee675e",
    "hodge-rank1": "3a1aefcb1634cb842dce25a4268a82cfe6f7ff170f1d9e7686f6442c69a030ba",
}


@pytest.mark.parametrize("command", HELP_SHA256, ids=lambda command: command or "top")
def test_help_text_pinned(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    result, out, err = _parsed(cli._parse_argv, [command, "-h"] if command else ["-h"])
    assert (result, err) == (("exit", 0), "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]


def test_parsed_and_exiting_argvs_pinned(monkeypatch):
    # The namespace, or the exit code with stdout and stderr, that the full
    # parser gives each argv of PARSED_ARGVS and EXITING_ARGVS, in one
    # sha256; a namespace is written as its sorted items, func by name.
    # Re-record it when either list changes.
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in PARSED_ARGVS + EXITING_ARGVS:
        result, out, err = _parsed(cli.build_parser().parse_args, argv)
        if isinstance(result, dict):
            result = sorted((key, getattr(value, "__name__", value)) for key, value in result.items())
        digest.update(repr((argv, result, out, err)).encode())
    assert digest.hexdigest() == "019468eff382483898a8af41244d63360667b6f32d282df93e70b9aa9536a64e"


def test_every_workload_argv_is_read_by_the_plan(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "casbench"))
    workloads = importlib.import_module("workloads")
    argvs = [req.argv for name in workloads.WORKLOADS for seed in (1, 2, 3) for req in workloads.build_round(name, seed)]
    full = cli.build_parser()

    def fail(argv):
        raise AssertionError(f"the full parser read {argv}")

    monkeypatch.setattr(cli._full_parser(), "parse_args", fail)
    for argv in argvs:
        assert vars(cli._parse_argv(argv)) == vars(full.parse_args(argv))


def test_scale_default_is_an_exact_one():
    # a str default would be read by rational on every request
    defaults = {name: plan[1].get("scale") for name, plan in cli._PLANS.items()}
    scaled = {name for name, default in defaults.items() if default is not None}
    assert scaled == {"classes", "coincidences", "hidden", "reptype", "estimate", "report"}
    assert all(type(defaults[name]) is Q and defaults[name] == 1 for name in scaled)


# Option values by the option's type (its choices if it has them), and
# invalid ones: values starting with "-", an empty one, a non-number, a
# zero denominator and a bad choice.
_VALID = {int: ["2", "-5"], cli.count: ["3"], cli.rational: ["5/2", "7"], cli.tolerance: ["1e-6"], None: ["A", "1,0"]}
_INVALID = ["-5", "-1,0", "", "x", "3/0", "bogus"]


@st.composite
def _argvs(draw):
    """A subcommand and any subset of its options in any order, with
    repeats, required ones often all in.  Each option is written exact with
    a valid value, or exact with any value, or with a valid value in any
    spelling: exact, --opt=value, abbreviated, or without its value."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._COMMANDS[name][2]
    chosen = draw(st.lists(st.sampled_from(options), max_size=8))
    if draw(st.booleans()):
        chosen += [option for option in options if option[1].get("required")]
    mode = draw(st.sampled_from(["canonical", "values", "spellings"]))
    argv = [name]
    for flag, keywords in draw(st.permutations(chosen)):
        valid = keywords.get("choices") or _VALID[keywords.get("type")]
        value = draw(st.sampled_from([*valid, *_INVALID] if mode == "values" else valid))
        spellings = ["exact", "attached", "abbreviated", "bare"] if mode == "spellings" else ["exact"]
        spelling = draw(st.sampled_from(spellings))
        if spelling == "attached":
            argv.append(f"{flag}={value}")
        elif keywords.get("action") == "store_true" or spelling == "bare":
            argv.append(flag if spelling != "abbreviated" else flag[:4])
        else:
            argv += [flag if spelling == "exact" else flag[:4], value]
    return argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_argvs())
@example(["hidden", "--type", "B", "--rank", "2", "--a2", "25/2", "--point-cap", "9", "--weyl-cap", "0"])
@example(["report", "--type", "A", "--rank", "2", "--cap", "30", "--kmode", "bogus", "--real"])
def test_both_parse_paths_agree(argv):
    assert _parsed(cli._parse_argv, argv) == _parsed(cli.build_parser().parse_args, argv)


def _private_argparse_reads(tree) -> list:
    """The private argparse names a module's AST reads: an attribute of
    argparse or a name imported from it that starts with "_", and a private
    attribute of an ArgumentParser, its class or its instance (._actions)."""
    parser = argparse.ArgumentParser()
    private = {
        name
        for name in [*dir(argparse.ArgumentParser), *vars(parser)]
        if name.startswith("_") and not name.endswith("__")
    }
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
            node.attr in private or node.attr.startswith("_") and getattr(node.value, "id", None) == "argparse"
        ):
            reads.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "argparse":
            reads += [alias.name for alias in node.names if alias.name.startswith("_")]
    return reads


def test_cli_reads_no_private_name_of_argparse():
    assert _private_argparse_reads(ast.parse(Path(cli.__file__).read_text())) == []
    # the scan sees each kind of read
    seen = "p._actions; p._defaults; s._option_string_actions; argparse._HelpAction\nfrom argparse import _StoreAction"
    assert sorted(_private_argparse_reads(ast.parse(seen))) == [
        "_HelpAction", "_StoreAction", "_actions", "_defaults", "_option_string_actions"
    ]


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "classes", "--type", "Z", "--rank", "9", "--cap", "5")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "reptype", "--type", "A", "--rank", "2", "--weight", "1,-1")[0] == 2
    assert run(capsys, "classes", "--type", "A", "--rank", "2")[0] == 2  # missing --cap
    code, out, err = run(capsys, "estimate", "--type", "A", "--rank", "2", "--weight", "1,2,3")
    assert code == 2 and out == ""


BAD_NUMERIC_INPUTS = [
    ("hidden", "--type", "A", "--rank", "2", "--a2", "1/0"),
    ("hidden", "--type", "A", "--rank", "2", "--a2", "8", "--scale", "1/0"),
    ("classes", "--type", "A", "--rank", "2", "--cap", "1/0"),
    ("coincidences", "--type", "A", "--rank", "2", "--cap", "1/0"),
    ("report", "--type", "A", "--rank", "2", "--cap", "1/0"),
    ("hodge-rank1", "--cap", "1/0"),
    ("spectrum", "--su2", "1", "--kappa", "diag:1,2,1/0"),
    ("spectrum", "--su2", "1", "--kappa", '{"n": 3, "entries": [[0, 0, "1/0"]]}'),
    ("certify", "--su2", "1", "--rep-cap", "-1"),
    ("certify", "--su2", "1", "--budget", "-3"),
    ("hidden", "--type", "A", "--rank", "2", "--a2", "8", "--point-cap", "-1"),
    ("hidden", "--type", "A", "--rank", "2", "--a2", "8", "--weyl-cap", "-1"),
    ("spectrum", "--su2", "1", "--kappa", "diag:1,2,3", "--numeric", "--ustar-dim", "-1"),
    ("spectrum", "--su2", "1", "--kappa", "diag:1,2,3", "--numeric", "--tol", "-1"),
    ("spectrum", "--su2", "1", "--kappa", "diag:1,2,3", "--numeric", "--tol", "nan"),
    # malformed or non-integer JSON for --kappa and --ustar
    ("spectrum", "--su2", "1", "--kappa", '{"n": 3, "entries": 5}'),
    ("spectrum", "--su2", "1", "--kappa", '{"n": null}'),
    ("spectrum", "--su2", "1", "--kappa", '{"n": 3, "entries": [[0]]}'),
    ("spectrum", "--su2", "1", "--kappa", '{"n": 1e400}'),
    ("spectrum", "--su2", "1", "--kappa", '{"n": 3.5, "entries": [[0, 0, "1"], [1, 1, "2"], [2, 2, "3"]]}'),
    ("estimate", "--type", "G", "--rank", "2", "--weight", "1,1", "--ustar", "[[1, 2]]"),
    ("estimate", "--type", "G", "--rank", "2", "--weight", "1,1", "--ustar", "[1]"),
    ("estimate", "--type", "G", "--rank", "2", "--weight", "1,1", "--ustar", "[[[1, 0], null]]"),
    ("estimate", "--type", "G", "--rank", "2", "--weight", "1,1", "--ustar", "[[[1.5, 0], 1]]"),
    ("estimate", "--type", "G", "--rank", "2", "--weight", "1,1", "--ustar", "[[[1, 0], 1.5]]"),
    ("estimate", "--type", "G", "--rank", "2", "--weight", "1,1", "--kmode", "torus", "--ustar", "[[[1, 0, 0], 1]]"),
    ("estimate", "--type", "G", "--rank", "2", "--weight", "1,1", "--ustar", "[[[1, 0], 1], [[1, 0], 2]]"),
]


@pytest.mark.parametrize("argv", BAD_NUMERIC_INPUTS, ids=" ".join)
def test_bad_numeric_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err and "Traceback" not in err


def test_deeply_nested_json_exits_2(capsys):
    deep = "[" * 100_000 + "]" * 100_000
    for argv in (
        ("spectrum", "--su2", "1", "--kappa", '{"n": 3, "entries": ' + deep + "}"),
        ("estimate", "--type", "A", "--rank", "2", "--weight", "1,1", "--ustar", deep),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err and "Traceback" not in err


def test_kappa_parsing():
    su2, t1, t2 = GroupSpec(1), GroupSpec(0, 1), GroupSpec(0, 2)
    assert parse_kappa("diag:1,2,3", su2).kappa == ((1, 0, 0), (0, 2, 0), (0, 0, 3))
    k = parse_kappa('{"n": 2, "entries": [[0, 0, "2"], [0, 1, "1/3"], [1, 1, 4]]}', t2)
    assert k.kappa == ((Q(2), Q(1, 3)), (Q(1, 3), Q(4)))
    # mirror conflict
    with pytest.raises(ValueError):
        parse_kappa('{"n": 2, "entries": [[0, 1, "1"], [1, 0, "2"]]}', t2)
    # float entries are not exact and must be rejected
    with pytest.raises(ValueError):
        parse_kappa('{"n": 1, "entries": [[0, 0, 1.5]]}', t1)
    with pytest.raises(ValueError):
        parse_kappa('{"n": 2, "entries": [[0, 5, "1"]]}', t2)
    # the size must be the algebra dimension, in both forms
    for text in ("diag:1,2", '{"n": 2, "entries": [[0, 0, "1"]]}'):
        with pytest.raises(ValueError, match="kappa is 2x2, algebra dimension is 3"):
            parse_kappa(text, su2)


@pytest.mark.parametrize("kappa", ['{"n": 1500}', "diag:" + ",".join(["1"] * 1500)])
def test_kappa_size_refused_before_the_matrix_is_built(capsys, kappa):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "spectrum", "--su2", "1", "--kappa", kappa)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", "error: kappa is 1500x1500, algebra dimension is 3\n")
    assert peak < 1_000_000


LONG = 10**999 + 7  # 1,000 digits


def test_long_kappa_entry_is_refused_before_any_operator(capsys, monkeypatch):
    # A 1,000-digit entry at rep cap 12 (dimension 13) would give coefficients
    # past Python's 4,300-digit limit for writing an int.
    built = []
    monkeypatch.setattr(oplab, "build_operator", lambda *args, **kwargs: built.append(args))
    for cap, dim in ((12, 13), (3, 4)):
        code, out, err = run(capsys, "spectrum", "--su2", "1", "--rep-cap", str(cap), "--kappa", f"diag:{LONG},1,1")
        assert (code, out, built) == (3, "", [])
        assert json.loads(err) == {"error": "cap-exceeded", "what": "metric bits x rep dimension",
                                   "actual": LONG.bit_length() * dim, "limit": oplab.METRIC_BITS_CAP}


def test_metric_bits_cap_edge(capsys):
    # rep cap 11: the largest dimension is 12, so 1,024 bits are admitted and
    # 1,025 refused; at the edge every coefficient is written in full.
    data = run_json(capsys, "spectrum", "--su2", "1", "--rep-cap", "11", "--kappa", f"diag:{2**1023},3,1")
    written = [c for e in data["reps"] for c in e["char_poly"]]
    # minus the trace on spin 11/2: (sum of kappa_ii) m (m + 2) / 4 (m + 1) / 3
    assert Q(written[-2]) == -(2**1023 + 4) * 143
    assert 3_000 < max(len(c) for c in written) < 4_300
    # a denominator counts through the integer weights: 3 * 2^1024 at 1/2^1024
    for kappa, bits in ((f"diag:{2**1024},3,1", 1025), (f"diag:1/{2**1024},3,1", 1026)):
        code, out, err = run(capsys, "spectrum", "--su2", "1", "--rep-cap", "11", "--kappa", kappa)
        assert (code, out, json.loads(err)["actual"]) == (3, "", bits * 12)


def test_numeric_spectrum_refuses_entries_past_the_float_range(capsys):
    code, out, err = run(capsys, "spectrum", "--torus", "1", "--rep-cap", "1", "--kappa", f"diag:{LONG}", "--numeric")
    assert (code, out) == (2, "")
    assert err.startswith("error: an operator entry of ") and "past the float range" in err
    data = run_json(capsys, "spectrum", "--torus", "1", "--rep-cap", "1", "--kappa", f"diag:{LONG}")
    assert [e["char_poly"] for e in data["reps"]] == [[str(-LONG), "1"], ["0", "1"], [str(-LONG), "1"]]


def test_kappa_file_input(tmp_path, capsys):
    payload = {"n": 3, "entries": [[0, 0, "1"], [1, 1, "2"], [2, 2, "3"], [1, 2, "1/5"]]}
    path = tmp_path / "kappa.json"
    path.write_text(json.dumps(payload))
    data = run_json(capsys, "spectrum", "--su2", "1", "--rep-cap", "1", "--kappa", str(path))
    assert [1, 2, "1/5"] in data["kappa"]["entries"]
    # a missing file is a usage error, not a crash
    code, out, err = run(capsys, "spectrum", "--su2", "1", "--kappa", str(tmp_path / "nope.json"))
    assert code == 2 and out == ""


def test_json_input_files_are_capped(tmp_path, capsys):
    # a file of JSON_INPUT_CAP characters is read and parsed; one more is
    # refused before parsing, for --kappa and --ustar alike
    head = json.dumps({"n": 3, "entries": [[0, 0, "1"], [1, 1, "2"], [2, 2, "3"]]})
    at_cap, past_cap = tmp_path / "at_cap.json", tmp_path / "past_cap.json"
    at_cap.write_text(head + " " * (cli.JSON_INPUT_CAP - len(head)))
    past_cap.write_text(head + " " * (cli.JSON_INPUT_CAP + 1 - len(head)))
    data = run_json(capsys, "spectrum", "--su2", "1", "--rep-cap", "1", "--kappa", str(at_cap))
    assert data["kappa"]["entries"] == [[0, 0, "1"], [1, 1, "2"], [2, 2, "3"]]
    reason = {"error": "cap-exceeded", "what": "JSON input characters", "actual": cli.JSON_INPUT_CAP + 1, "limit": cli.JSON_INPUT_CAP}
    for argv in (
        ["spectrum", "--su2", "1", "--rep-cap", "1", "--kappa", str(past_cap)],
        ["estimate", "--type", "A", "--rank", "2", "--weight", "1,0", "--ustar", str(past_cap)],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert json.loads(err) == reason


def test_ustar_parsing():
    for kmode in KMode:
        assert parse_ustar("trivial", kmode, A2) == kmode.read_ustar(A2, {(0, 0): 1})
        assert parse_ustar("trivial", kmode, A2).summands == (((0, 0), 1),)
        u = parse_ustar("[[[1, 1], 2], [[0, 0], 1]]", kmode, A2)
        assert u.kmode is kmode and u.summands == (((0, 0), 1), ((1, 1), 2))  # coordinate order
        # dim U*: the adjoint is 8-dimensional, a torus weight 1-dimensional
        assert u.dim == (3 if kmode is KMode.TORUS else 17)
    # a torus multiset keeps a listed zero multiplicity; a sum of irreducibles drops it
    zero = "[[[1, -1], 0], [[1, 1], 2]]"
    assert parse_ustar(zero, KMode.TORUS, A2).summands == (((1, -1), 0), ((1, 1), 2))
    assert parse_ustar(zero, KMode.DIAGONAL, A2).summands == parse_ustar(zero, KMode.TRIVIAL, A2).summands == (((1, 1), 2),)


@pytest.mark.parametrize("kmode,kept", [("torus", True), ("diagonal", False), ("trivial", False)])
def test_ustar_zero_multiplicity_kept_only_for_a_torus_multiset(capsys, kmode, kept):
    ustar = "[[[1, 1], 2], [[2, 0], 0], [[0, 0], 1]]"
    data = run_json(capsys, "report", *_sys_argv("A2"), "--cap", "20", "--kmode", kmode, "--ustar", ustar)
    listed = [[[0, 0], 1], [[1, 1], 2]]
    assert data["context"]["ustar"] == ([[[0, 0], 1], [[1, 1], 2], [[2, 0], 0]] if kept else listed)


# U* refused when it is read, in the modes listed, with its message.
BAD_USTARS = [
    ("[[[0, 0], 2], [[1, 1], -1]]", ("trivial", "diagonal", "torus"), "U* multiplicity of [1, 1] must be non-negative, got -1"),
    ("[[[0, 0], -1]]", ("trivial", "diagonal", "torus"), "U* multiplicity of [0, 0] must be non-negative, got -1"),
    ("[[[1, -1], 1]]", ("trivial", "diagonal"), "highest weight (1, -1) must be dominant"),
]


@pytest.mark.parametrize("kmode", [k.value for k in KMode])
def test_a_bad_ustar_exits_2_whatever_the_cap(capsys, kmode):
    # Cap 0 computes no class, and cap 1e4000 is refused by the enumeration
    # cap (exit 3 with a valid U*): U* is checked before either.
    requests = [
        ["report", "--cap", "0"],
        ["report", "--cap", "20"],
        ["report", "--cap", "1e4000"],
        ["report", "--cap", "0", "--real"],
        ["report", "--cap", "20", "--real"],
        ["estimate", "--weight", "1,1"],
    ]
    for ustar, modes, why in BAD_USTARS:
        if kmode not in modes:
            continue
        for command, *rest in requests:
            argv = [command, *_sys_argv("A2"), *rest, "--kmode", kmode, "--ustar", ustar]
            assert run(capsys, *argv) == (2, "", f"error: {why}\n"), argv
    assert run(capsys, "report", *_sys_argv("A2"), "--cap", "1e4000", "--kmode", kmode)[0] == 3


@pytest.mark.parametrize(
    "argv",
    [
        # about 16 KB, past the text buffer: print itself meets the closed pipe
        ["certify", "--su2", "3", "--rep-cap", "1"],
        # about 250 bytes: the flush meets it
        ["reptype", "--type", "A", "--rank", "2", "--weight", "1,0"],
    ],
    ids=["long", "short"],
)
def test_closed_pipe_exits_without_a_traceback(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "casimir_lab.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_child_env(),
    )
    proc.stdout.close()  # the reader quits before the report is written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait(timeout=120)
    assert err == ""  # no traceback and no "Exception ignored" line
    assert code == 0  # the report was complete; the reader chose to stop


# The exit-4 request runs the module with the Bareiss determinant of the
# characteristic-polynomial identity knocked off by one.
_BROKEN_DET = (
    "import runpy; from casimir_lab import oplab, ratlinalg; "
    "oplab.integer_det = lambda m: ratlinalg.integer_det(m) + 1; "
    "runpy.run_module('casimir_lab.cli', run_name='__main__')"
)


@pytest.mark.parametrize(
    "prefix,argv,code",
    [
        (["-m", "casimir_lab.cli"], ["classes", "--type", "Z", "--rank", "2", "--cap", "1"], 2),
        (["-m", "casimir_lab.cli"], ["certify", "--su2", "1", "--rep-cap", "40"], 3),
        (["-c", _BROKEN_DET], ["spectrum", "--su2", "1", "--rep-cap", "1", "--kappa", "diag:1,2,3"], 4),
    ],
    ids=["bad-input", "cap", "identity"],
)
def test_closed_stderr_keeps_the_exit_code(prefix, argv, code):
    proc = subprocess.Popen(
        [sys.executable, *prefix, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env()
    )
    proc.stderr.close()  # the reader never reads the reason
    out = proc.stdout.read()
    proc.stdout.close()
    # exit 1 would be an uncaught exception, 120 a failed flush at exit
    assert (proc.wait(timeout=120), out) == (code, b"")


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "casimir_lab.cli", "hidden", "--type", "A", "--rank", "2", "--a2", "8"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 12
