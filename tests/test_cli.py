"""Command-line surface: payload shapes, exit codes, canonical output."""

import hashlib
import io
import itertools
import json
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_lab import cli
from casimir_lab.cli import main, parse_kappa, parse_ustar
from casimir_lab.errors import InternalConsistencyError
from casimir_lab import hidden, oplab, polyq
from casimir_lab.oplab import GroupSpec, IrrepSpec, multiplicity_at_float
from casimir_lab.polyq import RationalPoly
from casimir_lab.reps import KMode, RepType
from casimir_lab.rootsys import RootSystemType, build_root_system
from casimir_lab.weights import DEFAULT_NODE_CAP, LatticeChoice, classes_up_to
from jsonref import jsonable
from polyref import doubled_den, rpoly

A2 = build_root_system(RootSystemType("A", 2))


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
        ("report", "--type", "A", "--rank", "3", "--cap", "2000"),
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
    # 4800 points: the point cap must refuse before the 4800 x 4800 Gram matrix is built.
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


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(capped_requests())
@example(["reptype", "--type", "E", "--rank", "8", "--weight", "0,0,0,0,0,0,0,1"])
@example(["hidden", "--type", "E", "--rank", "8", "--a2", "640"])
def test_capped_commands_keep_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - t0 < 10.0, argv
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


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


def _pinned_rank3_hidden_requests():
    """Every 48-point class of A3, B3 and C3 with a^2 <= 21."""
    argvs = []
    for name in ("A3", "B3", "C3"):
        rs = build_root_system(RootSystemType(name[0], int(name[1:])))
        classes = classes_up_to(rs, LatticeChoice.WEIGHT, 21)
        argvs += [_hidden_argv(name, c.a_sq) for c in classes if len(c.sphere_members) == 48]
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
        cli._emit(obj, output)
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


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(),
    st.fractions(),
    st.sampled_from([*RepType, *KMode, *LatticeChoice]),
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
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_JSON_PAYLOADS)
@example({})
@example({"": [], "é": {}, "雪": ()})
@example([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e300, 5e-324])
@example({"big": Q(10**199 + 7, 3), "neg": Q(-(10**199 + 7), 10**50)})
@example(((), ((),), ((), ((),))))
@example({"\x00\x1f\t\n\"\\\x7f": "\u2028\x08\x0c\r", "\U0001f600𝔤": ["\U0010ffff", "\ud800"]})
def test_json_hook_writes_what_the_reference_walk_writes(payload):
    ref = jsonable(payload)
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
# in Fraction arithmetic.
OPERATOR_SPECTRUM_PIN = "1beb579a6c1abdca1ebb38a7090d0083683a2c0cd10dd4771d94778f65f57c89"
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
    build = cli.build_operator

    def counting(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "build_operator", counting)
    data = run_json(capsys, "spectrum", "--su2", "1", "--torus", "1", "--rep-cap", "1",
                    "--kappa", "diag:1,2,3,4", "--numeric")
    assert len(calls) == len(data["reps"]) == len(set(calls)) == 6


@pytest.mark.parametrize("argv,what", [
    (("certify", "--su2", "1", "--rep-cap", "40"), "total rep dimension"),
    (("spectrum", "--su2", "1", "--rep-cap", "40", "--kappa", "diag:1,2,3", "--numeric"), "total rep dimension"),
    (("certify", "--torus", "3", "--rep-cap", "2"), "rep count"),
    (("spectrum", "--torus", "6", "--rep-cap", "1000", "--kappa", "diag:1,2,3,4,5,6"), "rep count"),
    (("certify", "--su2", "1", "--rep-cap", "1", "--budget", str(oplab.BUDGET_CAP + 1)), "budget"),
])
def test_rep_caps_refuse_before_any_operator(capsys, monkeypatch, argv, what):
    built = []
    for mod in (cli, oplab):
        monkeypatch.setattr(mod, "build_operator", lambda *args, **kwargs: built.append(args))
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
    for mod in (cli, oplab):
        monkeypatch.setattr(mod, "enumerate_reps", lambda *args: touched.append("enumerate_reps"))
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
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
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
    # multiplicity_at_float clears its RationalPoly argument exactly once
    entry = data["reps"][-1]
    p = rpoly(*(Q(c) for c in entry["char_poly"]))
    counts.update(integer_parts=0, RationalPoly=0)
    center = next(c["center"] for c in data["clusters"] if any(m["rep"] == entry["rep"] for m in c["members"]))
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


def test_kappa_file_input(tmp_path, capsys):
    payload = {"n": 3, "entries": [[0, 0, "1"], [1, 1, "2"], [2, 2, "3"], [1, 2, "1/5"]]}
    path = tmp_path / "kappa.json"
    path.write_text(json.dumps(payload))
    data = run_json(capsys, "spectrum", "--su2", "1", "--rep-cap", "1", "--kappa", str(path))
    assert [1, 2, "1/5"] in data["kappa"]["entries"]
    # a missing file is a usage error, not a crash
    code, out, err = run(capsys, "spectrum", "--su2", "1", "--kappa", str(tmp_path / "nope.json"))
    assert code == 2 and out == ""


def test_ustar_parsing():
    u = parse_ustar("[[[1, 1], 2], [[0, 0], 1]]", KMode.DIAGONAL, A2)
    assert u.as_dict() == {(1, 1): 2, (0, 0): 1}
    t = parse_ustar("trivial", KMode.TORUS, A2)
    assert t == {(0, 0): 1}


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
        [sys.executable, "-m", "casimir_lab.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.close()  # the reader quits before the report is written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait(timeout=120)
    assert err == ""  # no traceback and no "Exception ignored" line
    assert code == 0  # the report was complete; the reader chose to stop


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "casimir_lab.cli", "hidden", "--type", "A", "--rank", "2", "--a2", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 12
