"""Command-line surface: payload shapes, exit codes, canonical output."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction as Q

import pytest

from casimir_lab import cli
from casimir_lab.cli import main, parse_kappa, parse_ustar, qstr
from casimir_lab.oplab import diag_metric
from casimir_lab.reps import KMode
from casimir_lab.rootsys import RootSystemType, build_root_system

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


def test_kappa_parsing():
    assert parse_kappa("diag:1,2,3").kappa == ((1, 0, 0), (0, 2, 0), (0, 0, 3))
    k = parse_kappa('{"n": 2, "entries": [[0, 0, "2"], [0, 1, "1/3"], [1, 1, 4]]}')
    assert k.kappa == ((Q(2), Q(1, 3)), (Q(1, 3), Q(4)))
    # mirror conflict
    with pytest.raises(ValueError):
        parse_kappa('{"n": 2, "entries": [[0, 1, "1"], [1, 0, "2"]]}')
    # float entries are not exact and must be rejected
    with pytest.raises(ValueError):
        parse_kappa('{"n": 1, "entries": [[0, 0, 1.5]]}')
    with pytest.raises(ValueError):
        parse_kappa('{"n": 2, "entries": [[0, 5, "1"]]}')


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


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "casimir_lab.cli", "hidden", "--type", "A", "--rank", "2", "--a2", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 12
