"""Command-line surface: one argparse entry point per pipeline.

JSON output is canonical — keys sorted, exact rationals as "p/q" strings
(q > 0, lowest terms), floats only in reports explicitly marked
"numeric".  One walk over the payload (_write) writes that text: the same
bytes as json.dumps(..., indent=2, sort_keys=True) of the payload in
plain JSON values, strings escaped to ASCII by json's own escaper, with a
Fraction written as "p/q", an Enum as its value and a dataclass as its
fields.  The text of each dataclass is built once per object and depth
within one payload and reused where the same object recurs.  Reports are
built and written completely before printing, so an error never leaves
partial JSON on stdout; refusals and failures go to stderr.

Exit codes: 0 success, also when the reader closes stdout before the
report is read; 2 usage error or invalid input; 3 a configured cap
refused the computation (machine-readable reason on stderr); 4 an
internal exact identity failed.  A reader that closes stderr keeps the
code of a refusal or failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from enum import Enum
from fractions import Fraction as Q
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _escape

from .errors import CapExceeded, CasimirLabError, InternalConsistencyError
from .hidden import (
    DEFAULT_POINT_CAP,
    DEFAULT_RANK_CAP,
    check_weyl_inclusion,
    orbits,
    shifted_config,
    stabilizer_group,
)
from .oplab import (
    GroupSpec,
    MetricParam,
    build_operator,
    certify,
    char_poly,
    cluster_spectrum,
    diag_metric,
    enumerate_reps,
)
from .polyq import root_multiplicity_profile
from .reps import (
    KMode,
    VirtualDecomposition,
    bold_g_label,
    classify_type,
    dual_label,
    rep,
    trivial_decomposition,
    weyl_dim,
)
from .rootsys import DEFAULT_WEYL_CAP, RootSystemType, build_root_system
from .spectra import (
    generic_estimate,
    hodge_rank1_check,
    normal_spectrum_report,
    real_spectrum_report,
)
from .weights import LatticeChoice, classes_up_to, dual_weight, make_weight, sphere_set

SCHEMA = "casimir-lab/1"


# Dataclass fields are their JSON keys, except these.
_FIELD_KEYS = {"lam": "lambda", "torus_char": "torus"}


def _fields(obj) -> dict:
    """A dataclass's fields under their JSON keys, values unconverted.
    Properties are not fields, so they are not included."""
    return {_FIELD_KEYS.get(name, name): getattr(obj, name) for name in obj.__dataclass_fields__}


def _write(obj, out, nl: str, memo: dict) -> None:
    """Append obj's canonical JSON text to out, in the order json.dumps tests
    types: a str, None, a bool, an int, a float, a list or tuple, a dict;
    then a Fraction as "p/q", an Enum as its value and a dataclass as its
    _fields.  nl is the newline and indentation of obj's own line.

    memo maps (id, nl) of each dataclass written so far to its text and the
    object itself, so a label repeated in every row of a table is walked
    once per depth; holding the object keeps its id from being reused while
    memo lives.  The key is identity, not equality: equal dataclasses may
    be written differently (a field holding True against one holding 1).
    """
    if isinstance(obj, str):
        out(_escape(obj))
    elif obj is None:
        out("null")
    elif obj is True:
        out("true")
    elif obj is False:
        out("false")
    elif isinstance(obj, int):
        out(int.__repr__(obj))
    elif isinstance(obj, float):
        out(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            out(sep)
            sep = "," + inner
            _write(item, out, inner, memo)
        out(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out(sep + _escape(key) + ": ")
            sep = "," + inner
            _write(obj[key], out, inner, memo)
        out(nl + "}")
    elif isinstance(obj, Q):
        out(_escape(str(obj)))
    elif isinstance(obj, Enum):
        _write(obj.value, out, nl, memo)
    elif hasattr(obj, "__dataclass_fields__"):
        key = (id(obj), nl)
        if key not in memo:
            chunks: list[str] = []
            _write(_fields(obj), chunks.append, nl, memo)
            memo[key] = ("".join(chunks), obj)
        out(memo[key][0])
    else:
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _float_text(x: float) -> str:
    """A float as json writes it by default, non-finite values included."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _render_table(payload, indent: int = 0) -> list:
    pad = "  " * indent
    lines = []
    if isinstance(payload, dict):
        for k, v in sorted(payload.items()):
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_table(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_table(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{payload}")
    return lines


def _emit(payload: dict, output: str) -> None:
    chunks: list[str] = []
    _write(payload, chunks.append, "\n", {})
    text = "".join(chunks)
    print("\n".join(_render_table(json.loads(text))) if output == "table" else text)


# ---------------------------------------------------------------------------
# input parsing


def rational(text: str) -> Q:
    """An exact rational from "p/q", an integer or a decimal; ValueError otherwise."""
    try:
        return Q(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def count(text: str) -> int:
    """A non-negative integer (caps, budgets, factor counts)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def tolerance(text: str) -> float:
    """A finite, non-negative float."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite non-negative number, got {text}")
    return value


def _build_rs(args):
    return build_root_system(RootSystemType(args.type, args.rank), metric_scale=args.scale)


def _lattice(args) -> LatticeChoice:
    return LatticeChoice.WEIGHT if args.lattice == "weight" else LatticeChoice.ROOT


def _parse_coords(text: str) -> tuple:
    return tuple(int(part) for part in text.split(","))


def _json_input(text: str, opener: str):
    """Inline JSON that starts with opener, or the JSON in the file named text."""
    raw = text.strip()
    if not raw.startswith(opener):
        with open(text, "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        return json.loads(raw)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _json_int(val, what: str) -> int:
    """An integer JSON value; floats, booleans and null are rejected."""
    if isinstance(val, int) and not isinstance(val, bool):
        return val
    raise ValueError(f"{what} must be an integer, got {val!r}")


def _entry_value(val) -> Q:
    if isinstance(val, str):
        return rational(val)
    if isinstance(val, int) and not isinstance(val, bool):
        return Q(val)
    raise ValueError(f"kappa entries must be exact rationals, got {val!r}")


def parse_kappa(text: str, g: GroupSpec) -> MetricParam:
    """`diag:1,2,3` shorthand, or JSON {"n": N, "entries": [[i, j, "p/q"], ...]}.

    Entries use 0-based indices; the symmetric mirror of each entry is
    filled in automatically and any explicit conflict is rejected.
    Unspecified entries are 0.  The size must be g's algebra dimension; it
    is checked after the entries are read and before the matrix is built.
    """
    if text.startswith("diag:"):
        diagonal = [rational(part) for part in text[len("diag:"):].split(",")]
        g.check_kappa_size(len(diagonal))
        return diag_metric(diagonal)
    data = _json_input(text, "{")
    if not isinstance(data, dict):
        raise ValueError("kappa JSON must be an object")
    n = _json_int(data.get("n"), "kappa size n")
    if n <= 0:
        raise ValueError("kappa size must be positive")
    entries = data.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError("kappa entries must be a list")
    cells: dict[tuple[int, int], Q] = {}
    for item in entries:
        if not (isinstance(item, list) and len(item) == 3):
            raise ValueError(f"kappa entry {item!r} is not [i, j, value]")
        i, j = (_json_int(x, "kappa index") for x in item[:2])
        q = _entry_value(item[2])
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"kappa index ({i},{j}) outside 0..{n - 1}")
        for a, b in {(i, j), (j, i)}:
            if cells.setdefault((a, b), q) != q:
                raise ValueError(f"kappa entries at ({a},{b}) and its mirror disagree")
    g.check_kappa_size(n)
    return MetricParam(tuple(tuple(cells.get((i, j), Q(0)) for j in range(n)) for i in range(n)))


def parse_ustar(text: str, kmode: KMode, rs):
    """"trivial", or JSON list [[coords, mult], ...] (inline or a file)."""
    if text == "trivial":
        if kmode is KMode.TORUS:
            return {(0,) * rs.rank: 1}
        return trivial_decomposition(rs)
    data = _json_input(text, "[")
    if not isinstance(data, list):
        raise ValueError("ustar JSON must be a list")
    pairs = []
    for item in data:
        if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], list)):
            raise ValueError(f"ustar item {item!r} is not [coords, multiplicity]")
        coords = tuple(_json_int(c, "ustar coordinate") for c in item[0])
        if len(coords) != rs.rank:
            raise ValueError(f"ustar weight {list(coords)} has {len(coords)} coordinates, expected {rs.rank}")
        pairs.append((coords, _json_int(item[1], "ustar multiplicity")))
    mults = dict(pairs)
    if len(mults) != len(pairs):
        raise ValueError("ustar lists a weight more than once")
    if kmode is KMode.TORUS:
        return mults
    return VirtualDecomposition.from_dict(mults)


def _kmode(args) -> KMode:
    return KMode(args.kmode)


# ---------------------------------------------------------------------------
# serialization helpers


def _kappa_payload(k: MetricParam) -> dict:
    entries = []
    for i in range(k.n):
        for j in range(i, k.n):
            if k.kappa[i][j] != 0:
                entries.append([i, j, k.kappa[i][j]])
    return {"n": k.n, "entries": entries}


def _rs_context(args) -> dict:
    return {
        "family": args.type,
        "rank": args.rank,
        "lattice": args.lattice,
        "metric_scale": args.scale,
    }


def _table_rows(rows) -> list:
    return [{"kind": kind, "rep": v, "rep2": w, "value": val} for kind, v, w, val in rows]


# ---------------------------------------------------------------------------
# subcommands


def cmd_classes(args, keep=lambda rs, cls: True) -> dict:
    rs = _build_rs(args)
    classes = classes_up_to(rs, _lattice(args), args.cap)
    return {
        "schema": SCHEMA,
        "context": {**_rs_context(args), "a_sq_cap": args.cap},
        "classes": [
            {
                "a_sq": c.a_sq,
                "lambda": c.lam,
                "dominant_members": [list(w.fw_coords) for w in c.dominant_members],
                "sphere_size": len(c.sphere_members),
            }
            for c in classes
            if keep(rs, c)
        ],
    }


def _has_nondual_pair(rs, cls) -> bool:
    ms = cls.dominant_members
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if dual_weight(rs, ms[i]).fw_coords != ms[j].fw_coords:
                return True
    return False


def cmd_coincidences(args) -> dict:
    """The classes holding a dominant pair that duality does not exchange."""
    return cmd_classes(args, keep=_has_nondual_pair)


def cmd_hidden(args) -> dict:
    rs = _build_rs(args)
    cls = sphere_set(rs, _lattice(args), args.a2)
    cfg = shifted_config(rs, cls)
    group = stabilizer_group(cfg, point_cap=args.point_cap, rank_cap=args.rank_cap)
    orbs = orbits(cfg, group)
    included, _ = check_weyl_inclusion(rs, cfg, weyl_cap=args.weyl_cap)
    return {
        "schema": SCHEMA,
        "context": _rs_context(args),
        "a_sq": cls.a_sq,
        "points": cfg.size,
        "dominant_members": [list(w.fw_coords) for w in cls.dominant_members],
        "order": len(group),
        "orbits": len(orbs),
        "transitive": len(orbs) == 1,
        "weyl_included": included,
    }


def cmd_reptype(args) -> dict:
    rs = _build_rs(args)
    v = rep(rs, _parse_coords(args.weight))
    t = classify_type(v)
    return {
        "schema": SCHEMA,
        "context": _rs_context(args),
        "weight": list(v.highest.fw_coords),
        "type": t,
        "dim": weyl_dim(v),
        "dual": list(dual_label(v).highest.fw_coords),
        "bold_g": bold_g_label([t]),
    }


def cmd_certify(args) -> dict:
    g = GroupSpec(args.su2, args.torus)
    cert = certify(g, args.rep_cap, budget=args.budget, seed=args.seed)
    return {
        "schema": SCHEMA,
        "status": cert.status,
        "certified": cert.certified,
        "group": g,
        "rep_cap": args.rep_cap,
        "candidates_tried": cert.candidates_tried,
        "witness_kappa": _kappa_payload(cert.witness_kappa) if cert.witness_kappa else None,
        "table": _table_rows(cert.table),
        "violations": _table_rows(cert.violations),
    }


def cmd_spectrum(args) -> dict:
    g = GroupSpec(args.su2, args.torus)
    k = parse_kappa(args.kappa, g)
    reps = enumerate_reps(g, args.rep_cap)
    ops = [build_operator(g, v, k) for v in reps]
    entries = []
    for v, op in zip(reps, ops):
        # P(s) = det(sI - den D); scaling by den keeps root multiplicities,
        # and D's polynomial has coefficient P[i] / den^(d - i) at t^i.
        p, den = char_poly(op)
        d = len(p) - 1
        profile = root_multiplicity_profile(p)
        entries.append(
            {
                "rep": v,
                "dim": v.dim,
                "char_poly": [Q(c, den ** (d - i)) for i, c in enumerate(p)],
                "multiplicity_profile": {str(m): c for m, c in sorted(profile.items())},
            }
        )
    payload = {
        "schema": SCHEMA,
        "group": g,
        "kappa": _kappa_payload(k),
        "rep_cap": args.rep_cap,
        "numeric": bool(args.numeric),
        "reps": entries,
    }
    if args.numeric:
        clusters = cluster_spectrum(ops, k, tol=args.tol)
        payload["tol"] = args.tol
        payload["ustar_dim"] = args.ustar_dim
        payload["clusters"] = [
            {
                "center": c.center,
                "members": [
                    {"rep": v, "multiplicity": m, "assembled_dim": dim}
                    for (v, m), dim in zip(c.per_rep, c.assembled_dims(args.ustar_dim).values())
                ],
            }
            for c in clusters
        ]
    return payload


def cmd_estimate(args) -> dict:
    rs = _build_rs(args)
    kmode = _kmode(args)
    ustar = parse_ustar(args.ustar, kmode, rs)
    mu = make_weight(rs, _parse_coords(args.weight), _lattice(args))
    return {"schema": SCHEMA, **_fields(generic_estimate(rs, _lattice(args), kmode, ustar, mu))}


def cmd_report(args) -> dict:
    rs = _build_rs(args)
    kmode = _kmode(args)
    ustar = parse_ustar(args.ustar, kmode, rs)
    build = real_spectrum_report if args.real else normal_spectrum_report
    report = build(
        rs,
        _lattice(args),
        kmode,
        ustar,
        args.cap,
        point_cap=args.point_cap,
        rank_cap=args.rank_cap,
    )
    return {"schema": SCHEMA, "real": bool(args.real), "total_dim": report.total_dim, **_fields(report)}


def cmd_hodge(args) -> dict:
    return {"schema": SCHEMA, **_fields(hodge_rank1_check(args.cap))}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-lab",
        description="Exact Casimir spectra, hidden sphere symmetries, and metric certificates.",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--output", choices=("json", "table"), default="json")

    rsys = argparse.ArgumentParser(add_help=False)
    rsys.add_argument("--type", required=True, help="Dynkin family letter A..G")
    rsys.add_argument("--rank", required=True, type=int)
    rsys.add_argument("--lattice", choices=("weight", "root"), default="weight")
    rsys.add_argument("--scale", type=rational, default="1", help="global metric scale p/q")

    hidden_caps = argparse.ArgumentParser(add_help=False)
    hidden_caps.add_argument("--point-cap", type=count, default=DEFAULT_POINT_CAP)
    hidden_caps.add_argument("--rank-cap", type=count, default=DEFAULT_RANK_CAP)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", parents=[rsys, out], help="Casimir classes up to a squared-radius cap")
    p.add_argument("--cap", type=rational, required=True, help="a_sq cap p/q")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("coincidences", parents=[rsys, out], help="classes with non-dual member pairs")
    p.add_argument("--cap", type=rational, required=True)
    p.set_defaults(func=cmd_coincidences)

    p = sub.add_parser("hidden", parents=[rsys, out, hidden_caps], help="stabilizer of one sphere configuration")
    p.add_argument("--a2", type=rational, required=True, help="squared radius p/q of the class")
    p.add_argument("--weyl-cap", type=count, default=DEFAULT_WEYL_CAP)
    p.set_defaults(func=cmd_hidden)

    p = sub.add_parser("reptype", parents=[rsys, out], help="real/complex/quaternionic type of one irreducible")
    p.add_argument("--weight", required=True, help="fundamental-weight coordinates c1,c2,...")
    p.set_defaults(func=cmd_reptype)

    p = sub.add_parser("certify", parents=[out], help="search a metric witness with all resultants nonzero")
    p.add_argument("--su2", type=count, default=0)
    p.add_argument("--torus", type=count, default=0)
    p.add_argument("--rep-cap", type=count, default=4)
    p.add_argument("--budget", type=count, default=12)
    p.add_argument("--seed", type=int, default=2026)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("spectrum", parents=[out], help="exact or numeric operator spectrum at one metric")
    p.add_argument("--su2", type=count, default=0)
    p.add_argument("--torus", type=count, default=0)
    p.add_argument("--rep-cap", type=count, default=4)
    p.add_argument("--kappa", required=True, help="diag:... shorthand, inline JSON, or a JSON file path")
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--tol", type=tolerance, default=1e-9)
    p.add_argument("--ustar-dim", type=count, default=1)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("estimate", parents=[rsys, out], help="eigenspace bound from the full Casimir class")
    p.add_argument("--weight", required=True)
    p.add_argument("--ustar", default="trivial")
    p.add_argument("--kmode", choices=("trivial", "diagonal", "torus"), default="diagonal")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("report", parents=[rsys, out, hidden_caps], help="normal-metric spectral report")
    p.add_argument("--cap", type=rational, required=True)
    p.add_argument("--ustar", default="trivial")
    p.add_argument("--kmode", choices=("trivial", "diagonal", "torus"), default="trivial")
    p.add_argument("--real", action="store_true", help="fold members into duality classes")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("hodge-rank1", parents=[out], help="form-degree membership table for the rank-1 group case")
    p.add_argument("--cap", type=rational, required=True)
    p.set_defaults(func=cmd_hodge)

    return parser


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    # Built on first use and reused: parse_args does not mutate the parser.
    return build_parser()


def _drop_closed(stream) -> None:
    """The reader closed stream early.  Point its descriptor at devnull so
    the flush at interpreter exit does not raise again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _refuse(text: str, code: int) -> int:
    """Write a refusal or failure line to stderr and return its exit code,
    which stands also when the reader closed stderr."""
    try:
        print(text, file=sys.stderr, flush=True)
    except BrokenPipeError:
        _drop_closed(sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload = args.func(args)
    except CapExceeded as exc:
        reason = {"error": "cap-exceeded", "what": exc.what, "actual": exc.actual, "limit": exc.limit}
        return _refuse(json.dumps(reason, sort_keys=True), 3)
    except InternalConsistencyError as exc:
        return _refuse(f"internal consistency failure: {exc}", 4)
    except (CasimirLabError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        return _refuse(f"error: {exc}", 2)
    try:
        _emit(payload, args.output)
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_closed(sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
