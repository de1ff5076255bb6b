"""Command-line surface: one argparse entry point per pipeline.

JSON output is canonical — keys sorted, exact rationals as "p/q" strings
(q > 0, lowest terms), floats only in reports explicitly marked
"numeric".  Reports are built completely before printing, so an error
never leaves partial JSON on stdout; refusals and failures go to stderr.

Exit codes: 0 success; 2 usage error or invalid input; 3 a configured
cap refused the computation (machine-readable reason on stderr);
4 an internal exact identity failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from enum import Enum
from fractions import Fraction as Q

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


def qstr(x) -> str:
    return str(Q(x))


def _jsonable(obj):
    """Recursively rewrite payloads into plain JSON values (exactly)."""
    if isinstance(obj, Q):
        return qstr(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Enum):
        return obj.value
    return obj


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
    payload = _jsonable(payload)
    if output == "table":
        print("\n".join(_render_table(payload)))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# input parsing


def _build_rs(args):
    return build_root_system(RootSystemType(args.type, args.rank), metric_scale=Q(args.scale))


def _lattice(args) -> LatticeChoice:
    return LatticeChoice.WEIGHT if args.lattice == "weight" else LatticeChoice.ROOT


def _parse_coords(text: str) -> tuple:
    return tuple(int(part) for part in text.split(","))


def _inline_or_file(text: str, opener: str) -> str:
    raw = text.strip()
    if raw.startswith(opener):
        return raw
    with open(text, "r", encoding="utf-8") as fh:
        return fh.read()


def _entry_value(val) -> Q:
    if isinstance(val, str):
        return Q(val)
    if isinstance(val, int) and not isinstance(val, bool):
        return Q(val)
    raise ValueError(f"kappa entries must be exact rationals, got {val!r}")


def parse_kappa(text: str) -> MetricParam:
    """`diag:1,2,3` shorthand, or JSON {"n": N, "entries": [[i, j, "p/q"], ...]}.

    Entries use 0-based indices; the symmetric mirror of each entry is
    filled in automatically and any explicit conflict is rejected.
    Unspecified entries are 0.
    """
    if text.startswith("diag:"):
        return diag_metric([Q(part) for part in text[len("diag:"):].split(",")])
    data = json.loads(_inline_or_file(text, "{"))
    n = int(data["n"])
    if n <= 0:
        raise ValueError("kappa size must be positive")
    cells = [[None] * n for _ in range(n)]
    for item in data.get("entries", []):
        i, j, q = int(item[0]), int(item[1]), _entry_value(item[2])
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"kappa index ({i},{j}) outside 0..{n - 1}")
        for a, b in {(i, j), (j, i)}:
            if cells[a][b] is not None and cells[a][b] != q:
                raise ValueError(f"kappa entries at ({a},{b}) and its mirror disagree")
            cells[a][b] = q
    return MetricParam(tuple(tuple(c if c is not None else Q(0) for c in row) for row in cells))


def parse_ustar(text: str, kmode: KMode, rs):
    """"trivial", or JSON list [[coords, mult], ...] (inline or a file)."""
    if text == "trivial":
        if kmode is KMode.TORUS:
            return {(0,) * rs.rank: 1}
        return trivial_decomposition(rs)
    data = json.loads(_inline_or_file(text, "["))
    pairs = [(tuple(int(c) for c in coords), int(mult)) for coords, mult in data]
    if kmode is KMode.TORUS:
        return dict(pairs)
    return VirtualDecomposition.from_dict(dict(pairs))


def _kmode(args) -> KMode:
    return KMode(args.kmode)


# ---------------------------------------------------------------------------
# serialization helpers


def _rep_payload(v) -> dict:
    return {"spins": list(v.spins), "torus": list(v.torus_char)}


def _kappa_payload(k: MetricParam) -> dict:
    entries = []
    for i in range(k.n):
        for j in range(i, k.n):
            if k.kappa[i][j] != 0:
                entries.append([i, j, qstr(k.kappa[i][j])])
    return {"n": k.n, "entries": entries}


def _rs_context(args) -> dict:
    return {
        "family": args.type,
        "rank": args.rank,
        "lattice": args.lattice,
        "metric_scale": qstr(args.scale),
    }


def _table_rows(rows) -> list:
    return [
        {
            "kind": kind,
            "rep": _rep_payload(v),
            "rep2": _rep_payload(w) if w is not None else None,
            "value": qstr(val),
        }
        for kind, v, w, val in rows
    ]


# ---------------------------------------------------------------------------
# subcommands


def cmd_classes(args) -> dict:
    rs = _build_rs(args)
    classes = classes_up_to(rs, _lattice(args), Q(args.cap))
    return {
        "schema": SCHEMA,
        "context": {**_rs_context(args), "a_sq_cap": qstr(args.cap)},
        "classes": [
            {
                "a_sq": c.a_sq,
                "lambda": c.lam,
                "dominant_members": [list(w.fw_coords) for w in c.dominant_members],
                "sphere_size": len(c.sphere_members),
            }
            for c in classes
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
    rs = _build_rs(args)
    payload = cmd_classes(args)
    keep = []
    for c, row in zip(classes_up_to(rs, _lattice(args), Q(args.cap)), payload["classes"]):
        if _has_nondual_pair(rs, c):
            keep.append(row)
    payload["classes"] = keep
    return payload


def cmd_hidden(args) -> dict:
    rs = _build_rs(args)
    cls = sphere_set(rs, _lattice(args), Q(args.a2))
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
    return {
        "schema": SCHEMA,
        "context": _rs_context(args),
        "weight": list(v.highest.fw_coords),
        "type": classify_type(v),
        "dim": weyl_dim(v),
        "dual": list(dual_label(v).highest.fw_coords),
        "bold_g": bold_g_label([v]),
    }


def cmd_certify(args) -> dict:
    g = GroupSpec(args.su2, args.torus)
    cert = certify(g, args.rep_cap, budget=args.budget, seed=args.seed)
    return {
        "schema": SCHEMA,
        "status": cert.status,
        "certified": cert.certified,
        "group": {"su2_copies": g.su2_copies, "torus_rank": g.torus_rank},
        "rep_cap": args.rep_cap,
        "candidates_tried": cert.candidates_tried,
        "witness_kappa": _kappa_payload(cert.witness_kappa) if cert.witness_kappa else None,
        "table": _table_rows(cert.table),
        "violations": _table_rows(cert.violations),
    }


def cmd_spectrum(args) -> dict:
    g = GroupSpec(args.su2, args.torus)
    k = parse_kappa(args.kappa)
    reps = enumerate_reps(g, args.rep_cap)
    ops = [build_operator(g, v, k) for v in reps]
    entries = []
    for v, op in zip(reps, ops):
        p = char_poly(op)
        profile = root_multiplicity_profile(p)
        entries.append(
            {
                "rep": _rep_payload(v),
                "dim": v.dim,
                "char_poly": [qstr(c) for c in p.coefficients],
                "multiplicity_profile": {str(m): c for m, c in sorted(profile.items())},
            }
        )
    payload = {
        "schema": SCHEMA,
        "group": {"su2_copies": g.su2_copies, "torus_rank": g.torus_rank},
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
                    {
                        "rep": _rep_payload(v),
                        "multiplicity": m,
                        "assembled_dim": args.ustar_dim * m * v.dim,
                    }
                    for v, m in c.per_rep
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
    est = generic_estimate(rs, _lattice(args), kmode, ustar, mu)
    return {
        "schema": SCHEMA,
        "context": est.context,
        "mu_lambda": list(est.mu_lambda),
        "a_sq": est.a_sq,
        "lambda": est.lam,
        "terms": [
            {"mu": list(t.mu), "dual_mu": list(t.dual_mu), "mult": t.mult, "dim": t.dim}
            for t in est.terms
        ],
        "total_dim": est.total_dim,
    }


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
        Q(args.cap),
        point_cap=args.point_cap,
        rank_cap=args.rank_cap,
    )
    classes = []
    for c in report.classes:
        members = []
        for m in c.members:
            if args.real:
                members.append(
                    {
                        "mu": list(m.mu),
                        "partner_mu": list(m.partner_mu),
                        "rep_type": m.rep_type,
                        "isotypic_dim": m.isotypic_dim,
                        "real_mult": m.real_mult,
                        "real_dim": m.real_dim,
                        "hidden_orbit_id": m.hidden_orbit_id,
                    }
                )
            else:
                members.append(
                    {
                        "mu": list(m.mu),
                        "dual_mu": list(m.dual_mu),
                        "dim": m.dim,
                        "rep_type": m.rep_type,
                        "isotypic_dim": m.isotypic_dim,
                        "hidden_orbit_id": m.hidden_orbit_id,
                    }
                )
        classes.append(
            {
                "a_sq": c.a_sq,
                "lambda": c.lam,
                "flag": c.flag,
                "orbit_count": c.orbit_count,
                "eigenspace_dim": c.eigenspace_dim,
                "members": members,
            }
        )
    return {
        "schema": SCHEMA,
        "real": bool(args.real),
        "context": report.context,
        "labels": report.labels,
        "classes": classes,
        "total_dim": report.total_dim,
    }


def cmd_hodge(args) -> dict:
    table = hodge_rank1_check(Q(args.cap))
    return {
        "schema": SCHEMA,
        "cap": table.cap,
        "rows": [
            {
                "mu": list(r.mu),
                "a_sq": r.a_sq,
                "lambda": r.lam,
                "invariant_dims": list(r.invariant_dims),
                "member_all_p": r.member_all_p,
            }
            for r in table.rows
        ],
        "discrepancies": [
            {"mu": list(d.mu), "p": d.p, "lambda": d.lam, "annotation": d.annotation}
            for d in table.discrepancies
        ],
    }


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
    rsys.add_argument("--scale", default="1", help="global metric scale p/q")

    hidden_caps = argparse.ArgumentParser(add_help=False)
    hidden_caps.add_argument("--point-cap", type=int, default=DEFAULT_POINT_CAP)
    hidden_caps.add_argument("--rank-cap", type=int, default=DEFAULT_RANK_CAP)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", parents=[rsys, out], help="Casimir classes up to a squared-radius cap")
    p.add_argument("--cap", required=True, help="a_sq cap p/q")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("coincidences", parents=[rsys, out], help="classes with non-dual member pairs")
    p.add_argument("--cap", required=True)
    p.set_defaults(func=cmd_coincidences)

    p = sub.add_parser("hidden", parents=[rsys, out, hidden_caps], help="stabilizer of one sphere configuration")
    p.add_argument("--a2", required=True, help="squared radius p/q of the class")
    p.add_argument("--weyl-cap", type=int, default=DEFAULT_WEYL_CAP)
    p.set_defaults(func=cmd_hidden)

    p = sub.add_parser("reptype", parents=[rsys, out], help="real/complex/quaternionic type of one irreducible")
    p.add_argument("--weight", required=True, help="fundamental-weight coordinates c1,c2,...")
    p.set_defaults(func=cmd_reptype)

    p = sub.add_parser("certify", parents=[out], help="search a metric witness with all resultants nonzero")
    p.add_argument("--su2", type=int, default=0)
    p.add_argument("--torus", type=int, default=0)
    p.add_argument("--rep-cap", type=int, default=4)
    p.add_argument("--budget", type=int, default=12)
    p.add_argument("--seed", type=int, default=2026)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("spectrum", parents=[out], help="exact or numeric operator spectrum at one metric")
    p.add_argument("--su2", type=int, default=0)
    p.add_argument("--torus", type=int, default=0)
    p.add_argument("--rep-cap", type=int, default=4)
    p.add_argument("--kappa", required=True, help="diag:... shorthand, inline JSON, or a JSON file path")
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--ustar-dim", type=int, default=1)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("estimate", parents=[rsys, out], help="eigenspace bound from the full Casimir class")
    p.add_argument("--weight", required=True)
    p.add_argument("--ustar", default="trivial")
    p.add_argument("--kmode", choices=("trivial", "diagonal", "torus"), default="diagonal")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("report", parents=[rsys, out, hidden_caps], help="normal-metric spectral report")
    p.add_argument("--cap", required=True)
    p.add_argument("--ustar", default="trivial")
    p.add_argument("--kmode", choices=("trivial", "diagonal", "torus"), default="trivial")
    p.add_argument("--real", action="store_true", help="fold members into duality classes")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("hodge-rank1", parents=[out], help="form-degree membership table for the rank-1 group case")
    p.add_argument("--cap", required=True)
    p.set_defaults(func=cmd_hodge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload = args.func(args)
    except CapExceeded as exc:
        reason = {"error": "cap-exceeded", "what": exc.what, "actual": exc.actual, "limit": exc.limit}
        print(json.dumps(_jsonable(reason), sort_keys=True), file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4
    except (CasimirLabError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
