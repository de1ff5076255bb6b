"""Command-line surface: one argparse entry point per pipeline.

JSON output is canonical — keys sorted, exact rationals as "p/q" strings
(q > 0, lowest terms), floats only in reports explicitly marked
"numeric".  One walk over the payload (_text) writes that text: the same
bytes as json.dumps(..., indent=2, sort_keys=True) of the payload in
plain JSON values, strings escaped to ASCII by json's own escaper, with a
Fraction written as "p/q", an Enum as its value and a dataclass as its
fields.  The walk looks each value up by its exact type: a leaf (a str,
int, Fraction, None, bool, float, or an Enum whose values are such) is
written inside its container's loop; a list, tuple, dict or certificate
table (_Rows) by its own writer; and a dataclass from its type's plan of
escaped JSON keys and attribute names in key order, made once per type.
Any other type is refused with TypeError, and so is a subclass of a leaf
or container type that is not an Enum.  The text of each dataclass is
built once per object and depth within one payload and reused where the
same object recurs.  Reports are built and written completely before
printing, so an error never leaves partial JSON on stdout; refusals and
failures go to stderr.

Each subcommand is declared once, in _COMMANDS: its function, its help
line and its options as add_argument keywords.  build_parser builds the
argparse parser from that table.  A plan made once from each entry reads
an argv of exact flags after the subcommand, each with one value not
starting with "-" (a store-true flag takes none); any other argv goes to
the full parser, which writes all help, usage and error text.

Exit codes: 0 success, also when the reader closes stdout before the
report is read; 2 usage error or invalid input; 3 a configured cap
refused the computation (machine-readable reason on stderr); 4 an
internal exact identity failed.  A reader that closes stderr keeps the
code of a refusal or failure.  A --kappa or --ustar file past
JSON_INPUT_CAP characters is refused, and so is a payload int past the
interpreter's int-to-str digit limit (its reason gives the digit count).
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

from .errors import (
    CapExceeded,
    CasimirLabError,
    InternalConsistencyError,
    decimal_digits,
)
from .hidden import (
    DEFAULT_POINT_CAP,
    DEFAULT_RANK_CAP,
    check_weyl_inclusion,
    orbits,
    shifted_config,
    stabilizer_group,
)
from .oplab import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    DEFAULT_TOL,
    GroupSpec,
    MetricParam,
    certify,
    diag_metric,
    spectrum,
)
from .ratlinalg import rational
from .reps import KMode, KModule, bold_g_label, classify_type, dual_label, rep, weyl_dim
from .rootsys import DEFAULT_WEYL_CAP, RootSystemType, build_root_system
from .spectra import (
    generic_estimate,
    hodge_rank1_check,
    normal_spectrum_report,
    real_spectrum_report,
)
from .weights import LatticeChoice, classes_up_to, make_weight, sphere_set

SCHEMA = "casimir-lab/1"

# Characters read from a --kappa or --ustar JSON file; a longer file is
# refused.  The largest kappa that spectrum admits (24 x 24, each of its
# 300 entries p/q under the metric bits cap) is about 2.2 million.
JSON_INPUT_CAP = 4_000_000


# Dataclass fields are their JSON keys, except these.
_FIELD_KEYS = {"lam": "lambda", "torus_char": "torus"}


def _fields(obj) -> dict:
    """A dataclass's fields under their JSON keys, values unconverted.
    Properties are not fields, so they are not included."""
    return {_FIELD_KEYS.get(name, name): getattr(obj, name) for name in obj.__dataclass_fields__}


def _too_long(n: int) -> CapExceeded:
    """The refusal of an int past the interpreter's int-to-str digit limit,
    with its digit count."""
    return CapExceeded("output integer digits", decimal_digits(n), sys.get_int_max_str_digits())


def _int_text(n: int) -> str:
    try:
        return int.__repr__(n)
    except ValueError:
        raise _too_long(n) from None


def _fraction_text(q: Q) -> str:
    try:
        return _escape(str(q))
    except ValueError:
        raise _too_long(max(abs(q.numerator), q.denominator)) from None


def _float_text(x: float) -> str:
    """A float as json writes it by default, non-finite values included."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# The text of a leaf by its exact type.  A container writes its leaves in
# its own loop.  _writer adds the Enum types it finds.
_LEAVES = {
    str: _escape,
    int: _int_text,
    Q: _fraction_text,
    type(None): lambda _: "null",
    bool: lambda b: "true" if b else "false",
    float: _float_text,
}


def _text(obj, nl: str, memo: dict) -> str:
    """obj's canonical JSON text.  nl is the newline and indentation of
    obj's own line.

    memo maps (id, nl) of each dataclass written so far to its text and the
    object itself, so a label repeated in every row of a table is walked
    once per depth; holding the object keeps its id from being reused while
    memo lives.  The key is identity, not equality: equal dataclasses may
    be written differently (a field holding True against one holding 1).
    """
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    hit = memo.get((id(obj), nl))
    if hit is not None:
        return hit[0]
    chunks: list[str] = []
    (_WRITERS.get(type(obj)) or _writer(type(obj)))(obj, chunks.append, nl, memo)
    return "".join(chunks)


def _write_list(items, out, nl: str, memo: dict) -> None:
    if not items:
        out("[]")
        return
    inner = nl + "  "
    sep = "[" + inner
    for item in items:
        leaf = _LEAVES.get(type(item))
        if leaf is not None:
            out(sep + leaf(item))
        else:
            out(sep)
            (_WRITERS.get(type(item)) or _writer(type(item)))(item, out, inner, memo)
        sep = "," + inner
    out(nl + "]")


def _write_object(heads, values, out, nl: str, memo: dict) -> None:
    """A JSON object: heads are its escaped keys with their ": ", in key
    order, and values the values in the same order."""
    if not heads:
        out("{}")
        return
    inner = nl + "  "
    sep = "{" + inner
    for head, value in zip(heads, values):
        leaf = _LEAVES.get(type(value))
        if leaf is not None:
            out(sep + head + leaf(value))
        else:
            out(sep + head)
            (_WRITERS.get(type(value)) or _writer(type(value)))(value, out, inner, memo)
        sep = "," + inner
    out(nl + "}")


def _write_dict(obj: dict, out, nl: str, memo: dict) -> None:
    keys = sorted(obj)
    for key in keys:
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
    _write_object([_escape(key) + ": " for key in keys], [obj[key] for key in keys], out, nl, memo)


def _dataclass_writer(cls):
    """The writer of dataclass type cls: the plan of its fields, their
    escaped JSON keys and attribute names in key order, is made once; the
    text of each object is kept in memo."""
    keys = {_FIELD_KEYS.get(name, name): name for name in cls.__dataclass_fields__}
    order = sorted(keys)
    heads = [_escape(key) + ": " for key in order]
    names = [keys[key] for key in order]

    def write(obj, out, nl: str, memo: dict) -> None:
        key = (id(obj), nl)
        hit = memo.get(key)
        if hit is None:
            chunks: list[str] = []
            _write_object(heads, [getattr(obj, name) for name in names], chunks.append, nl, memo)
            hit = memo[key] = ("".join(chunks), obj)
        out(hit[0])

    return write


class _Rows(tuple):
    """Certificate table rows (kind, rep, rep2, value), each written as the
    JSON object with those keys; the names are already in sorted order."""


def _write_rows(rows: _Rows, out, nl: str, memo: dict) -> None:
    """A _Rows table: the key text and separators are made once for the
    table, and each row is written as one string."""
    if not rows:
        out("[]")
        return
    inner = nl + "  "
    field = inner + "  "
    h_kind, h_rep, h_rep2, h_value = (
        lead + field + _escape(key) + ": " for lead, key in zip("{,,,", ("kind", "rep", "rep2", "value"))
    )
    close = inner + "}"
    sep = "[" + inner
    for kind, rep, rep2, value in rows:
        out(
            f"{sep}{h_kind}{_text(kind, field, memo)}{h_rep}{_text(rep, field, memo)}"
            f"{h_rep2}{_text(rep2, field, memo)}{h_value}{_text(value, field, memo)}{close}"
        )
        sep = "," + inner
    out(nl + "]")


# The writer of every other type met so far, by its exact type.
_WRITERS = {list: _write_list, tuple: _write_list, dict: _write_dict, _Rows: _write_rows}


def _writer(cls):
    """The writer of type cls, kept for the next object of that type.  An
    Enum whose values all have a leaf type goes into _LEAVES, written from
    its value, and a dataclass is written from its plan; any other type is
    refused."""
    if issubclass(cls, Enum) and {type(e._value_) for e in cls} <= _LEAVES.keys():
        leaf = _LEAVES[cls] = lambda e: _LEAVES[type(e._value_)](e._value_)
        return lambda obj, out, nl, memo: out(leaf(obj))
    if hasattr(cls, "__dataclass_fields__"):
        _WRITERS[cls] = _dataclass_writer(cls)
        return _WRITERS[cls]
    raise TypeError(f"{cls.__name__} is not JSON serializable")


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


def _render(payload: dict, output: str) -> str:
    """The text that main prints for payload: its canonical JSON, or that
    JSON as an indented table."""
    text = _text(payload, "\n", {})
    return "\n".join(_render_table(json.loads(text))) if output == "table" else text


# ---------------------------------------------------------------------------
# input parsing


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
    """Inline JSON that starts with opener, or the JSON in the file named
    text.  A file past JSON_INPUT_CAP characters is refused (CapExceeded)
    after reading one character more than the cap, before any parsing."""
    raw = text.strip()
    if not raw.startswith(opener):
        with open(text, "r", encoding="utf-8") as fh:
            raw = fh.read(JSON_INPUT_CAP + 1)
        if len(raw) > JSON_INPUT_CAP:
            raise CapExceeded("JSON input characters", len(raw), JSON_INPUT_CAP)
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


def parse_ustar(text: str, kmode: KMode, rs) -> KModule:
    """"trivial", or JSON list [[coords, mult], ...] (inline or a file),
    read by KMode.read_ustar."""
    if text == "trivial":
        return kmode.read_ustar(rs, {(0,) * rs.rank: 1})
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
    return kmode.read_ustar(rs, mults)


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
                "dominant_members": [list(m) for m in c.dominant_members],
                "sphere_size": c.sphere_size,
            }
            for c in classes
            if keep(rs, c)
        ],
    }


def _has_nondual_pair(rs, cls) -> bool:
    ms = cls.dominant_members
    return any(dual_label(rs, a) != b for i, a in enumerate(ms) for b in ms[i + 1 :])


def cmd_coincidences(args) -> dict:
    """The classes holding a dominant pair that duality does not exchange."""
    return cmd_classes(args, keep=_has_nondual_pair)


def cmd_hidden(args) -> dict:
    rs = _build_rs(args)
    cls = sphere_set(rs, _lattice(args), args.a2)
    cfg = shifted_config(rs, cls)
    group = stabilizer_group(cfg, point_cap=args.point_cap, rank_cap=args.rank_cap)
    orbs = orbits(cfg, group)
    included = check_weyl_inclusion(rs, cfg, weyl_cap=args.weyl_cap)
    return {
        "schema": SCHEMA,
        "context": _rs_context(args),
        "a_sq": cls.a_sq,
        "points": cfg.size,
        "dominant_members": [list(m) for m in cls.dominant_members],
        "order": len(group),
        "orbits": len(orbs),
        "transitive": len(orbs) == 1,
        "weyl_included": included,
    }


def cmd_reptype(args) -> dict:
    rs = _build_rs(args)
    mu = rep(rs, _parse_coords(args.weight))
    t = classify_type(rs, mu)
    return {
        "schema": SCHEMA,
        "context": _rs_context(args),
        "weight": list(mu),
        "type": t,
        "dim": weyl_dim(rs, mu),
        "dual": list(dual_label(rs, mu)),
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
        "table": _Rows(cert.table),
        "violations": _Rows(cert.violations),
    }


def cmd_spectrum(args) -> dict:
    g = GroupSpec(args.su2, args.torus)
    k = parse_kappa(args.kappa, g)
    entries, clusters = spectrum(g, args.rep_cap, k, args.tol if args.numeric else None)
    payload = {
        "schema": SCHEMA,
        "group": g,
        "kappa": _kappa_payload(k),
        "rep_cap": args.rep_cap,
        "numeric": bool(args.numeric),
        "reps": entries,
    }
    if args.numeric:
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
    ustar = parse_ustar(args.ustar, KMode(args.kmode), rs)
    mu = make_weight(rs, _parse_coords(args.weight), _lattice(args))
    return {"schema": SCHEMA, **_fields(generic_estimate(rs, _lattice(args), ustar, mu))}


def cmd_report(args) -> dict:
    rs = _build_rs(args)
    ustar = parse_ustar(args.ustar, KMode(args.kmode), rs)
    build = real_spectrum_report if args.real else normal_spectrum_report
    report = build(
        rs,
        _lattice(args),
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

# Each subcommand's options as (flag, add_argument keywords), in help order.
# A flag's dest is its name after "--" with each "-" read as "_".
_OUTPUT = ("--output", {"choices": ("json", "table"), "default": "json"})
_RSYS = (  # the root system's options, then _OUTPUT
    ("--type", {"required": True, "help": "Dynkin family letter A..G"}),
    ("--rank", {"required": True, "type": int}),
    ("--lattice", {"choices": ("weight", "root"), "default": "weight"}),
    ("--scale", {"type": rational, "default": Q(1), "help": "global metric scale p/q"}),
    _OUTPUT,
)
_HIDDEN_CAPS = (
    ("--point-cap", {"type": count, "default": DEFAULT_POINT_CAP}),
    ("--rank-cap", {"type": count, "default": DEFAULT_RANK_CAP}),
)
_GROUP = (  # _OUTPUT, then the operator group and its rep cap
    _OUTPUT,
    ("--su2", {"type": count, "default": 0}),
    ("--torus", {"type": count, "default": 0}),
    ("--rep-cap", {"type": count, "default": 4}),
)
_CAP = ("--cap", {"type": rational, "required": True})
_USTAR = ("--ustar", {"default": "trivial"})
_KMODES = [k.value for k in KMode]

# Each subcommand: its function, its help line and its options.
_COMMANDS = {
    "classes": (cmd_classes, "Casimir classes up to a squared-radius cap", (
        *_RSYS, ("--cap", {"type": rational, "required": True, "help": "a_sq cap p/q"}))),
    "coincidences": (cmd_coincidences, "classes with non-dual member pairs", (*_RSYS, _CAP)),
    "hidden": (cmd_hidden, "stabilizer of one sphere configuration", (
        *_RSYS, *_HIDDEN_CAPS,
        ("--a2", {"type": rational, "required": True, "help": "squared radius p/q of the class"}),
        ("--weyl-cap", {"type": count, "default": DEFAULT_WEYL_CAP}))),
    "reptype": (cmd_reptype, "real/complex/quaternionic type of one irreducible", (
        *_RSYS, ("--weight", {"required": True, "help": "fundamental-weight coordinates c1,c2,..."}))),
    "certify": (cmd_certify, "search a metric witness with all resultants nonzero", (
        *_GROUP, ("--budget", {"type": count, "default": DEFAULT_BUDGET}),
        ("--seed", {"type": int, "default": DEFAULT_SEED}))),
    "spectrum": (cmd_spectrum, "exact or numeric operator spectrum at one metric", (
        *_GROUP, ("--kappa", {"required": True, "help": "diag:... shorthand, inline JSON, or a JSON file path"}),
        ("--numeric", {"action": "store_true"}), ("--tol", {"type": tolerance, "default": DEFAULT_TOL}),
        ("--ustar-dim", {"type": count, "default": 1}))),
    "estimate": (cmd_estimate, "eigenspace bound from the full Casimir class", (
        *_RSYS, ("--weight", {"required": True}), _USTAR, ("--kmode", {"choices": _KMODES, "default": "diagonal"}))),
    "report": (cmd_report, "normal-metric spectral report", (
        *_RSYS, *_HIDDEN_CAPS, _CAP, _USTAR, ("--kmode", {"choices": _KMODES, "default": "trivial"}),
        ("--real", {"action": "store_true", "help": "fold members into duality classes"}))),
    "hodge-rank1": (cmd_hodge, "form-degree membership table for the rank-1 group case", (_OUTPUT, _CAP)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-lab",
        description="Exact Casimir spectra, hidden sphere symmetries, and metric certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


@lru_cache(maxsize=1)
def _full_parser() -> argparse.ArgumentParser:
    """build_parser(), built on first use and reused: parsing does not mutate it."""
    return build_parser()


def _plan(name: str, func, options) -> tuple:
    """Subcommand name's reading of canonical argv: each flag's dest, type,
    choices and whether it is a store-true flag; the namespace defaults,
    command and func included; the required dests."""
    flags, defaults, required = {}, {"command": name, "func": func}, set()
    for flag, keywords in options:
        dest = flag[2:].replace("-", "_")
        store_true = keywords.get("action") == "store_true"
        flags[flag] = (dest, keywords.get("type"), keywords.get("choices"), store_true)
        defaults[dest] = keywords.get("default", False if store_true else None)
        if keywords.get("required"):
            required.add(dest)
    return flags, defaults, required


_PLANS = {name: _plan(name, func, options) for name, (func, _, options) in _COMMANDS.items()}


def _read_argv(argv: list):
    """build_parser().parse_args(argv), read with argv[0]'s plan; None unless
    each later argument is a flag and its one value, not starting with "-",
    that converts and is a choice, and none required is missing."""
    plan = _PLANS.get(argv[0]) if argv else None
    if plan is None:
        return None
    flags, defaults, required = plan
    values, rest = {}, iter(argv[1:])
    try:
        for flag in rest:
            dest, convert, choices, store_true = flags[flag]
            if store_true:
                values[dest] = True
                continue
            text = next(rest)
            if text.startswith("-"):  # argparse reads it as an option, or as a negative number
                return None
            value = text if convert is None else convert(text)
            if choices is not None and value not in choices:
                return None
            values[dest] = value
    except (KeyError, StopIteration, ValueError, TypeError, argparse.ArgumentTypeError):
        # an unknown option, a missing value, or a conversion error that argparse would report
        return None
    args = argparse.Namespace()
    vars(args).update(defaults, **values)
    return args if required <= values.keys() else None


def _parse_argv(argv: list) -> argparse.Namespace:
    """build_parser().parse_args(argv): the plan's reading, else the full parser's."""
    return _read_argv(argv) or _full_parser().parse_args(argv)


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
        args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        text = _render(args.func(args), args.output)
    except CapExceeded as exc:
        reason = {"error": "cap-exceeded", "what": exc.what, "actual": exc.actual, "limit": exc.limit}
        return _refuse(json.dumps(reason, sort_keys=True), 3)
    except InternalConsistencyError as exc:
        return _refuse(f"internal consistency failure: {exc}", 4)
    except (CasimirLabError, ValueError, KeyError, OSError) as exc:
        return _refuse(f"error: {exc}", 2)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_closed(sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
