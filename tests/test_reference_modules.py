"""The reference modules use only the package's public names.

`tests/*ref.py` and `tests/ambient.py` are the independent references the
tests compare the package against.  A reference built from a private
(`_`-prefixed) helper of `casimir_lab` would agree with the package by
construction, so none of them may import one or read one as an attribute
of a name it imported from the package.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
REFERENCES = sorted(TESTS.glob("*ref.py")) + [TESTS / "ambient.py"]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str):
    """(private name, line) for every private name of casimir_lab the source
    imports, or reads as an attribute of a name it imported from casimir_lab."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "casimir_lab":
                    yield from ((p, node.lineno) for p in parts if _private(p))
                    bound.add(alias.asname or "casimir_lab")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "casimir_lab":
            yield from ((p, node.lineno) for p in node.module.split(".") if _private(p))
            for alias in node.names:
                if _private(alias.name):
                    yield alias.name, node.lineno
                bound.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                yield node.attr, node.lineno


@pytest.mark.parametrize("path", REFERENCES, ids=lambda p: f"tests/{p.name}")
def test_reference_uses_no_private_name(path):
    found = [f"{name} (line {line})" for name, line in private_uses(path.read_text())]
    assert not found, f"{path.name} uses private names of casimir_lab: {', '.join(found)}"


def test_scan_sees_every_reference():
    assert {p.stem for p in REFERENCES} >= {"ambient", "jsonref", "permref", "polyref", "repref"}


@pytest.mark.parametrize(
    "source, names",
    [
        ("from casimir_lab.oplab import GroupSpec, _doubled_generators\n", ["_doubled_generators"]),
        ("from casimir_lab import oplab\noplab._QuadPieces(g, v)\n", ["_QuadPieces"]),
        ("import casimir_lab.oplab as op\nop._QuadPieces.piece\n", ["_QuadPieces"]),
        ("import casimir_lab._private\n", ["_private"]),
        ("from casimir_lab.oplab import MetricParam\nMetricParam._weights\n", ["_weights"]),
        ("from casimir_lab import ratlinalg as rl\nrl.frac.__name__\n", []),
        ("import math\nmath._private\n", []),
    ],
)
def test_scan_flags_private_names(source, names):
    assert [name for name, _ in private_uses(source)] == names
