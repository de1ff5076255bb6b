"""Every name a package or test module imports is used in that module.

The package's `__init__.py` is skipped: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "casimir_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def _imported_names(tree):
    """(name bound in the module, line) for every import outside `__future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize(
    "path", MODULES + TEST_MODULES, ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}"
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_scan_sees_every_module():
    assert {p.stem for p in MODULES} >= {
        "cli", "gaussian", "hidden", "oplab", "polyq", "ratlinalg", "reps", "rootsys", "spectra", "weights",
    }
    assert {p.stem for p in TEST_MODULES} >= {
        "ambient", "jsonref", "permref", "polyref", "repref", "test_cli", "test_no_unused_imports",
    }
