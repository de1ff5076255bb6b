"""The functions the benchmark's traced run wraps must exist in the package,
and no package module keeps a public function that only the tests call."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "casbench" / "spans.py"
PACKAGE = ROOT / "src" / "casimir_lab"


def _spans():
    # spans.py imports only the standard library, so it loads by path.
    spec = importlib.util.spec_from_file_location("casbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_resolve():
    missing = [
        f"{mod}.{name}"
        for mod, names in _spans().NAMED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"casimir_lab.{mod}"), name, None))
    ]
    assert missing == []


def _references(path):
    """(name, top-level definition it appears in) for every name and
    attribute read in a module; a function's calls of itself do not count."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner


def test_low_layers_have_no_test_only_functions():
    # Reference code that only the tests need lives in tests/ (see ambient.py).
    named = _spans().NAMED
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    used = {
        (name, mod, owner)
        for mod in modules
        for name, owner in _references(PACKAGE / f"{mod}.py")
    }
    unused = []
    for mod in modules:
        module = importlib.import_module(f"casimir_lab.{mod}")
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            called = any(n == name and (stem, owner) != (mod, name) for n, stem, owner in used)
            if not called and name not in named.get(mod, ()):
                unused.append(f"{mod}.{name}")
    assert unused == [], f"public functions with no caller in src: {unused}"
