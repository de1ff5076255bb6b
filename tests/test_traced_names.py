"""The functions the benchmark's traced run wraps must exist in the package,
and no package module keeps a public function, method or property that only
the tests call."""

import ast
import functools
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
    """(name, definition it appears in) for every name and attribute read in
    a module.  The definition is the top-level one, or "Class.member" inside
    a class body's function, so that a function's or a member's uses of
    itself do not count as calls."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = getattr(top, "name", None)
        parts = [(owner, top)]
        if isinstance(top, ast.ClassDef):
            members = [node for node in top.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
            rest = top.decorator_list + top.bases + top.keywords + [node for node in top.body if node not in members]
            parts = [(owner, node) for node in rest] + [(f"{owner}.{node.name}", node) for node in members]
        for where, part in parts:
            for node in ast.walk(part):
                if isinstance(node, ast.Name):
                    yield node.id, where
                elif isinstance(node, ast.Attribute):
                    yield node.attr, where


_MEMBER_KINDS = (property, functools.cached_property, classmethod, staticmethod)


def _public_definitions(module):
    """(qualified name, name) for each public function a module defines and
    each public method or property of the classes it defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not name.startswith("_"):
            yield name, name
        elif inspect.isclass(obj):
            for member, attr in vars(obj).items():
                if not member.startswith("_") and (inspect.isfunction(attr) or isinstance(attr, _MEMBER_KINDS)):
                    yield f"{name}.{member}", member


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
        for qualname, name in _public_definitions(module):
            called = any(n == name and (stem, owner) != (mod, qualname) for n, stem, owner in used)
            if not called and qualname not in named.get(mod, ()):
                unused.append(f"{mod}.{qualname}")
    assert unused == [], f"public functions, methods and properties with no caller in src: {unused}"
