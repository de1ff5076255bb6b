"""The functions the benchmark's traced run wraps must exist in the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "casbench" / "spans.py"


def test_traced_names_resolve():
    # spans.py imports only the standard library, so it loads by path.
    spec = importlib.util.spec_from_file_location("casbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{mod}.{name}"
        for mod, names in spans.NAMED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"casimir_lab.{mod}"), name, None))
    ]
    assert missing == []
