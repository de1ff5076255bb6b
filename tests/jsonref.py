"""The reference for the command line's JSON rule: one walk that rewrites a
payload into plain JSON values, which `json.dumps(..., indent=2,
sort_keys=True)` then writes.  `cli` instead writes the text itself in one
walk over the payload; the tests check that both give the same text.

A Fraction becomes "p/q", an Enum its value (rewritten in turn), a dict
gets string keys, a tuple becomes a list and a dataclass the dict of its
fields, each field under its own name except those renamed below.
"""

from enum import Enum
from fractions import Fraction as Q

FIELD_KEYS = {"lam": "lambda", "torus_char": "torus"}
# Leaves returned as they are, tested first: most of a payload is leaves.
_PLAIN = frozenset((str, int, bool, float, type(None)))


def jsonable(obj):
    """Recursively rewrite a payload into plain JSON values (exactly)."""
    if type(obj) in _PLAIN:
        return obj
    if isinstance(obj, Q):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, Enum):
        return jsonable(obj.value)
    if hasattr(obj, "__dataclass_fields__"):
        return {FIELD_KEYS.get(name, name): jsonable(getattr(obj, name)) for name in obj.__dataclass_fields__}
    return obj
