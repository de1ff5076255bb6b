"""Per-layer tracing from outside the package.

Each named public function is replaced, in every casimir_lab module that
holds it (including modules that imported it by name), by a wrapper that
records a span: name, start, end, parent span and request id.  A span's
self time is its duration minus the time of the spans it caused.  A
generator's span covers only the time spent inside its own next() calls,
so the consumer's loop body stays with the consumer.  Spans stay in memory
until `write` is called when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

NAMED = {
    "ratlinalg": ("ellipsoid_points", "det", "inverse", "rank"),
    "gaussian": ("gmatmul",),
    "polyq": ("resultant", "squarefree_decomposition"),
    "rootsys": ("build_root_system", "weyl_group"),
    "weights": ("classes_up_to", "sphere_set"),
    "reps": ("tensor_decompose", "invariant_dim", "exterior_powers", "dual_label"),
    "hidden": ("shifted_config", "stabilizer_group", "orbits", "check_weyl_inclusion"),
    "oplab": ("build_operator", "char_poly", "certify", "numeric_spectrum", "multiplicity_at_float"),
    "spectra": ("normal_spectrum_report", "real_spectrum_report", "generic_estimate", "hodge_rank1_check"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in NAMED.items() for f in fs)
COUNTERS = (
    "hidden.stabilizer_group.maps",
    "oplab.certify.candidates_tried",
    "oplab.certify.certified",
    "oplab.multiplicity_at_float.failed",
)


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.total_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.spans = []  # (span id, parent id, request id, name, start ns, end ns, self ns)
        self.request = None
        self._stack = []  # frames: [span id, start ns, child ns]
        self._next_id = 0
        self._patches = []

    # -- span bookkeeping --------------------------------------------------

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def _parent(self):
        return self._stack[-1][0] if self._stack else None

    def _push(self, span_id):
        frame = [span_id, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _pop(self, name, frame):
        """Close a frame; returns (start, end, duration, self time)."""
        end = time.perf_counter_ns()
        self._stack.pop()
        dur = end - frame[1]
        own = dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        self.total_ns[name] += dur
        self.self_ns[name] += own
        return frame[1], end, own

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        on_result = _RESULT_HOOKS.get(name)
        on_error = _ERROR_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = tracer._new_id(), tracer._parent()
            tracer.calls[name] += 1
            frame = tracer._push(span_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                start, end, own = tracer._pop(name, frame)
                tracer.spans.append((span_id, parent, tracer.request, name, start, end, own))
                if on_error:
                    on_error(tracer, exc)
                raise
            start, end, own = tracer._pop(name, frame)
            tracer.spans.append((span_id, parent, tracer.request, name, start, end, own))
            if on_result:
                on_result(tracer, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return tracer._consume(name, tracer._new_id(), tracer._parent(), fn(*args, **kwargs))

        return wrapper

    def _consume(self, name, span_id, parent, inner):
        first = last = None
        own_total = 0
        try:
            while True:
                frame = self._push(span_id)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    start, last, own = self._pop(name, frame)
                    first = start if first is None else first
                    own_total += own
                yield item
        finally:
            inner.close()
            if first is not None:
                self.spans.append((span_id, parent, self.request, name, first, last, own_total))

    # -- installation ------------------------------------------------------

    def prepare(self):
        """Find every place each named function is looked up from."""
        loaded = [m for n, m in sorted(sys.modules.items()) if n == "casimir_lab" or n.startswith("casimir_lab.")]
        for mod_name, fnames in NAMED.items():
            home = importlib.import_module(f"casimir_lab.{mod_name}")
            for fname in fnames:
                orig = getattr(home, fname)
                name = f"{mod_name}.{fname}"
                make = self._wrap_generator if inspect.isgeneratorfunction(orig) else self._wrap
                wrapped = make(name, orig)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, attr, orig, wrapped))

    def install(self):
        for mod, attr, _, wrapped in self._patches:
            setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, orig, _ in self._patches:
            setattr(mod, attr, orig)

    # -- results -----------------------------------------------------------

    def metrics(self, rounds, speed):
        """Per-round figures for every named function and counter; times are
        divided by the host speed factor."""
        out = {}
        per_ms = 1e6 * rounds * speed
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name] / rounds, "count")
            out[f"{name}.ms"] = (self.total_ns[name] / per_ms, "ms")
            out[f"{name}.self_ms"] = (self.self_ns[name] / per_ms, "ms")
        out["hidden.stabilizer_group.maps"] = (self.counts["hidden.stabilizer_group.maps"] / rounds, "count")
        tried = self.counts["oplab.certify.candidates_tried"]
        out["oplab.certify.candidates_tried"] = (tried / rounds, "count")
        out["oplab.certify.witness_yield"] = (self.counts["oplab.certify.certified"] / tried if tried else 0.0, "ratio")
        out["oplab.multiplicity_at_float.failed"] = (self.counts["oplab.multiplicity_at_float.failed"] / rounds, "count")
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_maps(tracer, group):
    tracer.counts["hidden.stabilizer_group.maps"] += len(group)


def _count_certify(tracer, cert):
    tracer.counts["oplab.certify.candidates_tried"] += cert.candidates_tried
    tracer.counts["oplab.certify.certified"] += int(cert.certified)


def _count_multiplicity_failure(tracer, exc):
    if type(exc).__name__ == "InternalConsistencyError":
        tracer.counts["oplab.multiplicity_at_float.failed"] += 1


_RESULT_HOOKS = {"hidden.stabilizer_group": _count_maps, "oplab.certify": _count_certify}
_ERROR_HOOKS = {"oplab.multiplicity_at_float": _count_multiplicity_failure}
