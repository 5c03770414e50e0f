"""Per-layer spans recorded from outside the package.

A `Tracer` replaces named module attributes of `rslist` with timing wrappers
while it is installed, and puts the originals back afterwards. `from ...
import` bindings are separate attributes, so each is listed: `decoder` calls
`factor_reduced` through its own binding, `reencoding` calls `update_basis`
through its own, and so on. A binding that no longer exists is skipped; a
span whose every binding is gone is reported in `Tracer.missing`, and the
metrics built on it are left out rather than failing the run.

Each span records its name, its parent, start and end times, and the change
over the call of the `OpCounter` active when it starts. The decoder entry
points route their work into per-phase counters, so their own spans show
none of it; the spans below them do.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

# span name -> the (module, attribute) bindings through which it is called
SPANS = {
    "decoder.decode": [("decoder", "decode_reduced"), ("decoder", "decode_direct")],
    "reencoding.select": [("reencoding", "select_reencoding_set"), ("decoder", "select_reencoding_set")],
    "reencoding.context": [("reencoding", "build_context"), ("decoder", "build_context")],
    "reencoding.solve": [("reencoding", "solve_reduced"), ("decoder", "solve_reduced")],
    "polynomials.lagrange": [
        ("polynomials", "lagrange_interpolate"),
        ("reencoding", "lagrange_interpolate"),
        ("factorization", "lagrange_interpolate"),
        ("rs_codec", "lagrange_interpolate"),
    ],
    "koetter.solve": [("koetter", "solve"), ("decoder", "solve")],
    "koetter.update": [("koetter", "update_basis"), ("reencoding", "update_basis")],
    "factorization.factor": [("factorization", "factor_reduced"), ("decoder", "factor_reduced")],
    "factorization.rr": [("factorization", "rr_power_series")],
    "factorization.bm": [("factorization", "berlekamp_massey")],
    "factorization.roots": [("factorization", "find_error_locations")],
    "factorization.errvals": [("factorization", "error_values")],
    "factorization.correct": [("factorization", "corrected_message")],
    "factorization.y_roots": [("factorization", "polynomial_y_roots"), ("decoder", "polynomial_y_roots")],
}


@dataclass
class Span:
    name: str
    parent: int | None  # index into the tracer's span list
    start: float
    end: float = 0.0
    mults: int | None = None
    adds: int | None = None
    outputs: int | None = None  # len() of the result when it is a list
    child_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.wall_s - self.child_s


class Tracer:
    def __init__(self, spans=SPANS) -> None:
        self.bindings = []  # (module, attribute, span name, original)
        found = set()
        for name, targets in spans.items():
            for mod_name, attr in targets:
                try:
                    mod = importlib.import_module(f"rslist.{mod_name}")
                except ModuleNotFoundError:
                    continue
                if hasattr(mod, attr):
                    self.bindings.append((mod, attr, name, getattr(mod, attr)))
                    found.add(name)
        self.missing = sorted(set(spans) - found)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._field = None

    def _counter(self):
        return getattr(self._field, "counter", None)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            ctr = self._counter()
            m0 = getattr(ctr, "multiplications", None)
            a0 = getattr(ctr, "additions", None)
            span = Span(name, self._stack[-1] if self._stack else None, time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.wall_s
            if m0 is not None:
                span.mults = ctr.multiplications - m0
                span.adds = ctr.additions - a0
            if isinstance(out, list):
                span.outputs = len(out)
            return out

        return traced

    @contextmanager
    def installed(self, field):
        """Record spans of the calls made in the block; `field` supplies the counter."""
        self.spans = []
        self._stack = []
        self._field = field
        for mod, attr, name, fn in self.bindings:
            setattr(mod, attr, self._wrap(name, fn))
        try:
            yield self.spans
        finally:
            for mod, attr, _, fn in self.bindings:
                setattr(mod, attr, fn)
            self._field = None
