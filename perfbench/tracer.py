"""Outside-in tracer for the efgeo layers.

The tracer swaps module and class attributes for wrappers that record a span
(name, start, end, parent span, run id) around each call, count calls, or
count property evaluations.  Nothing inside the program changes: a call is
traced only when it goes through the patched attribute, which is how every
module of the package reaches the others.  Spans stay in memory until the
caller reads them.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int


# (module, attribute path, span name): one span and one call count per call.
SPANS = (
    ("efgeo.cli", "main", "cli.main"),
    ("efgeo.grid", "Grid1D.derivative", "grid.derivative"),
    ("efgeo.grid", "Grid1D.cumulative_integral", "grid.cumulative_integral"),
    ("efgeo.model", "hamiltonian_entries", "model.hamiltonian_entries"),
    ("efgeo.model", "assemble_psi", "model.assemble_psi"),
    ("efgeo.ef", "decompose", "ef.decompose"),
    ("efgeo.ef", "energies", "ef.energies"),
    ("efgeo.identity", "verify", "identity.verify"),
    ("efgeo.identity", "rhs_terms", "identity.rhs_terms"),
    ("efgeo.identity", "t_geo_series", "identity.t_geo_series"),
    ("efgeo.geometry", "ParamGrid.diff", "geometry.ParamGrid.diff"),
    ("efgeo.geometry", "build_family", "geometry.build_family"),
    ("efgeo.geometry", "tensors", "geometry.tensors"),
    ("efgeo.geometry", "check_decompositions", "geometry.check_decompositions"),
    ("efgeo.geometry", "check_symmetries", "geometry.check_symmetries"),
    ("efgeo.geometry", "check_cb_identity", "geometry.check_cb_identity"),
    ("efgeo.geometry", "check_d_christoffel", "geometry.check_d_christoffel"),
    ("efgeo.geometry", "convergence_study", "geometry.convergence_study"),
    ("efgeo.propagator", "propagate", "propagator.propagate"),
)
# (module, attribute path, counter name): call counts only, for calls too
# short or too many to be worth a span.
CALLS = (
    ("efgeo.grid", "Grid1D.integrate", "grid.integrate"),
    ("numpy.fft", "fft", "fft"),
    ("numpy.fft", "ifft", "fft"),
    ("scipy.fft", "fft", "fft"),
    ("scipy.fft", "ifft", "fft"),
)
# (module, class.property, counter name): evaluations of a computed property.
PROPERTIES = (
    ("efgeo.grid", "Grid1D.x", "grid.x"),
    ("efgeo.grid", "Grid1D.wavenumbers", "grid.wavenumbers"),
)
# span name -> function of the return value giving extra per-run counts.
RESULT_COUNTS = {
    "propagator.propagate": lambda result: {"propagator.steps": result.steps},
}


def _resolve(module: str, path: str):
    """Owner object and attribute name of a dotted attribute path."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans and counts while installed; restores every attribute
    on uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    def new_run(self):
        self.run += 1

    def count(self, name: str, amount: int = 1):
        self.counts[self.run][name] += amount

    def wrap_span(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            run = self.run
            self.count(name + ".calls")
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, run))
            if on_result is not None:
                for key, amount in on_result(result).items():
                    self.count(key, amount)
            return result

        return wrapper

    def wrap_calls(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name + ".calls")
            return fn(*args, **kwargs)

        return wrapper

    def wrap_property(self, prop: property, name: str) -> property:
        fget = prop.fget

        def getter(obj):
            self.count(name + ".evals")
            return fget(obj)

        return property(getter, doc=prop.__doc__)

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, path, name in SPANS:
            owner, attr = _resolve(module, path)
            fn = getattr(owner, attr)
            self._patch(owner, attr, self.wrap_span(fn, name, RESULT_COUNTS.get(name)))
        for module, path, name in CALLS:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, self.wrap_calls(getattr(owner, attr), name))
        for module, path, name in PROPERTIES:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, self.wrap_property(owner.__dict__[attr], name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans (overlapping children counted once)."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[span.id]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.id] = (span.end - span.start) - covered
    return out


def run_summary(spans, counts: Counter, run: int) -> dict:
    """Per-layer figures of one run: every count of the run, plus the summed
    self time of each span name as "<name>.self_s"."""
    selected = [s for s in spans if s.run == run]
    own = self_times(selected)
    out = dict(counts)
    for span in selected:
        key = span.name + ".self_s"
        out[key] = out.get(key, 0.0) + own[span.id]
    return out
