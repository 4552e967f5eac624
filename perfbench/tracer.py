"""Spans around the calls into bandgraph's layers, recorded from outside.

``Tracer.installed`` replaces the module attributes through which the
package's layers call each other (and through which the workloads call
the package) with wrappers that open a span, and restores them on exit.
The package itself is not changed.

Each constructor call is followed by two replays, recorded as sibling
spans and so kept out of the constructor's self time: the ``Numbering``
validation on the built order, and the vertex enumeration with the
span-class listing.  They give ``numbering.keys_s = build - validate -
enumerate``.  Replays are extra work, so they are subtracted before the
traced pass is compared with an untraced one.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

from bandgraph import cli
from bandgraph.core_graph import enumerate_vertices, span_classes
from bandgraph.numbering import Numbering

BUILD = "numbering.build"
VALIDATE = "numbering.validate"
ENUMERATE = "core_graph.enumerate"
REPLAYS = frozenset({VALIDATE, ENUMERATE})

# (module, attribute, span name)
PATCHES = (
    ("bandgraph.solver", "certify", "solver.certify"),
    ("bandgraph.solver", "band_graph_as_simple_graph", "solver.graph"),
    ("bandgraph.solver", "exact_bandwidth_with_witness", "solver.exact"),
    ("bandgraph.solver", "lex_numbering", BUILD),
    ("bandgraph.solver", "mirror_numbering", BUILD),
    ("bandgraph.solver", "low_remainder_numbering", BUILD),
    ("bandgraph.solver", "high_remainder_numbering", BUILD),
    ("bandgraph.solver", "bandwidth_of_numbering", "numbering.evaluate"),
    ("bandgraph.solver", "density_lower_bound", "bounds.eval"),
    ("bandgraph.solver", "central_lower_bound", "bounds.eval"),
    ("bandgraph.cli", "bandwidth_of_numbering", "numbering.evaluate"),
    ("bandgraph.cli", "beta_decomposition", "bounds.eval"),
    ("bandgraph.cli", "coefficients", "bounds.eval"),
    ("bandgraph.cli", "asymptotic_coefficient_interval", "bounds.eval"),
    ("bandgraph.geometry", "region_vertex_count", "geometry.count"),
    ("bandgraph.geometry", "polygon_measure", "geometry.measure"),
    ("bandgraph.geometry", "verify_identities", "geometry.measure"),
    ("bandgraph.geometry", "coefficients", "bounds.eval"),
    ("bandgraph.geometry", "beta_decomposition", "bounds.eval"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    instance: int | None
    peak_bytes: int | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans in memory; ``peak_layers`` names the spans during
    which tracemalloc runs (it slows the traced code several times, so
    those spans' times are not used)."""

    def __init__(self, peak_layers: frozenset[str] = frozenset()) -> None:
        self.spans: list[Span] = []
        self.instance: int | None = None
        self.peak_layers = peak_layers
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(name, 0.0, 0.0, parent, self.instance)
        self._open.append(len(self.spans))
        self.spans.append(s)
        measure = name in self.peak_layers
        if measure:
            if tracemalloc.is_tracing():
                raise RuntimeError(f"span {name} nests inside another measured span")
            tracemalloc.start()
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            if measure:
                s.peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._open.pop()

    def _wrap(self, fn, name: str):
        if name == BUILD:

            @functools.wraps(fn)
            def build(p, *args, **kwargs):
                with self.span(BUILD):
                    f = fn(p, *args, **kwargs)
                self._replay(f)
                return f

            return build

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _replay(self, f: Numbering) -> None:
        with self.span(VALIDATE):
            Numbering(f.params, f.tag, f.order)
        with self.span(ENUMERATE) as s:
            s.counts["vertices"] = len(list(enumerate_vertices(f.params)))
            s.counts["classes"] = len(span_classes(f.params))

    @contextmanager
    def installed(self):
        """Wrap every attribute in PATCHES and the sweep's constructor table."""
        saved = []
        try:
            for module, attr, name in PATCHES:
                namespace = vars(importlib.import_module(module))
                saved.append((namespace, attr, namespace[attr]))
                namespace[attr] = self._wrap(namespace[attr], name)
            for method, fn in list(cli.NUMBERINGS.items()):
                saved.append((cli.NUMBERINGS, method, fn))
                cli.NUMBERINGS[method] = self._wrap(fn, BUILD)
            yield self
        finally:
            for namespace, attr, fn in reversed(saved):
                namespace[attr] = fn


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out
