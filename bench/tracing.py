"""Per-layer tracing from outside the program.

The traced run replaces selected `magalg` functions, in the module
namespace where their caller looks them up, with wrappers that record a
span (name, start, end, parent) or bump a counter.  A binding that
a later version of the program no longer has is skipped and listed in
`Tracer.missing`, so its layer reads as zero calls.  Leaving
`Tracer.installed()` puts every original back; nothing under `src/` is
edited.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter
from typing import NamedTuple

# layer name -> (function name, modules whose global lookup reaches it)
SPANS = {
    "cli.main": ("main", ("cli",)),
    "cli.analyze_point": ("analyze_point", ("cli",)),
    "dipoles.build_algebra": ("build_algebra", ("cli", "corpus")),
    "algebra.gram_spectrum": ("gram_spectrum", ("cli", "algebra", "extremal")),
    "algebra.find_invariant_planes": ("find_invariant_planes", ("cli",)),
    "algebra.planar_structure": ("planar_structure", ("cli", "algebra")),
    "algebra.decompose": ("decompose", ("cli",)),
    "extremal.lambda_bar_bruteforce": ("lambda_bar_bruteforce", ("cli", "extremal")),
    # only the oracle's ascent: plane search reaches sphere_ascent through sphere_descent
    "sphere.sphere_ascent": ("sphere_ascent", ("extremal",)),
    "extremal.lambda_plane": ("lambda_plane", ("cli", "extremal")),
    "extremal.bounds_report": ("bounds_report", ("cli",)),
    "extremal.locate_candidates": ("locate_candidates", ("cli",)),
    "extremal.verify_theorems": ("verify_theorems", ("cli",)),
}
# called too often for a span each; counted only
COUNTERS = {
    "algebra.plane_residual_batch": ("plane_residual_batch", ("algebra",)),
    "sphere.sphere_descent": ("sphere_descent", ("algebra",)),
    "extremal.principal_abs": ("principal_abs", ("cli", "extremal")),
}


class Span(NamedTuple):
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float


def self_times(spans) -> dict:
    """Total self time per span name: each span's duration minus its direct children's."""
    children = Counter()
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.end - s.start
    out = Counter()
    for s in spans:
        out[s.name] += (s.end - s.start) - children[s.id]
    return dict(out)


class Tracer:
    """Spans and counters kept in memory until `write`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = Counter()
        self.op = 0  # the op that spans recorded now belong to
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list = []

    def span(self, name, fn, observe=None):
        """Wrap fn so each call records a span; observe(result, bound_args) sees what it returned."""
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, parent, self.op, name, start, end))
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(result, bound.arguments)
            return result

        return traced

    def counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self, package="magalg"):
        """Wrap every binding for the duration of the block, then put the originals back."""
        try:
            self._install(package)
            yield self
        finally:
            while self._patched:
                module, attr, original = self._patched.pop()
                setattr(module, attr, original)

    def _install(self, package):
        self.missing = []
        observers = {
            "algebra.find_invariant_planes": self._observe_planes,
            "extremal.locate_candidates": self._observe_candidates,
        }
        for table, make in ((SPANS, None), (COUNTERS, self.counter)):
            for name, (attr, modules) in table.items():
                for short in modules:
                    module = importlib.import_module(f"{package}.{short}")
                    original = getattr(module, attr, None)
                    if original is None:
                        self.missing.append(f"{package}.{short}.{attr}")
                        continue
                    if make is None:
                        wrapper = self.span(name, original, observers.get(name))
                    else:
                        wrapper = make(name, original)
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def _observe_planes(self, planes, args):
        self.counts["algebra.find_invariant_planes.planes"] += len(planes)

    def _observe_candidates(self, candidates, args):
        self.counts["extremal.locate_candidates.starts"] += int(args["n_starts"])
        self.counts["extremal.locate_candidates.eigen_self"] += sum(
            c.kind.value == "EIGEN_SELF" for c in candidates
        )

    def write(self, path):
        """Write every span as one JSON line, in the order they ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
