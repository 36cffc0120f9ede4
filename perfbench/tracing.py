"""Spans around the calls into each markoffquads module.

Timing wrappers are installed from the benchmark on the module-level
names that callers resolve at call time (for example
`spectra.enumerate_cells` or `cli._emit`), so nothing under src/
changes.  Each span is (name, start, end, parent index, call id); names
are "<defining module>.<function>", so the first dotted part is the
layer.  Spans stay in memory until the run ends.

Self time of a span is its duration minus the part of it that its
child spans cover; per call, the self times add up to the root span.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

# (module, attribute) pairs to wrap.  Hot kernels such as flip_value are
# left alone: a wrapper per flip would swamp the walk it sits in.
PATCHES = (
    ("cli", "_emit"),
    ("cli", "verify_quad"), ("cli", "flip"), ("cli", "klein_sequence"),
    ("cli", "reduce_to_sink"),
    ("cli", "classify"), ("cli", "enumerate_fundamental"),
    ("cli", "enumerate_integral_below"), ("cli", "int_flip"),
    ("cli", "check_bq"), ("cli", "mcshane_partial"), ("cli", "mcshane_verify"),
    ("cli", "growth_exponent"), ("cli", "one_sided_spectrum"),
    ("cli", "two_sided_spectrum"), ("cli", "systole"),
    ("cli", "quad_to_lambda"), ("cli", "quad_to_horocyclic"),
    ("cli", "lambda_to_quad"), ("cli", "horocyclic_to_quad"),
    ("cli", "in_fundamental_domain"), ("cli", "mcg_apply"),
    ("spectra", "enumerate_cells"), ("spectra", "enumerate_faces"),
    ("spectra", "reduce_to_sink"), ("spectra", "one_sided_length"),
    ("spectra", "two_sided_length"), ("spectra", "count_s"),
    ("spectra", "one_sided_spectrum"), ("spectra", "fit_power_law"),
    ("curvecomplex", "explore"),
    ("mcshane", "explore"), ("mcshane", "h"), ("mcshane", "check_bq"),
    ("mcshane", "_partial"),
    ("integral", "int_reduce"),
)

_QUAD_RESULTS = {"integral.enumerate_integral_below", "integral.enumerate_fundamental",
                 "integral.classify", "integral.int_flip"}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Span recorder plus the work counters read at the same boundaries.

    Spans live in parallel arrays rather than one list per span, so that
    hundreds of thousands of them add nothing to the cyclic garbage
    collector's work while the program runs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.calls = array("q")
        self.stack: list[int] = []
        self.call_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.walks: dict[int, list[int]] = defaultdict(list)  # call id -> cells per walk
        self._undo: list[tuple] = []

    def add(self, name: str, start: float, end: float, parent: int, call: int) -> int:
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.calls.append(call)
        return len(self.names) - 1

    @property
    def spans(self) -> list[tuple]:
        return list(zip(self.names, self.starts, self.ends, self.parents, self.calls))

    def open(self, name: str) -> int:
        idx = self.add(name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.call_id)
        self.stack.append(idx)
        self.starts[idx] = self.clock()
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self.stack.pop()

    def root(self, name: str, fn, *args):
        """Run fn(*args) as a new call under a root span."""
        self.call_id += 1
        idx = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def wrap(self, fn):
        name = span_name(fn)
        hook = _HOOKS.get(name)
        params = fn.__code__.co_varnames[:fn.__code__.co_argcount]
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(span)
            if hook is not None:
                # counting runs in its own span so it lands in the
                # "trace" layer, not in the caller's self time
                hspan = open_("trace.count")
                try:
                    hook(self, {**dict(zip(params, args)), **kwargs}, result)
                finally:
                    close(hspan)
            return result

        return traced

    def install(self, patches=PATCHES) -> list[str]:
        """Wrap every `patches` entry of the imported markoffquads modules;
        returns the names that are absent."""
        missing = []
        for mod_name, attr in patches:
            mod = sys.modules.get(f"markoffquads.{mod_name}")
            fn = getattr(mod, attr, None) if mod is not None else None
            if not callable(fn):
                missing.append(f"{mod_name}.{attr}")
                continue
            self._undo.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn))
        return missing

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, fn = self._undo.pop()
            setattr(mod, attr, fn)


class WalkMemory(Tracer):
    """Tracer that also records, per curvecomplex.explore span, the
    tracemalloc peak above the traced memory at the span's start; the
    walk sizes land in `walks` as usual, in the same order.  Install it
    with EXPLORE_PATCHES while tracemalloc is tracing."""

    def __init__(self):
        super().__init__()
        self.peaks: list[int] = []
        self._base = 0

    def open(self, name: str) -> int:
        if name == "curvecomplex.explore":
            self._base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        return super().open(name)

    def close(self, idx: int) -> None:
        if self.names[idx] == "curvecomplex.explore":
            self.peaks.append(tracemalloc.get_traced_memory()[1] - self._base)
        super().close(idx)


EXPLORE_PATCHES = (("curvecomplex", "explore"), ("mcshane", "explore"))


def _count_explore(tr: Tracer, args: dict, ex) -> None:
    cells = getattr(ex, "cells", ())
    faces = getattr(ex, "faces", ())
    n = len(cells)
    cell_bound, face_bound = args.get("cell_bound"), args.get("face_bound")
    kept: set = set()
    if cell_bound is not None:
        kept.update(c.id for c in cells if abs(c.value) <= cell_bound)
    if face_bound is not None:
        kept.update(i for f in faces for i in f.cells)
    tr.counts["curvecomplex.cells"] += n
    tr.counts["curvecomplex.kept"] += len(kept)
    tr.counts["curvecomplex.faces"] += len(faces)
    tr.counts["curvecomplex.nodes"] += getattr(ex, "nodes_visited", 0)
    tr.walks[tr.call_id].append(n)


def _count_quads(tr: Tracer, args: dict, result) -> None:
    # enumerations return lists; classify and int_flip give one quad
    tr.counts["integral.quads"] += len(result) if isinstance(result, list) else 1


_HOOKS = {"curvecomplex.explore": _count_explore}
_HOOKS.update({name: _count_quads for name in _QUAD_RESULTS})


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for idx, s in enumerate(spans):
        start, end = s[1], s[2]
        covered, cursor = 0.0, start
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((end - start) - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans, counts, walks, passes: int, emit_bytes: float) -> dict:
    """Per-layer metrics per pass from the traced passes' spans."""
    selfs = self_times(spans)
    layer_self: dict[str, float] = defaultdict(float)
    name_self: dict[str, float] = defaultdict(float)
    incl: dict[str, float] = defaultdict(float)
    ncalls: dict[str, int] = defaultdict(int)
    entries: dict[str, int] = defaultdict(int)  # calls entering a layer from outside
    schedule_steps = 0
    for s, st in zip(spans, selfs):
        name, parent = s[0], s[3]
        layer = layer_of(name)
        layer_self[layer] += st
        name_self[name] += st
        incl[name] += s[2] - s[1]
        ncalls[name] += 1
        parent_name = spans[parent][0] if parent >= 0 else ""
        if layer_of(parent_name) != layer:
            entries[layer] += 1
        if name == "mcshane._partial" and parent_name == "mcshane.mcshane_verify":
            schedule_steps += 1
    p = max(passes, 1)
    explore_s = incl["curvecomplex.explore"]
    cells = counts.get("curvecomplex.cells", 0.0)
    walked = [w for w in walks.values() if w]
    emit_s = incl["cli._emit"]
    length_names = ("quadalgebra.one_sided_length", "quadalgebra.two_sided_length")
    quads = counts.get("integral.quads", 0.0)
    return {
        "curvecomplex.explore_s": explore_s / p,
        "curvecomplex.explore_calls": ncalls["curvecomplex.explore"] / p,
        "curvecomplex.cells": cells / p,
        "curvecomplex.nodes": counts.get("curvecomplex.nodes", 0.0) / p,
        "curvecomplex.faces": counts.get("curvecomplex.faces", 0.0) / p,
        "curvecomplex.cells_per_s": cells / explore_s if explore_s else 0.0,
        "curvecomplex.kept_ratio": counts.get("curvecomplex.kept", 0.0) / cells if cells else 0.0,
        "curvecomplex.rewalk_ratio": (sum(sum(w) for w in walked) / sum(max(w) for w in walked)
                                      if walked else 0.0),
        "quadalgebra.length_calls": sum(ncalls[n] for n in length_names) / p,
        "quadalgebra.length_s": sum(incl[n] for n in length_names) / p,
        "spectra.self_s": layer_self["spectra"] / p,
        "spectra.calls": entries["spectra"] / p,
        "mcshane.self_s": layer_self["mcshane"] / p,
        "mcshane.check_bq_s": incl["mcshane.check_bq"] / p,
        "mcshane.h_calls": ncalls["mcshane.h"] / p,
        "mcshane.schedule_steps": schedule_steps / p,
        "integral.self_s": layer_self["integral"] / p,
        "integral.quads": quads / p,
        "integral.quads_per_s": quads / layer_self["integral"] if layer_self["integral"] else 0.0,
        "coords.self_s": layer_self["coords"] / p,
        "coords.calls": entries["coords"] / p,
        "cli.self_s": (layer_self["cli"] - name_self["cli._emit"]) / p,
        "cli.emit_s": emit_s / p,
        "cli.emit_bytes": emit_bytes / p,
        "cli.emit_MB_per_s": emit_bytes / emit_s / 1e6 if emit_s else 0.0,
    }


def call_gaps(spans, selfs, call_walls: dict[int, float]) -> float:
    """Largest |sum of self times - measured wall| over calls."""
    per_call: dict[int, float] = defaultdict(float)
    for s, st in zip(spans, selfs):
        per_call[s[4]] += st
    return max((abs(per_call[c] - w) for c, w in call_walls.items()), default=0.0)
