"""Per-layer tracing of ssetkit from outside the package.

Tracer.install() replaces every public function and method of every
ssetkit module with a wrapper that records a span (layer, name, start, end,
parent, job) and feeds the work counters; uninstall() puts the originals
back, so untraced passes run unmodified code. A function re-bound into
another module (ssetkit.homology.rank is ssetkit.linalg.rank) gets the same
wrapper everywhere and counts toward the module that defines it.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import pkgutil
import time
from collections import Counter

import ssetkit

LAYERS = ("io_text", "simplicial", "homology", "linalg", "derham", "forms", "kan",
          "subdivision", "sheaves", "connections", "randomsuite", "reporting", "cli")

# O(1) table lookups whose per-call cost a span would swamp, and the face
# list of a horn, which fill_horn reads once per candidate simplex (over 95%
# of all spans on the certify workload). Their time stays in their layer.
SKIP = {("SimplicialSet", "d"), ("SimplicialSet", "s"), ("SimplicialSet", "has"),
        ("SimplicialSet", "is_degenerate"), ("Horn", "given")}
# Non-public methods traced because the layer table names them.
DUNDERS = {("Matrix", "__matmul__"), ("CochainSpaces", "__init__")}

ELIMINATION = {"rref", "rank", "nullspace", "solve", "row_space", "quotient_reps"}

# Counters derived from argument or result shapes rather than from calls.
COMPUTED = {"linalg.elim_cells", "linalg.elim_nonzeros", "linalg.snf_cells",
            "simplicial.stored_simplices", "simplicial.nondegenerate_simplices",
            "derham.compatible_dims", "kan.horns", "kan.fillers", "kan.lifting_problems",
            "subdivision.chain_terms", "io_text.input_bytes"}
COUNTERS = ("linalg.elim_calls", "linalg.elim_cells", "linalg.elim_nonzeros", "linalg.snf_cells",
            "linalg.matmul_calls", "homology.chain_complex_calls", "homology.express_calls",
            "simplicial.validate_calls", "simplicial.nondegenerate_calls",
            "simplicial.stored_simplices", "simplicial.nondegenerate_simplices",
            "derham.compatible_dims", "forms.pullback_calls", "kan.horns", "kan.fill_calls",
            "kan.fillers", "kan.lifting_problems", "subdivision.chain_terms", "io_text.input_bytes")


def _modules():
    out = [ssetkit]
    for info in pkgutil.iter_modules(ssetkit.__path__):
        out.append(importlib.import_module("ssetkit." + info.name))
    return out


def _shape(matrix):
    """(cells, nonzeros) of a linalg.Matrix or of a list of rows."""
    rows = getattr(matrix, "rows", matrix)
    cells = nonzeros = 0
    for row in rows:
        cells += len(row)
        nonzeros += sum(1 for v in row if v != 0)
    return cells, nonzeros


class Tracer:
    """Spans and counters of one traced pass; see the module docstring."""

    def __init__(self):
        self._originals = []       # (owner, attribute, original raw value)
        self._wrappers = {}        # id(original function) -> wrapper
        # Span columns; the wrappers hold these lists, so reset() clears them
        # in place.
        self.layer, self.name, self.start, self.end, self.parent, self.job = [], [], [], [], [], []
        self.counters = Counter()
        self._stack = []
        self.reset()

    def reset(self):
        for column in (self.layer, self.name, self.start, self.end, self.parent, self.job, self._stack):
            column.clear()
        self.counters.clear()
        self.counters.update({c: 0 for c in COUNTERS})
        self.job_id = -1

    # -- installation ------------------------------------------------------

    def install(self):
        for module in _modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and not attr.startswith("_") and self._ours(value):
                    self._replace(module, attr, value, self._wrap(value, value.__qualname__))
                if (inspect.isclass(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    self._install_class(value)

    def _install_class(self, cls):
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_") or (cls.__name__, attr) in DUNDERS
            if not public or (cls.__name__, attr) in SKIP:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
                if inspect.isfunction(fn):
                    self._replace(cls, attr, raw, type(raw)(self._wrap(fn, fn.__qualname__)))
            elif inspect.isfunction(raw):
                self._replace(cls, attr, raw, self._wrap(raw, raw.__qualname__))

    @staticmethod
    def _ours(fn):
        return fn.__module__.startswith("ssetkit.") and not inspect.isgeneratorfunction(fn)

    def _replace(self, owner, attr, raw, new):
        self._originals.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, qualname):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        layer = fn.__module__.rsplit(".", 1)[1]
        observe = self._observer(layer, qualname)
        clock = time.perf_counter
        layers, names, starts, ends, parents, jobs = (
            self.layer, self.name, self.start, self.end, self.parent, self.job)
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(starts)
            outer = stack[-1] if stack else -1
            layers.append(layer)
            names.append(qualname)
            parents.append(outer)
            jobs.append(tracer.job_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result, outer)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = qualname
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _outermost(self, outer, layer):
        return outer < 0 or self.layer[outer] != layer

    def _observer(self, layer, qualname):
        """The counter update for one traced function, or None."""
        c = self.counters
        name = qualname.rsplit(".", 1)[-1]
        if layer == "linalg" and name in ELIMINATION:
            def observe(args, _result, outer):
                if self._outermost(outer, "linalg"):
                    cells, nonzeros = _shape(args[0])
                    c["linalg.elim_calls"] += 1
                    c["linalg.elim_cells"] += cells
                    c["linalg.elim_nonzeros"] += nonzeros
            return observe
        if qualname == "invariant_factors":
            def observe(args, _result, outer):
                if self._outermost(outer, "linalg"):
                    c["linalg.snf_cells"] += _shape(args[0])[0]
            return observe
        simple = {
            "Matrix.__matmul__": "linalg.matmul_calls",
            "chain_complex": "homology.chain_complex_calls",
            "CochainSpaces.express": "homology.express_calls",
            "SimplicialSet.validate": "simplicial.validate_calls",
            "SimplicialSet.nondegenerate": "simplicial.nondegenerate_calls",
            "PolyForm.pullback": "forms.pullback_calls",
        }
        if qualname in simple:
            key = simple[qualname]

            def observe(_args, _result, _outer):
                c[key] += 1
            return observe
        if qualname == "parse_complex":
            def observe(args, result, outer):
                if self._outermost(outer, "io_text"):
                    c["io_text.input_bytes"] += len(args[0])
                for n, level in result.simplices.items():
                    c["simplicial.stored_simplices"] += len(level)
                    c["simplicial.nondegenerate_simplices"] += sum(
                        1 for s in level if not result.is_degenerate(n, s))
            return observe
        if layer == "io_text" and name.startswith("parse_"):
            def observe(args, _result, outer):
                if self._outermost(outer, "io_text") and isinstance(args[0], str):
                    c["io_text.input_bytes"] += len(args[0])
            return observe
        if qualname == "derham_cohomology":
            def observe(_args, result, _outer):
                c["derham.compatible_dims"] += sum(result.dims)
            return observe
        if qualname == "enumerate_horns":
            def observe(_args, result, _outer):
                c["kan.horns"] += len(result)
            return observe
        if qualname == "fill_horn":
            def observe(_args, result, _outer):
                c["kan.fill_calls"] += 1
                c["kan.fillers"] += len(result)
            return observe
        if qualname == "is_fibration":
            def observe(_args, result, _outer):
                c["kan.lifting_problems"] += result.problems
            return observe
        if layer == "subdivision" and qualname in ("subdivide", "homotopy"):
            def observe(_args, result, outer):
                if self._outermost(outer, "subdivision"):
                    c["subdivision.chain_terms"] += len(result.terms)
            return observe
        return None

    # -- aggregation -------------------------------------------------------

    def layer_self_ms(self):
        """{layer: ms} of self time: each span minus its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        totals = Counter({layer: 0.0 for layer in LAYERS})
        for layer, t in zip(self.layer, own):
            totals[layer] += t * 1000.0
        return totals

    def inclusive_ms(self, qualname, layer):
        """Total time of the outermost spans of one function within its layer."""
        total = 0.0
        for i, name in enumerate(self.name):
            p = self.parent[i]
            if name == qualname and (p < 0 or self.layer[p] != layer):
                total += self.end[i] - self.start[i]
        return total * 1000.0

    def spans(self):
        """The recorded spans as dicts, for writing out."""
        return [
            {"layer": l, "name": n, "start": s, "end": e, "parent": p, "job": j}
            for l, n, s, e, p, j in zip(self.layer, self.name, self.start, self.end, self.parent, self.job)
        ]


class GcMonitor:
    """Collector pauses, from gc.callbacks, while installed."""

    def __init__(self):
        self.ms = 0.0
        self.collections = 0
        self._t0 = None

    def _callback(self, phase, _info):
        if phase == "start":
            self._t0 = time.perf_counter()
        elif self._t0 is not None:
            self.ms += (time.perf_counter() - self._t0) * 1000.0
            self.collections += 1
            self._t0 = None

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False
