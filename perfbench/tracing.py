"""Spans around the public functions of tcalgebra, installed at run time.

The tracer replaces module attributes and two SymbolElement methods with
wrappers that record (name, start, end, parent, op id), and counts
HalfPolynomial constructions.  Spans stay in
memory; self time is a span's duration minus its direct children.  A
recursive call of a function that already has the innermost open span is
passed through without a new span, so `normalize` records one span per
top-level call.  Nothing is recorded while the tracer is disabled, which
keeps the benchmark's reference checks out of the layer figures.
"""

import functools
import gzip
import json
import sys
import time

# (module, attribute, span name).  Every tcalgebra module attribute bound to
# the same function object is replaced, which covers `from x import f`.
FUNCTIONS = (
    ("moebius", "classify", "moebius.classify"),
    ("moebius", "boundary_contact", "moebius.boundary_contact"),
    ("rewriter", "parse", "rewriter.parse"),
    ("rewriter", "normalize", "rewriter.normalize"),
    ("rewriter", "to_composition_sum", "rewriter.to_composition_sum"),
    ("symbol", "spectrum_samples", "symbol.spectrum_samples"),
    ("symbol", "essential_spectrum", "symbol.essential_spectrum"),
    ("symbol", "essential_norm_report", "symbol.essential_norm_report"),
    ("symbol", "is_fredholm", "symbol.is_fredholm"),
    ("oracle", "composition_matrix", "oracle.composition_matrix"),
    ("oracle", "toeplitz_matrix", "oracle.toeplitz_matrix"),
    ("oracle", "truncate", "oracle.truncate"),
    ("oracle", "vanishing_sequence", "oracle.vanishing_sequence"),
    ("oracle", "compression_eigs", "oracle.compression_eigs"),
    ("cli", "main", "cli.main"),
)
METHODS = (
    ("symbol", "SymbolElement", "__mul__", "symbol.mul"),
    ("symbol", "SymbolElement", "__add__", "symbol.add"),
)
# Sweeps whose base grids (resolution circle points plus zeta and eta, and
# resolution interval points) are counted in symbol.grid_points.
GRID_SWEEPS = ("symbol.spectrum_samples", "symbol.essential_norm_report", "symbol.is_fredholm")
MODULES = ("", ".moebius", ".rings", ".symbol", ".rewriter", ".oracle", ".cli", ".verify")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.spans = []  # [name, start, end, parent index]
        self.op_of = []
        self.stack = []
        self.counts = {}
        self.builds = {}  # (op id, map coefficients, n) -> count
        self._restore = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if name == "oracle.composition_matrix":
                tracer._record_build(*args, **kwargs)
            elif name in GRID_SWEEPS:
                res = args[1] if len(args) > 1 else kwargs.get("resolution", 1000)
                tracer.count("symbol.grid_points", 2 * res + 2)
            idx = len(tracer.spans)
            tracer.spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            tracer.op_of.append(tracer.op_id)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.spans[idx][2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _record_build(self, m, n):
        key = (self.op_id, m.coeffs(), n)
        self.builds[key] = self.builds.get(key, 0) + 1
        self.count("oracle.matrix_cells", n * n)

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def maximum(self, name, value):
        self.counts[name] = max(self.counts.get(name, 0), value)

    def span(self, name):
        """Context manager for a span opened by the benchmark itself (an op)."""
        return _Span(self, name)

    # -- installation -------------------------------------------------------

    def install(self):
        pkg = sys.modules["tcalgebra"]
        mods = [sys.modules["tcalgebra" + suffix] for suffix in MODULES]
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules["tcalgebra." + modname], attr)
            wrapped = self.wrap(name, original)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        for modname, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules["tcalgebra." + modname], cls_name)
            self._patch(cls, attr, self.wrap(name, getattr(cls, attr)))
        half = pkg.HalfPolynomial
        init = half.__init__
        tracer = self

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if tracer.enabled:
                tracer.count("rings.halfpoly_new.calls")
                tracer.maximum("rings.max_terms", len(obj.p) + len(obj.q))

        self._patch(half, "__init__", counted_init)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> dict:
        """Per span name: (self seconds, number of spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), kids in zip(self.spans, child):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start - kids), calls + 1)
        return out

    def duplicate_ratio(self) -> float:
        builds = sum(self.builds.values())
        if builds == 0:
            return 0.0
        return sum(c - 1 for c in self.builds.values()) / builds

    def write(self, path):
        with gzip.open(path, "wt") as handle:
            for (name, start, end, parent), op in zip(self.spans, self.op_of):
                handle.write(json.dumps([name, start, end, parent, op]) + "\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        if t.enabled:
            self.idx = len(t.spans)
            t.spans.append([self.name, time.perf_counter(), 0.0, t.stack[-1] if t.stack else -1])
            t.op_of.append(t.op_id)
            t.stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        if t.enabled:
            t.spans[self.idx][2] = time.perf_counter()
            t.stack.pop()
        return False
