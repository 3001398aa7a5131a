"""Span recorder for the traced benchmark run, and the wrappers that put it at
the boundaries between the package's layers.

Spans are kept in memory and written out once, when the run ends.  Calls that
happen very often (kernel evaluations, Philox streams, batch layout) are leaf
boundaries: they are aggregated per calling span as (calls, seconds) instead of
being stored one by one, so memory stays bounded on long runs.  Calls that run
the caller's own code as a callback (`rng.map_batches` runs the estimator's
batch function, `scipy.integrate.quad` runs the integrand) are only counted:
timing them as a span would charge the caller's work to the callee's layer.

Only names are patched, never package files: module globals that hold a
public function of a package layer, the `scipy.integrate.quad` attribute, and
methods of kernel instances.  Everything is restored when the context ends,
so untraced calls in the same process run the original code.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("kernel", "jump_process", "rng", "combinatorics", "integrator", "series", "cli")
KERNEL_METHODS = ("h", "h1", "psi", "phi", "phi_dense", "quantile")
LEAVES = frozenset(
    [f"kernel.{m}" for m in KERNEL_METHODS]
    + ["rng.stream", "rng.batch_layout", "rng.batch_mean",
       "combinatorics.check_order", "combinatorics.classify_pairs",
       "combinatorics.forest_volume", "combinatorics.open_cycles"]
)
COUNTED = frozenset(["rng.map_batches", "scipy.quad"])


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans as (id, parent id, name, start, end); leaves as per-parent totals."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.leaves: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [0]
        self._next = 1
        self._in_leaf = False

    def span(self, name, fn, *args, **kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def leaf(self, name, fn, *args, **kwargs):
        # only the outermost crossing into a leaf layer is a boundary
        if self._in_leaf:
            return fn(*args, **kwargs)
        self._in_leaf = True
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._in_leaf = False
            rec = self.leaves[(self._stack[-1], name)]
            rec[0] += 1
            rec[1] += dt

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            # materialise, so the span covers the enumeration itself
            def wrapper(*args, **kwargs):
                return iter(self.span(name, lambda: list(fn(*args, **kwargs))))
        elif name in COUNTED:
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)
        elif name in LEAVES:
            def wrapper(*args, **kwargs):
                return self.leaf(name, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- summaries -------------------------------------------------------

    def calls(self, name: str) -> int:
        n = self.counts.get(name, 0) + sum(1 for s in self.spans if s[2] == name)
        return n + sum(rec[0] for (_, leaf), rec in self.leaves.items() if leaf == name)

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span durations minus the time covered by child spans."""
        covered = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            covered[parent] += t1 - t0
        for (parent, _), (_, sec) in self.leaves.items():
            covered[parent] += sec
        out = defaultdict(float)
        for sid, _, name, t0, t1 in self.spans:
            out[layer_of(name)] += (t1 - t0) - covered[sid]
        for (_, name), (_, sec) in self.leaves.items():
            out[layer_of(name)] += sec
        return dict(out)

    def dump(self, path: str) -> None:
        doc = {
            "spans": [list(s) for s in self.spans],
            "leaves": [[p, n, c, s] for (p, n), (c, s) in self.leaves.items()],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


class Instrumented:
    """Context that routes every call between package layers through a tracer."""

    def __init__(self, tracer: Tracer, kernels=()):
        self.tracer = tracer
        self.kernels = list(kernels)
        self._undo: list = []

    def _set(self, obj, attr, value, had):
        self._undo.append((obj, attr, getattr(obj, attr) if had else None, had))
        setattr(obj, attr, value)

    def instrument_kernel(self, kernel):
        for m in KERNEL_METHODS:
            self._set(kernel, m, self.tracer.wrap(f"kernel.{m}", getattr(kernel, m)),
                      m in vars(kernel))
        return kernel

    def __enter__(self):
        import scipy.integrate

        mods = [importlib.import_module(f"spinboson.{name}") for name in LAYERS]
        names = {}
        for layer, mod in zip(LAYERS, mods):
            public = getattr(mod, "__all__", None) or [n for n in vars(mod) if n[0] != "_"]
            for attr in public:
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    names[obj] = f"{layer}.{attr}"
        quad = scipy.integrate.quad
        names[quad] = "scipy.quad"
        build = importlib.import_module("spinboson.kernel").build_kernel

        def build_traced(*args, **kwargs):
            return self.instrument_kernel(self.tracer.span("kernel.build_kernel", build,
                                                           *args, **kwargs))

        for mod in mods + [scipy.integrate]:
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj not in names:
                    continue
                wrapped = build_traced if obj is build else self.tracer.wrap(names[obj], obj)
                self._set(mod, attr, wrapped, True)
        for k in self.kernels:
            self.instrument_kernel(k)
        return self.tracer

    def __exit__(self, *exc):
        for obj, attr, old, had in reversed(self._undo):
            if had:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)
        self._undo.clear()
        return False
