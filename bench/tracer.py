"""Span tracer for the tableaux benchmark.

The tracer wraps, from outside, the public callables of each ``tableaux``
module; nothing under ``src/`` knows it exists. Each module is one layer:

- module-level public functions (``schur_polynomial`` keeps its cache,
  since the wrapper calls the cached object);
- constructors and public methods of the classes the module defines,
  including the arithmetic operators of ``Polynomial``.

A handful of O(1) accessors (``UNWRAPPED``) run inside the search loops
and stay with the layer that calls them, because a span around each would
cost more than the work it measures.

Every wrapped call is a span. A span's self time is its duration minus the
durations of the spans it called, so the self times of one batch add up to
the duration of the root span the benchmark opens around it. An iterator
returned by a wrapped callable is timed across the caller's ``next()``
calls, each of which is a span of the callable that made the iterator.
The code is single-threaded, so spans nest on one stack and nothing waits.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict
from collections.abc import Iterator

LAYERS = (
    "partitions",
    "fillings",
    "polynomials",
    "schur",
    "littlewood_richardson",
    "rsk",
    "cli",
)
UNWRAPPED = {"part", "has_box", "row_span", "entry", "coefficient"}
OPERATORS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__"}


def _wrappable(name: str, obj, modname: str) -> bool:
    return (
        not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == modname
    )


class Tracer:
    """Wraps the tableaux modules while installed and accumulates spans and counts."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.incl_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.yields: Counter = Counter()
        self.nonempty: Counter = Counter()
        self.counts: Counter = Counter()

    # -- spans ---------------------------------------------------------

    def _close(self, key, frame, t0) -> None:
        dt = time.perf_counter() - t0
        self._stack.pop()
        self.self_s[key] += dt - frame[0]
        self.incl_s[key] += dt
        if self._stack:
            self._stack[-1][0] += dt

    def root(self) -> "_Root":
        """Context manager for the benchmark's own span around one batch."""
        return _Root(self)

    def _wrap(self, key, fn, post=None):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(key, frame, t0)
            self.calls[key] += 1
            if post is not None:
                post(self, args, result)
            if isinstance(result, Iterator):
                return self._iterate(key, result)
            return result

        return traced

    def _iterate(self, key, it):
        stack = self._stack
        clock = time.perf_counter
        first = True
        while True:
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                value = next(it)
            except StopIteration:
                return
            finally:
                self._close(key, frame, t0)
            self.yields[key] += 1
            if first:
                self.nonempty[key] += 1
                first = False
            yield value

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Replace every wrappable callable in every tableaux namespace."""
        package = importlib.import_module("tableaux")
        modules = [importlib.import_module(f"tableaux.{layer}") for layer in LAYERS]
        replaced: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules):
            modname = module.__name__
            for name, obj in list(vars(module).items()):
                if _wrappable(name, obj, modname):
                    key = (layer, name)
                    replaced[id(obj)] = self._wrap(key, obj, POST_HOOKS.get(key))
                elif isinstance(obj, type) and obj.__module__ == modname and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        for namespace in [package, *modules]:
            for name, obj in list(vars(namespace).items()):
                if id(obj) in replaced:
                    self._patch(namespace, name, replaced[id(obj)])

    def _wrap_class(self, layer: str, cls: type) -> None:
        wrapped: dict[int, object] = {}
        for name, attr in list(vars(cls).items()):
            if name in UNWRAPPED or (name.startswith("_") and name not in OPERATORS):
                continue
            key = (layer, f"{cls.__name__}.{name}")
            if inspect.isfunction(attr):
                if id(attr) not in wrapped:  # __rmul__ is __mul__: one wrapper, one key
                    wrapped[id(attr)] = self._wrap(key, attr, POST_HOOKS.get(key))
                self._patch(cls, name, wrapped[id(attr)])
            elif isinstance(attr, classmethod):
                self._patch(cls, name, classmethod(self._wrap(key, attr.__func__)))

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results -------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for (lay, _), v in self.self_s.items() if lay == layer)

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        s, c, y = self.self_s, self.calls, self.yields
        enum_keys = [("fillings", "enumerate_ssyt"), ("fillings", "enumerate_syt")]
        yielded = sum(y[k] for k in enum_keys)
        lr_key = ("littlewood_richardson", "enumerate_lr_fillings")
        # schur's self time is reported per function, as poly_self_s and expand_self_s
        metrics = {f"{layer}.self_s": self.layer_self_s(layer) for layer in LAYERS if layer != "schur"}
        metrics.update({
            "partitions.hook_counts": c[("partitions", "count_standard_tableaux")],
            "partitions.partitions_yielded": y[("partitions", "partitions_of")],
            "fillings.yielded": yielded,
            "fillings.us_per_yield": (
                1e6 * sum(self.incl_s[k] for k in enum_keys) / yielded if yielded else 0.0
            ),
            "polynomials.mul_calls": c[("polynomials", "Polynomial.__mul__")],
            "polynomials.term_pairs": self.counts["polynomials.term_pairs"],
            "polynomials.terms_out": self.counts["polynomials.terms_out"],
            "schur.poly_self_s": s[("schur", "schur_polynomial")],
            "schur.expand_self_s": s[("schur", "schur_expand")],
            "schur.expand_rounds": self.counts["schur.expand_rounds"],
            "littlewood_richardson.calls": c[lr_key],
            "littlewood_richardson.witnesses": y[lr_key],
            "littlewood_richardson.nonzero_frac": (
                self.nonempty[lr_key] / c[lr_key] if c[lr_key] else 0.0
            ),
            "rsk.insertions": c[("rsk", "row_insert")],
            "rsk.bumps": self.counts["rsk.bumps"],
            "cli.calls": c[("cli", "main")],
        })
        return metrics


class _Root:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.duration = 0.0
        self.self_s = 0.0

    def __enter__(self):
        self.frame = [0.0]
        self.tracer._stack.append(self.frame)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.duration = time.perf_counter() - self.t0
        self.tracer._stack.pop()
        self.self_s = self.duration - self.frame[0]
        return False


def _count_product(tracer: Tracer, args, result) -> None:
    left, right = args
    if result is NotImplemented:
        return
    right_terms = len(right.terms) if hasattr(right, "terms") else 1
    tracer.counts["polynomials.term_pairs"] += len(left.terms) * right_terms
    tracer.counts["polynomials.terms_out"] += len(result.terms)


def _count_rounds(tracer: Tracer, args, result) -> None:
    tracer.counts["schur.expand_rounds"] += len(result)


def _bumps(shape) -> int:
    # every box in row r (0-based) was bumped down r times on its way there
    return sum(r * length for r, length in enumerate(shape.parts))


def _count_rsk(tracer: Tracer, args, result) -> None:
    tracer.counts["rsk.bumps"] += _bumps(result.shape)


def _count_rsk_trace(tracer: Tracer, args, result) -> None:
    tracer.counts["rsk.bumps"] += _bumps(result[-1][0].shape.outer)


POST_HOOKS = {
    ("polynomials", "Polynomial.__mul__"): _count_product,
    ("schur", "schur_expand"): _count_rounds,
    ("rsk", "rsk"): _count_rsk,
    ("rsk", "rsk_trace"): _count_rsk_trace,
}
