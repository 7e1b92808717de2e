"""Timing spans around polycauchy2's public functions, installed from outside the package.

``install`` replaces every public function of each polycauchy2 module (the
functions a module defines and lists in ``__all__``) in every polycauchy2
namespace that holds it, the closed-form right-hand sides held by the
identity registry, and the methods named in ``METHODS`` on their classes.
Nothing under ``src/`` is edited. Each call records a span (name, start, end,
parent) in memory; self times are derived from the spans when the invocation
ends, and the spans can then be written out.

``layer_metrics`` turns the per-invocation aggregates of one pass into the
benchmark's per-layer metrics. Every ``_s`` metric is a self time: span
duration minus the time covered by its child spans, scaled by the
invocation's calibration like the end-to-end times. No time is counted
twice, so the ``<layer>.self_s`` metrics add up to the traced time. The
multiplies made inside ``Series.compose`` are therefore in ``series.mul_s``,
not ``series.compose_s``.
"""

from __future__ import annotations

import dataclasses
import gzip
import inspect
import json
import sys
import time
from fnmatch import fnmatchcase

LAYERS = ("stirling", "polycauchy", "series", "convolution", "polynomials", "exact", "cache", "cli")

# Methods wrapped on classes. Per-term accessors (Series.coefficient,
# PolyCauchyTable.value, triangle rows) stay unwrapped: they are single
# lookups inside every inner loop, so a span there would mostly time the
# wrapper and move the caller's own work into another layer.
METHODS = {
    "polycauchy": {"PolyCauchyTable": ("build", "ensure")},
    "series": {
        "Series": (
            "zero", "one", "x", "valuation", "egf_coefficient", "egf_even_coefficient",
            "agrees_with", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
            "__mul__", "__rmul__", "__pow__", "__truediv__", "derivative", "integral",
            "compose", "reciprocal", "divide_by",
        )
    },
    "convolution": {"IdentityReport": ("to_text", "to_json_dict")},
    "cache": {
        "CacheSession": (
            "__init__", "get_triangle_rows", "put_triangle_rows", "get_values",
            "put_values", "save",
        )
    },
}


class Tracer:
    """Spans of one invocation, plus the counts observed at layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self._stack: list[int] = []
        self.rows_built = 0
        self.convolutions: set = set()
        self.cache_sessions: list = []

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observer(self, layer: str, name: str):
        if layer == "stirling":
            return self._count_rows
        if name == "convolution.convolve":
            return self._record_convolution
        if name == "cache.CacheSession.__init__":
            return lambda args, result: self.cache_sessions.append(args[0])
        return None

    def _count_rows(self, args, result) -> None:
        nmax = getattr(result, "nmax", None)
        if isinstance(nmax, int):
            self.rows_built += nmax + 1

    def _record_convolution(self, args, result) -> None:
        spec = args[0]
        self.convolutions.add((tuple(spec.offsets), spec.n))

    def install(self) -> None:
        """Wrap the public surface of every imported polycauchy2 module."""
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "polycauchy2" or name.startswith("polycauchy2.")
        }
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = modules.get(f"polycauchy2.{layer}")
            if module is None:
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[id(fn)] = self.wrap(name, fn, self._observer(layer, name))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name, None)
                if cls is not None:
                    self._wrap_methods(layer, cls, methods)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
        registry = getattr(modules.get("polycauchy2.convolution"), "CONVOLUTION_IDENTITIES", {})
        for key, entry in list(registry.items()):
            rhs = getattr(entry, "rhs", None)
            if id(rhs) in wrappers:
                registry[key] = dataclasses.replace(entry, rhs=wrappers[id(rhs)])

    def _wrap_methods(self, layer: str, cls, methods) -> None:
        done: dict[int, object] = {}  # aliases such as __rmul__ = __mul__ share one span name
        for method in methods:
            raw = cls.__dict__.get(method)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if not inspect.isfunction(fn):
                continue
            if id(fn) not in done:
                name = f"{layer}.{cls.__name__}.{fn.__name__}"
                done[id(fn)] = self.wrap(name, fn, self._observer(layer, name))
            wrapped = done[id(fn)]
            setattr(cls, method, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)

    def aggregate(self) -> dict:
        """Calls and self time per span name, and the boundary counts."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per_name: dict[str, list[int]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = per_name.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += end - start - child_ns[index]
        sessions = self.cache_sessions
        return {
            "spans": per_name,
            "rows_built": self.rows_built,
            "convolutions_distinct": len(self.convolutions),
            "cache_hits": sum(getattr(s, "hits", 0) for s in sessions),
            "cache_misses": sum(getattr(s, "misses", 0) for s in sessions),
            "cache_revalidated": sum(getattr(s, "revalidated", 0) for s in sessions),
        }

    def write_spans(self, path: str) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent line index or -1."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


# Per-layer metrics: fnmatch patterns over span names. Times sum self time,
# counts sum calls.
_TIMES = {
    "stirling.self_s": "stirling.*",
    "polycauchy.self_s": "polycauchy.*",
    "polycauchy.formula_s": "polycauchy.level2_by_formula",
    "polycauchy.table_s": "polycauchy.PolyCauchyTable.*",
    "polycauchy.integral_s": "polycauchy.integral_representation_check",
    "series.self_s": "series.*",
    "series.compose_s": "series.Series.compose",
    "series.mul_s": "series.Series.__mul__",
    "series.builtin_s": "series.builtin_series",
    "convolution.self_s": "convolution.*",
    "convolution.convolve_s": "convolution.convolve",
    "convolution.rhs_s": "convolution.rhs_*",
    "convolution.solve_s": "convolution.extract_conjecture_polynomials",
    "convolution.verify_s": "convolution.verify_identity",
    "polynomials.self_s": "polynomials.*",
    "exact.self_s": "exact.*",
    "exact.text_s": "exact.rational_*_text",
    "cache.self_s": "cache.*",
    "cache.load_s": "cache.CacheSession.__init__",
    "cache.save_s": "cache.CacheSession.save",
    "cli.self_s": "cli.*",
}
_CALLS = {
    "stirling.calls": "stirling.*",
    "polycauchy.formula_calls": "polycauchy.level2_by_formula",
    "polycauchy.composition_calls": "polycauchy.composition_series",
    "series.compose_calls": "series.Series.compose",
    "series.mul_calls": "series.Series.__mul__",
    "convolution.convolve_calls": "convolution.convolve",
    "polynomials.calls": "polynomials.*",
    "exact.text_calls": "exact.rational_*_text",
}


def _ratio(part: float, whole: float) -> float:
    """part / whole, and 0 when there was nothing to count."""
    return part / whole if whole else 0.0


def layer_metrics(aggregates: list[tuple[dict, float]], stdout_bytes: int, cache_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one pass, from each invocation's aggregate and time scale."""
    spans: dict[str, list[float]] = {}
    totals: dict[str, int] = {}
    for aggregate, scale in aggregates:
        for name, (calls, self_ns) in aggregate["spans"].items():
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_ns * scale
        for key, value in aggregate.items():
            if key != "spans":
                totals[key] = totals.get(key, 0) + value

    def total(pattern: str, field: int) -> float:
        return sum(entry[field] for name, entry in spans.items() if fnmatchcase(name, pattern))

    metrics = {name: total(pattern, 1) / 1e9 for name, pattern in _TIMES.items()}
    metrics.update({name: total(pattern, 0) for name, pattern in _CALLS.items()})
    lookups = totals.get("cache_hits", 0) + totals.get("cache_misses", 0)
    metrics.update(
        {
            "stirling.rows_built": totals.get("rows_built", 0),
            "convolution.unique_ratio": _ratio(
                totals.get("convolutions_distinct", 0), metrics["convolution.convolve_calls"]
            ),
            "cache.revalidated": totals.get("cache_revalidated", 0),
            "cache.hit_ratio": _ratio(totals.get("cache_hits", 0), lookups),
            "cache.bytes": cache_bytes,
            "cli.stdout_bytes": stdout_bytes,
        }
    )
    return metrics
