"""Span tracing from outside the program, and the per-layer metrics built from it.

``Tracer.install`` wraps every public function of the layer modules at each
name it is looked up by: class attributes (aliases such as ``__rmul__``
included, each under its own name) and every module-level binding, so
``zonal_direct`` is traced whether ``verify``, ``zonalroutes``, ``cli`` or
``gegenbauer`` calls it.  Each call records one span: its id, its parent
span, the run id, the function's label, start and end, and a few counts
taken from its arguments and result.  Spans stay in memory until
``write_spans``.

``layer_metrics`` turns the spans into the per-layer figures.  A span's self
time is its duration minus the duration of its child spans.  Serialisation
helpers (``terms``, ``sorted_terms``, ``to_json``, ``to_json_dict`` and the
``from_terms*`` constructors) fold into the operation that called them, so
``radialexpr.digest.self_s`` covers the canonical serialisation it hashes.
Canonicalisation happens inside private helpers that are not wrapped; its
time is part of each operator's self time.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import time
from fractions import Fraction

LAYERS = ("radialexpr", "gegenbauer", "cliffordalg", "zonalalg", "zonalroutes", "verify", "cli")

# dunders that do work; accessors such as __len__ and __bool__ stay unwrapped
_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
            "__mul__", "__rmul__", "__pow__", "__eq__")

_HELPERS = frozenset({
    "radialexpr.RadialExpr.terms", "radialexpr.RadialExpr.sorted_terms",
    "radialexpr.RadialExpr.to_json", "radialexpr.RadialExpr.to_json_dict",
    "radialexpr.from_terms", "radialexpr.from_terms_packed",
})

ROUTES = ("ladder_route", "laplacian_route", "laplacian_route_invariant",
          "laplacian_route_fixed_y", "clifford_route", "kelvin_route", "eta_relation",
          "reproducing_mc")

# operation metric group -> the labels it covers
_OPS = {
    "mul": ("RadialExpr.__mul__", "RadialExpr.__rmul__"),
    "add": ("RadialExpr.__add__", "RadialExpr.__radd__"),
    "scale": ("RadialExpr.scale",),
    "laplacian": ("RadialExpr.laplacian",),
    "dir_deriv": ("RadialExpr.dir_deriv",),
    "kelvin": ("RadialExpr.kelvin",),
    "digest": ("RadialExpr.digest",),
    "equals": ("RadialExpr.equals", "RadialExpr.__eq__"),
    "eval_float_batch": ("RadialExpr.eval_float_batch",),
    "substitute_point": ("RadialExpr.substitute_point",),
}


def _scalar_key(args: tuple, kwargs: dict) -> tuple:
    """Arguments as a hashable key; non-scalar arguments compare by type only."""
    def one(v):
        return v if isinstance(v, (int, float, str, Fraction)) else type(v).__name__
    return tuple(one(a) for a in args) + tuple((k, one(v)) for k, v in sorted(kwargs.items()))


class Tracer:
    """Wraps the layer functions of one imported zonalkit and records spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self._classes: tuple[type, type] = (type(None), type(None))
        self.spans: list[tuple] = []
        self._stack: list[int] = [0]
        self._ids = itertools.count(1)
        self._wrapped: dict[int, object] = {}

    # -- installation ---------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layer modules' functions in ``package`` (an imported zonalkit)."""
        mods = {name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS}
        self._classes = (mods["radialexpr"].RadialExpr, mods["zonalalg"].ZonalInvariant)
        for layer, mod in mods.items():
            for name, value in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    self._wrapped[id(value)] = self._make(value, f"{layer}.{name}")
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._wrap_class(value, layer)
        # rebind every module-level name that still points at an original
        for mod in [package, *mods.values()]:
            for name, value in list(vars(mod).items()):
                wrapper = self._wrapped.get(id(value))
                if wrapper is not None:
                    setattr(mod, name, wrapper)

    def _wrap_class(self, cls, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, name, type(raw)(self._make(raw.__func__, label)))
            elif inspect.isfunction(raw):
                setattr(cls, name, self._make(raw, label))

    def _make(self, fn, label: str):
        radial, invariant = self._classes
        spans = self.spans
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter
        keyed = label.rsplit(".", 1)[-1] in ROUTES + ("zonal_direct", "xyc_power_real")
        rows = label.endswith(".eval_float_batch")
        digest = label.endswith("RadialExpr.digest")

        def size(v):
            if isinstance(v, radial):
                return len(v)
            if isinstance(v, invariant):
                return len(v.terms)
            return -1

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            a = size(args[0]) if args else -1
            b = size(args[1]) if len(args) > 1 else -1
            if digest:
                extra = out
            elif keyed:
                extra = _scalar_key(args, kwargs)
            elif rows:
                extra = len(args[1])
            else:
                extra = None
            spans.append((sid, parent, label, t0, t1, a, b, size(out), extra))
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def span_cost(self, calls: int = 20_000, repeats: int = 5) -> float:
        """Seconds one traced call adds, timed on a wrapped function that does nothing.

        The best of a few repeats, so that a slow moment of the machine does
        not count as tracing cost.
        """
        def noop(*args):
            return None
        probe = Tracer(self.run_id)
        probe._classes = self._classes
        wrapped = probe._make(noop, "probe.noop")
        clock = time.perf_counter
        best = float("inf")
        for _ in range(repeats):
            t0 = clock()
            for _ in range(calls):
                noop(1, 2)
            t1 = clock()
            for _ in range(calls):
                wrapped(1, 2)
            t2 = clock()
            best = min(best, (t2 - t1) - (t1 - t0))
        return max(0.0, best / calls)

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON line per span, in completion order."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, label, t0, t1, a, b, c, extra in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "run": self.run_id, "name": label,
                    "start": t0, "end": t1, "terms_a": a, "terms_b": b, "terms_out": c,
                    "extra": extra if isinstance(extra, (int, str)) else
                    (repr(extra) if extra is not None else None),
                }) + "\n")


def layer_metrics(spans: list[tuple], traced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced region lasting ``traced_s`` seconds."""
    by_id = {s[0]: s for s in spans}
    child_s: dict[int, float] = {}
    top_s = 0.0
    for sid, parent, label, t0, t1, *_ in spans:
        if parent:
            child_s[parent] = child_s.get(parent, 0.0) + (t1 - t0)
        else:
            top_s += t1 - t0

    def owner(span):
        while span[2] in _HELPERS and span[1] in by_id:
            span = by_id[span[1]]
        return span[2]

    self_by_label: dict[str, float] = {}
    total_by_label: dict[str, float] = {}
    calls: dict[str, int] = {}
    keys: dict[str, set] = {}
    sums: dict[tuple[str, str], int] = {}
    peak = {"radialexpr": 0, "zonalalg": 0}
    for span in spans:
        sid, parent, label, t0, t1, a, b, c, extra = span
        own = owner(span) if label in _HELPERS else label
        self_by_label[own] = self_by_label.get(own, 0.0) + (t1 - t0) - child_s.get(sid, 0.0)
        total_by_label[label] = total_by_label.get(label, 0.0) + (t1 - t0)
        calls[label] = calls.get(label, 0) + 1
        if extra is not None and not isinstance(extra, int):
            keys.setdefault(label, set()).add(extra)
        layer = label.split(".", 1)[0]
        if layer == "radialexpr":
            peak[layer] = max(peak[layer], a, b, c)
        elif layer == "zonalalg":
            # to_radialexpr returns coordinate terms, not invariant ones
            peak[layer] = max(peak[layer], a, b, -1 if label.endswith("to_radialexpr") else c)
        name = label.split(".", 1)[1]
        for key, value in (("terms_in", a), ("terms_out", c)):
            if value > 0:
                sums[(name, key)] = sums.get((name, key), 0) + value
        if name in ("RadialExpr.__mul__", "RadialExpr.__rmul__") and b >= 0:
            sums[(name, "pairs")] = sums.get((name, "pairs"), 0) + a * b
        if name == "RadialExpr.eval_float_batch":
            sums[(name, "points")] = sums.get((name, "points"), 0) + a * extra

    def group(labels, table):
        return sum(table.get(f"radialexpr.{lab}", 0) for lab in labels)

    def ratio(label):
        n = calls.get(label, 0)
        return len(keys.get(label, ())) / n if n else 0.0

    def count(labels, key):
        return sum(sums.get((lab, key), 0) for lab in labels)

    m: dict[str, float] = {}
    m["radialexpr.mul.self_s"] = group(_OPS["mul"], self_by_label)
    m["radialexpr.mul.calls"] = group(_OPS["mul"], calls)
    m["radialexpr.mul.term_pairs"] = count(_OPS["mul"], "pairs")
    m["radialexpr.mul.terms_out"] = count(_OPS["mul"], "terms_out")
    m["radialexpr.add.self_s"] = group(_OPS["add"], self_by_label)
    m["radialexpr.add.calls"] = group(_OPS["add"], calls)
    m["radialexpr.scale.self_s"] = group(_OPS["scale"], self_by_label)
    m["radialexpr.laplacian.self_s"] = group(_OPS["laplacian"], self_by_label)
    m["radialexpr.laplacian.calls"] = group(_OPS["laplacian"], calls)
    m["radialexpr.laplacian.terms_in"] = count(_OPS["laplacian"], "terms_in")
    m["radialexpr.laplacian.terms_out"] = count(_OPS["laplacian"], "terms_out")
    m["radialexpr.dir_deriv.self_s"] = group(_OPS["dir_deriv"], self_by_label)
    m["radialexpr.dir_deriv.terms_in"] = count(_OPS["dir_deriv"], "terms_in")
    m["radialexpr.kelvin.self_s"] = group(_OPS["kelvin"], self_by_label)
    m["radialexpr.kelvin.terms_in"] = count(_OPS["kelvin"], "terms_in")
    m["radialexpr.digest.self_s"] = group(_OPS["digest"], self_by_label)
    m["radialexpr.digest.calls"] = group(_OPS["digest"], calls)
    m["radialexpr.digest.terms_in"] = count(_OPS["digest"], "terms_in")
    m["radialexpr.digest.distinct_ratio"] = ratio("radialexpr.RadialExpr.digest")
    m["radialexpr.equals.self_s"] = group(_OPS["equals"], self_by_label)
    m["radialexpr.eval_float_batch.self_s"] = group(_OPS["eval_float_batch"], self_by_label)
    m["radialexpr.eval_float_batch.calls"] = group(_OPS["eval_float_batch"], calls)
    m["radialexpr.eval_float_batch.term_points"] = count(_OPS["eval_float_batch"], "points")
    m["radialexpr.substitute_point.self_s"] = group(_OPS["substitute_point"], self_by_label)
    m["radialexpr.peak_terms"] = peak["radialexpr"]
    for label, metric in (("gegenbauer.zonal_direct", "gegenbauer.zonal_direct"),
                          ("gegenbauer.zonal_lift", "gegenbauer.zonal_lift"),
                          ("cliffordalg.xyc_power_real", "cliffordalg.xyc_power_real")):
        m[f"{metric}.total_s"] = total_by_label.get(label, 0.0)
        m[f"{metric}.calls"] = calls.get(label, 0)
        if label != "gegenbauer.zonal_lift":
            m[f"{metric}.distinct_ratio"] = ratio(label)
    m["zonalalg.self_s"] = sum(v for k, v in self_by_label.items() if k.startswith("zonalalg."))
    m["zonalalg.peak_terms"] = peak["zonalalg"]
    for route in ROUTES:
        label = f"zonalroutes.{route}"
        m[f"{label}.total_s"] = total_by_label.get(label, 0.0)
        m[f"{label}.calls"] = calls.get(label, 0)
        m[f"{label}.distinct_ratio"] = ratio(label)
    m["verify.report_json.self_s"] = (self_by_label.get("verify.VerificationReport.to_json", 0.0)
                                      + self_by_label.get("verify.VerificationReport.to_json_dict",
                                                          0.0))
    m["trace.root_self_s"] = traced_s - top_s
    return m
