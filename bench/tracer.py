"""Span tracer that wraps the package's layer entry points from outside.

While a :class:`Tracer` is active, each function in :data:`SPANS` is
replaced by a wrapper that records a span (name, layer, start, end,
parent).  The package binds many layer functions with
``from .x import name``, so a wrapper replaces the name in every
``pararadon`` module that holds the original object, not only in the
defining module; otherwise calls made through those bindings would be
missed.  Spans stay in memory; :meth:`Tracer.summary` turns them into
per-name call counts, total and self times (duration minus the time
covered by child spans), and per-layer self times.

Work counters are recorded at the same boundaries:

- ``operator.shift_cells``: t_count x output cells of every transform call;
- ``paraball.evals``: ``contains`` calls made inside a ``fit_paraball``
  span, i.e. fitting objective evaluations (``contains`` is counted, not
  timed: it runs thousands of times per fit);
- ``grid.sample_at.points``, ``grid.prgf_load.bytes``, ``grid.prgf_save.bytes``;
- ``extremizer.iterations``: steps of every ``extremize`` call.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

LAYERS = ("grid", "norms", "operator", "symmetry", "paraball", "extremizer", "cli")


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _shift_cells(counters, args, kwargs, result):
    plan = _arg(args, kwargs, 1, "plan")
    counters["operator.shift_cells"] += plan.t_count() * result.spec.size


def _sample_points(counters, args, kwargs, result):
    pts = _arg(args, kwargs, 1, "points")
    counters["grid.sample_at.points"] += len(pts) if getattr(pts, "ndim", 1) > 1 else 1


def _file_bytes(label):
    def hook(counters, args, kwargs, result):
        counters[f"grid.{label}.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    return hook


def _iterations(counters, args, kwargs, result):
    counters["extremizer.iterations"] += len(result.steps) - 1


def _adjoint_name(args, kwargs) -> str:
    plan = _arg(args, kwargs, 1, "plan")
    mode = (args[2] if len(args) > 2 else kwargs.get("mode")) or plan.adjoint_mode
    return "operator.adjoint_continuum" if mode == "continuum" else "operator.adjoint_discrete"


# (layer, attribute path in pararadon.<layer>, span name or namer, counter hook)
SPANS = (
    ("grid", "GridFunction.sample_at", "grid.sample_at", _sample_points),
    ("grid", "GridFunction.save", "grid.prgf_save", _file_bytes("prgf_save")),
    ("grid", "GridFunction.load", "grid.prgf_load", _file_bytes("prgf_load")),
    ("grid", "GridSpec.midpoints", "grid.midpoints", None),
    ("norms", "lp_norm", "norms.lp_norm", None),
    ("norms", "tail_mass", "norms.tail_mass", None),
    ("norms", "rough_decompose", "norms.rough_decompose", None),
    ("norms", "lorentz_quasinorm", "norms.lorentz_quasinorm", None),
    ("norms", "entropy_refine", "norms.entropy_refine", None),
    ("operator", "TransformPlan.__post_init__", "operator.plan", None),
    ("operator", "forward_transform", "operator.forward", _shift_cells),
    ("operator", "adjoint_transform", _adjoint_name, _shift_cells),
    ("operator", "bilinear_form", "operator.bilinear_form", None),
    ("operator", "rayleigh_ratio", "operator.rayleigh_ratio", None),
    ("symmetry", "pullback", "symmetry.pullback", None),
    ("symmetry", "partner_pullback", "symmetry.partner_pullback", None),
    ("paraball", "fit_paraball", "paraball.fit", None),
    ("paraball", "greedy_cover", "paraball.greedy_cover", None),
    ("extremizer", "extremize", "extremizer.extremize", _iterations),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans and counters while active (use as a context manager)."""

    def __init__(self):
        self.spans: list[tuple[str, str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []  # indices of spans not yet closed
        self._fit_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def _span(self, layer: str, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            idx = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            tracer.spans.append((span_name, layer, 0.0, 0.0, parent))
            tracer._open.append(idx)
            is_fit = span_name == "paraball.fit"
            tracer._fit_depth += is_fit
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._open.pop()
                tracer._fit_depth -= is_fit
                tracer.spans[idx] = (span_name, layer, t0, t1, parent)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    def _count_evals(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._fit_depth:
                tracer.counters["paraball.evals"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pararadon" or n.startswith("pararadon."))]
        functions = {}  # id(original) -> (original, wrapper)
        for layer, path, name, hook in SPANS:
            mod = importlib.import_module(f"pararadon.{layer}")
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                raw = vars(cls)[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._span(layer, name, raw.__func__, hook)))
                else:
                    self._set(cls, meth, self._span(layer, name, raw, hook))
            else:
                fn = getattr(mod, path)
                functions[id(fn)] = (fn, self._span(layer, name, fn, hook))
        contains = importlib.import_module("pararadon.paraball").contains
        functions[id(contains)] = (contains, self._count_evals(contains))
        for mod in package:
            for attr, val in list(vars(mod).items()):
                entry = functions.get(id(val))
                if entry is not None and entry[0] is val:
                    self._set(mod, attr, entry[1])
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    # -- aggregation ---------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name {calls, total_s, self_s}, per-layer self time, counters."""
        child_time = [0.0] * len(self.spans)
        for _, _, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        by_layer = dict.fromkeys(LAYERS, 0.0)
        for (name, layer, t0, t1, _), kids in zip(self.spans, child_time):
            rec = by_name[name]
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - kids
            by_layer[layer] += (t1 - t0) - kids
        return {"spans": dict(by_name), "layers": by_layer, "counters": dict(self.counters)}
