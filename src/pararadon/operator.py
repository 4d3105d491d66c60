"""Convolution with the parabolic surface measure on R^d.

The forward map is Tf(x) = int_{R^{d-1}} f(x' - t, x_d - |t|^2) dt; the
adjoint is T*g(y) = int g(y' + t, y_d + |t|^2) dt.  The t integral is a
midpoint rule over the box of shifts that can move output points into
the input box (exact truncation for compactly supported f), and f is
sampled multilinearly.  For a fixed shift the sample points form a
translated tensor grid, so every t term is a tensor product of per-axis
interpolation matrices W (two weights per row, ghost cells dropped),
applied one axis at a time.  All three transforms run the same loop:
the forward applies W built on the input grid at the output midpoints
minus (t, |t|^2); the discrete adjoint applies the same W transposed,
so <g, Tf> = <T*g, f> holds to rounding by construction; the continuum
adjoint applies W built on the output grid at the input midpoints plus
(t, |t|^2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, GridSpec
from .norms import ExponentPair, lp_norm

ADJOINT_MODES = ("discrete", "continuum")


def _resolve_mode(mode: str) -> str:
    if mode not in ADJOINT_MODES:
        raise ValueError(f"adjoint_mode must be one of {ADJOINT_MODES}")
    return mode


@dataclass(frozen=True)
class TransformPlan:
    """Quadrature plan tying an input grid, an output grid, and a t-grid.

    The t-box per x'-axis i is [out_lo'_i - in_hi'_i, out_hi'_i - in_lo'_i],
    capped by |t_i| <= sqrt(out_hi_d - in_lo_d) since larger shifts drop
    below the input box in the last coordinate.
    """

    input: GridSpec
    output: GridSpec = None
    t_step: float | tuple = None
    adjoint_mode: str = "discrete"
    t_axes: tuple[np.ndarray, ...] = field(init=False)
    t_weight: float = field(init=False)

    def __post_init__(self):
        if self.output is None:
            object.__setattr__(self, "output", self.input)
        if self.input.dim != self.output.dim:
            raise ValueError("input and output grids must share the dimension")
        object.__setattr__(self, "adjoint_mode", _resolve_mode(self.adjoint_mode))
        d = self.input.dim
        steps = self.t_step
        if steps is None:
            steps = tuple(self.input.widths[:-1])
        elif np.isscalar(steps):
            steps = (float(steps),) * (d - 1)
        else:
            steps = tuple(float(s) for s in steps)
        if len(steps) != d - 1:
            raise ValueError("need one t step per x' axis")
        for s, h in zip(steps, self.input.widths[:-1]):
            if not (0 < s <= h * (1 + 1e-12)):
                raise ValueError(
                    f"t step {s} must be positive and at most the input cell width {h}"
                )
        object.__setattr__(self, "t_step", steps)

        in_lo, in_hi = self.input.lo, self.input.hi
        out_lo, out_hi = self.output.lo, self.output.hi
        smax = out_hi[-1] - in_lo[-1]
        axes = []
        weight = 1.0
        for i in range(d - 1):
            lo_t = out_lo[i] - in_hi[i]
            hi_t = out_hi[i] - in_lo[i]
            if smax > 0:
                lo_t = max(lo_t, -np.sqrt(smax))
                hi_t = min(hi_t, np.sqrt(smax))
            if smax <= 0 or hi_t <= lo_t:
                axes = [np.empty(0) for _ in range(d - 1)]
                weight = 0.0
                break
            n = int(np.ceil((hi_t - lo_t) / steps[i]))
            h = (hi_t - lo_t) / n
            axes.append(lo_t + (np.arange(n) + 0.5) * h)
            weight *= h
        object.__setattr__(self, "t_axes", tuple(axes))
        object.__setattr__(self, "t_weight", weight)

    @property
    def dim(self) -> int:
        return self.input.dim

    def t_count(self) -> int:
        return int(np.prod([len(a) for a in self.t_axes]))


# -- per-axis interpolation matrices ----------------------------------

def _interp_matrix(src: GridSpec, axis: int, targets: np.ndarray) -> np.ndarray:
    """Dense (targets x source cells) matrix W sampling the axis at `targets`.

    Row j holds the two multilinear weights of target j, 1 - w at cell i0
    and w at i0 + 1 (i0 + w is the target's position in cell coordinates);
    weights on ghost cells outside [0, n) are dropped.
    """
    n = src.counts[axis]
    pos = (targets - src.bounds[axis][0]) / src.widths[axis] - 0.5
    i0 = np.floor(pos).astype(np.int64)
    w1 = pos - i0
    W = np.zeros((len(targets), n))
    for cols, weights in ((i0, 1.0 - w1), (i0 + 1, w1)):
        ok = (cols >= 0) & (cols < n)
        W[np.nonzero(ok)[0], cols[ok]] = weights[ok]
    return W


def _iter_shifts(plan: TransformPlan):
    """Yield (t vector, |t|^2) over the plan's t-grid."""
    for combo in itertools.product(*plan.t_axes):
        t = np.array(combo)
        yield t, float(t @ t)


def _shift_sum(values: np.ndarray, plan: TransformPlan, src: GridSpec,
               dst: GridSpec, sign: float, transpose: bool) -> np.ndarray:
    """t_weight * sum over shifts of the tensor product of per-axis W.

    W interpolates `src` along each axis at the midpoints of `dst` moved by
    sign * (t, |t|^2).  With `transpose`, values live on `dst` and each
    axis gets W^T instead, which is the exact transpose of the sum.
    """
    mids = [dst.axis_midpoints(i) for i in range(plan.dim)]
    acc = np.zeros(src.shape if transpose else dst.shape)
    for t, tsq in _iter_shifts(plan):
        h = values
        for axis, s in enumerate((*t, tsq)):
            W = _interp_matrix(src, axis, mids[axis] + sign * s)
            h = np.moveaxis(np.moveaxis(h, axis, -1) @ (W if transpose else W.T), -1, axis)
        acc += h
    acc *= plan.t_weight
    return acc


# -- the transform ------------------------------------------------------

def forward_transform(f: GridFunction, plan: TransformPlan) -> GridFunction:
    """Tf on the plan's output grid."""
    if f.spec != plan.input:
        raise ValueError("function grid does not match the plan input grid")
    acc = _shift_sum(f.values, plan, plan.input, plan.output, -1.0, transpose=False)
    # sums of products of nonnegative terms stay nonnegative, so signedness
    # only ever comes in through a signed input
    return GridFunction(plan.output, acc, allow_negative=bool(np.any(f.values < 0)))


def forward_at_points(f: GridFunction, points: np.ndarray, plan: TransformPlan) -> np.ndarray:
    """Tf evaluated at arbitrary points with the plan's t-quadrature."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(len(pts))
    for t, tsq in _iter_shifts(plan):
        shifted = pts.copy()
        shifted[:, :-1] -= t
        shifted[:, -1] -= tsq
        out += f.sample_at(shifted)
    return out * plan.t_weight


def adjoint_transform(g: GridFunction, plan: TransformPlan, mode: str | None = None) -> GridFunction:
    """T*g on the plan's input grid.

    ``discrete`` applies the exact matrix transpose of the forward
    quadrature (default); ``continuum`` discretizes the integral
    T*g(y) = int g(y' + t, y_d + |t|^2) dt directly.
    """
    if g.spec != plan.output:
        raise ValueError("function grid does not match the plan output grid")
    mode = _resolve_mode(mode if mode is not None else plan.adjoint_mode)
    in_spec, out_spec = plan.input, plan.output
    if mode == "discrete":
        acc = _shift_sum(g.values, plan, in_spec, out_spec, -1.0, transpose=True)
        # transpose of the L^2(out) -> L^2(in) pairing, not the bare matrix
        acc *= out_spec.cell_volume / in_spec.cell_volume
    else:
        acc = _shift_sum(g.values, plan, out_spec, in_spec, 1.0, transpose=False)
    return GridFunction(in_spec, acc, allow_negative=bool(np.any(g.values < 0)))


def bilinear_form(g: GridFunction, f: GridFunction, plan: TransformPlan) -> float:
    """<g, Tf> with the output grid's quadrature."""
    tf = forward_transform(f, plan)
    return float(np.sum(g.values * tf.values)) * plan.output.cell_volume


def inner(a: GridFunction, b: GridFunction) -> float:
    """Grid L^2 pairing on a shared grid."""
    if a.spec != b.spec:
        raise ValueError("functions live on different grids")
    return float(np.sum(a.values * b.values)) * a.spec.cell_volume


def rayleigh_ratio(f: GridFunction, plan: TransformPlan) -> float:
    """||Tf||_q / ||f||_p at the scale-invariant exponents p = (d+1)/d,
    q = d+1; any value is a lower bound for the discrete operator norm."""
    exps = ExponentPair(plan.dim)
    denom = lp_norm(f, exps.p)
    if denom == 0.0:
        raise ZeroDivisionError("rayleigh ratio of the zero function")
    return lp_norm(forward_transform(f, plan), exps.q) / denom
