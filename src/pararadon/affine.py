"""Equi-affine surface measure of a hypersurface chart.

A chart F: U subset R^{d-1} -> R^d has density |det(F_ij)|^{1/(d+1)}, built
from the bordered determinants F_ij whose first d-1 columns are the Jacobian
of F and whose last column is the second partial in directions (i, j).  A
plane curve gamma is the d = 2 chart on one interval: (F_ij) is the 1 x 1
matrix det(gamma', gamma''), and the density is affine arclength.  The
density transforms by |det A|^{(d-1)/(d+1)} under linear maps and is
invariant under reparametrization.  Every chart carries its first and
second partials as analytic callables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import midpoint_axis


@dataclass(frozen=True, eq=False)
class SurfaceChart:
    """Hypersurface chart F: U subset R^{d-1} -> R^d with its analytic
    first and second partials."""

    dim: int
    domain: tuple[tuple[float, float], ...]
    F: object
    jacobian: object  # t -> (d, d-1)
    hessian: object  # t -> (d, d-1, d-1)

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"a chart needs d >= 2, got d = {self.dim}")
        if len(self.domain) != self.dim - 1:
            raise ValueError("domain must have d - 1 axes")
        for lo, hi in self.domain:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"domain bounds must be finite, got [{lo}, {hi}]")
            if not lo < hi:
                raise ValueError("empty domain axis")
        self._check_mixed_partials()

    def point(self, t) -> np.ndarray:
        return np.asarray(self.F(np.asarray(t, dtype=float)), dtype=float)

    def jac(self, t) -> np.ndarray:
        return np.asarray(self.jacobian(np.asarray(t, dtype=float)), dtype=float)

    def hess(self, t) -> np.ndarray:
        return np.asarray(self.hessian(np.asarray(t, dtype=float)), dtype=float)

    def _check_mixed_partials(self) -> None:
        rng = np.random.default_rng(0)
        lo = np.array([b[0] for b in self.domain])
        hi = np.array([b[1] for b in self.domain])
        for _ in range(5):
            t = lo + (hi - lo) * rng.random(len(lo))
            H = np.asarray(self.hessian(t), dtype=float)
            if np.abs(H - np.swapaxes(H, 1, 2)).max() > 1e-8 * (1.0 + np.abs(H).max()):
                raise ValueError("second partials must be symmetric in (i, j)")


# -- densities ------------------------------------------------------------

def surface_density(chart: SurfaceChart, t) -> float:
    """|det(F_ij(t))| ** (1 / (d+1)) from the bordered determinants; at
    d = 2 this is affine arclength, and t may be a scalar."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not all(lo <= x <= hi for x, (lo, hi) in zip(t, chart.domain)):
        raise ValueError(f"parameter {t} outside the chart domain {chart.domain}")
    k = chart.dim - 1
    bordered = np.empty((k, k, k + 1, k + 1))  # [i, j] holds (J | H[:, i, j])
    bordered[..., :k] = chart.jac(t)
    bordered[..., k] = chart.hess(t).transpose(1, 2, 0)
    return abs(float(np.linalg.det(np.linalg.det(bordered)))) ** (1.0 / (chart.dim + 1.0))


# -- measures --------------------------------------------------------------

# the most nodes a measure evaluates: each is a Python-level surface_density
# call of 26-39 us, so 2^24 nodes take about 8 minutes; the paraboloid
# chart's default has 4e6
_MAX_NODES = 1 << 24


def _midpoint_grid(box, step: float):
    """Midpoint-rule nodes of a box (last axis fastest) and the cell volume;
    each axis gets ceil(width / step) cells, at least one.  The nodes are
    lazy, and their count is checked, in Python ints, before any exists."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError("step must be positive")
    cells = [(hi - lo) / step for lo, hi in box]
    # an axis whose cell count overflows (a wide region, a subnormal step) has infinitely many
    counts = [max(math.ceil(c), 1) if c < math.inf else math.inf for c in cells]
    if math.prod(counts) > _MAX_NODES:
        shape = " x ".join(f"{c:.3g}" for c in cells)
        raise ValueError(f"step {step!r} gives the region {tuple(box)} {shape} cells, more "
                         f"than the budget of {_MAX_NODES} midpoint nodes")
    axes = []
    weight = 1.0
    for (lo, hi), n in zip(box, counts):
        nodes, h = midpoint_axis(lo, hi, n)
        axes.append(nodes)
        weight *= h
    return itertools.product(*axes), weight


def _left_sum(terms) -> float:
    """Left-to-right float sum, the same bits on every Python; the builtin
    sum is compensated from Python 3.12 on."""
    total = 0.0
    for term in terms:
        total += term
    return total


def measure(chart: SurfaceChart, step: float = 1e-3) -> float:
    """Midpoint quadrature of the density over the chart's domain."""
    nodes, weight = _midpoint_grid(chart.domain, step)
    return float(_left_sum(surface_density(chart, np.array(node)) for node in nodes) * weight)


# -- linear action ------------------------------------------------------------

def apply_linear(chart: SurfaceChart, A: np.ndarray) -> SurfaceChart:
    """The chart A o chart; derivatives compose exactly (A is linear)."""
    A = np.asarray(A, dtype=float)
    return SurfaceChart(
        chart.dim,
        chart.domain,
        lambda t: A @ chart.point(t),
        jacobian=lambda t: A @ chart.jac(t),
        hessian=lambda t: np.einsum("ab,bij->aij", A, chart.hess(t)),
    )


def affine_invariance_defect(chart: SurfaceChart, A: np.ndarray, step: float = 1e-3) -> float:
    """Relative defect of measure(A o chart) against
    |det A|^((d-1)/(d+1)) measure(chart)."""
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise ValueError("A must be finite")
    det = np.linalg.det(A)
    if det == 0:
        raise ValueError("A must be invertible")
    base = measure(chart, step)
    if base == 0:
        raise ValueError("the chart has measure 0, so no relative defect exists")
    mapped = measure(apply_linear(chart, A), step)
    d = chart.dim
    return abs(mapped - abs(det) ** ((d - 1.0) / (d + 1.0)) * base) / base


# -- the built-in chart library ---------------------------------------------------

def _plane_curve(interval, gamma, d1, d2) -> SurfaceChart:
    """The d = 2 chart of t -> gamma(t) on one interval, with gamma' = d1
    and gamma'' = d2."""
    return SurfaceChart(2, (tuple(interval),), lambda t: gamma(t[0]),
                        jacobian=lambda t: d1(t[0])[:, None],
                        hessian=lambda t: d2(t[0])[:, None, None])


def parabola_chart(interval=(0.0, 1.0)) -> SurfaceChart:
    return _plane_curve(interval, lambda t: np.array([t, t * t]),
                        lambda t: np.array([1.0, 2.0 * t]), lambda t: np.array([0.0, 2.0]))


def circle_chart(interval=(0.0, 2.0 * math.pi)) -> SurfaceChart:
    return _plane_curve(interval, lambda t: np.array([math.cos(t), math.sin(t)]),
                        lambda t: np.array([-math.sin(t), math.cos(t)]),
                        lambda t: np.array([-math.cos(t), -math.sin(t)]))


def polynomial_graph_chart(coefficients, interval=(0.0, 1.0)) -> SurfaceChart:
    """Curve t -> (t, p(t)) for the polynomial with the given coefficients
    (highest degree first, numpy convention)."""
    c = np.asarray(coefficients, dtype=float)
    if not np.isfinite(c).all():
        raise ValueError(f"coefficients must be finite, got {list(coefficients)}")
    c1 = np.polyder(c)
    c2 = np.polyder(c1)
    return _plane_curve(interval, lambda t: np.array([t, np.polyval(c, t)]),
                        lambda t: np.array([1.0, np.polyval(c1, t)]),
                        lambda t: np.array([0.0, np.polyval(c2, t)]))


def paraboloid_chart(dim: int = 3, halfwidth: float = 1.0) -> SurfaceChart:
    """Graph chart t -> (t, |t|^2) over a centered box in R^{d-1}."""
    k = dim - 1
    domain = tuple((-halfwidth, halfwidth) for _ in range(k))

    def F(t):
        t = np.asarray(t, dtype=float)
        return np.concatenate([t, [float(t @ t)]])

    def jac(t):
        t = np.asarray(t, dtype=float)
        return np.concatenate([np.eye(k), 2.0 * t[None, :]], axis=0)

    def hess(t):
        out = np.zeros((dim, k, k))
        out[-1] = 2.0 * np.eye(k)
        return out

    return SurfaceChart(dim, domain, F, jacobian=jac, hessian=hess)


# the chart library; each function's signature holds its defaults
CHARTS = {"parabola": parabola_chart, "circle": circle_chart,
          "paraboloid": paraboloid_chart, "polynomial": polynomial_graph_chart}
