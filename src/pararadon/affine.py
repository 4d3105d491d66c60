"""Equi-affine arclength and surface measure from derivative determinants.

For a curve gamma: I -> R^d the density is |det(gamma', ..., gamma^(d))|
to the power 2/(d(d+1)); for a hypersurface chart F: U subset R^{d-1} -> R^d
it is |det(F_ij)|^{1/(d+1)} built from the bordered determinants F_ij whose
first d-1 columns are the Jacobian of F and whose last column is the second
partial in directions (i, j).  Both densities transform by a power of
|det A| under linear maps and are invariant under reparametrization.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np


def _central_difference(fn, t: float, order: int, step: float) -> np.ndarray:
    """Central binomial stencil for the order-th derivative of fn at t."""
    acc = 0.0
    for i in range(order + 1):
        offset = (order / 2.0 - i) * step
        acc = acc + (-1) ** i * math.comb(order, i) * np.asarray(fn(t + offset), dtype=float)
    return acc / step**order


@dataclass(frozen=True, eq=False)
class CurveChart:
    """Curve gamma on an interval with derivative evaluators up to order d.

    `derivatives` maps order k (1..d) to a callable; missing orders fall
    back to central finite differences of gamma with `fd_step`.
    """

    dim: int
    interval: tuple[float, float]
    gamma: object
    derivatives: dict = field(default_factory=dict)
    fd_step: float = None

    def __post_init__(self):
        a, b = self.interval
        if not a < b:
            raise ValueError("empty parameter interval")
        if self.fd_step is None:
            object.__setattr__(self, "fd_step", 1e-4 * (b - a))

    def point(self, t: float) -> np.ndarray:
        return np.asarray(self.gamma(t), dtype=float)

    def derivative(self, order: int, t: float) -> np.ndarray:
        fn = self.derivatives.get(order)
        if fn is not None:
            return np.asarray(fn(t), dtype=float)
        return _central_difference(self.gamma, t, order, self.fd_step)


@dataclass(frozen=True, eq=False)
class SurfaceChart:
    """Hypersurface chart F: U subset R^{d-1} -> R^d with first and second
    partials (analytic callables or central differences of F)."""

    dim: int
    domain: tuple[tuple[float, float], ...]
    F: object
    jacobian: object = None  # t -> (d, d-1)
    hessian: object = None  # t -> (d, d-1, d-1)
    fd_step: float = None

    def __post_init__(self):
        if len(self.domain) != self.dim - 1:
            raise ValueError("domain must have d - 1 axes")
        for lo, hi in self.domain:
            if not lo < hi:
                raise ValueError("empty domain axis")
        if self.fd_step is None:
            w = min(hi - lo for lo, hi in self.domain)
            object.__setattr__(self, "fd_step", 1e-4 * w)
        self._check_mixed_partials()

    def point(self, t) -> np.ndarray:
        return np.asarray(self.F(np.asarray(t, dtype=float)), dtype=float)

    def jac(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(t), dtype=float)
        k = self.dim - 1
        h = self.fd_step
        cols = []
        for j in range(k):
            e = np.zeros(k)
            e[j] = h
            cols.append((self.point(t + e) - self.point(t - e)) / (2 * h))
        return np.stack(cols, axis=1)

    def hess(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.hessian is not None:
            return np.asarray(self.hessian(t), dtype=float)
        k = self.dim - 1
        h = self.fd_step
        out = np.empty((self.dim, k, k))
        for i in range(k):
            for j in range(i, k):
                ei = np.zeros(k)
                ei[i] = h
                ej = np.zeros(k)
                ej[j] = h
                if i == j:
                    val = (self.point(t + ei) - 2 * self.point(t) + self.point(t - ei)) / h**2
                else:
                    val = (
                        self.point(t + ei + ej)
                        - self.point(t + ei - ej)
                        - self.point(t - ei + ej)
                        + self.point(t - ei - ej)
                    ) / (4 * h**2)
                out[:, i, j] = val
                out[:, j, i] = val
        return out

    def _check_mixed_partials(self) -> None:
        if self.hessian is None:
            return  # finite differences are symmetric by construction
        rng = np.random.default_rng(0)
        lo = np.array([b[0] for b in self.domain])
        hi = np.array([b[1] for b in self.domain])
        for _ in range(5):
            t = lo + (hi - lo) * rng.random(len(lo))
            H = np.asarray(self.hessian(t), dtype=float)
            if np.abs(H - np.swapaxes(H, 1, 2)).max() > 1e-8 * (1.0 + np.abs(H).max()):
                raise ValueError("second partials must be symmetric in (i, j)")


# -- densities ------------------------------------------------------------

def _check_inside(box, t) -> None:
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not all(lo <= x <= hi for x, (lo, hi) in zip(t, box)):
        raise ValueError(f"parameter {t} outside the chart domain {box}")


def arclength_density(chart: CurveChart, t: float) -> float:
    """|det(gamma'(t), ..., gamma^(d)(t))| ** (2 / (d (d+1)))."""
    _check_inside((chart.interval,), t)
    d = chart.dim
    cols = np.stack([chart.derivative(k, t) for k in range(1, d + 1)], axis=1)
    det = abs(np.linalg.det(cols))
    return det ** (2.0 / (d * (d + 1.0)))


def surface_density(chart: SurfaceChart, t) -> float:
    """|det(F_ij(t))| ** (1 / (d+1)) from the bordered determinants."""
    _check_inside(chart.domain, t)
    return abs(bordered_determinant(chart, t)) ** (1.0 / (chart.dim + 1.0))


def bordered_determinant(chart: SurfaceChart, t) -> float:
    """det(F_ij(t)) with sign, the quantity under the 1/(d+1) root."""
    d = chart.dim
    k = d - 1
    J = chart.jac(t)
    H = chart.hess(t)
    M = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            M[i, j] = np.linalg.det(np.concatenate([J, H[:, i, j][:, None]], axis=1))
    return float(np.linalg.det(M))


# -- measures --------------------------------------------------------------

# What a curve or a surface chart brings to the quadratures: boxes hold one (lo, hi) per
# axis, `param` maps a grid node to the chart's parameter, `det` deriv1 to det Dphi.
_Split = namedtuple("_Split", "domain box param density exponent det compose")


def _split(chart, region=None) -> _Split:
    d = chart.dim
    if isinstance(chart, CurveChart):
        box = (tuple(chart.interval if region is None else region),)
        return _Split((chart.interval,), box, lambda node: node[0],
                      lambda t: arclength_density(chart, t), 2.0 / (d * (d + 1.0)), float,
                      lambda phi: compose_curve(chart, phi, box[0]))
    if isinstance(chart, SurfaceChart):
        box = chart.domain if region is None else tuple(region)
        return _Split(chart.domain, box, np.array, lambda t: surface_density(chart, t),
                      (d - 1.0) / (d + 1.0),
                      lambda D: np.linalg.det(np.asarray(D, dtype=float)),
                      lambda phi: compose_surface(chart, phi, box))
    raise TypeError("chart must be a CurveChart or a SurfaceChart")


def _midpoint_grid(box, step: float):
    """Midpoint-rule nodes of a box (last axis fastest) and the cell volume;
    each axis gets ceil(width / step) cells, at least one."""
    axes = []
    weight = 1.0
    for lo, hi in box:
        n = max(int(math.ceil((hi - lo) / step)), 1)
        h = (hi - lo) / n
        axes.append(lo + (np.arange(n) + 0.5) * h)
        weight *= h
    return itertools.product(*axes), weight


def measure(chart, region=None, step: float = 1e-3) -> float:
    """Midpoint quadrature of the density over an interval (curves) or a
    box (surfaces); the region defaults to the chart's own domain, and an
    empty or reversed region has measure 0."""
    split = _split(chart, region)
    for (lo, hi), (dlo, dhi) in zip(split.box, split.domain):
        if not (dlo - 1e-12 <= lo and hi <= dhi + 1e-12):
            raise ValueError("region escapes the chart domain")
    if any(lo >= hi for lo, hi in split.box):
        return 0.0
    nodes, weight = _midpoint_grid(split.box, step)
    return float(sum(split.density(split.param(node)) for node in nodes) * weight)


# -- linear action ------------------------------------------------------------

def apply_linear(chart, A: np.ndarray):
    """The chart A o chart; derivatives compose exactly (A is linear)."""
    A = np.asarray(A, dtype=float)
    if isinstance(chart, CurveChart):
        derivs = {
            k: (lambda t, k=k: A @ chart.derivative(k, t)) for k in range(1, chart.dim + 1)
        }
        return CurveChart(chart.dim, chart.interval, lambda t: A @ chart.point(t),
                          derivs, chart.fd_step)
    if isinstance(chart, SurfaceChart):
        return SurfaceChart(
            chart.dim,
            chart.domain,
            lambda t: A @ chart.point(t),
            jacobian=lambda t: A @ chart.jac(t),
            hessian=lambda t: np.einsum("ab,bij->aij", A, chart.hess(t)),
            fd_step=chart.fd_step,
        )
    raise TypeError("chart must be a CurveChart or a SurfaceChart")


def affine_invariance_defect(chart, A: np.ndarray, region=None, step: float = 1e-3) -> float:
    """Relative defect of measure(A o chart) against |det A|^e measure(chart)
    with e = 2/(d(d+1)) for curves and (d-1)/(d+1) for surfaces."""
    A = np.asarray(A, dtype=float)
    det = np.linalg.det(A)
    if det == 0:
        raise ValueError("A must be invertible")
    base = measure(chart, region, step)
    if base == 0:
        raise ValueError("the chart has measure 0 on the region, so no relative defect exists")
    mapped = measure(apply_linear(chart, A), region, step)
    return abs(mapped - abs(det) ** _split(chart).exponent * base) / base


# -- reparametrization ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Reparam:
    """Change of parameters with derivative evaluators.

    Curves: value/deriv1/deriv2/deriv3 are scalar functions.  Surfaces:
    value maps R^{d-1} -> R^{d-1}, deriv1 returns the Jacobian matrix and
    deriv2 the Hessian stack (k, k, k), indexed [component, i, j].
    """

    value: object
    deriv1: object
    deriv2: object = None
    deriv3: object = None

    def second(self, t):
        if self.deriv2 is None:  # zero second derivatives, shaped like deriv2
            shape = np.shape(self.deriv1(t))
            return np.zeros(shape[:1] + shape)
        return self.deriv2(t)

    def third(self, t):
        if self.deriv3 is None:
            return 0.0 * np.asarray(self.deriv1(t))
        return self.deriv3(t)


def compose_curve(chart: CurveChart, phi: Reparam, interval) -> CurveChart:
    """gamma o phi with chain-rule derivatives up to order 3; higher orders
    fall back to finite differences of the composed map."""
    g = chart.derivative

    def d1(t):
        return g(1, phi.value(t)) * phi.deriv1(t)

    def d2(t):
        s, s1, s2 = phi.value(t), phi.deriv1(t), phi.second(t)
        return g(2, s) * s1**2 + g(1, s) * s2

    def d3(t):
        s, s1, s2, s3 = phi.value(t), phi.deriv1(t), phi.second(t), phi.third(t)
        return g(3, s) * s1**3 + 3.0 * g(2, s) * s1 * s2 + g(1, s) * s3

    derivs = {1: d1, 2: d2, 3: d3}
    derivs = {k: v for k, v in derivs.items() if k <= chart.dim}
    return CurveChart(chart.dim, tuple(interval), lambda t: chart.point(phi.value(t)),
                      derivs, chart.fd_step)


def compose_surface(chart: SurfaceChart, phi: Reparam, domain) -> SurfaceChart:
    """F o phi with chain-rule first and second partials."""

    def jac(t):
        return chart.jac(phi.value(t)) @ np.asarray(phi.deriv1(t), dtype=float)

    def hess(t):
        s = phi.value(t)
        D = np.asarray(phi.deriv1(t), dtype=float)
        H_phi = np.asarray(phi.second(t), dtype=float)
        H_F = chart.hess(s)
        out = np.einsum("akl,ki,lj->aij", H_F, D, D)
        out += np.einsum("ak,kij->aij", chart.jac(s), H_phi)
        return out

    return SurfaceChart(chart.dim, tuple(domain), lambda t: chart.point(phi.value(t)),
                        jacobian=jac, hessian=hess, fd_step=chart.fd_step)


def reparam_invariance_defect(chart, phi: Reparam, region, step: float = 1e-3) -> float:
    """Relative defect between measure(chart o phi, V) and the mapped-region
    measure of the chart over phi(V), the latter evaluated in the V
    coordinates by the substitution rule (density(phi(s)) |det Dphi(s)|).
    Nonzero det Dphi of both signs on the grid rejects phi as not injective."""
    split = _split(chart, region)
    nodes, weight = _midpoint_grid(split.box, step)
    params = [split.param(node) for node in nodes]
    dets = [split.det(phi.deriv1(s)) for s in params]
    if min(dets) < 0 < max(dets):
        raise ValueError("reparametrization must be injective on the region")
    lhs = measure(split.compose(phi), region, step)
    rhs = sum(split.density(phi.value(s)) * abs(g) for s, g in zip(params, dets)) * weight
    if rhs == 0:
        raise ValueError("the chart has measure 0 on phi(region), so no relative defect exists")
    return abs(lhs - rhs) / rhs


# -- the built-in chart library ---------------------------------------------------

def parabola_chart(interval=(0.0, 1.0), analytic: bool = True) -> CurveChart:
    derivs = {1: lambda t: np.array([1.0, 2.0 * t]), 2: lambda t: np.array([0.0, 2.0])}
    return CurveChart(2, tuple(interval), lambda t: np.array([t, t * t]),
                      derivs if analytic else {})


def circle_chart(interval=(0.0, 2.0 * math.pi)) -> CurveChart:
    derivs = {
        1: lambda t: np.array([-math.sin(t), math.cos(t)]),
        2: lambda t: np.array([-math.cos(t), -math.sin(t)]),
    }
    return CurveChart(2, tuple(interval), lambda t: np.array([math.cos(t), math.sin(t)]),
                      derivs)


def polynomial_graph_chart(coefficients, interval=(0.0, 1.0)) -> CurveChart:
    """Curve t -> (t, p(t)) for the polynomial with the given coefficients
    (highest degree first, numpy convention)."""
    c = np.asarray(coefficients, dtype=float)
    c1 = np.polyder(c)
    c2 = np.polyder(c1)
    derivs = {
        1: lambda t: np.array([1.0, np.polyval(c1, t)]),
        2: lambda t: np.array([0.0, np.polyval(c2, t)]),
    }
    return CurveChart(2, tuple(interval),
                      lambda t: np.array([t, np.polyval(c, t)]), derivs)


def paraboloid_chart(d: int, halfwidth: float = 1.0, analytic: bool = True) -> SurfaceChart:
    """Graph chart t -> (t, |t|^2) over a centered box in R^{d-1}."""
    k = d - 1
    domain = tuple((-halfwidth, halfwidth) for _ in range(k))

    def F(t):
        t = np.asarray(t, dtype=float)
        return np.concatenate([t, [float(t @ t)]])

    def jac(t):
        t = np.asarray(t, dtype=float)
        return np.concatenate([np.eye(k), 2.0 * t[None, :]], axis=0)

    def hess(t):
        out = np.zeros((d, k, k))
        out[-1] = 2.0 * np.eye(k)
        return out

    if analytic:
        return SurfaceChart(d, domain, F, jacobian=jac, hessian=hess)
    return SurfaceChart(d, domain, F)


def chart_by_name(name: str, **params):
    """Chart library lookup: parabola, circle, paraboloid, polynomial."""
    name = name.lower()
    if name == "parabola":
        return parabola_chart(params.get("interval", (0.0, 1.0)))
    if name == "circle":
        return circle_chart(params.get("interval", (0.0, 2.0 * math.pi)))
    if name == "paraboloid":
        return paraboloid_chart(params.get("dim", 3), params.get("halfwidth", 1.0))
    if name == "polynomial":
        if "coefficients" not in params:
            raise ValueError("polynomial chart needs coefficients")
        return polynomial_graph_chart(params["coefficients"],
                                      params.get("interval", (0.0, 1.0)))
    raise ValueError(f"unknown chart name: {name}")
