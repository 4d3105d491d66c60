"""Fixed-point search for extremizers of the transform's L^p -> L^q ratio.

Stationary points of the damped iteration

    f  <-  normalize((1 - theta) f + theta * normalize((T*[(Tf)^d])^d))

solve the optimality condition T*[(Tf)^d] = A^{d+1} f^{1/d} at unit L^p
norm; with the exact discrete transpose the multiplier at a discrete
fixed point is exactly the d+1 power of the ratio.  Every recorded ratio
is a lower bound for the discrete operator norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, GridSpec
from .norms import ExponentPair, lp_norm, rough_decompose
from .operator import TransformPlan, adjoint_transform, forward_transform
from .symmetry import GroupElement, pullback


@dataclass(frozen=True)
class TraceStep:
    index: int
    phi: float
    residual: float
    pnorm_drift: float


@dataclass(frozen=True, eq=False)
class ExtremizeTrace:
    steps: tuple[TraceStep, ...]
    final: GridFunction
    a_estimate: float

    def __post_init__(self):
        if any(s.phi <= 0 for s in self.steps):
            raise ValueError("ratio values must be positive")
        if self.steps and abs(self.a_estimate - max(s.phi for s in self.steps)) > 0:
            raise ValueError("the estimate must be the largest recorded ratio")

    def phis(self) -> np.ndarray:
        return np.array([s.phi for s in self.steps])

    def residuals(self) -> np.ndarray:
        return np.array([s.residual for s in self.steps])

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("iter,phi,residual,pnorm\n")
            for s in self.steps:
                fh.write(f"{s.index},{s.phi:.17g},{s.residual:.17g},{1.0 + s.pnorm_drift:.17g}\n")


def _normalized(f: GridFunction, p: float) -> GridFunction:
    n = lp_norm(f, p)
    if n == 0:
        raise ValueError("cannot normalize the zero function")
    return f.with_values(f.values / n)


def _step_data(f: GridFunction, plan: TransformPlan):
    """Shared per-iteration quantities: Tf, ratio, T*[(Tf)^d], residual."""
    d = plan.dim
    exps = ExponentPair(d)
    tf = forward_transform(f, plan)
    phi = lp_norm(tf, exps.q)  # f is unit-normalized by the callers
    u = adjoint_transform(tf.with_values(tf.values**d), plan)
    target = phi ** (d + 1) * f.values ** (1.0 / d)
    denom = math.sqrt(float(np.sum(target**2)))
    residual = math.sqrt(float(np.sum((u.values - target) ** 2))) / denom
    return tf, phi, u, residual


def _start(f: GridFunction, plan: TransformPlan, theta: float):
    """Check the damping and the start, before any transform; returns the
    unit-L^p start with d and p."""
    if not (0 < theta <= 1):
        raise ValueError("damping must lie in (0, 1]")
    if f.is_zero():
        raise ValueError("cannot iterate from the zero function")
    d = plan.dim
    p = ExponentPair(d).p
    return _normalized(f, p), d, p


def _damped_update(f: GridFunction, u: GridFunction, d: int, p: float,
                   theta: float) -> GridFunction:
    """normalize((1 - theta) f + theta normalize(u^d)) for unit-norm f, u = T*[(Tf)^d]."""
    candidate = _normalized(u.with_values(u.values**d), p)
    mixed = (1.0 - theta) * f.values + theta * candidate.values
    return _normalized(f.with_values(mixed), p)


def el_residual(f: GridFunction, plan: TransformPlan) -> float:
    """Relative grid-L^2 defect of the optimality condition
    ||T*[(Tf)^d] - phi^{d+1} f^{1/d}|| / ||phi^{d+1} f^{1/d}|| at unit norm."""
    if f.is_zero():
        raise ValueError("residual of the zero function")
    f = _normalized(f, ExponentPair(plan.dim).p)
    return _step_data(f, plan)[3]


def el_iterate(f: GridFunction, plan: TransformPlan, theta: float = 0.5) -> GridFunction:
    """One damped fixed-point step; the output has unit L^p norm."""
    f, d, p = _start(f, plan, theta)
    _, _, u, _ = _step_data(f, plan)
    return _damped_update(f, u, d, p, theta)


def extremize(f0: GridFunction, plan: TransformPlan, max_iters: int = 500,
              tol: float = 1e-6, theta: float = 0.5) -> ExtremizeTrace:
    """Iterate until the ratio plateaus (relative change below `tol` on two
    consecutive steps, guarding against a single small step) or `max_iters`;
    records (ratio, residual, norm drift) per step."""
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    f, d, p = _start(f0, plan, theta)
    steps = []
    prev_phi = None
    small_changes = 0
    for k in range(max_iters + 1):
        _, phi, u, residual = _step_data(f, plan)
        steps.append(TraceStep(k, phi, residual, abs(lp_norm(f, p) - 1.0)))
        if prev_phi is not None:
            small_changes = small_changes + 1 if abs(phi - prev_phi) < tol * phi else 0
            if small_changes >= 2:
                break
        if k == max_iters:
            break
        prev_phi = phi
        f = _damped_update(f, u, d, p, theta)
    return ExtremizeTrace(tuple(steps), f, max(s.phi for s in steps))


def gaussian_init(spec: GridSpec, sigma: float = 1.0) -> GridFunction:
    """Isotropic Gaussian bump restricted to the grid box."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return GridFunction.from_callable(
        spec, lambda x: np.exp(-np.sum(x * x, axis=1) / (2.0 * sigma * sigma))
    )


# -- symmetry renormalization ------------------------------------------------

def renormalize(f: GridFunction) -> tuple[GroupElement, GridFunction]:
    """Center and rescale through the symmetry group: the returned element
    combines the parabolic dilation that moves the dominant dyadic level
    (largest 2^j |E_j|^{1/p}) to level 0 with the translation that moves
    the f^p centroid to the origin.  The pullback is resampled on an
    adapted grid, preserving the L^p norm up to quadrature.
    """
    if f.is_zero():
        raise ValueError("cannot renormalize the zero function")
    d = f.dim
    p = ExponentPair(d).p
    dec = rough_decompose(f)
    scores = dec.scores(p)
    j_star = max(scores, key=scores.get)
    r = 2.0 ** (-j_star / d)
    w = f.values.ravel() ** p
    w = w / w.sum()
    centroid = w @ f.spec.midpoints()
    k = d - 1
    el = GroupElement(r * np.eye(k), centroid[:-1], r * r, float(centroid[-1]), np.zeros(k))
    return el, pullback(el, f)


# -- structural diagnostics ----------------------------------------------------

def positivity_profile(f: GridFunction, boxes) -> list[tuple[tuple, float]]:
    """Minimum of f over the cells with midpoint in each closed box."""
    mids = f.spec.midpoints()
    flat = f.values.ravel()
    out = []
    for lo, hi in boxes:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        inside = np.all((mids >= lo) & (mids <= hi), axis=1)
        if not np.any(inside):
            raise ValueError(f"box [{lo}, {hi}] contains no cell midpoints")
        out.append(((tuple(lo), tuple(hi)), float(flat[inside].min())))
    return out


def decay_profile(f: GridFunction) -> list[tuple[float, float]]:
    """Per-shell minima of f over the paraboloid tube |x_d - |x'|^2| < 1,
    binned by |x'| in shells of width 1/2; empty shells are omitted.  Each row
    carries the largest tube-cell radius of its shell (where the minimum
    of a decaying profile sits); fit the exponent with :func:`decay_exponent`.
    """
    shell_width = 0.5
    mids = f.spec.midpoints()
    rp = np.linalg.norm(mids[:, :-1], axis=1)
    tube = np.abs(mids[:, -1] - rp**2) < 1.0
    flat = f.values.ravel()
    rows = []
    nbins = int(math.ceil(rp[tube].max() / shell_width)) if np.any(tube) else 0
    for b in range(nbins):
        sel = tube & (rp >= b * shell_width) & (rp < (b + 1) * shell_width)
        if not np.any(sel):
            continue
        rows.append((float(rp[sel].max()), float(flat[sel].min())))
    return rows


def decay_exponent(profile) -> float:
    """Least-squares slope of log(min) against log(1 + r) over the shells
    with positive minima."""
    pts = [(r, m) for r, m in profile if m > 0]
    if len(pts) < 2:
        raise ValueError("need at least two shells with positive minima")
    x = np.log1p([r for r, _ in pts])
    y = np.log([m for _, m in pts])
    return float(np.polyfit(x, y, 1)[0])


# -- smooth frequency splitting --------------------------------------------------

def _smooth_cutoff(s: np.ndarray) -> np.ndarray:
    """Radial C^infinity profile: 1 on s <= 2, 0 on s >= 4."""
    out = np.zeros_like(s)
    out[s <= 2.0] = 1.0
    mid = (s > 2.0) & (s < 4.0)
    if np.any(mid):
        u = (4.0 - s[mid]) / 2.0  # 1 at the inner edge, 0 at the outer

        def bump(t):
            v = np.zeros_like(t)
            pos = t > 0
            v[pos] = np.exp(-1.0 / t[pos])
            return v

        out[mid] = bump(u) / (bump(u) + bump(1.0 - u))
    return out


def frequency_split(g: GridFunction, rho: float) -> tuple[GridFunction, GridFunction]:
    """Split g into low/high frequency parts with the multiplier 1 - zeta(xi/rho).

    zeta is radial, identically 1 for |xi| <= 2 and 0 for |xi| >= 4, so the
    high-pass part g_flat vanishes for band-limited input and g_sharp is the
    complement g - g_flat (additivity holds by construction).  The grid is
    treated as one period of a periodic box.
    """
    rho = float(rho)
    if rho < 1:
        raise ValueError("rho must be at least 1")
    freqs = np.meshgrid(
        *[2.0 * math.pi * np.fft.fftfreq(n, d=h) for n, h in zip(g.spec.counts, g.spec.widths)],
        indexing="ij",
    )
    xi = np.sqrt(sum(f * f for f in freqs))
    symbol = 1.0 - _smooth_cutoff(xi / rho)
    ghat = np.fft.fftn(g.values)
    flat_vals = np.fft.ifftn(symbol * ghat).real
    g_flat = GridFunction(g.spec, flat_vals, allow_negative=True)
    g_sharp = GridFunction(g.spec, g.values - g_flat.values, allow_negative=True)
    return g_sharp, g_flat
