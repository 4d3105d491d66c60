"""Deterministic instance generators shared by the test suite and the
built-in selftest: smooth bumps, sparse random grid functions, moderate
group elements, and random paraballs / dual pairs.
"""

from __future__ import annotations

import numpy as np

from .grid import GridFunction, GridSpec
from .paraball import Paraball, from_incidence
from .symmetry import GroupElement


def smooth_bump(spec: GridSpec, center=None, radius: float = 1.0) -> GridFunction:
    """Compactly supported C^infinity bump exp(-1/(1 - |x - c|^2/R^2))."""
    center = np.zeros(spec.dim) if center is None else np.asarray(center, dtype=float)

    def fn(pts):
        r2 = np.sum((pts - center) ** 2, axis=1) / radius**2
        out = np.zeros(len(pts))
        inside = r2 < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        return out

    return GridFunction.from_callable(spec, fn)


def random_function(spec: GridSpec, rng, scale: float = 1.0) -> GridFunction:
    """Nonnegative random values in [0, scale), with about 40% empty cells."""
    vals = rng.random(spec.shape) * scale
    vals[rng.random(spec.shape) < 0.4] = 0.0
    if not vals.any():
        vals.flat[0] = scale
    return GridFunction(spec, vals)


def random_matrix(rng, k: int, smin: float, smax: float) -> np.ndarray:
    """Well-conditioned k x k matrix with singular values in [smin, smax]."""
    q1, _ = np.linalg.qr(rng.standard_normal((k, k)))
    q2, _ = np.linalg.qr(rng.standard_normal((k, k)))
    s = rng.uniform(smin, smax, k)
    return q1 @ np.diag(s) @ q2


def random_element(rng, d: int, moderate: bool = True) -> GroupElement:
    """Random group element; `moderate` keeps every parameter magnitude
    at most 2 and conditioning bounded away from singular."""
    k = d - 1
    if moderate:
        L = random_matrix(rng, k, 0.5, 2.0)
        t = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        u = rng.uniform(-1.5, 1.5, k)
        v = rng.uniform(-1.5, 1.5, k)
        a = rng.uniform(-1.5, 1.5)
    else:
        L = random_matrix(rng, k, 0.2, 5.0)
        t = rng.uniform(0.2, 5.0) * rng.choice([-1.0, 1.0])
        u = rng.standard_normal(k) * 3.0
        v = rng.standard_normal(k) * 3.0
        a = rng.standard_normal() * 3.0
    return GroupElement(L, u, t, a, v)


def random_orthonormal(rng, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))[None, :]


def random_paraball(rng, d: int, rho: float | None = None) -> Paraball:
    """Random primal paraball with moderate geometry."""
    k = d - 1
    base_prime = rng.uniform(-2.0, 2.0, k)
    base_d = rng.uniform(-2.0, 2.0)
    apex_prime = base_prime + rng.uniform(-1.0, 1.0, k)
    basis = random_orthonormal(rng, k)
    radii = rng.uniform(0.4, 2.5, k)
    if rho is None:
        rho = rng.uniform(0.4, 2.5)
    return from_incidence(base_prime, base_d, apex_prime, basis, radii, float(rho), 1)


def random_paraball_pair(rng, d: int, shared_rho: bool = True):
    """Two random paraballs; with `shared_rho` they carry one thickness,
    the regime where the dual-pair identity for the quasidistance is exact."""
    rho = rng.uniform(0.4, 2.5)
    a = random_paraball(rng, d, rho)
    b = random_paraball(rng, d, rho if shared_rho else None)
    return a, b
