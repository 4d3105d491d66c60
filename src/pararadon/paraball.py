"""Paraballs: parabolic slabs over ellipsoids, their duals, the
quasidistance between them, the symmetry-group action, and the greedy /
partition constructions built on them.

A paraball is the set of x with

    sum_j r_j^{-2} <x' - base', e_j>^2 < 1   and
    |x_d - apex_d - s |x' - apex'|^2| < rho,

where the orientation s = +1 for primal balls and -1 for duals.  The base
lies on the slab's parabolic sheet: base_d - apex_d = s |base' - apex'|^2.
The dual ball swaps base and apex, flips s, and inverts the radii through
r_j r*_j = rho.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, GridSpec
from .norms import ExponentPair, lp_norm, rough_decompose
from .operator import TransformPlan, forward_transform, rayleigh_ratio
from .symmetry import GroupElement, apply_point, incidence, inverse, invert_partner_point

# greedy_cover stops once a fitted piece captures less than this fraction of ||f||_p
CAPTURE_TOL = 0.05


def unit_ball_volume(k: int) -> float:
    """Volume of the unit Euclidean ball in R^k."""
    if k == 1:
        return 2.0
    if k == 2:
        return math.pi
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


@dataclass(frozen=True, eq=False)
class Paraball:
    base: np.ndarray
    apex: np.ndarray
    basis: np.ndarray  # rows e_1..e_{d-1}, orthonormal
    radii: np.ndarray
    rho: float
    sign: int = 1
    _dual_radii: np.ndarray = None

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        apex = np.asarray(self.apex, dtype=float)
        d = len(base)
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        radii = np.atleast_1d(np.asarray(self.radii, dtype=float))
        rho = float(self.rho)
        sign = int(self.sign)
        if apex.shape != (d,) or basis.shape != (d - 1, d - 1) or radii.shape != (d - 1,):
            raise ValueError("inconsistent paraball data shapes")
        if sign not in (1, -1):
            raise ValueError("orientation sign must be +1 or -1")
        if rho <= 0 or np.any(radii <= 0):
            raise ValueError("radii and thickness must be positive")
        gram = basis @ basis.T
        if np.abs(gram - np.eye(d - 1)).max() > 1e-12:
            raise ValueError("basis must be orthonormal")
        diff = base[:-1] - apex[:-1]
        defect = base[-1] - apex[-1] - sign * float(diff @ diff)
        scale = 1.0 + abs(base[-1]) + abs(apex[-1]) + float(diff @ diff)
        if abs(defect) > 1e-8 * scale:
            raise ValueError("base must lie on the slab sheet through the apex")
        dual_radii = self._dual_radii
        if dual_radii is None:
            dual_radii = rho / radii
        else:
            dual_radii = np.atleast_1d(np.asarray(dual_radii, dtype=float))
            if np.abs(radii * dual_radii - rho).max() > 1e-12 * rho:
                raise ValueError("dual radii must satisfy r_j r*_j = rho")
        for name, val in (("base", base), ("apex", apex), ("basis", basis),
                          ("radii", radii), ("_dual_radii", dual_radii)):
            val = np.array(val, dtype=float)
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "sign", sign)

    @property
    def dim(self) -> int:
        return len(self.base)

    def to_json(self) -> str:
        return json.dumps(
            {
                "base": self.base.tolist(),
                "apex": self.apex.tolist(),
                "basis": self.basis.tolist(),
                "radii": self.radii.tolist(),
                "rho": self.rho,
                "sign": self.sign,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Paraball":
        d = json.loads(text)
        try:
            ball = cls(d["base"], d["apex"], d["basis"], d["radii"], d["rho"], d.get("sign", 1))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed paraball JSON: {exc!r}") from None
        # checked here, not on every construction: fit_paraball builds balls in its inner loop
        data = (ball.base, ball.apex, ball.basis, ball.radii, ball.rho)
        if not all(np.isfinite(v).all() for v in data):
            raise ValueError("paraball JSON holds non-finite values")
        return ball


def unit_paraball(d: int) -> Paraball:
    """Base and apex at the origin, standard axes, unit radii and thickness."""
    return Paraball(np.zeros(d), np.zeros(d), np.eye(d - 1), np.ones(d - 1), 1.0, 1)


def from_incidence(base_prime, base_d, apex_prime, basis, radii, rho, sign=1) -> Paraball:
    """Build a paraball with the apex height solved from the sheet relation."""
    base_prime = np.asarray(base_prime, dtype=float)
    apex_prime = np.asarray(apex_prime, dtype=float)
    diff = base_prime - apex_prime
    apex_d = float(base_d) - sign * float(diff @ diff)
    base = np.concatenate([base_prime, [float(base_d)]])
    apex = np.concatenate([apex_prime, [apex_d]])
    return Paraball(base, apex, basis, radii, rho, sign)


# -- membership and measure ----------------------------------------------

def _ellipsoid_form(delta: np.ndarray, basis: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """sum_j r_j^{-2} <delta, e_j>^2, batched over the leading axes of delta."""
    return np.sum(((delta @ basis.T) / radii) ** 2, axis=-1)


def slab_form(B: Paraball, x: np.ndarray) -> np.ndarray:
    """x_d - apex_d - s |x' - apex'|^2, the signed offset from the sheet:
    Theta(x, apex) for primal balls and -Theta(apex, x) for duals."""
    return incidence(x, B.apex) if B.sign == 1 else -incidence(B.apex, x)


def expanded_contains(B: Paraball, lam: float, x):
    """Membership in the expanded ball: ellipsoid form < lam^2, slab < lam rho."""
    lam = float(lam)
    if lam < 1:
        raise ValueError("expansion factor must be at least 1")
    x = np.asarray(x, dtype=float)
    ell = _ellipsoid_form(x[..., :-1] - B.base[:-1], B.basis, B.radii)
    return (ell < lam * lam) & (np.abs(slab_form(B, x)) < lam * B.rho)


def contains(B: Paraball, x):
    return expanded_contains(B, 1.0, x)


def volume(B: Paraball) -> float:
    """2 rho * omega_{d-1} * prod r_j (slab of thickness 2 rho over the
    ellipsoid cross-section)."""
    k = B.dim - 1
    return 2.0 * B.rho * unit_ball_volume(k) * float(np.prod(B.radii))


def dual(B: Paraball) -> Paraball:
    """Companion ball: base and apex exchanged, radii rho/r_j, orientation
    flipped.  Exact involution (the partner radii are carried along)."""
    return Paraball(B.apex, B.base, B.basis, B._dual_radii, B.rho, -B.sign,
                    _dual_radii=B.radii)


@dataclass(frozen=True, eq=False)
class DualPair:
    primal: Paraball
    dual: Paraball

    def __post_init__(self):
        p, q = self.primal, self.dual
        if p.sign != 1 or q.sign != -1:
            raise ValueError("pair must hold a primal (+1) and a dual (-1) ball")
        if p.rho != q.rho:
            raise ValueError("pair must share the thickness")
        if np.abs(p.radii * q.radii - p.rho).max() > 1e-12 * p.rho:
            raise ValueError("pair radii must satisfy r_j r*_j = rho")


def dual_pair(B: Paraball) -> DualPair:
    if B.sign != 1:
        raise ValueError("build pairs from the primal ball")
    return DualPair(B, dual(B))


# -- quasidistance ---------------------------------------------------------

def _sup_term(inner: Paraball, outer: Paraball) -> float:
    """sup over the inner ball's ellipsoid of the outer ball's quadratic
    form; the largest eigenvalue of S^T S for S_kj = (r^in_j / r^out_k)
    <e^out_k, e^in_j>."""
    S = (outer.basis @ inner.basis.T) * inner.radii[None, :] / outer.radii[:, None]
    return float(np.linalg.eigvalsh(S.T @ S)[-1])


def quasidistance(a: Paraball, b: Paraball) -> float:
    """Nine-term discrepancy between two same-orientation paraballs.

    Thickness ratio, two sup terms, base offsets against both ellipsoids,
    apex offsets against both dual ellipsoids, and the two slab defects.
    Always >= 1; exactly symmetric (the terms swap in pairs, and the sum
    is taken in sorted order so rounding cannot break the symmetry);
    equals 3 on identical balls.
    """
    if a.sign != b.sign:
        raise ValueError("quasidistance requires equal orientations")
    if (a.rho == b.rho and np.array_equal(a.base, b.base)
            and np.array_equal(a.apex, b.apex) and np.array_equal(a.radii, b.radii)
            and np.array_equal(a.basis, b.basis)):
        # identical data: the ratio and the two sup terms are structurally 1
        # (the sup of a ball's own form over itself), everything else vanishes
        return 3.0
    terms = np.empty(9)
    terms[0] = max(a.rho, b.rho) / min(a.rho, b.rho)
    terms[1] = _sup_term(a, b)
    terms[2] = _sup_term(b, a)
    dbase = a.base[:-1] - b.base[:-1]
    terms[3] = _ellipsoid_form(dbase, a.basis, a.radii)
    terms[4] = _ellipsoid_form(dbase, b.basis, b.radii)
    dapex = a.apex[:-1] - b.apex[:-1]
    terms[5] = _ellipsoid_form(dapex, a.basis, a.rho / a.radii)
    terms[6] = _ellipsoid_form(dapex, b.basis, b.rho / b.radii)
    terms[7] = abs(float(slab_form(a, b.base))) / a.rho
    terms[8] = abs(float(slab_form(b, a.base))) / b.rho
    return float(np.sum(np.sort(terms)))


# -- group action ----------------------------------------------------------

def transform_paraball(el: GroupElement, B: Paraball) -> Paraball:
    """The preimage {x : phi(x) in B} of a primal ball.

    Base and apex pull back through phi^{-1} and the partner's inverse;
    the ellipsoid transforms through the symmetric eigendecomposition of
    L^T E^T R^{-2} E L; the thickness divides by |t| because the slab is
    the incidence form against the apex and Theta scales by t.
    """
    if B.sign != 1:
        raise ValueError("transform primal balls; duals move with the pair")
    inv = inverse(el)
    new_base = apply_point(inv, B.base)
    new_apex = invert_partner_point(el, B.apex)[0]
    E, R = B.basis, B.radii
    M = E @ el.L  # rows e_j L
    G = M.T @ (M / R[:, None] ** 2)
    w, V = np.linalg.eigh(G)
    if np.any(w <= 0):
        raise ValueError("degenerate transformed ellipsoid")
    new_basis = V.T
    new_radii = 1.0 / np.sqrt(w)
    new_rho = B.rho / abs(el.t)
    return from_incidence(new_base[:-1], new_base[-1], new_apex[:-1],
                          new_basis, new_radii, new_rho, B.sign)


def transform_dual_pair(el: GroupElement, pair: DualPair) -> DualPair:
    """Pull a dual pair back through (phi, psi); the transformed pair is
    rebuilt from the transformed primal, which keeps r_j r*_j = rho exact."""
    return dual_pair(transform_paraball(el, pair.primal))


# -- rasterization and Monte-Carlo measures --------------------------------

def rasterize(B: Paraball, spec: GridSpec) -> GridFunction:
    """Indicator of the cells whose midpoint lies in B."""
    return GridFunction.indicator(spec, lambda pts: contains(B, pts))


def sample_points(B: Paraball, n: int, rng) -> np.ndarray:
    """n points uniform in B, stratified along the slab coordinate."""
    strata = 16
    k = B.dim - 1
    counts = np.full(strata, n // strata)
    counts[: n % strata] += 1
    pieces = []
    for s, m in enumerate(counts):
        if m == 0:
            continue
        z = rng.standard_normal((m, k))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        rad = rng.random(m) ** (1.0 / k)
        w = z * rad[:, None]
        xp = B.base[:-1] + (w * B.radii) @ B.basis
        u = (s + rng.random(m)) / strata * 2.0 - 1.0
        diff = xp - B.apex[:-1]
        xd = B.apex[-1] + B.sign * np.sum(diff * diff, axis=1) + B.rho * u
        pieces.append(np.concatenate([xp, xd[:, None]], axis=1))
    return np.concatenate(pieces, axis=0)


def intersection_volume(a: Paraball, b: Paraball, n: int = 100_000, seed: int = 0) -> float:
    """Monte-Carlo |a intersect b| from stratified samples inside a."""
    rng = np.random.default_rng(seed)
    pts = sample_points(a, n, rng)
    frac = float(np.count_nonzero(contains(b, pts))) / len(pts)
    return frac * volume(a)


# -- empirical envelopes ----------------------------------------------------

def _smallest_constant(value, target: float) -> float:
    """Smallest c >= 0 with value(c) >= target for an increasing `value` with
    value(0) = 0: doubling from 1, then 80 halvings; inf past c = 1e6."""
    if target <= 0:
        return 0.0
    lo, hi = 0.0, 1.0
    while value(hi) < target:
        hi *= 2.0
        if hi > 1e6:
            return math.inf
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if value(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def intersection_envelope(samples) -> float:
    """Fit C with rho_dist <= C * (max(|a|,|b|)/|a cap b|)^C over samples of
    (volume ratio, quasidistance); reported, not compared to any constant."""
    return max(_smallest_constant(lambda c: c * max(x, 1.0)**c, q) for x, q in samples)


def quasi_triangle_constant(triples) -> float:
    """Fit C with rho(a,b) <= C (rho(a,m)^C + rho(m,b)^C) over sampled triples."""
    return max(_smallest_constant(lambda c: c * (q_am**c + q_mb**c), q_ab)
               for q_ab, q_am, q_mb in triples)


# -- paraball fitting --------------------------------------------------------

def _basis_from_angles(k: int, angles: np.ndarray) -> np.ndarray:
    E = np.eye(k)
    idx = 0
    for i in range(k):
        for j in range(i + 1, k):
            c, s = math.cos(angles[idx]), math.sin(angles[idx])
            G = np.eye(k)
            G[i, i] = c
            G[j, j] = c
            G[i, j] = -s
            G[j, i] = s
            E = G @ E
            idx += 1
    return E


@dataclass
class _FitState:
    mids: np.ndarray
    pmass: np.ndarray  # f^p * cellvol per cell
    max_volume: float
    dim: int

    def ball(self, params: np.ndarray) -> Paraball:
        d = self.dim
        k = d - 1
        base_prime = params[:k]
        base_d = params[k]
        q = params[d : d + k]
        log_r = params[d + k : d + 2 * k]
        log_rho = params[d + 2 * k]
        angles = params[d + 2 * k + 1 :]
        radii = np.exp(np.clip(log_r, -20, 20))
        rho = math.exp(min(max(log_rho, -20), 20))
        cap = self.max_volume / (2.0 * unit_ball_volume(k) * float(np.prod(radii)))
        rho = min(rho, cap)
        basis = _basis_from_angles(k, angles) if k > 1 else np.eye(1)
        return from_incidence(base_prime, base_d, base_prime + q, basis, radii, rho, 1)

    def captured_p(self, ball: Paraball) -> float:
        inside = contains(ball, self.mids)
        return float(self.pmass[inside].sum())


def fit_paraball(f: GridFunction, max_volume: float, budget: int,
                 seed: int = 0) -> tuple[Paraball, float]:
    """Search for the paraball of volume at most `max_volume` holding the
    most L^p mass of f: randomized multistart coordinate descent over base
    point, apex offset, log radii, log thickness, and basis angles, seeded
    from the moment ellipsoid of f^p.  Deterministic given the seed;
    budget counts objective evaluations (0 returns the moment candidate).
    """
    if max_volume <= 0:
        raise ValueError("max_volume must be positive")
    if f.is_zero():
        raise ValueError("cannot fit a paraball to the zero function")
    d = f.dim
    k = d - 1
    p = ExponentPair(d).p
    mids = f.spec.midpoints()
    pmass = (f.values.ravel() ** p) * f.spec.cell_volume
    state = _FitState(mids, pmass, float(max_volume), d)

    w = pmass / pmass.sum()
    centroid = w @ mids
    sigma = np.sqrt(np.maximum(w @ (mids - centroid) ** 2, 1e-12))
    slab_res = mids[:, -1] - centroid[-1] - np.sum((mids[:, :-1] - centroid[:-1]) ** 2, axis=1)
    sigma_slab = math.sqrt(max(float(w @ slab_res**2), 1e-12))
    h = f.spec.widths

    n_angles = k * (k - 1) // 2
    init = np.concatenate([
        centroid,
        np.zeros(k),
        np.log(np.maximum(2.0 * sigma[:-1], h[:-1])),
        [math.log(max(2.0 * sigma_slab, h[-1]))],
        np.zeros(n_angles),
    ])
    steps0 = np.concatenate([
        np.maximum(sigma, h) * 0.5,
        np.maximum(sigma[:-1], h[:-1]) * 0.5,
        np.full(k, 0.3),
        [0.3],
        np.full(n_angles, 0.2),
    ])

    rng = np.random.default_rng(seed)
    best_params = init.copy()
    best_val = state.captured_p(state.ball(init))
    evals = 0
    restarts = 3  # coordinate-descent starts, sharing the budget
    per_restart = max(budget // restarts, 0)
    for restart in range(restarts):
        if evals >= budget:
            break
        params = init.copy()
        if restart > 0:
            params += steps0 * rng.standard_normal(len(init))
        val = state.captured_p(state.ball(params))
        evals += 1
        steps = steps0.copy()
        budget_here = min(per_restart, budget - evals)
        used = 0
        while used < budget_here:
            improved = False
            for i in range(len(params)):
                if used >= budget_here:
                    break
                for sgn in (1.0, -1.0):
                    trial = params.copy()
                    trial[i] += sgn * steps[i]
                    tv = state.captured_p(state.ball(trial))
                    used += 1
                    if tv > val:
                        params, val = trial, tv
                        improved = True
                        break
                    if used >= budget_here:
                        break
            if not improved:
                steps *= 0.5
                if np.all(steps < 1e-6):
                    break
        evals += used
        if val > best_val:
            best_val, best_params = val, params.copy()
    ball = state.ball(best_params)
    return ball, best_val ** (1.0 / p)


# -- greedy extraction -------------------------------------------------------

def greedy_cover(f: GridFunction, eta: float, budget: int, plan: TransformPlan | None = None,
                 seed: int = 0) -> list[tuple[Paraball, GridFunction]]:
    """Peel off paraball pieces until the residual's transform ratio drops
    below eta or a step captures less than CAPTURE_TOL of ||f||_p.

    Each step fits a ball to the residual restricted to its dominant
    dyadic level (most L^p mass), with the level's measure as the volume
    cap; the removed piece equals f on its cells, so pieces are pairwise
    disjoint, sum of ||piece||_p^p is at most ||f||_p^p, and the loop runs
    at most ceil(CAPTURE_TOL^{-p}) times.
    """
    eta = float(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    if f.is_zero():
        raise ValueError("cover needs a nonzero function")
    if plan is None:
        plan = TransformPlan(f.spec)
    p = ExponentPair(f.dim).p
    norm_f = lp_norm(f, p)
    max_steps = math.ceil(CAPTURE_TOL ** (-p))
    residual = np.array(f.values)
    pieces: list[tuple[Paraball, GridFunction]] = []
    for step in range(max_steps):
        res_fn = GridFunction(f.spec, residual)
        if res_fn.is_zero() or rayleigh_ratio(res_fn, plan) < eta:
            break
        dec = rough_decompose(res_fn)
        cv = f.spec.cell_volume
        flat = residual.ravel()
        level = max(dec.levels, key=lambda lv: float((flat[lv.cells] ** p).sum()))
        restricted = dec.restrict_to_levels({level.j})
        ball, captured = fit_paraball(restricted, level.measure(cv), budget,
                                      seed=seed + step)
        if captured < CAPTURE_TOL * norm_f:
            break
        inside = contains(ball, f.spec.midpoints()).reshape(f.spec.shape)
        cells = inside & (restricted.values > 0)
        piece_vals = np.where(cells, residual, 0.0)
        pieces.append((ball, GridFunction(f.spec, piece_vals)))
        residual = np.where(cells, 0.0, residual)
    return pieces


# -- interaction partition ----------------------------------------------------

@dataclass(frozen=True, eq=False)
class InteractionPartition:
    """Partition of a cell set by which ball's transform dominates it."""

    parts: tuple[np.ndarray, ...]
    remainder: np.ndarray
    gammas: np.ndarray
    transforms: tuple[GridFunction, ...]


def partition_by_interaction(F_mask: np.ndarray, balls, eta: float,
                             plan: TransformPlan) -> InteractionPartition:
    """Threshold T(chi_ball) at gamma = eta/3 |F|^{1/p - 1} |ball|^{1/p} and
    split F by first-ball priority; leftover cells fail every threshold, so
    their pairing with each T(chi_ball) is at most eta/3 |F|^{1/p} |ball|^{1/p}.
    """
    eta = float(eta)
    if not (0 < eta <= 1):
        raise ValueError("eta must lie in (0, 1]")
    balls = list(balls)
    if not balls:
        raise ValueError("need at least one ball")
    F_mask = np.asarray(F_mask, dtype=bool)
    if F_mask.shape != plan.output.shape:
        raise ValueError("mask shape does not match the plan output grid")
    p = ExponentPair(plan.dim).p
    measure_F = float(np.count_nonzero(F_mask)) * plan.output.cell_volume
    if measure_F == 0:
        raise ValueError("the target set has measure zero")
    gammas = np.empty(len(balls))
    transforms = []
    thresholded = []
    for i, ball in enumerate(balls):
        chi = rasterize(ball, plan.input)
        tchi = forward_transform(chi, plan)
        gammas[i] = (eta / 3.0) * measure_F ** (1.0 / p - 1.0) * volume(ball) ** (1.0 / p)
        transforms.append(tchi)
        thresholded.append(F_mask & (tchi.values > gammas[i]))
    parts = []
    taken = np.zeros_like(F_mask)
    for cand in thresholded:
        part = cand & ~taken
        parts.append(part)
        taken |= part
    remainder = F_mask & ~taken
    return InteractionPartition(tuple(parts), remainder, gammas, tuple(transforms))
