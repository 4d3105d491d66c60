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

Membership is computed points-last: the formulas take a point set as d
rows, x[i] holding coordinate i of every point, so each elementwise step
runs over the points, and their sums of squares run in axis order.  They read
a ball's fields per axis (base[..., i], apex[..., i], radii[..., j], rho),
so the fields may carry leading axes that broadcast against the points:
a fit scores a batch of trial balls through the same code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import GridFunction, GridSpec, real_leaves
from .norms import ExponentPair, lp_norm, rough_decompose
from .operator import TransformPlan, forward_transform, rayleigh_ratio
from .symmetry import GroupElement, apply_point, inverse, invert_partner_point

# greedy_cover stops once a fitted piece captures less than this fraction of ||f||_p
CAPTURE_TOL = 0.05
_TRIAL_BYTES = 1 << 17  # d (trials, cells) float64 arrays, a fit scoring call's offsets


def unit_ball_volume(k: int) -> float:
    """Volume of the unit Euclidean ball in R^k."""
    if k == 1:
        return 2.0
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


class _NonFiniteData(ValueError):
    """A paraball field holds NaN or an infinity."""


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
        sign = self.sign
        if apex.shape != (d,) or basis.shape != (d - 1, d - 1) or radii.shape != (d - 1,):
            raise ValueError("inconsistent paraball data shapes")
        # exactly +1 or -1: 1.0 passes; 1.5, "1" and true do not
        if isinstance(sign, bool) or sign not in (1, -1):
            raise ValueError("orientation sign must be +1 or -1")
        sign = int(sign)
        if not all(np.isfinite(v).all() for v in (base, apex, basis, radii, rho)):
            raise _NonFiniteData("paraball data must be finite")
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
            with np.errstate(over="ignore"):
                dual_radii = rho / radii
            if not np.all((dual_radii > 0) & np.isfinite(dual_radii)):
                raise ValueError("dual radii rho / r_j must be finite and positive; "
                                 "the radii are too small or too large for rho")
        else:
            dual_radii = np.atleast_1d(np.asarray(dual_radii, dtype=float))
            if not np.abs(radii * dual_radii - rho).max() <= 1e-12 * rho:  # NaN fails too
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
            fields = [d[key] for key in ("base", "apex", "basis", "radii", "rho")]
            if not real_leaves(fields):  # the sign has its own exact rule
                raise TypeError("every value must be a number, not a string or a bool")
            return cls(*fields, d.get("sign", 1))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed paraball JSON: {exc!r}") from None
        except _NonFiniteData:
            raise ValueError("paraball JSON holds non-finite values") from None


def unit_paraball(d: int) -> Paraball:
    """Base and apex at the origin, standard axes, unit radii and thickness."""
    return Paraball(np.zeros(d), np.zeros(d), np.eye(d - 1), np.ones(d - 1), 1.0, 1)


def _sheet_apex(base: np.ndarray, apex_prime: np.ndarray) -> np.ndarray:
    """The apex over apex_prime, its height solved from the sheet relation
    through base; batched over leading axes.  |base' - apex'|^2 is a stacked
    (1, k) @ (k, 1) product, which numpy computes per point with its dot
    kernel, so it rounds as `diff @ diff` on one point does; a sum of
    squares or an einsum rounds differently once k >= 2."""
    diff = base[..., :-1] - apex_prime
    sq = (diff[..., None, :] @ diff[..., :, None])[..., 0, 0]
    return np.concatenate([apex_prime, (base[..., -1] - sq)[..., None]], axis=-1)


def from_incidence(base_prime, base_d, apex_prime, basis, radii, rho) -> Paraball:
    """Build a primal paraball with the apex height solved from the sheet
    relation."""
    base = np.append(np.asarray(base_prime, dtype=float), float(base_d))
    return Paraball(base, _sheet_apex(base, np.asarray(apex_prime, dtype=float)),
                    basis, radii, rho, 1)


# -- membership and measure ----------------------------------------------

def _ellipsoid_form(delta, basis: np.ndarray, radii: np.ndarray):
    """sum_j r_j^{-2} <delta, e_j>^2 of k rows of offsets (delta[i] the
    i-th coordinate of every point), summed in axis order.

    The projection onto e_1..e_k is one matmul per (k, points) block once
    k >= 2: BLAS fuses its multiply-adds, so a sum over the axes would
    round differently.  A batched basis is (..., 1, k, k); the matmul
    drops its point axis, and a single point lends it one.  The squares
    are `np.square`, as `** 2` of an array is; a numpy scalar's `** 2`
    calls `pow`, which need not round as x * x does.
    """
    k = len(delta)
    if k == 1:
        proj = [basis[..., 0, 0] * delta[0]]
    else:
        delta = np.asarray(delta)
        rows = basis[..., 0, :, :] if basis.ndim > 2 else basis
        cols = np.moveaxis(delta, 0, -2) if delta.ndim > 1 else delta[:, None]
        proj = np.moveaxis(rows @ cols, -2, 0)
        if delta.ndim == 1 and basis.ndim == 2:
            proj = proj[..., 0]
    form = np.square(proj[0] / radii[..., 0])
    for j in range(1, k):
        form = form + np.square(proj[j] / radii[..., j])
    return form


def slab_form(B: Paraball, x):
    """x_d - apex_d - s |x' - apex'|^2 of points given as d rows, the signed
    offset from the sheet: Theta(x, apex) for primal balls and
    -Theta(apex, x) for duals, its squares summed in axis order."""
    k = len(x) - 1
    sq = np.square(x[0] - B.apex[..., 0])
    for i in range(1, k):
        sq = sq + np.square(x[i] - B.apex[..., i])
    if B.sign == 1:
        return x[k] - B.apex[..., k] - sq
    return -(B.apex[..., k] - x[k] - sq)


def expanded_contains(B: Paraball, lam: float, x):
    """Membership in the expanded ball: ellipsoid form < lam^2, slab < lam rho.

    x holds points along its last axis, (..., d).  The formula gets them as
    d rows, `np.moveaxis(x, -1, 0)`, a view: an (N, d) view of a contiguous
    (d, N) array reaches it as contiguous rows.

    Reads only B's base, apex, basis, radii, rho and sign, so B may be a
    `Paraball` or the unvalidated batch record `fit_paraball` scores its
    trials with; both go through this one formula.  A batch record's fields
    carry a leading trial axis and a point axis of length 1, so the result
    has one row per trial.
    """
    lam = float(lam)
    if not 1 <= lam < math.inf:
        raise ValueError("expansion factor must be finite and at least 1")
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != B.base.shape[-1:]:  # broadcasting would hide a mismatch
        raise ValueError(f"points of dimension {x.shape[-1] if x.ndim else 0} against a "
                         f"paraball of dimension {B.base.shape[-1]}")
    x = x.transpose(-1, *range(x.ndim - 1))  # np.moveaxis(x, -1, 0) at a tenth of its cost
    ell = _ellipsoid_form([x[i] - B.base[..., i] for i in range(len(x) - 1)], B.basis, B.radii)
    return (ell < lam * lam) & (np.abs(slab_form(B, x)) < lam * B.rho)


def contains(B: Paraball, x):
    """Membership in B, a `Paraball` or a fit's trial record (see
    `expanded_contains`)."""
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
    if a.dim != b.dim:
        raise ValueError("paraballs must share the dimension")
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
                          new_basis, new_radii, new_rho)


# -- rasterization -----------------------------------------------------------

def rasterize(B: Paraball, spec: GridSpec) -> GridFunction:
    """Indicator of the cells whose midpoint lies in B."""
    return GridFunction.indicator(spec, lambda pts: contains(B, pts))


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


class _TrialBall(NamedTuple):
    """A batch of a fit's trial balls: `Paraball`'s fields, neither copied
    nor validated, with a leading trial axis and a point axis of length 1.
    base and apex are (T, 1, d), basis (T, 1, k, k), radii (T, 1, k) and
    rho (T, 1), so each field read per axis (base[..., i], basis[..., j, i],
    radii[..., j], rho) is a (T, 1) column that broadcasts against a row of
    points, and `contains(record, pts)` gives one row of membership per
    trial.  The fit scores every trial through one and builds its result
    from row 0 of one."""

    base: np.ndarray
    apex: np.ndarray
    basis: np.ndarray
    radii: np.ndarray
    rho: np.ndarray
    sign: int


def _trial_balls(params: np.ndarray, d: int, max_volume: float) -> _TrialBall:
    """The trial balls of a (trials, params) array, built only as far as
    membership reads them: base is a view of the first d parameters, and
    the apex is the one field assembled.  The thickness is computed per
    row: `math.exp` rounds differently from `np.exp`."""
    k = d - 1
    logs = params[:, d + k : d + 2 * k + 1].clip(-20, 20)  # log radii, log thickness
    radii = np.exp(logs[:, :k])
    rho = list(map(math.exp, logs[:, k].tolist()))
    rho = np.minimum(rho, max_volume / (2.0 * unit_ball_volume(k) * radii.prod(axis=-1)))
    if k > 1:
        basis = np.stack([_basis_from_angles(k, a) for a in params[:, d + 2 * k + 1 :]])[:, None]
    else:
        basis = np.ones((len(params), 1, 1, 1))
    base = params[:, None, :d]
    apex = _sheet_apex(base, base[..., :k] + params[:, None, d : d + k])
    return _TrialBall(base, apex, basis, radii[:, None], rho[:, None], 1)


def fit_paraball(f: GridFunction, max_volume: float, budget: int,
                 seed: int = 0) -> tuple[Paraball, float]:
    """Search for the paraball of volume at most `max_volume` holding the
    most L^p mass of f: randomized multistart coordinate descent over base
    point, apex offset, log radii, log thickness, and basis angles, seeded
    from the moment ellipsoid of f^p.  Deterministic given the seed;
    budget counts objective evaluations (0 returns the moment candidate).

    A sweep tries +step then -step on each coordinate in turn and takes
    the first trial that beats the current value, then goes on from the
    next coordinate; after a sweep that improves nothing the steps halve,
    and a restart ends once every step is below 1e-6.  Until a trial beats
    the current value the descent's next trials are known: the rest of
    the sweep, then whole sweeps from the same parameters with the steps
    halved after each.  One scoring call takes that miss path as far as
    the halving stop, the budget, or _TRIAL_BYTES of temporaries (at least
    one trial) allow.  The first trial in that order that beats the
    current value is accepted, and exactly the trials up to and including
    it, or the whole batch if none does, are charged to the budget.  So
    the result is the one-trial-at-a-time descent's, bit for bit.

    Only the cells with positive mass take part, so zero cells, wherever
    they lie, never change the fit, and two trial balls holding the same
    cells capture bit-equal mass.  A trial that holds the current ball's
    cells therefore ties and is not summed; the captured masses of the
    other trials are summed in order, only until one beats the current
    value.  The midpoints of the held cells are laid out as d contiguous
    rows once, and every scoring call hands `contains` their (N, d) view,
    which it turns back into those rows.  `_trial_balls` builds every
    trial: the scored ones as raw records, unvalidated, and the returned
    `Paraball` from row 0 of the best parameters' record.
    """
    if not max_volume > 0:
        raise ValueError("max_volume must be positive")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    d = f.dim
    k = d - 1
    p = ExponentPair(d).p
    values = f.values.ravel()
    cells = np.flatnonzero(values > 0)
    pmass = (values[cells] ** p) * f.spec.cell_volume
    held = pmass > 0  # a p-th power may underflow to 0
    if not held.any():
        raise ValueError("cannot fit a paraball to the zero function")
    pmass = pmass[held]
    index = np.unravel_index(cells[held], f.spec.shape)
    coords = np.stack([f.spec.axis_midpoints(i)[index[i]] for i in range(d)])  # d rows
    mids = np.ascontiguousarray(coords.T)  # row-major, so w @ mids rounds as on the full grid
    max_volume = float(max_volume)

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

    def members(trials: np.ndarray) -> np.ndarray:
        return contains(_trial_balls(trials, d, max_volume), coords.T)

    def mass(row: np.ndarray) -> float:
        # the p-mass summed over the row's own cells (a masked mat-vec
        # rounds differently)
        return float(pmass[row].sum())

    # trial j of a sweep moves coordinate j // 2 by +step (j even) or -step (j odd)
    sweep = 2 * len(init)
    coord = np.arange(sweep) // 2
    sgn = np.tile([1.0, -1.0], len(init))
    per_call = max(1, _TRIAL_BYTES // (8 * d * len(mids)))

    rng = np.random.default_rng(seed)
    best_params = init.copy()
    (init_row,) = members(init[None])
    best_val = mass(init_row)
    evals = 0
    restarts = 3  # coordinate-descent starts, sharing the budget
    per_restart = budget // restarts
    for restart in range(restarts):
        if evals >= budget:
            break
        # restart 0 starts from the moment candidate, scored above
        params, row, val = init.copy(), init_row, best_val
        if restart > 0:
            params += steps0 * rng.standard_normal(len(init))
            (row,) = members(params[None])
            val = mass(row)
        evals += 1
        steps = steps0.copy()
        budget_here = min(per_restart, budget - evals)
        used = 0
        pos = 0  # the next trial of the sweep
        improved = False
        while used < budget_here:
            # the miss path from here, as (first trial, count, steps) per sweep;
            # pos, steps and improved advance along it as if every trial missed
            segments, left, stopped = [], min(per_call, budget_here - used), False
            while left and not stopped:
                take = min(sweep - pos, left)
                segments.append((pos, take, steps))
                left -= take
                pos += take
                if pos == sweep:
                    if not improved:
                        steps = steps * 0.5
                        stopped = bool(np.all(steps < 1e-6))
                    pos, improved = 0, False
            j = np.concatenate([np.arange(start, start + take) for start, take, _ in segments])
            seg = np.repeat(np.arange(len(segments)), [take for _, take, _ in segments])
            size = np.concatenate([s[coord[start:start + take]] for start, take, s in segments])
            trials = params[None].repeat(len(j), axis=0)
            trials[np.arange(len(j)), coord[j]] += sgn[j] * size
            inside = members(trials)
            # a trial that holds the current cells ties, so only the rows that
            # changed are summed, in order, until one beats val
            hit = None
            for t in np.flatnonzero((inside != row).any(axis=1)).tolist():
                value = mass(inside[t])
                if value > val:
                    hit = t
                    break
            if hit is None:
                used += len(trials)
                if stopped:
                    break
                continue
            used += hit + 1
            params, row, val = trials[hit], inside[hit], value
            steps = segments[seg[hit]][2]  # the steps of the hit's sweep
            pos, improved = int(j[hit]) // 2 * 2 + 2, True  # on to the next coordinate
            if pos == sweep:
                pos, improved = 0, False
        evals += used
        if val > best_val:
            best_val, best_params = val, params.copy()
    best = _trial_balls(best_params[None], d, max_volume)
    return (Paraball(best.base[0, 0], best.apex[0, 0], best.basis[0, 0], best.radii[0, 0],
                     best.rho[0, 0], best.sign), best_val ** (1.0 / p))


# -- greedy extraction -------------------------------------------------------

def greedy_cover(f: GridFunction, eta: float, budget: int, plan: TransformPlan | None = None,
                 seed: int = 0) -> tuple[list[tuple[Paraball, GridFunction]], str]:
    """Peel off paraball pieces until the residual's transform ratio drops
    below eta or a step captures less than CAPTURE_TOL of ||f||_p.

    Each step fits a ball to the residual restricted to its dominant
    dyadic level (most L^p mass), with the level's measure as the volume
    cap; the removed piece equals f on its cells, so pieces are pairwise
    disjoint, sum of ||piece||_p^p is at most ||f||_p^p, and the loop runs
    at most ceil(CAPTURE_TOL^{-p}) times.

    Returns the (ball, piece) pairs and why the loop stopped:
    "zero_residual", "ratio_below_eta", "capture_below_tol", or
    "max_steps" when it ran all its steps, which the capture floor keeps
    out of reach (each piece holds at least CAPTURE_TOL^p of ||f||_p^p).
    """
    eta = float(eta)
    if not 0 < eta < math.inf:
        raise ValueError("eta must be finite and positive")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if f.is_zero():
        raise ValueError("cover needs a nonzero function")
    if f.minimum < 0:
        raise ValueError("cover needs a nonnegative function")
    if plan is None:
        plan = TransformPlan(f.spec)
    p = ExponentPair(f.dim).p
    norm_f = lp_norm(f, p)
    max_steps = math.ceil(CAPTURE_TOL ** (-p))
    coords = np.ascontiguousarray(f.spec.midpoints().T)  # the midpoints as d rows
    residual = np.array(f.values)
    pieces: list[tuple[Paraball, GridFunction]] = []
    for step in range(max_steps):
        res_fn = GridFunction._owned(f.spec, residual)
        if res_fn.is_zero():
            return pieces, "zero_residual"
        if rayleigh_ratio(res_fn, plan) < eta:
            return pieces, "ratio_below_eta"
        dec = rough_decompose(res_fn)
        cv = f.spec.cell_volume
        flat = residual.ravel()
        level = max(dec.levels, key=lambda lv: float((flat[lv.cells] ** p).sum()))
        restricted = dec.restrict_to_levels({level.j})
        ball, captured = fit_paraball(restricted, level.measure(cv), budget,
                                      seed=seed + step)
        if captured < CAPTURE_TOL * norm_f:
            return pieces, "capture_below_tol"
        cells = restricted.values > 0
        cells[cells] = contains(ball, coords[:, cells.ravel()].T)
        piece_vals = np.where(cells, residual, 0.0)
        pieces.append((ball, GridFunction._owned(f.spec, piece_vals)))
        residual = np.where(cells, 0.0, residual)
    return pieces, "max_steps"


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
