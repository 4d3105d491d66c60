"""Fixed-point search for extremizers of the transform's L^p -> L^q ratio.

Stationary points of Boyd's power map for l^p norms (D. W. Boyd, Lin.
Alg. Appl. 9, 1974)

    f  <-  normalize((T*[(Tf)^d])^d)

solve the optimality condition T*[(Tf)^d] = A^{d+1} f^{1/d} at unit L^p
norm; with the exact discrete transpose the multiplier at a discrete
fixed point is exactly the d+1 power of the ratio.  Every recorded ratio
is a lower bound for the discrete operator norm, and the map never
lowers it (`extremize` gives the Holder argument).  The map alone
converges linearly, so the search also extrapolates its iterates
(reduced-rank extrapolation, A. Sidi, Vector Extrapolation Methods with
Applications, SIAM 2017) and walks the ray from the iterate through the
extrapolate while the ratio rises.  T is linear, so every ray point's
transform and ratio come from the held transforms with no transform of
their own, and a point is taken only when that ratio is higher.  The
search stops when the optimality residual falls to a tolerance.

A step runs on arrays.  Its only `GridFunction`s are the two transform
inputs, the iterate and (Tf)^d, each validated once and wrapped without
a copy (a taken ray point is wrapped as the iterate too), and the two
transform outputs; its two L^p norms, two more per ray point where it
extrapolates, go straight to `norms.array_lp_norm`, the formula
`lp_norm` itself uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, GridSpec
from .norms import ExponentPair, array_lp_norm
from .operator import TransformPlan, adjoint_transform, forward_transform


# RRE depth m: the extrapolation combines the last m + 2 iterates
_RRE_DEPTH = 3
# the ray walk past the extrapolate: omega = _RAY_FACTOR^k for k <= _RAY_STEPS,
# so omega <= 1.5^16 ~ 657 and a ratio taken through linearity stays within
# about omega * eps ~ 1.5e-13 of the true one
_RAY_FACTOR = 1.5
_RAY_STEPS = 16


@dataclass(frozen=True)
class TraceStep:
    """A step's ratio, optimality residual, and whether its iterate is the extrapolate."""

    phi: float
    residual: float
    extrapolated: bool = False


@dataclass(frozen=True, eq=False)
class ExtremizeTrace:
    """The recorded steps, the final iterate, and why the loop stopped:
    "residual" when the optimality residual reached the tolerance,
    "max_iters" when it ran out of steps."""

    steps: tuple[TraceStep, ...]
    final: GridFunction
    stop: str

    def __post_init__(self):
        if any(s.phi <= 0 for s in self.steps):
            raise ValueError("ratio values must be positive")

    @property
    def a_estimate(self) -> float:
        """The largest recorded ratio, a lower bound for the operator norm."""
        return max(s.phi for s in self.steps)

    @property
    def extrapolated(self) -> int:
        """The number of recorded steps whose iterate the extrapolation made."""
        return sum(s.extrapolated for s in self.steps)

    def phis(self) -> np.ndarray:
        return np.array([s.phi for s in self.steps])


def _unit(values: np.ndarray, p: float, cell_volume: float) -> np.ndarray:
    n = array_lp_norm(values, p, cell_volume)
    if n == 0:
        raise ValueError("cannot normalize the zero function")
    return values / n


def _extrapolate(history) -> tuple[np.ndarray, np.ndarray] | None:
    """RRE of the held (x_j, Tx_j): s = sum_j gamma_j x_{j+1}, where gamma
    sums to 1 and minimizes ||sum_j gamma_j (x_{j+1} - x_j)||_2, with
    Ts = max(sum_j gamma_j Tx_{j+1}, 0) by the linearity of T.  None when
    the Gram matrix is singular, gamma is not finite or s has a negative
    cell.  Each Gram entry is one `np.sum`, so reruns round alike."""
    xs, txs = zip(*history)
    diffs = [b - a for a, b in zip(xs, xs[1:])]
    m = len(diffs)
    gram = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            gram[i, j] = gram[j, i] = np.sum(diffs[i] * diffs[j])
    try:
        # a nearly singular Gram matrix gives a gamma that is not finite
        with np.errstate(all="ignore"):
            y = np.linalg.solve(gram, np.ones(m))
            gamma = y / np.sum(y)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(gamma)):
        return None
    s = gamma[0] * xs[1]
    ts = gamma[0] * txs[1]
    for g, x, tx in zip(gamma[1:], xs[2:], txs[2:]):
        s += g * x
        ts += g * tx
    if s.min() < 0:
        return None
    return s, np.maximum(ts, 0.0, out=ts)


def _walk(f, tf, s, ts, ratio):
    """Walk the ray y = f + omega (s - f), Ty = max(Tf + omega (Ts - Tf), 0)
    from omega = 1 through _RAY_FACTOR, _RAY_FACTOR^2, ... (at most
    _RAY_STEPS points past s) while y stays nonnegative and its ratio
    strictly rises; returns the last point where it rose as (y, Ty, norm,
    ratio), with `ratio(y, Ty)` giving the last two."""
    y, ty, (norm, rho) = s, ts, ratio(s, ts)
    ds, dts = s - f, ts - tf
    for k in range(1, _RAY_STEPS + 1):
        omega = _RAY_FACTOR**k
        ray = f + omega * ds
        if ray.min() < 0:
            break
        tray = np.maximum(tf + omega * dts, 0.0)
        ray_norm, ray_rho = ratio(ray, tray)
        if not ray_rho > rho:
            break
        y, ty, norm, rho = ray, tray, ray_norm, ray_rho
    return y, ty, norm, rho


def extremize(f0: GridFunction, plan: TransformPlan, max_iters: int = 500,
              tol: float = 1e-4) -> ExtremizeTrace:
    """Iterate until the optimality residual is at most `tol` or `max_iters`;
    records (ratio, residual, extrapolated) per step.

    Step k takes the unit-norm iterate f and Tf.  Once m + 2 iterates are
    held it extrapolates them (`_extrapolate`) and walks the ray from f
    through the extrapolate s while the ratio rises (`_walk`); when the
    ratio ||Ty||_q / ||y||_p of the point y it stops at, exact through the
    linearity of T, beats ||Tf||_q, y / ||y||_p replaces f and the history
    restarts from it.  Then phi = ||Tf||_q, u = T*[(Tf)^d] and the residual
    ||u - phi^{d+1} f^{1/d}|| / ||phi^{d+1} f^{1/d}||, and, unless the
    loop stops, the power map f' = u^d / ||u^d||_p.  So every step runs
    one forward and one adjoint transform and two L^p norms (one for phi,
    one for f'; two more per ray point where it extrapolates),
    `max_iters=0` records the start's residual alone while
    `max_iters=1, tol=0` returns f' as `final`.

    No recorded ratio falls below the one before.  With p' = q = d + 1,
    ||u^d||_p = ||u||_{p'}^d, so <u, f'> = ||u||_{p'}, and Holder twice gives

        ||Tf'||_q ||Tf||_q^d >= <(Tf)^d, Tf'> = <u, f'> = ||u||_{p'}
                             >= <u, f> = ||Tf||_q^{d+1},

    on matched and mismatched plans alike, since T* is T's exact transpose.
    This holds for any iterate f, a taken ray point too: its recorded ratio
    is its own (to about omega * eps, see `_RAY_STEPS`), and higher than
    the one it replaces.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be nonnegative")
    # a NaN or negative tol never fires the residual stop, an infinite one always does
    if not (0 <= tol < math.inf):
        raise ValueError("tol must be finite and nonnegative")
    if f0.is_zero():
        raise ValueError("cannot iterate from the zero function")
    if f0.minimum < 0:
        raise ValueError("the start must be nonnegative")
    d = plan.dim
    exps = ExponentPair(d)
    p, q = exps.p, exps.q
    spec, out_spec = f0.spec, plan.output
    vol, out_vol = spec.cell_volume, out_spec.cell_volume
    f = _unit(f0.values, p, vol)

    def ratio(y, ty):
        norm = array_lp_norm(y, p, vol)
        return norm, array_lp_norm(ty, q, out_vol) / norm if norm > 0 else 0.0

    steps = []
    history = []  # the last iterates and their transforms, ravelled
    for k in range(max_iters + 1):
        iterate = GridFunction._owned(spec, f)
        tf = forward_transform(iterate, plan).values
        phi = array_lp_norm(tf, q, out_vol)  # f has unit L^p norm
        history.append((f.ravel(), tf.ravel()))
        extrapolated = False
        if len(history) == _RRE_DEPTH + 2:
            found = _extrapolate(history)
            del history[0]
            if found is not None:
                s, ts, norm, rho = _walk(f.ravel(), tf.ravel(), *found, ratio)
                if rho > phi:
                    f, phi = (s / norm).reshape(spec.shape), rho
                    tf = (ts / norm).reshape(tf.shape)
                    iterate = GridFunction._owned(spec, f)
                    history = [(f.ravel(), tf.ravel())]
                    extrapolated = True
        u = adjoint_transform(GridFunction._owned(out_spec, tf**d), plan).values
        target = phi ** (d + 1) * f ** (1.0 / d)
        denom = math.sqrt(float(np.sum(target**2)))
        residual = math.sqrt(float(np.sum((u - target) ** 2))) / denom
        steps.append(TraceStep(phi, residual, extrapolated))
        if residual <= tol:
            return ExtremizeTrace(tuple(steps), iterate, "residual")
        if k == max_iters:
            return ExtremizeTrace(tuple(steps), iterate, "max_iters")
        f = _unit(u**d, p, vol)


def gaussian_init(spec: GridSpec) -> GridFunction:
    """The unit-width Gaussian exp(-|x|^2 / 2) restricted to the grid box,
    the one generated start of a search; a cell far enough out that |x|^2
    overflows reads exactly 0."""
    with np.errstate(over="ignore"):
        return GridFunction.from_callable(spec, lambda x: np.exp(-np.sum(x * x, axis=1) / 2.0))

