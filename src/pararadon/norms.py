"""Lebesgue norms, rough level-set decomposition, Lorentz quasinorms,
and entropy refinement of grid functions.

The rough decomposition writes |f| = sum_j 2^j f_j with 1 <= f_j < 2 on
pairwise disjoint sets E_j covering the support; every quantity below is
evaluated with the grid's own midpoint quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction


@dataclass(frozen=True)
class ExponentPair:
    """The scale-invariant exponent pair p = (d+1)/d, q = d+1."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")

    @property
    def p(self) -> float:
        return (self.dim + 1) / self.dim

    @property
    def q(self) -> float:
        return float(self.dim + 1)


# the Lorentz second exponent r of `lorentz_quasinorm` and `entropy_refine`
LORENTZ_R = 2.0


# a total this far above the smallest normal double holds no term whose
# underflow moved it by more than (cells) * 2^-105 of itself
_NORMAL_TOTAL = 2.0**-970


def _power(a: np.ndarray, p: float) -> np.ndarray:
    """a**p for a nonnegative array, as one new array, like `**`.

    The norms' exponents go by multiplication and one root: an integer
    2 <= p <= 8 (q = d + 1) as p - 1 products, and p = 1 + 1/d as
    a * sqrt(a), a * cbrt(a) or a * sqrt(sqrt(a)) at d = 2, 3, 4; any
    other exponent by `**`.  libm `pow` costs about 4 times as much at an
    exact 0 as elsewhere, and a `cover` residual is mostly zeros.  Each
    operation rounds once, so a cell stays within a few ulp of `pow`'s
    (README, "Numerical conventions"), and 0 stays exact 0.  Overflow
    gives inf and underflow 0, with no floating point warning.
    """
    with np.errstate(over="ignore", under="ignore"):
        if 2 <= p <= 8 and p == int(p):
            out = a * a
            for _ in range(int(p) - 2):
                out *= a
            return out
        if p == 1.5:
            out = np.sqrt(a)
        elif p == 4 / 3:
            out = np.cbrt(a)
        elif p == 1.25:
            out = np.sqrt(a)
            np.sqrt(out, out=out)
        else:
            return a**p
        out *= a
        return out


def array_lp_norm(values: np.ndarray, p: float, cell_volume: float) -> float:
    """(sum |values|^p * cell_volume)^(1/p) for an exponent p >= 1, with
    |values|^p taken by `_power`.

    When that total under- or overflows (|values|^p leaves the double
    range, say 1e-200 or 1e200 at p = 3), it is taken again with |values|
    scaled by their maximum, so every finite nonzero input has a finite
    nonzero norm; other inputs keep the plain sum's bits.  No floating
    point warning is emitted either way.
    """
    a = np.abs(values)
    with np.errstate(over="ignore", under="ignore"):
        total = float(np.sum(_power(a, p))) * cell_volume
        if _NORMAL_TOTAL <= total < math.inf:
            return total ** (1.0 / p)
        top = float(a.max())
        if top == 0.0:
            return 0.0
        return top * (float(np.sum(_power(a / top, p))) * cell_volume) ** (1.0 / p)


def lp_norm(f: GridFunction, p: float) -> float:
    """Midpoint-rule L^p norm, (sum |f|^p * cellvol)^(1/p); see
    `array_lp_norm` for how an under- or overflowing sum is rescaled."""
    p = float(p)
    if not (np.isfinite(p) and p >= 1):
        raise ValueError(f"invalid exponent p = {p}; need p >= 1")
    return array_lp_norm(f.values, p, f.spec.cell_volume)


def tail_mass(f: GridFunction, R: float) -> float:
    """Integral of |f|^p, p = (d+1)/d, over the cells whose midpoint has |x| >= R."""
    p = ExponentPair(f.dim).p
    R = float(R)
    if not (math.isfinite(R) and R >= 0):
        raise ValueError(f"R must be a finite nonnegative number, got {R}")
    radii = np.linalg.norm(f.spec.midpoints(), axis=1)
    outside = (radii >= R).reshape(f.spec.shape)
    with np.errstate(over="ignore"):  # inf is the rounded p-th power integral
        return float(np.sum(_power(np.abs(f.values[outside]), p))) * f.spec.cell_volume


@dataclass(frozen=True)
class Level:
    """One dyadic level: |f| = 2^j * residual on `cells`, residual in [1, 2)."""

    j: int
    cells: np.ndarray  # flat row-major cell indices, sorted
    residuals: np.ndarray

    def measure(self, cell_volume: float) -> float:
        return len(self.cells) * cell_volume


@dataclass(frozen=True)
class RoughDecomposition:
    """Level-indexed family {(j, E_j, f_j)} reconstructing |f| exactly."""

    f: GridFunction
    levels: tuple[Level, ...]

    def scores(self) -> dict[int, float]:
        """The level weights 2^j |E_j|^(1/p) at p = (d+1)/d, by level."""
        p = ExponentPair(self.f.dim).p
        cv = self.f.spec.cell_volume
        return {lv.j: math.ldexp(1.0, lv.j) * lv.measure(cv) ** (1.0 / p) for lv in self.levels}

    def reconstruct(self) -> GridFunction:
        out = np.zeros(self.f.spec.size)
        for lv in self.levels:
            out[lv.cells] = np.ldexp(lv.residuals, lv.j)
        return GridFunction._owned(self.f.spec, out.reshape(self.f.spec.shape))

    def restrict_to_levels(self, keep) -> GridFunction:
        """f, with its own signs, restricted to the cells of the levels in `keep`."""
        keep = set(keep)
        out = np.zeros(self.f.spec.size)
        flat = self.f.values.ravel()
        for lv in self.levels:
            if lv.j in keep:
                out[lv.cells] = flat[lv.cells]
        return GridFunction._owned(self.f.spec, out.reshape(self.f.spec.shape),
                                   self.f.allow_negative)


def rough_decompose(f: GridFunction) -> RoughDecomposition:
    """Split |f| by dyadic value bands: level j holds the cells with
    2^j <= |f| < 2^(j+1); exact powers of two sit at the lower residual 1.
    A signed f thus keeps its negative cells, and `reconstruct` gives |f|."""
    flat = np.abs(f.values).ravel()
    nz = np.flatnonzero(flat > 0)
    if nz.size == 0:
        return RoughDecomposition(f, ())
    # frexp is exact: w = m * 2^e with m in [0.5, 1), so w = (2m) * 2^(e-1).
    mant, expo = np.frexp(flat[nz])
    # one stable sort by level keeps each level's cells ascending; the
    # exponents fit int16, which numpy sorts by radix
    order = np.argsort(expo.astype(np.int16), kind="stable")
    js = expo[order]
    cells, residuals = nz[order], 2.0 * mant[order]
    cuts = [0, *(np.flatnonzero(np.diff(js)) + 1).tolist(), len(js)]
    return RoughDecomposition(f, tuple(Level(int(js[a]) - 1, cells[a:b], residuals[a:b])
                                       for a, b in zip(cuts, cuts[1:])))


def lorentz_quasinorm(f: GridFunction) -> float:
    """Level-sum Lorentz quasinorm (sum_j (2^j |E_j|^(1/p))^r)^(1/r) at
    p = (d+1)/d and r = LORENTZ_R: the l^r norm of the level scores, with
    `array_lp_norm`'s rescaling when the sum under- or overflows."""
    dec = rough_decompose(f)
    if not dec.levels:
        return 0.0
    return array_lp_norm(np.array(list(dec.scores().values())), LORENTZ_R, 1.0)


def entropy_refine(f: GridFunction, eta: float) -> tuple[GridFunction, set[int]]:
    """Drop the levels with score 2^j |E_j|^(1/p) <= eta, at p = (d+1)/d
    and r = LORENTZ_R.

    Returns (refined, kept_levels).  Two bounds hold by the exclusion
    rule and are re-checked here: the discarded part has
    ||f - refined||_{p,r}^r <= eta^(r-p) ||f||_p^p, and the kept set has
    at most eta^(-p) ||f||_p^p levels.
    """
    eta = float(eta)
    if not 0 < eta < math.inf:
        raise ValueError("eta must be finite and positive")
    if f.is_zero():
        raise ValueError("entropy refinement needs a nonzero function")
    p, r = ExponentPair(f.dim).p, LORENTZ_R
    dec = rough_decompose(f)
    scores = dec.scores()
    kept = {j for j, s in scores.items() if s > eta}
    refined = dec.restrict_to_levels(kept)

    # in doubles whose overflow is inf: an infinite ||f||_p^p meets both bounds
    with np.errstate(over="ignore", invalid="ignore"):
        fpp = np.float64(lp_norm(f, p)) ** p
        dropped_r = np.sum(np.array([s for j, s in scores.items() if j not in kept]) ** r)
        if dropped_r > eta ** (r - p) * fpp * (1 + 1e-12):
            raise AssertionError("entropy refinement bound violated")
        if len(kept) * np.float64(eta) ** p > fpp * (1 + 1e-12):
            raise AssertionError("kept-level cardinality bound violated")
    return refined, kept

