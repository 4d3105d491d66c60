import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from pararadon import norms
from pararadon.grid import GridFunction, box_spec
from pararadon.norms import (LORENTZ_R, ExponentPair, Level, entropy_refine, lorentz_quasinorm,
                             lp_norm, rough_decompose, tail_mass)
from pararadon.operator import TransformPlan, rayleigh_ratio
from pararadon.testing import random_function

P = 1.5  # the d = 2 exponent (d+1)/d
UNIT = box_spec([0, 0], [1, 1], [32, 32])


def test_exponent_pair():
    for d in (2, 3, 5):
        pair = ExponentPair(d)
        assert pair.p == (d + 1) / d
        assert pair.q == d + 1


def test_lp_norm_indicator():
    f = GridFunction(UNIT, np.ones(UNIT.shape))
    assert lp_norm(f, P) == pytest.approx(1.0, abs=1e-14)
    assert lp_norm(GridFunction.zeros(UNIT), P) == 0.0


def test_lp_norm_scaled_box():
    # (2^1.5 * |[0,1]x[0,2]|)^(2/3) = (2^1.5 * 2)^(2/3)
    spec = box_spec([0, 0], [1, 2], [16, 32])
    f = GridFunction(spec, np.full(spec.shape, 2.0))
    assert lp_norm(f, P) == pytest.approx((2**1.5 * 2) ** (2 / 3), rel=1e-12)


def test_lp_norm_rejects_bad_exponent():
    f = GridFunction(UNIT, np.ones(UNIT.shape))
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_lp_homogeneity():
    rng = np.random.default_rng(2)
    f = random_function(UNIT, rng)
    for c in (0.3, 2.0, 117.0):
        scaled = f.with_values(c * f.values)
        assert lp_norm(scaled, P) == pytest.approx(c * lp_norm(f, P), rel=1e-12)


def test_lp_norm_keeps_tiny_and_huge_inputs():
    # |f|^p under- or overflows here (at 5e102 only the sum of the finite
    # cubes); the norm is c * |box|^(1/p) all the same
    spec = box_spec([-2, -2], [2, 2], [8, 8])
    for c, p in ((1e-200, 3.0), (1e-250, 1.5), (1e-250, 3.0), (1e200, 3.0), (1e250, 1.5),
                 (5e102, 3.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lp_norm(GridFunction(spec, np.full(spec.shape, c)), p)
        assert got == pytest.approx(c * 16.0 ** (1 / p), rel=1e-13)


def test_lp_norm_homogeneous_over_the_double_range():
    rng = np.random.default_rng(4)
    f = random_function(UNIT, rng)
    for p in (1.5, 3.0):
        base = lp_norm(f, p)
        for c in (1e-250, 1e-150, 1e150, 1e250):
            scaled = lp_norm(f.with_values(c * f.values), p)
            assert scaled == pytest.approx(c * base, rel=1e-12)


def test_lp_norm_keeps_the_plain_sum_when_it_fits():
    rng = np.random.default_rng(5)
    f = random_function(UNIT, rng)
    for p in (1.0, 1.5, 3.0):
        plain = (float(np.sum(np.abs(f.values) ** p)) * UNIT.cell_volume) ** (1.0 / p)
        assert lp_norm(f, p) == plain


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_power_matches_pow_at_the_norm_exponents(d):
    # products and one root against `**`, cell by cell: within 4 eps of
    # pow's value (relative, or of the smallest normal double where the
    # result is subnormal), 0 at exactly the zeros, and silent where the
    # powers of [1e-100, 1e100] leave the double range.  `**` raises to
    # the double nearest (d+1)/d, which at d = 3 is 4/3 - 7.4e-17, and so
    # misses a^(4/3) by a further |ln a| * 7.4e-17 (up to 77 eps here)
    rng = np.random.default_rng(d)
    wide = 10.0 ** rng.uniform(-100, 100, 5000)
    mixed = np.where(rng.random(5000) < 0.6, 0.0, rng.random(5000))
    pair = ExponentPair(d)
    for p, exact in ((pair.p, Fraction(d + 1, d)), (pair.q, Fraction(d + 1))):
        for a in (wide, np.zeros(4096), mixed):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = norms._power(a, p)
            with np.errstate(all="ignore"):
                want = a**p
            assert got.shape == a.shape and got.dtype == np.float64
            assert np.array_equal(got == 0, want == 0) and np.all(got[a == 0] == 0.0)
            assert np.array_equal(np.isinf(got), np.isinf(want))
            fin = np.isfinite(want) & (a > 0)
            floor = np.maximum(want[fin], np.finfo(float).tiny)
            tol = 4 * np.finfo(float).eps + abs(float(Fraction(p) - exact)) * np.abs(np.log(a[fin]))
            assert np.all(np.abs(got[fin] - want[fin]) <= tol * floor), p


def test_rayleigh_ratio_is_dilation_invariant_for_tiny_inputs():
    spec = box_spec([-2, -2], [2, 2], [16, 16])
    plan = TransformPlan(spec)
    f = random_function(spec, np.random.default_rng(6))
    base = rayleigh_ratio(f, plan)
    for c in (1e-200, 1e200):
        assert rayleigh_ratio(f.with_values(c * f.values), plan) == pytest.approx(base, rel=1e-12)


def test_tail_mass():
    f = GridFunction(UNIT, np.ones(UNIT.shape))
    assert tail_mass(f, 10.0) == 0.0
    assert tail_mass(f, 0.0) == pytest.approx(lp_norm(f, P) ** P, rel=1e-14)
    # area of [0,3]^2 outside the radius-3 disk: 9 - 9 pi / 4
    spec = box_spec([0, 0], [3, 3], [256, 256])
    g = GridFunction(spec, np.ones(spec.shape))
    assert tail_mass(g, 3.0) == pytest.approx(9 - 9 * math.pi / 4, abs=2e-3)
    for R in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            tail_mass(f, R)


def test_tail_mass_overflows_to_inf_without_a_warning():
    # |f|^p = (1e300)^1.5 overflows; inf is the rounded integral
    f = GridFunction(box_spec([-2, -2], [2, 2], [8, 8]), np.full((8, 8), 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tail_mass(f, 0.0) == math.inf


def test_rough_decompose_single_level():
    f = GridFunction(UNIT, np.full(UNIT.shape, 5.0))  # 5 = 2^2 * 1.25
    dec = rough_decompose(f)
    assert [lv.j for lv in dec.levels] == [2]
    assert np.all(dec.levels[0].residuals == 1.25)
    g = GridFunction(UNIT, np.ones(UNIT.shape))
    dec = rough_decompose(g)
    assert [lv.j for lv in dec.levels] == [0]
    assert np.all(dec.levels[0].residuals == 1.0)


def test_rough_decompose_two_values():
    vals = np.full(UNIT.shape, 0.01)
    vals[:16] = 1.5
    dec = rough_decompose(GridFunction(UNIT, vals))
    by_j = {lv.j: lv for lv in dec.levels}
    assert set(by_j) == {-7, 0}  # floor(log2 0.01) = -7
    assert np.allclose(by_j[-7].residuals, 1.28)
    assert np.allclose(by_j[0].residuals, 1.5)


def test_power_of_two_boundary():
    # exact powers of two belong to the upper level with residual 1
    vals = np.full(UNIT.shape, 0.25)
    dec = rough_decompose(GridFunction(UNIT, vals))
    assert [lv.j for lv in dec.levels] == [-2]
    assert np.all(dec.levels[0].residuals == 1.0)


def test_reconstruction_exact():
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = random_function(UNIT, rng, scale=rng.uniform(0.1, 50))
        dec = rough_decompose(f)
        assert np.array_equal(dec.reconstruct().values, f.values)


def test_levels_partition_support():
    rng = np.random.default_rng(4)
    f = random_function(UNIT, rng)
    dec = rough_decompose(f)
    seen = np.concatenate([lv.cells for lv in dec.levels])
    assert len(seen) == len(set(seen))  # pairwise disjoint
    assert set(seen) == set(np.flatnonzero(f.values.ravel() > 0))
    for lv in dec.levels:
        assert np.all((lv.residuals >= 1.0) & (lv.residuals < 2.0))


def test_signed_function_decomposes_its_modulus():
    # the levels split |f|; negative cells used to be dropped
    spec = box_spec([0, 0], [1, 1], [16, 16])
    vals = random_function(spec, np.random.default_rng(5)).values.copy()
    vals[3, 4], vals[10, 2] = -0.5, -3.0
    f = GridFunction(spec, vals, allow_negative=True)
    modulus = GridFunction(f.spec, np.abs(vals))
    dec = rough_decompose(f)
    seen = np.concatenate([lv.cells for lv in dec.levels])
    assert set(seen) == set(np.flatnonzero(vals.ravel()))
    assert np.array_equal(dec.reconstruct().values, modulus.values)
    assert np.array_equal(dec.restrict_to_levels(lv.j for lv in dec.levels).values, vals)
    assert lorentz_quasinorm(f) == lorentz_quasinorm(modulus)
    refined, kept = entropy_refine(f, 0.04)  # the -3.0 cell is level 1, alone
    assert 1 in kept and refined.values[10, 2] == -3.0


def test_lorentz_quasinorm_values():
    # single level: 5 = 2^2 * 1.25 on a unit-measure set -> score 4
    spec = box_spec([0, 0], [1, 1], [8, 8])
    f = GridFunction(spec, np.full(spec.shape, 5.0))
    assert lorentz_quasinorm(f) == pytest.approx(4.0, rel=1e-12)
    assert lorentz_quasinorm(GridFunction.zeros(spec)) == 0.0


def test_lorentz_quasinorm_rescales_like_lp_norm():
    # one level: the quasinorm is its score, also where score^r leaves the
    # double range, with no warning; a normal sum keeps its plain bits
    spec = box_spec([-1, -1], [1, 1], [8, 8])
    for c in (1e200, 1e-200):
        f = GridFunction(spec, np.full(spec.shape, c))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lorentz_quasinorm(f)
        assert got == rough_decompose(f).scores()[math.frexp(c)[1] - 1]
    assert lorentz_quasinorm(GridFunction(spec, np.full(spec.shape, 1e200))) == 1.9288144387737097e200
    assert lorentz_quasinorm(GridFunction(spec, np.full(spec.shape, 1e-200))) == 1.6459862805438433e-200
    f = random_function(UNIT, np.random.default_rng(3), scale=4.0)
    scores = np.array(list(rough_decompose(f).scores().values()))
    assert lorentz_quasinorm(f) == float(np.sum(scores**LORENTZ_R) ** (1.0 / LORENTZ_R))


def test_lorentz_two_levels():
    # chi_A + 4 chi_B with |A| = |B| = 1: (1^2 + 4^2)^(1/2) = sqrt(17)
    spec = box_spec([0, 0], [2, 2], [2, 2])  # four cells of unit measure
    f = GridFunction(spec, np.array([[1.0, 0.0], [4.0, 0.0]]))
    assert lorentz_quasinorm(f) == pytest.approx(math.sqrt(17), rel=1e-12)


def test_exponents_follow_the_dimension():
    # d = 3, p = 4/3, eight unit cells: 5 = 2^2 * 1.25 at the far corner, 1 on
    # three cells near the origin; a hard-coded p = 1.5 misses every value
    spec = box_spec([0, 0, 0], [2, 2, 2], [2, 2, 2])
    vals = np.zeros(spec.shape)
    vals[1, 1, 1] = 5.0
    vals[0, 0, 0] = vals[1, 0, 0] = vals[0, 1, 0] = 1.0
    f = GridFunction(spec, vals)
    # level scores 2^2 * 1^(3/4) = 4 and 2^0 * 3^(3/4); at p = 1.5 the second is 3^(2/3)
    assert lorentz_quasinorm(f) == pytest.approx(math.sqrt(16 + 3**1.5), rel=1e-12)
    # only the corner midpoint (1.5, 1.5, 1.5) has |x| >= 2: 5^(4/3), not 5^(3/2)
    assert tail_mass(f, 2.0) == pytest.approx(5 ** (4 / 3), rel=1e-12)
    assert tail_mass(f, 0.0) == pytest.approx(5 ** (4 / 3) + 3, rel=1e-12)
    # eta = 2.2 lies between 3^(2/3) = 2.08 and 3^(3/4) = 2.28, so level 0 stays
    refined, kept = entropy_refine(f, 2.2)
    assert kept == {0, 2} and np.array_equal(refined.values, vals)


def test_entropy_refine_example():
    # 1.5 chi_A + 0.01 chi_B, |A| = |B| = 1: scores 1 and 2^-7
    spec = box_spec([0, 0], [2, 2], [2, 2])
    f = GridFunction(spec, np.array([[1.5, 0.0], [0.01, 0.0]]))
    refined, kept = entropy_refine(f, 0.1)
    assert kept == {0}
    assert np.array_equal(refined.values, np.array([[1.5, 0.0], [0.0, 0.0]]))


def test_entropy_refine_extremes():
    spec = box_spec([0, 0], [2, 2], [2, 2])
    f = GridFunction(spec, np.array([[1.5, 0.0], [0.01, 0.0]]))
    refined, kept = entropy_refine(f, 1e-6)
    assert np.array_equal(refined.values, f.values)
    refined, kept = entropy_refine(f, 100.0)
    assert kept == set() and refined.is_zero()
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eta"):
            entropy_refine(f, bad)
    with pytest.raises(ValueError):
        entropy_refine(GridFunction.zeros(spec), 0.1)


def test_entropy_refine_checks_its_bounds_through_overflow():
    # ||f||_p^p = (1e300 * 4^(2/3))^1.5 overflows: inf meets both bounds,
    # and a dropped level whose score^r overflows is checked the same way
    spec = box_spec([-1, -1], [1, 1], [8, 8])
    for c, eta, kept_levels in ((1e300, 0.1, {996}), (1e300, 1e301, set()),
                                (1e160, 1e161, set())):
        f = GridFunction(spec, np.full(spec.shape, c))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            refined, kept = entropy_refine(f, eta)
        assert kept == kept_levels
        assert np.array_equal(refined.values, f.values if kept else np.zeros(spec.shape))


def test_entropy_refine_bounds():
    rng = np.random.default_rng(6)
    r = LORENTZ_R
    for eta in (0.01, 0.1, 0.5):
        f = random_function(UNIT, rng, scale=4.0)
        refined, kept = entropy_refine(f, eta)
        dropped = f.with_values(f.values - refined.values)
        assert lorentz_quasinorm(dropped) ** r <= eta ** (r - P) * lp_norm(f, P) ** P
        assert len(kept) * eta**P <= lp_norm(f, P) ** P



def _rough_decompose_by_masks(f):
    """One boolean mask over the nonzero cells per level."""
    flat = f.values.ravel()
    nz = np.flatnonzero(flat > 0)
    mant, expo = np.frexp(flat[nz])
    js = expo.astype(np.int64) - 1
    residuals = 2.0 * mant
    return [Level(int(j), nz[js == j], residuals[js == j]) for j in np.unique(js)]


@pytest.mark.parametrize("seed", range(4))
def test_rough_decompose_matches_per_level_masks(seed):
    rng = np.random.default_rng(seed)
    spec = box_spec([0, 0], [1, 1], [40, 50])
    values = np.exp(rng.normal(0.0, 30.0, spec.size))
    picks = rng.permutation(spec.size)
    values[picks[:300]] = 0.0
    values[picks[300:500]] = np.ldexp(1.0, rng.integers(-1074, 1000, 200))  # powers of two
    values[picks[500:700]] = rng.random(200) * 2.0**-1022  # subnormals
    values[picks[700:720]] = 5e-324
    f = GridFunction(spec, values.reshape(spec.shape))
    got = rough_decompose(f).levels
    want = _rough_decompose_by_masks(f)
    assert [lv.j for lv in got] == [lv.j for lv in want]
    for a, b in zip(got, want):
        assert np.array_equal(a.cells, b.cells) and np.array_equal(a.residuals, b.residuals)
        assert a.cells.dtype == b.cells.dtype and a.residuals.dtype == b.residuals.dtype
