import math

import numpy as np
import pytest

from pararadon.grid import GridFunction, box_spec
from pararadon.operator import (TransformPlan, adjoint_transform, bilinear_form,
                                forward_at_points, forward_transform, inner, rayleigh_ratio)
from pararadon.testing import random_function, smooth_bump

SPEC = box_spec([-2, -2], [2, 2], [64, 64])
PLAN = TransformPlan(SPEC)


def test_plan_t_box():
    # shifts are capped at sqrt(out_hi_d - in_lo_d) = 2 here
    assert PLAN.t_axes[0][0] == pytest.approx(-2.0, abs=PLAN.t_step[0])
    assert PLAN.t_axes[0][-1] == pytest.approx(2.0, abs=PLAN.t_step[0])
    assert PLAN.t_step[0] <= SPEC.widths[0]


def test_plan_rejects_coarse_t_step():
    with pytest.raises(ValueError):
        TransformPlan(SPEC, t_step=1.0)
    for mode in ("bogus", "discrete-transpose"):
        with pytest.raises(ValueError):
            TransformPlan(SPEC, adjoint_mode=mode)


def test_plan_empty_t_box_gives_zero():
    # output box entirely below the input box: no shift can connect them
    out = box_spec([-2, -9], [2, -5], [64, 64])
    plan = TransformPlan(SPEC, output=out)
    f = GridFunction(SPEC, np.ones(SPEC.shape))
    assert forward_transform(f, plan).is_zero()


def test_forward_oracle_slab():
    # T chi_{[-1,1]^2}(0,0) = |{t : |t| <= 1, t^2 <= 1}| = 2; at (0,2) the
    # constraints t^2 in [1,3], |t| <= 1 have measure zero
    spec = box_spec([-2, -2], [2, 2], [256, 256])
    chi = GridFunction.box_indicator(spec, [-1, -1], [1, 1])
    plan = TransformPlan(spec, t_step=1 / 128)
    vals = forward_at_points(chi, np.array([[0.0, 0.0], [0.0, 2.0]]), plan)
    assert vals[0] == pytest.approx(2.0, abs=0.02)
    assert vals[1] <= 0.02


def test_translation_equivariance():
    # whole-cell shift of an interior-supported f shifts Tf exactly
    rng = np.random.default_rng(0)
    vals = np.zeros(SPEC.shape)
    vals[20:36, 20:36] = rng.random((16, 16))
    f = GridFunction(SPEC, vals)
    tf = forward_transform(f, PLAN)
    shifted = f.with_values(np.roll(f.values, (3, 5), axis=(0, 1)))
    tf_shifted = forward_transform(shifted, PLAN)
    # rows 0-2 and columns 0-4 of the rolled reference are wrap artifacts
    assert np.allclose(tf_shifted.values[3:, 5:], tf.values[:-3, :-5], atol=1e-13)


def test_positivity_and_linearity():
    rng = np.random.default_rng(1)
    f = random_function(SPEC, rng)
    g = random_function(SPEC, rng)
    tf, tg = forward_transform(f, PLAN), forward_transform(g, PLAN)
    assert tf.values.min() >= 0 and adjoint_transform(g, PLAN).values.min() >= 0
    combo = f.with_values(2.0 * f.values + 0.5 * g.values)
    lhs = forward_transform(combo, PLAN).values
    assert np.allclose(lhs, 2.0 * tf.values + 0.5 * tg.values, atol=1e-12)


def test_discrete_adjointness():
    rng = np.random.default_rng(2)
    for _ in range(100):
        f = random_function(SPEC, rng)
        g = random_function(SPEC, rng)
        lhs = bilinear_form(g, f, PLAN)
        rhs = inner(adjoint_transform(g, PLAN), f)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))


# d = 3, and a 2-D plan whose output grid is shifted off and coarser than
# the input grid, so no axis interpolates on the source spacing
PLANS_3D_AND_MISMATCHED = {
    "3d": TransformPlan(box_spec([-3] * 3, [3] * 3, [12] * 3)),
    "mismatched": TransformPlan(box_spec([-2, -2], [2, 2], [48, 40]),
                                output=box_spec([-1.7, -2.3], [2.5, 1.9], [30, 36])),
}


@pytest.mark.parametrize("name", PLANS_3D_AND_MISMATCHED)
def test_adjointness_and_oracle_in_3d_and_on_mismatched_grids(name):
    plan = PLANS_3D_AND_MISMATCHED[name]
    rng = np.random.default_rng(4)
    for _ in range(5):
        f = random_function(plan.input, rng)
        g = random_function(plan.output, rng)
        lhs = bilinear_form(g, f, plan)
        rhs = inner(adjoint_transform(g, plan), f)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))
    mids = plan.output.midpoints()
    oracle = forward_at_points(f, mids, plan)
    tf = forward_transform(f, plan).values.ravel()
    assert np.abs(tf - oracle).max() <= 1e-12 * np.abs(oracle).max()
    chi = GridFunction.box_indicator(plan.input, [-1] * plan.dim, [1] * plan.dim)
    tchi = forward_transform(chi, plan).values.ravel()
    assert np.array_equal(tchi == 0, forward_at_points(chi, mids, plan) == 0)
    assert 0 < np.count_nonzero(tchi) < len(tchi)
    for out in (forward_transform(f, plan), adjoint_transform(g, plan, mode="discrete"),
                adjoint_transform(g, plan, mode="continuum")):
        assert out.values.min() >= 0 and out.values.max() > 0


def test_forward_oracle_ball_3d():
    # T chi_{[-1,1]^3}(0) = |{t in R^2 : |t_i| <= 1, |t|^2 <= 1}| = pi; the
    # output grid has a midpoint at the origin
    spec = box_spec([-1.5] * 3, [1.5] * 3, [48] * 3)
    out = box_spec([-3 / 32] * 3, [3 / 32] * 3, [3] * 3)
    chi = GridFunction.box_indicator(spec, [-1] * 3, [1] * 3)
    tchi = forward_transform(chi, TransformPlan(spec, output=out, t_step=1 / 32))
    assert tchi.values[1, 1, 1] == pytest.approx(math.pi, rel=5e-3)


def test_adjoint_oracle():
    # T* chi_{[-1,1]^2}(0,0) = 2 by the same slab computation
    spec = box_spec([-2, -2], [2, 2], [256, 256])
    chi = GridFunction.box_indicator(spec, [-1, -1], [1, 1])
    plan = TransformPlan(spec, t_step=1 / 128)
    tstar = adjoint_transform(chi, plan, mode="continuum")
    center = tstar.sample_at(np.array([[0.0, 0.0]]))
    assert center[0] == pytest.approx(2.0, abs=0.03)
    assert adjoint_transform(GridFunction.zeros(spec), plan).is_zero()


def test_adjoint_modes_converge():
    # the modes differ once resolutions differ; the gap shrinks under refinement
    gaps = []
    for n in (24, 48, 96):
        s_in = box_spec([-2, -2], [2, 2], [n, n])
        s_out = box_spec([-2, -2], [2, 2], [(3 * n) // 2, (3 * n) // 2])
        plan = TransformPlan(s_in, output=s_out)
        g = smooth_bump(s_out, radius=1.5)
        a1 = adjoint_transform(g, plan, mode="discrete")
        a2 = adjoint_transform(g, plan, mode="continuum")
        gaps.append(np.linalg.norm(a1.values - a2.values) / np.linalg.norm(a1.values))
    assert gaps[0] > gaps[1] > gaps[2]


def test_adjoint_modes_agree_on_matched_grids():
    # with the output grid equal to the input grid (every plan the CLI builds)
    # both modes sum the same offsets and weights, so they agree to rounding;
    # their zero sets may still differ by rounding, so those are not compared
    rng = np.random.default_rng(5)
    cases = ((box_spec([-2, -2], [2, 2], [64, 64]), None),
             (box_spec([-2, -2], [2, 2], [96, 96]), 1 / 64),
             (box_spec([-2, -2], [2, 3], [40, 52]), None),
             (box_spec([-2] * 3, [2] * 3, [16] * 3), None))
    for spec, t_step in cases:
        plan = TransformPlan(spec, t_step=t_step)
        d = spec.dim
        for g in (random_function(spec, rng), GridFunction.box_indicator(spec, [-1] * d, [1] * d)):
            a1 = adjoint_transform(g, plan, mode="discrete").values
            a2 = adjoint_transform(g, plan, mode="continuum").values
            assert np.abs(a1 - a2).max() <= 1e-13 * np.abs(a1).max()


def test_bilinear_form_indicator_oracle():
    # <chi, T chi> for chi_{[-1,1]^2}: int (2-|t|)(2-t^2) over |t| <= sqrt(2)
    # equals 16 sqrt(2)/3 - 2
    spec = box_spec([-2, -2], [2, 2], [256, 256])
    chi = GridFunction.box_indicator(spec, [-1, -1], [1, 1])
    plan = TransformPlan(spec, t_step=1 / 128)
    val = bilinear_form(chi, chi, plan)
    assert val == pytest.approx(16 * math.sqrt(2) / 3 - 2, rel=2e-3)
    assert bilinear_form(GridFunction.zeros(spec), chi, plan) == 0.0


def test_bilinear_form_brute_force_oracle():
    # step-function (nearest-cell) evaluation is an independent discretization
    spec = box_spec([-2, -2], [2, 2], [32, 32])
    f = smooth_bump(spec, radius=1.4)
    g = smooth_bump(spec, center=[0.2, -0.1], radius=1.2)
    plan = TransformPlan(spec)
    val = bilinear_form(g, f, plan)

    mids = spec.midpoints()
    lo, h = spec.lo, spec.widths
    flat = f.values.ravel()

    def step_eval(pts):
        idx = np.floor((pts - lo) / h).astype(int)
        ok = np.all((idx >= 0) & (idx < np.array(spec.counts)), axis=1)
        out = np.zeros(len(pts))
        out[ok] = flat[idx[ok, 0] * spec.counts[1] + idx[ok, 1]]
        return out

    acc = np.zeros(len(mids))
    for t in plan.t_axes[0]:
        q = mids.copy()
        q[:, 0] -= t
        q[:, 1] -= t * t
        acc += step_eval(q)
    brute = float((acc * plan.t_weight * g.values.ravel()).sum()) * spec.cell_volume
    assert val == pytest.approx(brute, rel=0.03)


def test_rayleigh_scale_invariance():
    rng = np.random.default_rng(3)
    f = random_function(SPEC, rng)
    base = rayleigh_ratio(f, PLAN)
    for c in (0.1, 7.0):
        assert rayleigh_ratio(f.with_values(c * f.values), PLAN) == pytest.approx(base, rel=1e-12)
    with pytest.raises(ZeroDivisionError):
        rayleigh_ratio(GridFunction.zeros(SPEC), PLAN)


def test_rayleigh_grid_stability():
    # the indicator ratio is stable to < 1% between 128^2 and 256^2
    vals = []
    for n in (128, 256):
        spec = box_spec([-2, -2], [2, 2], [n, n])
        chi = GridFunction.box_indicator(spec, [-1, -1], [1, 1])
        vals.append(rayleigh_ratio(chi, TransformPlan(spec)))
    assert abs(vals[0] - vals[1]) / vals[1] < 0.01
    assert vals[1] == pytest.approx(1.0430, abs=2e-3)  # frozen from the 256^2 run


def test_quadrature_convergence_of_forward_oracle():
    spec = box_spec([-2, -2], [2, 2], [256, 256])
    chi = GridFunction.box_indicator(spec, [-1, -1], [1, 1])
    errs = []
    for ts in (1 / 64, 1 / 96, 1 / 128):
        plan = TransformPlan(spec, t_step=ts)
        errs.append(abs(forward_at_points(chi, np.array([[0.0, 0.0]]), plan)[0] - 2.0))
    assert errs[-1] <= 0.02 and max(errs) <= 0.05


def test_plan_mismatch_errors():
    other = box_spec([-1, -1], [1, 1], [32, 32])
    f = GridFunction(other, np.ones(other.shape))
    with pytest.raises(ValueError):
        forward_transform(f, PLAN)
    with pytest.raises(ValueError):
        adjoint_transform(f, PLAN)
    with pytest.raises(ValueError):
        TransformPlan(SPEC, output=box_spec([-1, -1, -1], [1, 1, 1], [8, 8, 8]))
