import itertools
import math

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pararadon import operator
from pararadon.grid import GridFunction, GridSpec, axis_taps, box_spec, corner_weights
from pararadon.norms import ExponentPair, lp_norm
from pararadon.operator import (_TAP_BYTES, ADJOINT_MODES, TransformPlan, _shift_sum,
                                adjoint_transform, bilinear_form, forward_at_points,
                                forward_transform, inner, rayleigh_ratio)
from pararadon.testing import random_function, smooth_bump

SPEC = box_spec([-2, -2], [2, 2], [64, 64])
PLAN = TransformPlan(SPEC)


def test_plan_t_box():
    # shifts are capped at sqrt(out_hi_d - in_lo_d) = 2 here
    assert PLAN.shifts[0, 0] == pytest.approx(-2.0, abs=PLAN.t_step[0])
    assert PLAN.shifts[-1, 0] == pytest.approx(2.0, abs=PLAN.t_step[0])
    assert PLAN.t_step[0] <= SPEC.widths[0]


def test_plan_shift_table():
    # one row (t, |t|^2) per t-node, row-major over the t-axes
    spec = box_spec([-1, -1, -1], [1, 1, 1], [6, 8, 6])
    plan = TransformPlan(spec)
    axes = [np.unique(plan.shifts[:, i]) for i in range(2)]
    t = np.array(list(itertools.product(*axes)))
    assert plan.t_count() == len(t) == len(axes[0]) * len(axes[1])
    assert np.array_equal(plan.shifts, np.column_stack([t, np.sum(t * t, axis=1)]))
    assert not plan.shifts.flags.writeable
    with pytest.raises(TypeError):
        TransformPlan(spec, shifts=plan.shifts)


def test_plan_equality_and_hash():
    # plans compare and hash by their constructor fields; the derived
    # arrays and the lattice cache take no part
    spec = box_spec([-1, -1], [1, 1], [8, 8])
    a, b = TransformPlan(spec), TransformPlan(spec, output=spec, t_step=0.25)
    forward_transform(GridFunction(spec, np.ones(spec.shape)), a)
    assert a._lattice is not None and b._lattice is None
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != TransformPlan(spec, t_step=0.125)
    assert a != TransformPlan(spec, output=box_spec([-1, -1], [1, 1], [8, 10]))


def test_plan_rejects_a_t_node_table_above_the_budget(monkeypatch):
    # the node count is known before any node is laid out: a table one byte
    # over the budget is rejected, one exactly at it builds
    spec = box_spec([-2, -2], [2, 2], [16, 16])
    table = TransformPlan(spec).shifts.nbytes
    monkeypatch.setattr(operator, "_NODE_BYTES", table)
    assert TransformPlan(spec).shifts.nbytes == table
    monkeypatch.setattr(operator, "_NODE_BYTES", table - 1)
    monkeypatch.setattr(operator, "midpoint_axis", None)
    with pytest.raises(ValueError, match="t step 0.25 is too fine"):
        TransformPlan(spec)
    # a subnormal step, whose node count overflows to infinity, is too fine too
    with pytest.raises(ValueError, match="t step 5e-324 is too fine"):
        TransformPlan(spec, t_step=5e-324)


def test_plan_rejects_coarse_t_step():
    with pytest.raises(ValueError):
        TransformPlan(SPEC, t_step=1.0)
    g = GridFunction.zeros(SPEC)
    for mode in ("bogus", "discrete-transpose"):
        with pytest.raises(ValueError, match="adjoint mode"):
            adjoint_transform(g, PLAN, mode=mode)
    # the mode is chosen per call; a plan only reads out the default
    assert PLAN.adjoint_mode == "discrete"
    with pytest.raises(TypeError):
        TransformPlan(SPEC, adjoint_mode="continuum")


def test_plan_empty_t_box_gives_zero():
    # output box entirely below the input box: no shift can connect them
    for d in (2, 3):
        spec = box_spec([-1] * d, [1] * d, [8] * d)
        out = box_spec([-1] * (d - 1) + [-9], [1] * (d - 1) + [-5], [8] * d)
        plan = TransformPlan(spec, output=out)
        assert plan.t_count() == 0 and plan.shifts.shape == (0, d)
        f = GridFunction(spec, np.ones(spec.shape))
        g = GridFunction(out, np.ones(out.shape))
        assert forward_transform(f, plan).is_zero()
        for mode in ADJOINT_MODES:
            assert adjoint_transform(g, plan, mode=mode).is_zero()
        assert not np.any(forward_at_points(f, out.midpoints(), plan))


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


# d = 3 on a matched plan, and a 2-D, a 3-D and a 4-D plan whose output
# grid is shifted off the input grid, with other spacings, so no axis
# interpolates on the source spacing.  "wide_output" has an output box three
# times as wide as the input box, so most shifts carry most output rows
# off the input grid and the discrete adjoint multiplies only the rest.
PLANS_3D_AND_MISMATCHED = {
    "3d": TransformPlan(box_spec([-3] * 3, [3] * 3, [12] * 3)),
    "mismatched": TransformPlan(box_spec([-2, -2], [2, 2], [48, 40]),
                                output=box_spec([-1.7, -2.3], [2.5, 1.9], [30, 36])),
    "3d_mismatched": TransformPlan(box_spec([-3] * 3, [3] * 3, [12] * 3),
                                   output=box_spec([-2.6, -3.3, -2.2], [3.1, 2.4, 3.5],
                                                   [10, 11, 9])),
    "4d_mismatched": TransformPlan(box_spec([-3] * 4, [3] * 4, [6] * 4),
                                   output=box_spec([-2.6, -3.3, -2.2, -2.9], [3.1, 2.4, 3.5, 3.2],
                                                   [5, 7, 6, 5])),
    "wide_output": TransformPlan(box_spec([-1, 0], [1, 2], [12, 12]),
                                 output=box_spec([-3, -1], [3, 3], [20, 16])),
}


def adjoint_at_points(g: GridFunction, points: np.ndarray, plan: TransformPlan) -> np.ndarray:
    """The continuum adjoint T*g(y) = t_weight * sum_t g(y' + t, y_d + |t|^2),
    summed point by point over the plan's t-nodes."""
    out = np.zeros(len(points))
    for shift in plan.shifts:
        out += g.sample_at(points + shift)
    return out * plan.t_weight


def discrete_adjoint_by_points(g: GridFunction, plan: TransformPlan) -> np.ndarray:
    """The transpose of `forward_at_points` at the output midpoints: every
    output midpoint p and t-node s scatter g(p) onto the input cells around
    p - s with the multilinear weights `sample_at` reads them with, scaled
    by the cell-volume ratio of the L^2 pairing."""
    spec = plan.input
    pts = (plan.output.midpoints()[:, None, :] - plan.shifts).reshape(-1, plan.dim)
    mass = np.repeat(g.values.ravel(), plan.t_count())
    out = np.zeros(spec.shape)
    taps = [axis_taps(pos) for pos in ((pts - spec.lo) / spec.widths - 0.5).T]
    for idx, w in corner_weights(taps):
        ok = np.all([(i >= 0) & (i < n) for i, n in zip(idx, spec.counts)], axis=0)
        np.add.at(out, tuple(i[ok] for i in idx), mass[ok] * w[ok])
    return out * plan.t_weight * plan.output.cell_volume / spec.cell_volume


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
    # the continuum adjoint against its own pointwise sum
    in_mids = plan.input.midpoints()
    oracle = adjoint_at_points(g, in_mids, plan)
    tsg = adjoint_transform(g, plan, mode="continuum").values.ravel()
    assert np.abs(tsg - oracle).max() <= 1e-12 * np.abs(oracle).max()
    chi = GridFunction.box_indicator(plan.output, [-1] * plan.dim, [1] * plan.dim)
    tschi = adjoint_transform(chi, plan, mode="continuum").values.ravel()
    assert np.array_equal(tschi == 0, adjoint_at_points(chi, in_mids, plan) == 0)
    assert 0 < np.count_nonzero(tschi) < len(tschi)
    # the discrete adjoint against the transpose of the pointwise forward
    for b in (g, chi):
        oracle = discrete_adjoint_by_points(b, plan).ravel()
        got = adjoint_transform(b, plan, mode="discrete").values.ravel()
        assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()
        assert np.array_equal(got == 0, oracle == 0)
    for out in (forward_transform(f, plan), adjoint_transform(g, plan, mode="discrete"),
                adjoint_transform(g, plan, mode="continuum")):
        assert out.values.min() >= 0 and out.values.max() > 0


# mismatched plans with the output box above the input box in x_d, so the
# shifts with small |t| reach no cell; the separable loop takes their
# t-nodes in several blocks, the last one partial.  The 3-D grids are long
# in x_d and short in x', so that few shifts and points span more than one
# block and the pointwise oracles stay cheap.
BLOCK_PLANS = {
    "2d": TransformPlan(box_spec([-2, -2], [2, 0], [24, 16]),
                        output=box_spec([-1.5, 0.5], [1.5, 2], [20, 16]), t_step=1 / 64),
    "3d": TransformPlan(box_spec([-1, -1, -1], [1, 1, 0], [4, 4, 60]),
                        output=box_spec([-0.6, -0.6, 0.3], [0.6, 0.6, 1], [3, 3, 60]),
                        t_step=0.24),
}


def _scattered_cells(spec) -> GridFunction:
    """Ones on the two opposite corner cells and one interior cell: a
    sparse input whose nonzero bounding box is the whole grid."""
    vals = np.zeros(spec.shape)
    for cell in ((0,) * spec.dim, tuple(n - 1 for n in spec.counts),
                 tuple(n // 3 for n in spec.counts)):
        vals[cell] = 1.0
    return GridFunction(spec, vals)


@pytest.mark.parametrize("name", BLOCK_PLANS)
def test_separable_loop_across_shift_blocks(name):
    plan = BLOCK_PLANS[name]
    src, dst, count = plan.input, plan.output, plan.t_count()
    # every input below is nonzero at both ends of every axis, so the loop's
    # targets are the output cells for the forward and discrete adjoint and
    # the input cells for the continuum adjoint
    lengths = [max(1, _TAP_BYTES // (8 * sum(spec.counts))) for spec in (dst, src)]
    assert all(n < count and count % n for n in lengths)
    ones = GridFunction(src, np.ones(src.shape))
    moved = (dst.midpoints() - plan.shifts[:, None]).reshape(-1, plan.dim)
    reach = ones.sample_at(moved).reshape(count, -1).any(axis=1)
    for n in lengths:
        # a shift that reaches no cell between two that do, in one block
        assert any(not reach[i] and reach[i - i % n:i].any() and reach[i + 1:i - i % n + n].any()
                   for i in range(count))
    rng = np.random.default_rng(9)
    f, g = random_function(src, rng), random_function(dst, rng)
    tf = forward_at_points(f, dst.midpoints(), plan)
    lhs = float(g.values.ravel() @ tf) * dst.cell_volume
    assert abs(lhs - inner(adjoint_transform(g, plan), f)) <= 1e-12 * (1 + abs(lhs))
    sparse = _scattered_cells(src)
    for a, oracle in ((f, tf), (sparse, forward_at_points(sparse, dst.midpoints(), plan))):
        got = forward_transform(a, plan).values.ravel()
        assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()
        assert np.array_equal(got == 0, oracle == 0)
        if a is sparse:
            assert 0 < np.count_nonzero(got) < got.size
    for b in (g, _scattered_cells(dst)):
        for mode, oracle in (("discrete", discrete_adjoint_by_points(b, plan).ravel()),
                             ("continuum", adjoint_at_points(b, src.midpoints(), plan))):
            got = adjoint_transform(b, plan, mode=mode).values.ravel()
            assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()
            assert np.array_equal(got == 0, oracle == 0)
            if b is not g:
                assert 0 < np.count_nonzero(got) < got.size


def test_forward_oracle_ball_3d():
    # T chi_{[-1,1]^3}(0) = |{t in R^2 : |t_i| <= 1, |t|^2 <= 1}| = pi; the
    # output grids have a midpoint at the origin, and the input grids put
    # the faces of the cube on cell edges, so the error falls with h
    errs = []
    for n in (12, 24, 48):
        spec = box_spec([-1.5] * 3, [1.5] * 3, [n] * 3)
        h = 3 / n
        out = box_spec([-1.5 * h] * 3, [1.5 * h] * 3, [3] * 3)
        chi = GridFunction.box_indicator(spec, [-1] * 3, [1] * 3)
        tchi = forward_transform(chi, TransformPlan(spec, output=out, t_step=h / 1.5))
        errs.append(abs(tchi.values[1, 1, 1] - math.pi) / math.pi)
    assert errs[0] > errs[1] > errs[2] and errs[2] <= 5e-3


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
    # both modes sum the same offsets and weights, so they are one operator
    # and run the same lattice convolution
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


def _apply(f: GridFunction, plan: TransformPlan, adjoint: bool) -> np.ndarray:
    """The values of Tf, or with `adjoint` of the discrete T*f."""
    return (adjoint_transform(f, plan) if adjoint else forward_transform(f, plan)).values


# matched plans, which run the lattice engine: the bench `extremize` plan,
# the `cover` plan, d = 3 at two resolutions, d = 4 and d = 5, and grids
# whose counts and widths differ by axis, so that K's reach and the crop
# offset at reach differ by axis too
LATTICE_PLANS = {
    "64sq_tstep": TransformPlan(box_spec([-4, -4], [4, 4], [64, 64]), t_step=1 / 64),
    "192sq": TransformPlan(box_spec([-4, -4], [4, 4], [192, 192])),
    "40x24": TransformPlan(box_spec([-3, -1.5], [3, 1.5], [40, 24])),
    "12cube": TransformPlan(box_spec([-3] * 3, [3] * 3, [12] * 3)),
    "24cube": TransformPlan(box_spec([-3] * 3, [3] * 3, [24] * 3)),
    "12x10x14": TransformPlan(box_spec([-3, -2, -3], [3, 2, 3], [12, 10, 14])),
    "6tesseract": TransformPlan(box_spec([-3] * 4, [3] * 4, [6] * 4)),
    "6x5x7x4": TransformPlan(box_spec([-3, -2, -3, -2], [3, 2, 3, 2], [6, 5, 7, 4])),
    "6penteract": TransformPlan(box_spec([-3] * 5, [3] * 5, [6] * 5)),
}


@pytest.mark.parametrize("name", LATTICE_PLANS)
def test_lattice_matches_separable_loop(name):
    # the separable loop is the engine oracle, forward_at_points the pointwise
    # one; the lattice engine must match both values and exact zero sets
    plan = LATTICE_PLANS[name]
    spec, d = plan.input, plan.dim
    rng = np.random.default_rng(6)
    inputs = (random_function(spec, rng),
              GridFunction.from_callable(spec, lambda x: np.exp(-np.sum(x**2, axis=1))),
              GridFunction.box_indicator(spec, [-1] * d, [1] * d))
    for f in inputs:
        for adjoint in (False, True):
            got = _apply(f, plan, adjoint)
            # an array of its own, not a view that keeps a padded FFT output alive
            assert got.flags.c_contiguous and got.base is None
            loop = _shift_sum(f.values, plan, spec, spec, -1.0, transpose=adjoint)
            assert np.abs(got - loop).max() <= 1e-13 * np.abs(loop).max()
            assert np.array_equal(got == 0, loop == 0)
            assert got.min() >= 0
    # the first two inputs reach every cell; the indicator's transform has a
    # zero set, which the pointwise oracle must share
    chi = inputs[-1]
    oracle = forward_at_points(chi, spec.midpoints(), plan).reshape(spec.shape)
    tchi = forward_transform(chi, plan).values
    assert np.array_equal(tchi == 0, oracle == 0) and 0 < np.count_nonzero(tchi) < tchi.size


def test_lattice_clips_rounding_below_zero():
    # FFT rounding scales with the largest value: next to a 1e20 spike it
    # swamps the transform of 1e-10 dust, which must come out >= 0, not
    # negative, while still matching the loop relative to the maximum
    rng = np.random.default_rng(7)
    vals = np.zeros(SPEC.shape)
    vals[40, 40] = 1e20
    vals[5:20, 5:60] = 1e-10 * rng.random((15, 55))
    f = GridFunction(SPEC, vals)
    for adjoint in (False, True):
        got = _apply(f, PLAN, adjoint)
        loop = _shift_sum(vals, PLAN, SPEC, SPEC, -1.0, transpose=adjoint)
        assert got.min() >= 0
        assert np.abs(got - loop).max() <= 1e-13 * np.abs(loop).max()


def test_lattice_reuses_full_grid_dilation():
    # an input with no zero cell takes the full-grid dilation the plan keeps
    # per direction: the second call reuses it and must be bit-equal to the
    # first and to a fresh plan's.  On the anisotropic 8 x 40 grid that
    # dilation is not the whole grid, so the kept mask carries exact zeros.
    for spec in (box_spec([-2, -1], [2, 1], [8, 40]), box_spec([-2] * 3, [2] * 3, [10, 12, 14])):
        plan = TransformPlan(spec)
        rng = np.random.default_rng(8)
        pos = GridFunction(spec, 0.5 + rng.random(spec.shape))
        box = GridFunction.box_indicator(spec, [-1] * spec.dim, [1] * spec.dim)
        for adjoint in (False, True):
            first = _apply(pos, plan, adjoint)
            hit = _apply(pos, plan, adjoint)
            assert adjoint in plan._lattice.full
            assert np.array_equal(hit, first)
            assert np.array_equal(hit, _apply(pos, TransformPlan(spec), adjoint))
            loop = _shift_sum(pos.values, plan, spec, spec, -1.0, transpose=adjoint)
            assert np.array_equal(hit == 0, loop == 0)
            if spec.dim == 2:
                assert np.count_nonzero(loop == 0) > 0
            # an input with a zero cell still gets its own, smaller dilation
            got = _apply(box, plan, adjoint)
            loop = _shift_sum(box.values, plan, spec, spec, -1.0, transpose=adjoint)
            assert np.array_equal(got == 0, loop == 0)
            assert np.count_nonzero(got == 0) > np.count_nonzero(hit == 0)


def test_transforms_branch_on_the_validated_minimum():
    # the transforms read the minimum that validation took, not a second
    # reduction: a positive input and a signed one with no zero cell take
    # the kept full-grid dilation, a zero-holding one its own; only a
    # signed input gives a signed output, a nonnegative one is clipped at 0
    spec = box_spec([-2, -2], [2, 2], [16, 16])
    rng = np.random.default_rng(9)
    positive = 0.5 + rng.random(spec.shape)
    signed = positive * np.where(rng.random(spec.shape) < 0.3, -1.0, 1.0)
    holes = GridFunction.box_indicator(spec, [-1, -1], [1, 1]).values
    out = box_spec([-1.5, -1.75], [2.5, 2.25], [12, 20])
    for values, full in ((positive, True), (signed, True), (holes, False)):
        f = GridFunction(spec, values, allow_negative=True)
        assert f.minimum == values.min()
        for adjoint in (False, True):
            plan = TransformPlan(spec)
            got = (adjoint_transform(f, plan) if adjoint else forward_transform(f, plan))
            assert (adjoint in plan._lattice.full) == full
            assert got.minimum == got.values.min()
            assert got.allow_negative == (values.min() < 0) == (got.minimum < 0)
            loop = _shift_sum(values, plan, spec, spec, -1.0, transpose=adjoint)
            assert np.abs(got.values - loop).max() <= 1e-12 * np.abs(loop).max()
        tf = forward_transform(f, TransformPlan(spec, output=out))
        assert tf.allow_negative == (values.min() < 0) and tf.minimum == tf.values.min()


# cells per axis that the random plans draw, by dimension
MAX_COUNTS = {2: 16, 3: 16, 4: 6}


@st.composite
def _matched_plans(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    counts = [draw(st.integers(2, MAX_COUNTS[d])) for _ in range(d)]
    lo = np.array([draw(st.floats(-3.0, 1.0)) for _ in range(d)])
    sides = np.array([draw(st.floats(0.5, 5.0)) for _ in range(d)])
    spec = box_spec(lo, lo + sides, counts)
    t_step = draw(st.floats(0.5, 1.0)) * float(min(spec.widths[:-1]))
    plan = TransformPlan(spec, t_step=t_step)
    # the separable-loop oracle builds d per-axis blocks for every shift,
    # which dominates its cost on these grids; anisotropic 3-D grids can
    # reach 14 400 shifts, ~1.4 s per oracle call, so cap them at 1000
    assume(plan.t_count() <= 1000)
    # coefficients are 0 or at least 1e-3 in size, clear of subnormal rounding
    coeff = st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3))
    return plan, (draw(coeff), draw(coeff)), draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(_matched_plans())
def test_lattice_properties_on_random_matched_grids(case):
    plan, (alpha, beta), seed = case
    spec = plan.input
    rng = np.random.default_rng(seed)
    f, g = random_function(spec, rng), random_function(spec, rng)
    tf, tsg = forward_transform(f, plan), adjoint_transform(g, plan)
    # agreement with the separable loop
    for got, vals, adjoint in ((tf, f, False), (tsg, g, True)):
        loop = _shift_sum(vals.values, plan, spec, spec, -1.0, transpose=adjoint)
        assert np.abs(got.values - loop).max() <= 1e-13 * np.abs(loop).max()
    # a strictly positive input, whose zero set comes from the plan's kept
    # full-grid dilation: values and exact zero sets, both directions
    pos = GridFunction(spec, 0.5 + rng.random(spec.shape))
    for adjoint in (False, True):
        got = _apply(pos, plan, adjoint)
        loop = _shift_sum(pos.values, plan, spec, spec, -1.0, transpose=adjoint)
        assert np.abs(got - loop).max() <= 1e-13 * np.abs(loop).max()
        assert np.array_equal(got == 0, loop == 0)
    # linearity, with signed coefficients, both directions
    combo = GridFunction(spec, alpha * f.values + beta * g.values, allow_negative=True)
    tg, tsf = forward_transform(g, plan), adjoint_transform(f, plan)
    for got, u, v in ((forward_transform(combo, plan), tf, tg),
                      (adjoint_transform(combo, plan), tsf, tsg)):
        scale = abs(alpha) * np.abs(u.values).max() + abs(beta) * np.abs(v.values).max()
        assert np.abs(got.values - (alpha * u.values + beta * v.values)).max() <= 1e-12 * scale
    # adjointness
    lhs = inner(g, tf)
    assert abs(lhs - inner(tsg, f)) <= 1e-12 * (1 + abs(lhs))
    # a box indicator aligned with cells: equal zero sets, both directions
    a = [int(rng.integers(0, n)) for n in spec.counts]
    b = [int(rng.integers(i, n)) + 1 for i, n in zip(a, spec.counts)]
    box = np.zeros(spec.shape)
    box[tuple(slice(i, j) for i, j in zip(a, b))] = 1.0
    chi = GridFunction(spec, box)
    for adjoint in (False, True):
        got = _apply(chi, plan, adjoint)
        loop = _shift_sum(box, plan, spec, spec, -1.0, transpose=adjoint)
        assert np.array_equal(got == 0, loop == 0)
    # whole-cell translation: f supported below n - s moved by s cells
    s = [int(rng.integers(0, n)) for n in spec.counts]
    vals = np.zeros(spec.shape)
    head = tuple(slice(0, n - k) for n, k in zip(spec.counts, s))
    vals[head] = f.values[head]
    tail = tuple(slice(k, None) for k in s)
    moved = np.zeros(spec.shape)
    moved[tail] = vals[head]
    t0 = forward_transform(GridFunction(spec, vals), plan).values
    t1 = forward_transform(GridFunction(spec, moved), plan).values
    assert np.abs(t1[tail] - t0[head]).max() <= 1e-12 * np.abs(t0).max()


# the largest t_count x (input + output cells) of a random mismatched plan,
# per dimension: the pointwise oracles interpolate (2^d corners) once per
# shift and cell
MISMATCHED_BUDGET = {2: 2 * 10**5, 3: 10**5, 4: 10**5}


def _plan_cost(spec, out, t_frac) -> int:
    """t_count x (input + output cells) of the plan with t-step t_frac times
    the smallest input x' width, by TransformPlan's t-box rule, without
    building its shift table."""
    t_step = t_frac * float(min(spec.widths[:-1]))
    smax = out.hi[-1] - spec.lo[-1]
    nodes = 1
    for i in range(spec.dim - 1):
        lo_t, hi_t = out.lo[i] - spec.hi[i], out.hi[i] - spec.lo[i]
        if smax > 0:
            lo_t, hi_t = max(lo_t, -np.sqrt(smax)), min(hi_t, np.sqrt(smax))
        if smax <= 0 or hi_t <= lo_t:
            return 0
        nodes *= int(np.ceil((hi_t - lo_t) / t_step))
    return nodes * (spec.size + out.size)


@st.composite
def _mismatched_plans(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    lo = np.array([draw(st.floats(-3.0, 1.0)) for _ in range(d)])
    sides = np.array([draw(st.floats(0.5, 5.0)) for _ in range(d)])
    # the output box is moved off the input box and rescaled, and its own
    # counts make its cells coarser or finer per axis
    out_lo = lo + sides * np.array([draw(st.floats(-0.5, 0.5)) for _ in range(d)])
    out_sides = sides * np.array([draw(st.floats(0.5, 1.5)) for _ in range(d)])
    t_frac = draw(st.floats(0.5, 1.0))

    def grids(counts):
        return (box_spec(lo, lo + sides, counts[:d]),
                box_spec(out_lo, out_lo + out_sides, counts[d:]))

    # the cost grows with every count, so each count (input axes, then
    # output axes) is drawn up to the largest that keeps the cost within the
    # budget with the later counts at 2.  Only a rare box pair whose
    # coarsest grids already cost more (a long t-box over a narrow x' axis)
    # is drawn again, so every dimension keeps its share of the examples.
    counts = [2] * (2 * d)
    assume(_plan_cost(*grids(counts), t_frac) <= MISMATCHED_BUDGET[d])
    for a in range(2 * d):
        cap = MAX_COUNTS[d]
        while cap > 2 and _plan_cost(*grids(counts[:a] + [cap] + counts[a + 1:]),
                                     t_frac) > MISMATCHED_BUDGET[d]:
            cap -= 1
        counts[a] = draw(st.integers(2, cap))
    spec, out = grids(counts)
    assume(out != spec)
    plan = TransformPlan(spec, output=out, t_step=t_frac * float(min(spec.widths[:-1])))
    supports = [draw(st.sampled_from(("box", "cell", "edge", "zero"))) for _ in range(2)]
    return plan, supports, draw(st.integers(0, 2**32 - 1))


def _sub_box_function(spec, support: str, rng) -> GridFunction:
    """Positive values on a random sub-box of cells: any box, one cell, a
    box that reaches the grid's ends on some axes (an edge or corner
    block), or no cell at all."""
    vals = np.zeros(spec.shape)
    if support == "zero":
        return GridFunction(spec, vals)
    box = []
    for n in spec.counts:
        a = int(rng.integers(0, n))
        b = a + 1 if support == "cell" else int(rng.integers(a, n)) + 1
        if support == "edge":
            a, b = ((0, b), (a, n), (a, b))[int(rng.integers(0, 3))]
        box.append(slice(a, b))
    box = tuple(box)
    vals[box] = 0.5 + rng.random(vals[box].shape)
    return GridFunction(spec, vals)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(_mismatched_plans())
def test_separable_loop_properties_on_random_mismatched_grids(case):
    plan, supports, seed = case
    cells = plan.input.size + plan.output.size
    assert plan.t_count() * cells <= MISMATCHED_BUDGET[plan.dim]
    rng = np.random.default_rng(seed)
    f = _sub_box_function(plan.input, supports[0], rng)
    g = _sub_box_function(plan.output, supports[1], rng)
    tf = forward_transform(f, plan)
    tsg = adjoint_transform(g, plan, mode="discrete")
    tsg_c = adjoint_transform(g, plan, mode="continuum")
    # values and exact zero sets against the pointwise sums
    for got, oracle in ((tf, forward_at_points(f, plan.output.midpoints(), plan)),
                        (tsg_c, adjoint_at_points(g, plan.input.midpoints(), plan))):
        got = got.values.ravel()
        assert np.abs(got - oracle).max() <= 1e-12 * np.abs(oracle).max()
        assert np.array_equal(got == 0, oracle == 0)
    # discrete adjointness
    lhs = inner(g, tf)
    assert abs(lhs - inner(tsg, f)) <= 1e-12 * (1 + abs(lhs))
    # an all-zero input gives exact zeros in every direction
    assert forward_transform(GridFunction.zeros(plan.input), plan).is_zero()
    for mode in ADJOINT_MODES:
        assert adjoint_transform(GridFunction.zeros(plan.output), plan, mode=mode).is_zero()


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
    for t in plan.shifts[:, 0]:
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


def _ratio_inputs(spec: GridSpec) -> dict[str, GridFunction]:
    """Inputs whose transforms hold exact zeros (a sparse one, a bump, and
    a signed pair of bumps), and a positive one with no zero cell."""
    d, rng = spec.dim, np.random.default_rng(spec.dim)
    sparse = np.zeros(spec.shape)
    sparse[tuple(rng.integers(0, n, 5) for n in spec.counts)] = rng.random(5)
    bump = smooth_bump(spec, center=[0.5] * d, radius=0.6)
    pair = bump.values - smooth_bump(spec, center=[-0.5] * d, radius=0.4).values
    return {"sparse": GridFunction(spec, sparse), "bump": bump,
            "signed": GridFunction(spec, pair, allow_negative=True),
            "positive": GridFunction(spec, 0.5 + rng.random(spec.shape))}


@pytest.mark.parametrize("d", [2, 3])
def test_rayleigh_ratio_reads_the_value_pass_alone(d, monkeypatch):
    # on a matched plan the ratio takes ||Tf||_q over the lattice engine's
    # value pass without the support pass: the cells that pass zeroes hold
    # rounding too small to move the norm, so the ratio keeps the bits of
    # the exact-zero transform's norm, for one correlation instead of two
    spec = box_spec([-2] * d, [2] * d, [40, 40] if d == 2 else [12] * 3)
    exps = ExponentPair(d)
    correlated = []
    real = operator._correlate
    monkeypatch.setattr(operator, "_correlate",
                        lambda *args: correlated.append(args[1]) or real(*args))
    for t_step in (spec.widths[0], spec.widths[0] / 2):
        plan = TransformPlan(spec, t_step=t_step)
        for name, f in _ratio_inputs(spec).items():
            tf = forward_transform(f, plan)
            expect = lp_norm(tf, exps.q) / lp_norm(f, exps.p)
            correlated.clear()
            assert rayleigh_ratio(f, plan) == expect, name
            assert [s is plan._lattice.kernel for s in correlated] == [True], name
            if name != "positive":
                # the support pass has rounding to remove, and the ratio is
                # still bit-equal without it
                values = operator._lattice_values(f.values, f.minimum, plan, adjoint=False)
                assert np.any(values[tf.values == 0] != 0), name
    # a mismatched plan runs the separable loop, which writes exact zeros
    # with no extra pass, and gives the same value as the transform's norm
    out = box_spec([-1.5] * d, [2.5] * d, [30, 30] if d == 2 else [10] * 3)
    plan = TransformPlan(spec, output=out)
    loops = []
    monkeypatch.setattr(operator, "_shift_sum",
                        lambda *args, **kw: loops.append(1) or _shift_sum(*args, **kw))
    for name, f in _ratio_inputs(spec).items():
        expect = lp_norm(forward_transform(f, plan), exps.q) / lp_norm(f, exps.p)
        correlated.clear()
        loops.clear()
        assert rayleigh_ratio(f, plan) == expect, name
        assert loops == [1] and correlated == [], name
    # an input off the plan's input grid is refused on either kind of plan
    off = smooth_bump(box_spec([-1] * d, [3] * d, spec.counts), center=[1] * d)
    for plan in (TransformPlan(spec), TransformPlan(spec, output=out)):
        with pytest.raises(ValueError, match="plan input grid"):
            rayleigh_ratio(off, plan)


@pytest.mark.parametrize("d", [2, 3])
def test_support_spectrum_is_built_by_the_first_support_pass(d, monkeypatch):
    # a plan that only serves rayleigh_ratio builds K's spectrum alone; the
    # first transform of an input with a zero cell builds the support
    # spectrum once, later calls reuse it, and every output keeps the bits
    # of a plan that ran a support pass first.  Both directions read the
    # plan's one kernel spectrum and one support spectrum: every _spectrum
    # call outside _correlate builds one of those two.
    spec = box_spec([-2] * d, [2] * d, [40, 40] if d == 2 else [12] * 3)
    f = smooth_bump(spec, center=[0.5] * d, radius=0.6)
    assert f.minimum == 0
    first = TransformPlan(spec)
    expect = (forward_transform(f, first).values, adjoint_transform(f, first).values,
              rayleigh_ratio(f, first), first._lattice.support)
    spectra, correlated = [], []
    real_spectrum, real_correlate = operator._spectrum, operator._correlate

    def spectrum(values, padded):
        spectra.append((values, real_spectrum(values, padded)))
        return spectra[-1][1]

    def correlate(values, spectrum, lat, adjoint):
        correlated.append((spectrum, adjoint))
        return real_correlate(values, spectrum, lat, adjoint)

    monkeypatch.setattr(operator, "_spectrum", spectrum)
    monkeypatch.setattr(operator, "_correlate", correlate)

    def built(*arrays):
        # each _correlate call transforms its input once; the other calls
        # must be the builds of `arrays`, one each
        assert len(spectra) - len(correlated) == len(arrays)
        return all(sum(out is a for _, out in spectra) == 1 for a in arrays)

    plan = TransformPlan(spec)
    assert rayleigh_ratio(f, plan) == expect[2]
    lat = plan._lattice
    assert lat.support is None and built(lat.kernel)
    assert np.array_equal(forward_transform(f, plan).values, expect[0])
    support = lat.support
    assert sum(a is lat.footprint for a, _ in spectra) == 1 and built(lat.kernel, support)
    assert np.array_equal(support, expect[3])
    assert np.array_equal(adjoint_transform(f, plan).values, expect[1])
    assert np.array_equal(forward_transform(f, plan).values, expect[0])
    assert rayleigh_ratio(f, plan) == expect[2]
    assert lat.support is support and built(lat.kernel, support)
    # the forward and the adjoint each read both of the plan's spectra
    assert all(s is lat.kernel or s is support for s, _ in correlated)
    assert {(s is support, adjoint) for s, adjoint in correlated} == {
        (False, False), (False, True), (True, False), (True, True)}


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


@pytest.mark.parametrize("d", [2, 3])
def test_forward_at_points_keeps_the_points_shape(d):
    # stacked points go through as one flat batch, and the result takes
    # their leading shape; one (d,) point gives a 0-d result
    spec = box_spec([-1.5] * d, [1.5] * d, [10] * d)
    plan = TransformPlan(spec)
    bump = smooth_bump(spec, radius=1.2)
    pts = np.random.default_rng(d).uniform(-1.0, 1.0, (2, 3, d))
    flat = forward_at_points(bump, pts.reshape(-1, d), plan)
    stacked = forward_at_points(bump, pts, plan)
    assert stacked.shape == (2, 3) and flat.shape == (6,) and np.any(flat)
    assert np.array_equal(stacked.reshape(-1), flat)
    one = forward_at_points(bump, pts[1, 2], plan)
    assert one.shape == () and one == flat[5]


def test_plan_mismatch_errors():
    other = box_spec([-1, -1], [1, 1], [32, 32])
    f = GridFunction(other, np.ones(other.shape))
    with pytest.raises(ValueError):
        forward_transform(f, PLAN)
    with pytest.raises(ValueError):
        adjoint_transform(f, PLAN)
    # the pointwise oracle checks the grid too: a plan on a smaller box
    # would integrate over that box's t-nodes only
    bump = smooth_bump(SPEC, radius=1.5)
    small = TransformPlan(box_spec([-0.5, -0.5], [0.5, 0.5], [16, 16]))
    with pytest.raises(ValueError, match="plan input grid"):
        forward_at_points(bump, np.array([[0.0, 1.0]]), small)
    with pytest.raises(ValueError, match="^points of dimension 3 against a plan of dimension 2$"):
        forward_at_points(bump, np.zeros((3, 3)), PLAN)
    # <g, Tf> pairs on the plan's output grid only: a g of the same shape on
    # another box must not be paired as if it lived there
    g = GridFunction(SPEC, bump.values[::-1])
    tf = forward_transform(bump, PLAN)
    assert bilinear_form(g, bump, PLAN) == float(np.sum(g.values * tf.values)) * SPEC.cell_volume
    shifted = GridFunction(box_spec([-1, -1], [3, 3], [64, 64]), g.values)
    with pytest.raises(ValueError, match="^functions live on different grids$"):
        bilinear_form(shifted, bump, PLAN)
    with pytest.raises(ValueError):
        TransformPlan(SPEC, output=box_spec([-1, -1, -1], [1, 1, 1], [8, 8, 8]))
