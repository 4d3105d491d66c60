import io
import itertools
import math

import numpy as np
import pytest

from pararadon.grid import (_GATHER_BYTES, SNAP, GridFunction, GridSpec, box_spec, cell_weights,
                            write_csv)
from pararadon.operator import TransformPlan, adjoint_transform, forward_transform
from pararadon.symmetry import apply_partner_point, apply_point, partner, pullback, partner_pullback
from pararadon.testing import random_element, smooth_bump


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(((0.0, 1.0),), (4,))  # dimension below 2
    with pytest.raises(ValueError):
        box_spec([0, 1], [1, 1], [4, 4])  # empty axis
    with pytest.raises(ValueError):
        box_spec([0, 0], [1, 1], [4, 1])  # too few samples
    # int() would truncate 32.7 or parse "32", float() would parse "0" or take True
    bounds = ((0.0, 1.0), (0.0, 1.0))
    for counts in ((32.7, 32), (32.0, 32), ("32", 32)):
        with pytest.raises(TypeError):
            GridSpec(bounds, counts)
        with pytest.raises(TypeError):
            box_spec([0, 0], [1, 1], counts)
    for axis in (("0", 1.0), (0.0, True), (np.bool_(False), 1.0)):
        with pytest.raises(TypeError, match="grid bounds must be real numbers"):
            GridSpec((axis, (0.0, 1.0)), (4, 4))
    # numpy integers and floats are integral counts and real bounds
    spec = GridSpec(((np.float32(0), np.int64(1)), (0, 1.0)), (np.int64(4), np.int32(4)))
    assert spec == GridSpec(bounds, (4, 4)) and all(type(n) is int for n in spec.counts)


def test_midpoints_and_volume():
    spec = box_spec([0, 0], [1, 2], [2, 4])
    assert spec.cell_volume == pytest.approx(0.25)
    assert np.allclose(spec.axis_midpoints(0), [0.25, 0.75])
    mids = spec.midpoints()
    assert mids.shape == (8, 2)
    assert np.allclose(mids[0], [0.25, 0.25])
    assert np.allclose(mids[-1], [0.75, 1.75])
    # the derived fields are set once, read-only, and left out of equality,
    # hashing and the repr
    assert np.array_equal(spec.lo, [0, 0]) and np.array_equal(spec.hi, [1, 2])
    assert np.array_equal(spec.widths, [0.5, 0.5])
    assert not any(a.flags.writeable for a in (spec.lo, spec.hi, spec.widths))
    again = GridSpec(((0, 1), (0, 2)), (2, 4))
    assert again == spec and hash(again) == hash(spec)
    assert repr(spec) == "GridSpec(bounds=((0.0, 1.0), (0.0, 2.0)), counts=(2, 4))"
    with pytest.raises(TypeError):
        GridSpec(((0, 1), (0, 2)), (2, 4), cell_volume=1.0)


def test_function_validation():
    spec = box_spec([0, 0], [1, 1], [2, 2])
    with pytest.raises(ValueError):
        GridFunction(spec, -np.ones(spec.shape))
    with pytest.raises(ValueError):
        GridFunction(spec, np.full(spec.shape, np.nan))
    with pytest.raises(ValueError):
        GridFunction(spec, np.ones((3, 3)))
    f = GridFunction(spec, -np.ones(spec.shape), allow_negative=True)
    assert f.values.min() == -1.0


def test_function_validation_messages():
    spec = box_spec([0, 0], [1, 1], [3, 3])
    for bad in (np.nan, np.inf, -np.inf):
        for allow_negative in (False, True):
            values = np.ones(spec.shape)
            values[1, 2] = bad
            with pytest.raises(ValueError, match="^values must be finite$"):
                GridFunction(spec, values, allow_negative=allow_negative)
            # a non-finite value is reported before a negative one
            values[0, 0] = -1.0
            with pytest.raises(ValueError, match="^values must be finite$"):
                GridFunction(spec, values, allow_negative=allow_negative)
    values = np.ones(spec.shape)
    values[2, 0] = -1e-300
    with pytest.raises(ValueError, match="^values must be nonnegative$"):
        GridFunction(spec, values)
    values[2, 0] = -0.0
    f = GridFunction(spec, values)
    assert np.signbit(f.values[2, 0]) and f.values.min() == 0.0
    assert GridFunction(spec, np.full(spec.shape, -0.0)).is_zero()


def test_values_are_frozen():
    spec = box_spec([0, 0], [1, 1], [2, 2])
    f = GridFunction(spec, np.ones(spec.shape))
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0
    # the constructor copies: the caller's array stays its own
    values = np.ones(spec.shape)
    g = GridFunction(spec, values)
    values[0, 1] = 7.0
    assert values.flags.writeable and np.all(g.values == 1.0)


def test_transform_outputs_are_frozen():
    spec = box_spec([-2, -2], [2, 2], [8, 8])
    f = GridFunction(spec, np.ones(spec.shape))
    for plan in (TransformPlan(spec), TransformPlan(spec, box_spec([-1, -1], [3, 3], [6, 6]))):
        out = forward_transform(f, plan)
        back = adjoint_transform(out, plan)
        for g in (out, back):
            assert not g.values.flags.writeable
            with pytest.raises(ValueError):
                g.values[0, 0] = 1.0


def test_sample_at_exact_on_dyadic_grid():
    # power-of-two cell widths make the midpoint arithmetic exact
    spec = box_spec([-2, -2], [2, 2], [64, 64])
    rng = np.random.default_rng(0)
    f = GridFunction(spec, rng.random(spec.shape))
    vals = f.sample_at(spec.midpoints())
    assert np.array_equal(vals, f.values.ravel())


def test_sample_at_zero_outside():
    spec = box_spec([0, 0], [1, 1], [4, 4])
    f = GridFunction(spec, np.ones(spec.shape))
    assert f.sample_at(np.array([[5.0, 5.0], [-3.0, 0.5]])).tolist() == [0.0, 0.0]


def test_sample_at_linear_between_midpoints():
    spec = box_spec([0, 0], [1, 1], [4, 4])
    f = GridFunction.from_callable(spec, lambda x: x[:, 0] + 2 * x[:, 1])
    pts = np.array([[0.4, 0.6], [0.25, 0.25], [0.5, 0.5]])
    assert np.allclose(f.sample_at(pts), pts[:, 0] + 2 * pts[:, 1], atol=1e-12)


def reference_sample(f: GridFunction, points) -> np.ndarray:
    """The per-corner formula `sample_at` replaced: each of the 2^d corners
    masks its taps outside the box and adds its weight, an `np.prod` over
    the axes, times the value."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    i0, w1 = cell_weights((pts - f.spec.lo) / f.spec.widths - 0.5)
    out = np.zeros(len(pts))
    for c in map(np.array, itertools.product((0, 1), repeat=f.dim)):
        idx = i0 + c
        w = np.prod(np.where(c == 1, w1, 1.0 - w1), axis=1)
        valid = np.all((idx >= 0) & (idx < f.spec.counts), axis=1)
        out[valid] += w[valid] * f.values[tuple(idx[valid].T)]
    return out


SAMPLER_SPECS = {
    2: box_spec([-1.5, -0.5], [1.5, 2.0], [13, 10]),
    3: box_spec([-1.0, -2.0, 0.0], [1.0, 1.0, 1.5], [7, 9, 6]),
    4: box_spec([-1.0] * 4, [1.0, 1.5, 1.0, 0.5], [5, 4, 6, 3]),
}


def _sampler_cases(spec, rng):
    """Point sets, built in cell units (midpoint k at k): a box 2.5 cells
    wider than the grid on every side; every mix of per-axis positions on
    and past the ghost midpoints -1 and n, the box faces and the end
    midpoints; and offsets within SNAP of cell and ghost midpoints."""
    n = np.array(spec.counts)
    wide = rng.uniform(-3.0, n + 2.0, (400, spec.dim))
    edges = np.array(list(itertools.product(
        *([-1.5, -1.0, -0.5, 0.0, k - 1.0, k - 0.5, k, k + 0.5] for k in spec.counts))))
    cells = rng.integers(-1, n + 1, (400, spec.dim)).astype(float)
    near = cells + rng.choice([-0.9, -0.5, 0.0, 0.5, 0.9], cells.shape) * SNAP
    return {name: spec.lo + (pos + 0.5) * spec.widths
            for name, pos in (("wide", wide), ("edges", edges), ("near_midpoints", near))}


@pytest.mark.parametrize("d", sorted(SAMPLER_SPECS))
def test_sample_at_matches_per_corner_formula(d):
    spec = SAMPLER_SPECS[d]
    rng = np.random.default_rng(d)
    signed = GridFunction(spec, rng.standard_normal(spec.shape), allow_negative=True)
    for f in (signed, GridFunction(spec, rng.random(spec.shape) * (rng.random(spec.shape) < 0.5))):
        for name, pts in _sampler_cases(spec, rng).items():
            assert np.array_equal(f.sample_at(pts), reference_sample(f, pts)), name
        # more points than one chunk, the last chunk partial
        many = spec.lo + rng.uniform(-0.2, 1.2, (5 * _GATHER_BYTES // 16, d)) * (spec.hi - spec.lo)
        assert len(many) > _GATHER_BYTES // 8 and len(many) % (_GATHER_BYTES // 8)
        assert np.array_equal(f.sample_at(many), reference_sample(f, many))
        # a 1-D point gives a scalar, an empty (0, d) array an empty array
        one = f.sample_at(many[7])
        assert np.ndim(one) == 0 and one == reference_sample(f, many[7])[0]
        assert f.sample_at(np.empty((0, d))).shape == (0,)


def test_sample_at_rejects_non_finite_points():
    spec = SAMPLER_SPECS[2]
    f = GridFunction(spec, np.ones(spec.shape))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            f.sample_at(np.array([[0.0, 0.5], [bad, 0.5]]))
        with pytest.raises(ValueError, match="finite"):
            f.sample_at(np.array([0.25, bad]))
    # a huge finite point is outside the box and reads 0, with no cast warning
    assert f.sample_at(np.array([[1e300, 0.5], [0.0, -1e300]])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("d", [2, 3])
def test_pullbacks_match_per_corner_formula(d):
    # both pullbacks sample f at the mapped midpoints of their grid and scale
    # by J^{d/(d+1)}; against the per-corner formula they agree bit for bit
    spec = box_spec([-1.5] * d, [1.5] * d, [24, 20] if d == 2 else [10, 9, 8])
    f = smooth_bump(spec, center=[0.1] + [0.0] * (d - 1), radius=1.2)
    rng = np.random.default_rng(11 + d)
    for _ in range(4):
        el = random_element(rng, d)
        star = partner(el)
        for got, point_map, jacobian in (
                (pullback(el, f), lambda x: apply_point(el, x), el.jacobian),
                (partner_pullback(el, f), lambda x: apply_partner_point(el, x), star.jacobian)):
            want = reference_sample(f, point_map(got.spec.midpoints()))
            assert np.array_equal(got.values.ravel(), want * jacobian ** (d / (d + 1.0)))
            assert np.count_nonzero(want)


def test_cell_weights_snap_to_midpoints():
    # within 1e-9 cell widths of midpoint k, a position sits on it, from either side
    k = np.array([-3.0, 0.0, 5.0])
    for pos in (k + 1e-12, k - 1e-12, k):
        i0, w1 = cell_weights(pos)
        assert i0.tolist() == k.tolist() and w1.tolist() == [0.0, 0.0, 0.0]
    i0, w1 = cell_weights(k + 0.3)
    assert i0.tolist() == k.tolist() and np.allclose(w1, 0.3, rtol=0, atol=1e-15)
    i0, w1 = cell_weights(k + 1e-6)
    assert i0.tolist() == k.tolist() and np.all(w1 > 0)


def test_prgf_round_trip(tmp_path):
    spec = box_spec([-1, 0], [1, 3], [8, 16])
    rng = np.random.default_rng(1)
    f = GridFunction(spec, rng.random(spec.shape))
    path = tmp_path / "f.prgf"
    f.save(path)
    g = GridFunction.load(path)
    assert g.spec == f.spec
    assert np.array_equal(g.values, f.values)
    # byte-identical rewrite
    path2 = tmp_path / "g.prgf"
    g.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_prgf_header(tmp_path):
    spec = box_spec([0, 0], [1, 1], [2, 3])
    f = GridFunction(spec, np.arange(6, dtype=float).reshape(2, 3))
    path = tmp_path / "f.prgf"
    f.save(path)
    header = path.read_bytes().split(b"\n", 1)[0].decode()
    assert '"magic": "PRGF1"' in header or '"magic":"PRGF1"' in header.replace(" ", "")
    assert GridFunction.load(path).values[1, 2] == 5.0


def test_csv_export():
    # a d = 2 grid function as x1,x2,value rows, one per midpoint
    spec = box_spec([0, 0], [1, 1], [2, 2])
    f = GridFunction(spec, np.arange(4, dtype=float).reshape(2, 2))
    pts = spec.midpoints()
    out = io.StringIO()
    write_csv(out, "x1,x2,value", zip(pts[:, 0], pts[:, 1], f.values.ravel()))
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "x1,x2,value"
    assert len(lines) == 5
    x1, x2, v = (float(t) for t in lines[1].split(","))
    assert (x1, x2, v) == (0.25, 0.25, 0.0)


def test_write_csv_round_trips_float64():
    rng = np.random.default_rng(7)
    # random signs and mantissas over the whole exponent range, and the edges
    values = rng.uniform(1.0, 2.0, 400) * 2.0 ** rng.integers(-1074, 1024, 400)
    values *= rng.choice([-1.0, 1.0], 400)
    edges = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 2.2250738585072014e-308, 0.1]
    rows = [(v,) for v in [*values.tolist(), *edges]] + [(np.float64(1 / 3),)]
    out = io.StringIO()
    write_csv(out, "value", rows)
    lines = out.getvalue().split("\n")
    assert lines[0] == "value" and lines[-1] == ""
    got = [float(text) for text in lines[1:-1]]
    want = [v for (v,) in rows]
    assert all(math.isfinite(v) for v in want)
    # bit for bit, signs of zeros included
    assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
    # anything that is not a float is written with str
    out = io.StringIO()
    write_csv(out, "a,b,c", [(3, "x", True), (np.int64(-4), 2.5, None)])
    assert out.getvalue() == "a,b,c\n3,x,True\n-4,2.5,None\n"
