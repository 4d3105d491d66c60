import numpy as np
import pytest

from pararadon.grid import GridFunction, GridSpec, box_spec, cell_weights


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(((0.0, 1.0),), (4,))  # dimension below 2
    with pytest.raises(ValueError):
        box_spec([0, 1], [1, 1], [4, 4])  # empty axis
    with pytest.raises(ValueError):
        box_spec([0, 0], [1, 1], [4, 1])  # too few samples


def test_midpoints_and_volume():
    spec = box_spec([0, 0], [1, 2], [2, 4])
    assert spec.cell_volume == pytest.approx(0.25)
    assert np.allclose(spec.axis_midpoints(0), [0.25, 0.75])
    mids = spec.midpoints()
    assert mids.shape == (8, 2)
    assert np.allclose(mids[0], [0.25, 0.25])
    assert np.allclose(mids[-1], [0.75, 1.75])


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


def test_values_are_frozen():
    spec = box_spec([0, 0], [1, 1], [2, 2])
    f = GridFunction(spec, np.ones(spec.shape))
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0


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


def test_csv_export(tmp_path):
    spec = box_spec([0, 0], [1, 1], [2, 2])
    f = GridFunction(spec, np.arange(4, dtype=float).reshape(2, 2))
    path = tmp_path / "f.csv"
    f.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,value"
    assert len(lines) == 5
    x1, x2, v = (float(t) for t in lines[1].split(","))
    assert (x1, x2, v) == (0.25, 0.25, 0.0)
