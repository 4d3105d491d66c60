import math

import numpy as np
import pytest

from pararadon import affine
from pararadon.affine import (CHARTS, SurfaceChart, affine_invariance_defect, apply_linear,
                              circle_chart, measure, parabola_chart, paraboloid_chart,
                              polynomial_graph_chart, surface_density)


def test_parabola_density():
    chart = parabola_chart()
    # det(gamma', gamma'') = 2, exponent 1/(d+1) = 1/3
    assert surface_density(chart, 0.5) == pytest.approx(2 ** (1 / 3), abs=1e-12)
    with pytest.raises(ValueError):
        surface_density(chart, 5.0)


def test_circle_density_and_measure():
    chart = circle_chart()
    for t in (0.0, 1.0, 4.0):
        assert surface_density(chart, t) == pytest.approx(1.0, abs=1e-12)
    assert measure(chart, step=1e-3) == pytest.approx(2 * math.pi, abs=1e-6)


def test_degenerate_curve():
    flat = SurfaceChart(2, ((0.0, 1.0),), lambda t: np.array([t[0], 0.0]),
                        jacobian=lambda t: np.array([[1.0], [0.0]]),
                        hessian=lambda t: np.zeros((2, 1, 1)))
    assert surface_density(flat, 0.5) == 0.0


def test_paraboloid_surface_density():
    for d in (2, 3, 4):
        chart = paraboloid_chart(d)
        t = np.full(d - 1, 0.2)
        assert surface_density(chart, t) == pytest.approx(2 ** ((d - 1) / (d + 1)), abs=1e-12)


def test_plane_surface_density():
    chart = SurfaceChart(3, ((-1, 1), (-1, 1)),
                         lambda t: np.array([t[0], t[1], 0.0]),
                         jacobian=lambda t: np.array([[1.0, 0], [0, 1.0], [0, 0]]),
                         hessian=lambda t: np.zeros((3, 2, 2)))
    assert surface_density(chart, np.zeros(2)) == 0.0


def test_dimension_two_consistency():
    # at d = 2 the paraboloid is the parabola: both give 2^(1/3)
    curve = parabola_chart()
    surf = paraboloid_chart(2)
    for t in (0.1, 0.3, 0.7):
        assert surface_density(surf, np.array([t])) == pytest.approx(
            surface_density(curve, t), abs=1e-12)


def test_parabola_measure():
    assert measure(parabola_chart(), step=1e-3) == pytest.approx(2 ** (1 / 3), abs=1e-6)
    # a step <= 0 or not finite used to become one cell or a division by zero
    for step in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="step must be positive"):
            measure(parabola_chart(), step=step)


def test_mixed_partial_validation():
    bad = lambda t: np.array([[[0.0, 1.0], [0.0, 0.0]]] * 3)
    with pytest.raises(ValueError):
        SurfaceChart(3, ((-1, 1), (-1, 1)), lambda t: np.array([t[0], t[1], t[0] * t[1]]),
                     jacobian=lambda t: np.array([[1.0, 0], [0, 1.0], [t[1], t[0]]]),
                     hessian=bad)
    # both partials are required callables
    with pytest.raises(TypeError):
        SurfaceChart(2, ((0.0, 1.0),), lambda t: np.array([t[0], t[0] ** 2]))


def test_linear_invariance_curve():
    chart = parabola_chart()
    assert affine_invariance_defect(chart, np.eye(2), step=1e-3) == pytest.approx(0.0, abs=1e-14)
    rng = np.random.default_rng(0)
    for _ in range(3):
        A = rng.uniform(-1, 1, (2, 2))
        A += np.sign(np.linalg.det(A)) * 1.2 * np.eye(2)
        assert affine_invariance_defect(chart, A, step=1e-3) <= 1e-6
    with pytest.raises(ValueError):
        affine_invariance_defect(chart, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="A must be finite"):
        affine_invariance_defect(chart, np.array([[1.0, 0.0], [0.0, math.inf]]))


def test_linear_invariance_surface():
    # A = 2I in d = 3: factor |det A|^((d-1)/(d+1)) = 8^(1/2)
    chart = paraboloid_chart(3, halfwidth=0.8)
    base = measure(chart, step=2e-2)
    mapped = measure(apply_linear(chart, 2 * np.eye(3)), step=2e-2)
    assert mapped == pytest.approx(math.sqrt(8) * base, rel=1e-10)
    assert affine_invariance_defect(chart, 2 * np.eye(3), step=2e-2) <= 1e-8


def test_pointwise_density_scaling():
    # density(A o gamma) = |det A|^(1/3) density(gamma) pointwise for d = 2
    chart = parabola_chart()
    A = np.array([[1.5, 0.2], [-0.3, 0.8]])
    mapped = apply_linear(chart, A)
    for t in (0.1, 0.5, 0.9):
        assert surface_density(mapped, t) == pytest.approx(
            abs(np.linalg.det(A)) ** (1 / 3) * surface_density(chart, t), rel=1e-12)
    surf = paraboloid_chart(3)
    B = np.array([[1.2, 0.1, 0.0], [0.0, 0.9, 0.2], [0.1, 0.0, 1.1]])
    mapped_s = apply_linear(surf, B)
    t = np.array([0.2, -0.3])
    assert surface_density(mapped_s, t) == pytest.approx(
        abs(np.linalg.det(B)) ** 0.5 * surface_density(surf, t), rel=1e-12)


def test_defects_need_a_positive_measure():
    # a straight line has zero affine measure, so it has no relative defect
    line = polynomial_graph_chart([1.0, 0.0])
    with pytest.raises(ValueError, match="measure 0"):
        affine_invariance_defect(line, 2 * np.eye(2), step=1e-2)


def test_chart_library():
    for name in ("parabola", "circle"):  # plane curves are d = 2 charts on one interval
        chart = CHARTS[name]()
        assert isinstance(chart, SurfaceChart) and chart.dim == 2 and len(chart.domain) == 1
    assert CHARTS["paraboloid"](dim=4).domain == ((-1.0, 1.0),) * 3
    poly = CHARTS["polynomial"](coefficients=[1.0, 0.0, 0.0])  # t^2
    assert surface_density(poly, 0.5) == pytest.approx(2 ** (1 / 3), abs=1e-12)
    # the chart functions' own defaults
    assert CHARTS["paraboloid"]().domain == ((-1.0, 1.0), (-1.0, 1.0))
    assert CHARTS["circle"]().domain == ((0.0, 2 * math.pi),)
    assert CHARTS["parabola"]().domain == poly.domain == ((0.0, 1.0),)
    for dim in (0, 1):  # no chart below d = 2
        with pytest.raises(ValueError, match="d >= 2"):
            paraboloid_chart(dim)


def test_non_finite_domains_and_coefficients_are_errors():
    inf, nan = math.inf, math.nan
    for chart in (lambda: paraboloid_chart(3, inf), lambda: circle_chart((0.0, inf)),
                  lambda: parabola_chart((nan, 1.0)), lambda: paraboloid_chart(2, nan)):
        with pytest.raises(ValueError, match="domain bounds must be finite"):
            chart()
    for c in ([nan, 0.0, 0.0], [1.0, inf, 0.0]):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            polynomial_graph_chart(c)


def test_measure_rejects_a_node_count_above_the_budget(monkeypatch):
    # the count is checked before any node exists: with no midpoint axis, a
    # rejected measure never reaches one; the message names the step and region
    monkeypatch.setattr(affine, "midpoint_axis", None)
    for chart, step, message in (
            # an axis count that overflows, from a wide region or a subnormal step
            (polynomial_graph_chart([1.0, 0.0, 0.0], (0.0, 1e308)), 1e-3,
             r"step 0\.001 gives the region \(\(0\.0, 1e\+308\),\) inf cells"),
            (parabola_chart(), 5e-324,
             r"step 5e-324 gives the region \(\(0\.0, 1\.0\),\) inf cells"),
            # finite counts too large for any array, or for the time of a run
            (paraboloid_chart(3, 1e200), 0.5,
             r"step 0\.5 gives the region \(\(-1e\+200, 1e\+200\), \(-1e\+200, 1e\+200\)\) "
             r"4e\+200 x 4e\+200 cells, more than the budget of 16777216 midpoint nodes"),
            (paraboloid_chart(3, 1000.0), 1e-3, r"2e\+06 x 2e\+06 cells")):
        with pytest.raises(ValueError, match=message):
            measure(chart, step=step)
    # a count at the budget is accepted, one above it is not: 4 x 4 nodes
    monkeypatch.undo()
    monkeypatch.setattr(affine, "_MAX_NODES", 16)
    assert measure(paraboloid_chart(3), step=0.5) == pytest.approx(4 * math.sqrt(2), rel=1e-12)
    monkeypatch.setattr(affine, "_MAX_NODES", 15)
    with pytest.raises(ValueError, match=r"4 x 4 cells, more than the budget of 15 midpoint"):
        measure(paraboloid_chart(3), step=0.5)
