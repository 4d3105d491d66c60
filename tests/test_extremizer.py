import math

import numpy as np
import pytest

from pararadon.extremizer import (ExtremizeTrace, TraceStep, decay_exponent, decay_profile,
                                  el_iterate, el_residual, extremize, frequency_split,
                                  gaussian_init, positivity_profile, renormalize)
from pararadon.grid import GridFunction, box_spec
from pararadon.norms import lp_norm, rough_decompose
from pararadon.operator import TransformPlan, rayleigh_ratio

SPEC = box_spec([-3, -3], [3, 3], [48, 48])
PLAN = TransformPlan(SPEC)
P = 1.5


def test_el_residual_scale_invariance():
    f = gaussian_init(SPEC)
    base = el_residual(f, PLAN)
    assert base > 0
    for c in (0.2, 5.0):
        assert el_residual(f.with_values(c * f.values), PLAN) == pytest.approx(base, rel=1e-10)
    with pytest.raises(ValueError):
        el_residual(GridFunction.zeros(SPEC), PLAN)


def test_indicator_is_not_stationary():
    chi = GridFunction.box_indicator(SPEC, [-1, -1], [1, 1])
    assert el_residual(chi, PLAN) > 0.05


def test_el_iterate_contract():
    f = gaussian_init(SPEC)
    for theta in (0.25, 1.0):
        out = el_iterate(f, PLAN, theta)
        assert lp_norm(out, P) == pytest.approx(1.0, abs=1e-12)
        assert out.values.min() >= 0
    with pytest.raises(ValueError):
        el_iterate(f, PLAN, 0.0)


def test_extremize_step_is_el_iterate():
    f0 = gaussian_init(SPEC)
    for theta in (0.25, 0.5):
        one = extremize(f0, PLAN, max_iters=1, tol=0.0, theta=theta)
        assert np.array_equal(one.final.values, el_iterate(f0, PLAN, theta).values)
    # both reject a damping outside (0, 1]
    for theta in (0.0, -0.5, 2.0):
        with pytest.raises(ValueError, match="damping"):
            extremize(f0, PLAN, max_iters=1, tol=0.0, theta=theta)
        with pytest.raises(ValueError, match="damping"):
            el_iterate(f0, PLAN, theta)


def test_one_step_increases_ratio():
    f = gaussian_init(SPEC)
    assert rayleigh_ratio(el_iterate(f, PLAN, 0.5), PLAN) > rayleigh_ratio(f, PLAN)


def test_fixed_point_maps_to_itself():
    trace = extremize(gaussian_init(SPEC), PLAN, max_iters=300, tol=1e-9, theta=0.5)
    f = trace.final
    again = el_iterate(f, PLAN, 0.7)
    assert np.abs(again.values - f.values).max() <= 1e-4 * f.values.max()
    # restarting from a near-fixed point stops immediately
    rerun = extremize(f, PLAN, max_iters=500, tol=1e-6, theta=0.5)
    assert len(rerun.steps) <= 4


def test_extremize_trace_properties():
    trace = extremize(gaussian_init(SPEC), PLAN, max_iters=200, tol=1e-6, theta=0.5)
    phis = trace.phis()
    assert np.all(phis > 0)
    assert trace.a_estimate == phis.max()
    assert lp_norm(trace.final, P) == pytest.approx(1.0, abs=1e-12)
    assert trace.final.values.min() >= 0
    drifts = np.array([s.pnorm_drift for s in trace.steps])
    assert drifts.max() <= 1e-12
    with pytest.raises(ValueError):
        ExtremizeTrace((TraceStep(0, 1.0, 0.1, 0.0),), trace.final, 2.0)


def test_extremize_grid_refinement_monotone():
    # with the t-quadrature held fixed, refining the grid enlarges the
    # discrete trial space and the estimate must not decrease
    estimates = []
    for n in (32, 48, 64):
        spec = box_spec([-3, -3], [3, 3], [n, n])
        plan = TransformPlan(spec, t_step=6.0 / 64)
        tr = extremize(gaussian_init(spec), plan, max_iters=200, tol=1e-6, theta=0.5)
        estimates.append(tr.a_estimate)
    assert estimates[0] <= estimates[1] <= estimates[2]


def test_renormalize_scaled_indicator():
    # values 4 = 2^2 sit at level 2; the fixing dilation has r = 2^(-j/d) = 1/2
    spec = box_spec([-2, -2], [2, 2], [64, 64])
    f = GridFunction(spec, 4.0 * GridFunction.box_indicator(spec, [0, 0], [1, 1]).values)
    el, g = renormalize(f)
    assert el.L[0, 0] == pytest.approx(0.5, rel=1e-12)
    assert el.t == pytest.approx(0.25, rel=1e-12)
    scores = rough_decompose(g).scores(P)
    assert max(scores, key=scores.get) == 0
    assert lp_norm(g, P) == pytest.approx(lp_norm(f, P), rel=0.03)
    # the centroid of the renormalized function sits at the origin
    w = g.values.ravel() ** P
    centroid = (w / w.sum()) @ g.spec.midpoints()
    assert np.abs(centroid).max() <= g.spec.widths.max()


def test_renormalize_idempotent():
    spec = box_spec([-2, -2], [2, 2], [64, 64])
    f = GridFunction(spec, 4.0 * GridFunction.box_indicator(spec, [0, 0], [1, 1]).values)
    _, g = renormalize(f)
    el2, _ = renormalize(g)
    assert el2.L[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert np.abs(el2.u).max() <= 2 * g.spec.widths.max()
    assert abs(el2.a) <= 2 * g.spec.widths.max()


def test_positivity_profile():
    chi = GridFunction.box_indicator(SPEC, [-1, -1], [1, 1])
    rows = positivity_profile(chi, [((-0.5, -0.5), (0.5, 0.5)), ((2.0, 2.0), (3.0, 3.0)),
                                    ((-2.5, -2.5), (2.5, 2.5))])
    assert rows[0][1] == 1.0
    assert rows[1][1] == 0.0
    # nested boxes: minima nonincreasing with growth
    assert rows[2][1] <= rows[0][1]
    with pytest.raises(ValueError):
        positivity_profile(chi, [((10.0, 10.0), (11.0, 11.0))])


def test_decay_profile_synthetic():
    # (1 + |x'|)^{-d} on the tube recovers its own exponent
    spec = box_spec([-4, -1.5], [4, 17], [160, 200])

    def fn(pts):
        rp = np.abs(pts[:, 0])
        tube = np.abs(pts[:, 1] - pts[:, 0] ** 2) < 1.0
        return np.where(tube, (1.0 + rp) ** (-2.0), 0.0)

    f = GridFunction.from_callable(spec, fn)
    prof = decay_profile(f)
    assert len(prof) >= 5
    assert decay_exponent(prof) == pytest.approx(-2.0, abs=0.1)


def test_decay_profile_omits_empty_shells():
    spec = box_spec([-1, -1], [1, 3], [40, 60])
    f = GridFunction.box_indicator(spec, [-0.5, -0.5], [0.5, 0.5])
    prof = decay_profile(f)
    assert all(r <= 1.5 for r, _ in prof)


def test_frequency_split_additivity_and_bandlimit():
    spec = box_spec([-2, -2], [2, 2], [64, 64])
    x = spec.midpoints()
    # spectrum at xi = (pi, 0) plus DC: inside |xi| <= 2 rho for rho = 4
    g = GridFunction(spec, (1.0 + 0.5 * np.cos(math.pi * x[:, 0])).reshape(spec.shape))
    g_sharp, g_flat = frequency_split(g, 4.0)
    assert lp_norm(g_flat, 2.0) <= 1e-12
    assert np.array_equal(g_sharp.values, g.values - g_flat.values)
    assert np.abs(g_sharp.values + g_flat.values - g.values).max() <= 1e-12
    with pytest.raises(ValueError):
        frequency_split(g, 0.5)


def test_frequency_split_high_frequency():
    spec = box_spec([-2, -2], [2, 2], [64, 64])
    x = spec.midpoints()
    # wave at |xi| = 8 pi with rho = pi: the cutoff passes it to the flat part
    wave = GridFunction(spec, (1.0 + 0.5 * np.cos(8 * math.pi * x[:, 0])).reshape(spec.shape))
    g_sharp, g_flat = frequency_split(wave, math.pi)
    osc = wave.values - 1.0
    assert np.abs(g_flat.values - osc).max() <= 1e-10


def test_frequency_split_parseval():
    rng = np.random.default_rng(0)
    spec = box_spec([-2, -2], [2, 2], [32, 32])
    g = GridFunction(spec, rng.random(spec.shape))
    ghat = np.fft.fftn(g.values, norm="ortho")
    lhs = float(np.sum(g.values**2)) * spec.cell_volume
    rhs = float(np.sum(np.abs(ghat) ** 2)) * spec.cell_volume
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_residual_tail_monotone():
    trace = extremize(gaussian_init(SPEC), PLAN, max_iters=200, tol=1e-6, theta=0.5)
    tail = trace.residuals()[-10:]
    assert np.all(np.diff(tail) <= 1e-9)
    assert trace.steps[-1].residual <= 1e-2  # desk-scale grid; the production
    # run is held to 1e-3 in the acceptance suite


def test_basin_comparison_reported():
    # indicator and Gaussian starts reach the same ratio plateau; the gap is
    # reported, with only a loose sanity bound asserted
    chi = GridFunction.box_indicator(SPEC, [-1, -1], [1, 1])
    tr_chi = extremize(chi, PLAN, max_iters=300, tol=1e-6, theta=0.5)
    tr_gauss = extremize(gaussian_init(SPEC), PLAN, max_iters=300, tol=1e-6, theta=0.5)
    gap = abs(tr_chi.a_estimate - tr_gauss.a_estimate) / tr_gauss.a_estimate
    print(f"basin gap indicator vs gaussian: {gap:.2e}")
    assert gap < 0.05


def test_renormalize_ratio_invariance():
    # the centering/rescaling symmetry moves the ratio by quadrature error only
    spec = box_spec([-2, -2], [2, 2], [256, 256])
    from pararadon.testing import smooth_bump

    f = smooth_bump(spec, center=[0.4, -0.3], radius=1.0)
    f = f.with_values(4.0 * f.values)
    el, g = renormalize(f)
    phi_f = rayleigh_ratio(f, TransformPlan(spec))
    phi_g = rayleigh_ratio(g, TransformPlan(g.spec, t_step=float(min(g.spec.widths[:-1]))))
    assert abs(phi_g - phi_f) / phi_f <= 0.01
