import math
import warnings

import numpy as np
import pytest

from pararadon import extremizer
from pararadon.extremizer import ExtremizeTrace, TraceStep, extremize, gaussian_init
from pararadon.grid import GridFunction, box_spec
from pararadon.norms import lp_norm
from pararadon.operator import (TransformPlan, adjoint_transform, forward_transform,
                                rayleigh_ratio)
from pararadon.testing import random_function

SPEC = box_spec([-3, -3], [3, 3], [48, 48])
PLAN = TransformPlan(SPEC)
P = 1.5


def _residual(f):
    return extremize(f, PLAN, max_iters=0).steps[0].residual


def _step(f):
    return extremize(f, PLAN, max_iters=1, tol=0.0).final


def _public_api_search(f0, plan, steps):
    """`extremize` at tol = 0 written with the public API: the trace steps,
    the last iterate and the omega of every step that took a ray point.
    Once five iterates x_j are held, the weights gamma (summing to 1) that
    minimize ||sum_j gamma_j (x_{j+1} - x_j)||_2 give s = sum_j gamma_j x_{j+1}
    and, by linearity, Ts.  From a nonnegative s the ray y = f + omega (s - f)
    is walked at omega = 1.5, 1.5^2, ..., 1.5^16 while y stays nonnegative and
    its ratio strictly rises; the last point where it rose, if its ratio
    beats the step's, replaces the iterate and restarts the history."""
    d = plan.dim
    p, q = (d + 1) / d, d + 1.0

    def ratio(y, ty):
        return lp_norm(ty, q) / lp_norm(y, p)

    f = f0.with_values(f0.values / lp_norm(f0, p))
    held, trace, omegas = [], [], []
    for k in range(steps + 1):
        tf = forward_transform(f, plan)
        phi = lp_norm(tf, q)
        held.append((f.values.ravel(), tf.values.ravel()))
        extrapolated = False
        if len(held) == 5:
            xs, txs = [x for x, _ in held], [tx for _, tx in held]
            diffs = np.diff(xs, axis=0)
            y = np.linalg.solve([[np.sum(a * b) for b in diffs] for a in diffs], np.ones(4))
            gamma = y / np.sum(y)
            s = gamma[0] * xs[1] + gamma[1] * xs[2] + gamma[2] * xs[3] + gamma[3] * xs[4]
            ts = np.maximum(gamma[0] * txs[1] + gamma[1] * txs[2] + gamma[2] * txs[3]
                            + gamma[3] * txs[4], 0.0)
            del held[0]
            if s.min() >= 0:
                s = f.with_values(s.reshape(f.spec.shape))
                ts = tf.with_values(ts.reshape(tf.spec.shape))
                y, ty, rho, omega = s, ts, ratio(s, ts), 1.0
                for j in range(1, 17):
                    ray = f.values + 1.5**j * (s.values - f.values)
                    if ray.min() < 0:
                        break
                    ray = f.with_values(ray)
                    tray = tf.with_values(np.maximum(tf.values + 1.5**j * (ts.values - tf.values),
                                                     0.0))
                    ray_rho = ratio(ray, tray)
                    if not ray_rho > rho:
                        break
                    y, ty, rho, omega = ray, tray, ray_rho, 1.5**j
                if rho > phi:
                    f = y.with_values(y.values / lp_norm(y, p))
                    tf = ty.with_values(ty.values / lp_norm(y, p))
                    phi = rho
                    held = [(f.values.ravel(), tf.values.ravel())]
                    extrapolated = True
                    omegas.append(omega)
        u = adjoint_transform(tf.with_values(tf.values**d), plan)
        target = phi ** (d + 1) * f.values ** (1.0 / d)
        residual = (math.sqrt(float(np.sum((u.values - target) ** 2)))
                    / math.sqrt(float(np.sum(target**2))))
        trace.append(TraceStep(phi, residual, extrapolated))
        if k == steps:
            return trace, f, omegas
        uu = u.with_values(u.values**d)
        f = uu.with_values(uu.values / lp_norm(uu, p))


def test_el_residual_scale_invariance():
    f = gaussian_init(SPEC)
    base = _residual(f)
    assert base > 0
    for c in (0.2, 5.0):
        assert _residual(f.with_values(c * f.values)) == pytest.approx(base, rel=1e-10)
    with pytest.raises(ValueError):
        _residual(GridFunction.zeros(SPEC))


def test_indicator_is_not_stationary():
    chi = GridFunction.box_indicator(SPEC, [-1, -1], [1, 1])
    assert _residual(chi) > 0.05


def test_extremize_rejects_a_signed_start():
    f = gaussian_init(SPEC)
    values = f.values.copy()
    values[24, 24] = -0.5
    signed = GridFunction(SPEC, values, allow_negative=True)
    with pytest.raises(ValueError, match="nonnegative"):
        extremize(signed, PLAN, max_iters=3)


def test_el_iterate_contract():
    out = _step(gaussian_init(SPEC))
    assert lp_norm(out, P) == pytest.approx(1.0, abs=1e-12)
    assert out.values.min() >= 0


def test_extremize_step_is_el_iterate():
    # one step of the search against the power map written out in
    # _public_api_search: f <- normalize((T*[(Tf)^2])^2) at unit L^p norm
    f0 = gaussian_init(SPEC)
    expected = _public_api_search(f0, PLAN, 1)[1]
    assert np.array_equal(_step(f0).values, expected.values)
    # a NaN or negative tol never fires the residual stop, an infinite one always does
    for tol in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="tol"):
            extremize(f0, PLAN, max_iters=1, tol=tol)


@pytest.mark.parametrize("plan", [
    TransformPlan(box_spec([-2, -2], [2, 2], [16, 16]), t_step=0.25),
    TransformPlan(box_spec([-2, -2, -2], [2, 2, 2], [8, 8, 8])),
], ids=["16x16", "8x8x8"])
def test_extremize_matches_the_public_api_update(plan):
    # bit for bit: every trace step and the final iterate, through at least
    # two extrapolations, so a restarted history is covered, and through a
    # ray point past the extrapolate
    rng = np.random.default_rng(3)
    f0 = gaussian_init(plan.input)
    f0 = f0.with_values(f0.values * (1.0 + 0.1 * rng.random(plan.input.shape)))
    want, final, omegas = _public_api_search(f0, plan, 12)
    got = extremize(f0, plan, max_iters=12, tol=0.0)
    assert list(got.steps) == want
    assert got.stop == "max_iters" and got.extrapolated >= 2
    assert len(omegas) == got.extrapolated and max(omegas) > 1
    assert np.array_equal(got.final.values, final.values)
    assert not got.final.values.flags.writeable


def test_gaussian_init_is_the_unit_gaussian():
    spec = box_spec([-2, -2], [2, 2], [9, 9])
    ref = np.exp(-np.sum(spec.midpoints() ** 2, axis=1) / 2.0)
    assert np.array_equal(gaussian_init(spec).values.ravel(), ref)
    # the outer cells, where |x|^2 overflows, read 0 with no warning
    wide = box_spec([-2e154, -2e154], [2e154, 2e154], [5, 5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = gaussian_init(wide)
    assert f.values[2, 2] == 1.0 and np.count_nonzero(f.values) == 1


def test_one_step_increases_ratio():
    f = gaussian_init(SPEC)
    assert rayleigh_ratio(_step(f), PLAN) > rayleigh_ratio(f, PLAN)


@pytest.mark.parametrize("plan", [
    TransformPlan(box_spec([-2, -2], [2, 2], [16, 16]), t_step=0.125),
    TransformPlan(box_spec([-2, -2, -2], [2, 2, 2], [8, 8, 8])),
    TransformPlan(box_spec([-2] * 4, [2] * 4, [6] * 4)),
    TransformPlan(box_spec([-2, -2], [2, 2], [16, 12]),
                  output=box_spec([-1.7, -2.3], [2.5, 1.9], [10, 14])),
], ids=["16x16_tstep", "8x8x8", "6x6x6x6", "mismatched"])
def test_power_map_step_never_lowers_the_ratio(plan):
    # Holder twice: ||Tf'||_q ||Tf||_q^d >= <u, f'> = ||u||_{p'} >= <u, f> = ||Tf||_q^{d+1};
    # 20 steps reach the late ones, where a map that overshoots lowers it
    rng = np.random.default_rng(7)
    for _ in range(5):
        phis = extremize(random_function(plan.input, rng), plan, max_iters=20, tol=0.0).phis()
        assert np.all(phis[1:] >= phis[:-1] * (1.0 - 1e-12))


def test_extremize_stops_on_residual_at_a_fine_t_step():
    # 24^3, box 8, t-step h/4: the search reaches the residual stop, at
    # A = 1.221493, well inside the default step budget
    spec = box_spec([-4, -4, -4], [4, 4, 4], [24, 24, 24])
    trace = extremize(gaussian_init(spec), TransformPlan(spec, t_step=1 / 12))
    assert trace.stop == "residual" and len(trace.steps) <= 100
    assert trace.a_estimate == pytest.approx(1.221493, abs=1e-5)


def test_every_taken_ray_point_has_its_recorded_ratio():
    # a ray point's ratio comes from the held transforms through linearity;
    # the final iterate of every run length, each a point that may have been
    # taken, reproduces the last recorded ratio through a real transform
    plan = TransformPlan(box_spec([-2, -2], [2, 2], [16, 16]), t_step=0.25)
    rng = np.random.default_rng(5)
    f0 = gaussian_init(plan.input)
    f0 = f0.with_values(f0.values * (1.0 + 0.1 * rng.random(plan.input.shape)))
    taken = 0
    for k in range(21):
        trace = extremize(f0, plan, max_iters=k, tol=0.0)
        taken += trace.steps[-1].extrapolated
        assert rayleigh_ratio(trace.final, plan) == pytest.approx(trace.steps[-1].phi,
                                                                  rel=1e-12, abs=0)
    assert taken >= 2


def test_fixed_point_maps_to_itself():
    trace = extremize(gaussian_init(SPEC), PLAN, max_iters=300, tol=1e-9)
    f = trace.final
    again = _step(f)
    assert np.abs(again.values - f.values).max() <= 1e-4 * f.values.max()
    # restarting from a near-fixed point stops immediately
    rerun = extremize(f, PLAN, max_iters=500, tol=1e-6)
    assert len(rerun.steps) <= 4
    assert rerun.stop == "residual"


def test_extremize_trace_properties():
    trace = extremize(gaussian_init(SPEC), PLAN, max_iters=200, tol=1e-6)
    phis = trace.phis()
    assert np.all(phis > 0)
    assert trace.a_estimate == phis.max()
    assert trace.stop == "residual"
    assert lp_norm(trace.final, P) == pytest.approx(1.0, abs=1e-12)
    assert trace.final.values.min() >= 0
    with pytest.raises(ValueError):
        ExtremizeTrace((TraceStep(0.0, 0.1),), trace.final, "residual")
    # the step budget runs out before the residual reaches the default tol
    assert extremize(gaussian_init(SPEC), PLAN, max_iters=1).stop == "max_iters"


@pytest.mark.parametrize("plan", [
    TransformPlan(box_spec([-2, -2], [2, 2], [16, 16]), t_step=0.25),
    PLAN,
    TransformPlan(box_spec([-4, -4], [4, 4], [64, 64]), t_step=1 / 64),
    TransformPlan(box_spec([-2, -2, -2], [2, 2, 2], [8, 8, 8])),
], ids=["16x16_tstep", "48x48", "64x64_tstep", "8x8x8"])
def test_extremize_search_contract(plan, monkeypatch):
    # from a Gaussian and an indicator start: one forward and one adjoint
    # transform per recorded step, extrapolated or not; no recorded ratio
    # falls; and the last one is the final iterate's own, though an
    # extrapolated ratio comes from no transform
    calls = {}

    def counted(name, transform):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)
        return wrapper

    d = plan.dim
    for f0 in (gaussian_init(plan.input),
               GridFunction.box_indicator(plan.input, [-1.0] * d, [1.0] * d)):
        calls.update(forward=0, adjoint=0)
        monkeypatch.setattr(extremizer, "forward_transform", counted("forward", forward_transform))
        monkeypatch.setattr(extremizer, "adjoint_transform", counted("adjoint", adjoint_transform))
        trace = extremize(f0, plan)
        assert trace.stop == "residual" and trace.steps[-1].residual <= 1e-4
        assert trace.extrapolated > 0
        assert calls == {"forward": len(trace.steps), "adjoint": len(trace.steps)}
        phis = trace.phis()
        assert np.diff(phis).min() >= -1e-10 * phis.max()
        monkeypatch.undo()
        assert rayleigh_ratio(trace.final, plan) == pytest.approx(phis[-1], rel=1e-12, abs=0)


def test_extremize_grid_refinement_monotone():
    # with the t-quadrature held fixed, refining the grid enlarges the
    # discrete trial space and the estimate must not decrease
    estimates = []
    for n in (32, 48, 64):
        spec = box_spec([-3, -3], [3, 3], [n, n])
        plan = TransformPlan(spec, t_step=6.0 / 64)
        tr = extremize(gaussian_init(spec), plan, max_iters=200, tol=1e-6)
        estimates.append(tr.a_estimate)
    assert estimates[0] <= estimates[1] <= estimates[2]


def test_residual_tail_monotone():
    trace = extremize(gaussian_init(SPEC), PLAN, max_iters=200, tol=1e-6)
    tail = np.array([s.residual for s in trace.steps[-10:]])
    assert np.all(np.diff(tail) <= 1e-9)
    # the residual stop: criterion 11 holds its 128^2 run to 1e-3
    assert trace.stop == "residual" and trace.steps[-1].residual <= 1e-6


def test_basin_comparison_reported():
    # indicator and Gaussian starts reach the same ratio; the gap is
    # reported, with only a loose sanity bound asserted
    chi = GridFunction.box_indicator(SPEC, [-1, -1], [1, 1])
    tr_chi = extremize(chi, PLAN, max_iters=300, tol=1e-6)
    tr_gauss = extremize(gaussian_init(SPEC), PLAN, max_iters=300, tol=1e-6)
    gap = abs(tr_chi.a_estimate - tr_gauss.a_estimate) / tr_gauss.a_estimate
    print(f"basin gap indicator vs gaussian: {gap:.2e}")
    assert gap < 0.05
