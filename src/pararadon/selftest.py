"""The 13 acceptance criteria, one function per criterion, at two scales.

Each criterion takes a `Scale` and returns `(ok, detail)`.  pytest runs
them at `FULL` (tests/test_acceptance.py), `pararadon selftest` at `DESK`.
A scale sets only grid sizes and repeat counts; seeds, tolerances and time
bounds belong to the criterion and are the same at both scales.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .affine import (affine_invariance_defect, arclength_density, circle_chart, measure,
                     parabola_chart, paraboloid_chart, surface_density)
from .extremizer import (decay_exponent, decay_profile, extremize, frequency_split,
                         gaussian_init, positivity_profile)
from .grid import GridFunction, box_spec
from .norms import entropy_refine, lorentz_quasinorm, lp_norm, tail_mass
from .operator import (TransformPlan, adjoint_transform, bilinear_form, forward_at_points,
                       inner)
from .paraball import (CAPTURE_TOL, dual, expanded_contains, from_incidence, greedy_cover,
                       partition_by_interaction, quasidistance, rasterize, transform_paraball,
                       unit_paraball, volume)
from .symmetry import (apply_partner_point, apply_point, compose, galilean, general_position,
                       incidence, incidence_defect, interpolate_points, inverse,
                       linear_symmetry, partner_pullback, pullback, scaling, translation)
from .testing import random_element, random_function, random_paraball_pair, smooth_bump

P = 1.5  # the d = 2 exponent p = (d+1)/d


@dataclass(frozen=True)
class Scale:
    """Grid sizes and repeat counts of one run of the criteria."""

    adjoint_grid: int  # criterion 1
    adjoint_pairs: int
    pullback_grid: int  # criterion 6
    pullback_elements: int
    extremizer_grids: tuple[int, int]  # criteria 11 and 13: coarse, fine
    extremizer_tstep: float


FULL = Scale(adjoint_grid=64, adjoint_pairs=100, pullback_grid=256, pullback_elements=10,
             extremizer_grids=(96, 128), extremizer_tstep=1 / 64)

DESK = Scale(adjoint_grid=48, adjoint_pairs=20, pullback_grid=160, pullback_elements=4,
             extremizer_grids=(32, 40), extremizer_tstep=1 / 16)


def criterion_01_discrete_adjointness(scale: Scale):
    n = scale.adjoint_grid
    spec = box_spec([-2, -2], [2, 2], [n, n])
    plan = TransformPlan(spec)
    rng = np.random.default_rng(0)
    t0 = time.time()
    worst = 0.0
    for _ in range(scale.adjoint_pairs):
        f = random_function(spec, rng)
        g = random_function(spec, rng)
        lhs = bilinear_form(g, f, plan)
        rhs = inner(adjoint_transform(g, plan), f)
        worst = max(worst, abs(lhs - rhs) / (1 + abs(lhs)))
    elapsed = time.time() - t0
    return (worst <= 1e-12 and elapsed < 10.0,
            f"worst defect {worst:.2e}, {elapsed:.1f}s for {scale.adjoint_pairs} pairs")


def criterion_02_forward_oracle(scale: Scale):
    spec = box_spec([-2, -2], [2, 2], [256, 256])
    chi = GridFunction.box_indicator(spec, [-1, -1], [1, 1])
    plan = TransformPlan(spec, t_step=1 / 128)
    center, above = forward_at_points(chi, np.array([[0.0, 0.0], [0.0, 2.0]]), plan)
    return (abs(center - 2.0) <= 0.02 and above <= 0.02,
            f"T chi(0,0) = {center:.4f} (target 2), T chi(0,2) = {above:.4f}")


def criterion_03_incidence_preservation(scale: Scale):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.choice([2, 3, 4]))
        el = random_element(rng, d, moderate=False)
        x = rng.standard_normal(d) * 2
        y = rng.standard_normal(d) * 2
        worst = max(worst, abs(incidence_defect(el, x, y)) / (1 + abs(incidence(x, y))))
    # the four generators with their scale factors {1, r^2, 1, 1}
    r = 1.7
    gens = [translation([0.3, -1.2]), scaling(r, 2), galilean([0.8]),
            linear_symmetry([[1.3]])]
    lams = [el.lam for el in gens]
    # generator actions at a reference point, against the closed forms
    x = np.array([0.5, 2.0])
    exact = (
        np.allclose(apply_point(gens[0], x), [0.8, 0.8], atol=1e-15)
        and np.allclose(apply_partner_point(gens[1], x), [r * 0.5, r * r * 2.0], atol=1e-12)
        and np.allclose(apply_partner_point(gens[2], x), [0.5, 2.0 + 2 * 0.8 * 0.5], atol=1e-15)
        and np.allclose(apply_point(gens[2], x), [1.3, 2.0 + 0.8 + 0.64], atol=1e-15)
    )
    return (worst <= 1e-9 and lams == [1.0, r * r, 1.0, 1.0] and exact,
            f"worst defect {worst:.2e} over 1000 triples; lambdas {lams}")


def criterion_04_group_laws(scale: Scale):
    rng = np.random.default_rng(2)
    worst = 0.0
    for d in (2, 3):
        for _ in range(25):
            e1 = random_element(rng, d)
            e2 = random_element(rng, d)
            x = rng.standard_normal((100, d))
            scale_x = 1 + np.abs(apply_point(e2, apply_point(e1, x))).max()
            worst = max(worst, np.abs(apply_point(compose(e2, e1), x)
                                      - apply_point(e2, apply_point(e1, x))).max() / scale_x)
            worst = max(worst, np.abs(apply_point(compose(e1, inverse(e1)), x) - x).max())
            worst = max(worst, np.abs(apply_point(compose(inverse(e1), e1), x) - x).max())
    return worst <= 1e-9, f"worst composition/inverse defect {worst:.2e}"


def criterion_05_transitivity(scale: Scale):
    el = interpolate_points([[0, 0], [1, 1]], [[0, 0], [2, 0]], 1.0)
    worked = np.abs(apply_point(el, [1.0, 1.0]) - np.array([2.0, 0.0])).max()
    rng = np.random.default_rng(3)
    worst = 0.0
    solved = 0
    while solved < 100:
        d = int(rng.choice([2, 3]))
        xs = rng.standard_normal((d, d)) * 2
        ys = rng.standard_normal((d, d)) * 2
        if not (general_position(xs) and general_position(ys)):
            continue
        t = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        el = interpolate_points(xs, ys, t)
        worst = max(worst, np.abs(apply_point(el, xs) - ys).max())
        solved += 1
    return (worked <= 1e-12 and worst <= 1e-9,
            f"worked-instance residual {worked:.2e}, worst random residual {worst:.2e}")


def criterion_06_pullback_isometry_and_pairing(scale: Scale):
    n = scale.pullback_grid
    spec = box_spec([-1.5, -1.5], [1.5, 1.5], [n, n])
    f = smooth_bump(spec, center=[0.1, 0.0], radius=1.2)
    g = smooth_bump(spec, center=[-0.1, 0.2], radius=1.1)
    base = lp_norm(f, P)
    ref = bilinear_form(g, f, TransformPlan(spec))
    rng = np.random.default_rng(4)
    worst_iso = 0.0
    worst_pair = 0.0
    for _ in range(scale.pullback_elements):
        el = random_element(rng, 2)
        worst_iso = max(worst_iso, abs(lp_norm(pullback(el, f), P) - base) / base)
        f2 = partner_pullback(el, f)
        g2 = pullback(el, g)
        plan2 = TransformPlan(f2.spec, output=g2.spec,
                              t_step=float(min(f2.spec.widths[:-1])))
        worst_pair = max(worst_pair, abs(bilinear_form(g2, f2, plan2) - ref) / ref)
    return (worst_iso <= 0.01 and worst_pair <= 0.02,
            f"isometry {worst_iso:.2e} (<= 1%), pairing {worst_pair:.2e} (<= 2%)")


def criterion_07_quasidistance_properties(scale: Scale):
    rng = np.random.default_rng(5)
    u = unit_paraball(2)
    self_exact = quasidistance(u, u) == 3.0
    worst_inv = 0.0
    worst_dual = 0.0
    sym_exact = True
    floor_ok = True
    for k in range(200):
        d = 2 + (k % 2)
        a, b = random_paraball_pair(rng, d, shared_rho=True)
        q = quasidistance(a, b)
        floor_ok &= q >= 1.0
        sym_exact &= quasidistance(b, a) == q
        worst_dual = max(worst_dual, abs(quasidistance(dual(a), dual(b)) - q) / q)
        el = random_element(rng, d)
        qt = quasidistance(transform_paraball(el, a), transform_paraball(el, b))
        worst_inv = max(worst_inv, abs(qt - q) / q)
    return (self_exact and sym_exact and floor_ok and worst_inv <= 1e-9 and worst_dual <= 1e-9,
            f"self = 3 exact: {self_exact}, symmetry exact: {sym_exact}, "
            f"invariance {worst_inv:.2e}, dual-pair {worst_dual:.2e}")


def criterion_08_entropy_refinement(scale: Scale):
    spec = box_spec([0, 0], [2, 2], [32, 32])
    rng = np.random.default_rng(6)
    r = 2.0
    ok = True
    worst_slack = math.inf
    for eta in (0.01, 0.1, 0.5):
        f = random_function(spec, rng, scale=4.0)
        refined, kept = entropy_refine(f, eta, P, r)
        dropped = f.with_values(f.values - refined.values)
        lhs = lorentz_quasinorm(dropped, P, r) ** r
        rhs = eta ** (r - P) * lp_norm(f, P) ** P
        ok &= lhs <= rhs and len(kept) * eta**P <= lp_norm(f, P) ** P
        worst_slack = min(worst_slack, rhs - lhs)
    return ok, f"bounds hold for eta in {{0.01, 0.1, 0.5}}; smallest margin {worst_slack:.2e}"


def criterion_09_interaction_partition(scale: Scale):
    spec = box_spec([-2.5, -2.5], [9.5, 3.0], [120, 55])
    plan = TransformPlan(spec)
    balls = [unit_paraball(2), from_incidence([7.0], 0.0, [7.0], np.eye(1), [1.0], 1.0)]
    mids = spec.midpoints()
    mask = (expanded_contains(balls[0], 2.0, mids)
            | expanded_contains(balls[1], 2.0, mids)).reshape(spec.shape)
    part = partition_by_interaction(mask, balls, 0.1, plan)
    cv = spec.cell_volume
    measure_f = mask.sum() * cv
    thresholds_ok = True
    worst_ratio = 0.0
    for i, tchi in enumerate(part.transforms):
        thresholds_ok &= not np.any(part.parts[i] & ~(tchi.values > part.gammas[i]))
        thresholds_ok &= not np.any(part.remainder & (tchi.values > part.gammas[i]))
        pairing = float((part.remainder * tchi.values).sum()) * cv
        bound = (0.1 / 3) * measure_f ** (1 / P) * volume(balls[i]) ** (1 / P)
        worst_ratio = max(worst_ratio, pairing / bound)
    return (thresholds_ok and worst_ratio <= 1.0, f"thresholds exact: {thresholds_ok}, "
            f"remainder pairing at {worst_ratio:.3f} of the bound")


def criterion_10_affine_measures(scale: Scale):
    t0 = time.time()
    parab = abs(arclength_density(parabola_chart(), 0.5) - 2 ** (1 / 3))
    surface = max(abs(surface_density(paraboloid_chart(d), np.full(d - 1, 0.2))
                      - 2 ** ((d - 1) / (d + 1))) for d in (2, 3))
    circle = abs(measure(circle_chart(), step=1e-3) - 2 * math.pi)
    A2 = np.array([[1.1, 0.3], [-0.2, 0.9]])
    analytic = affine_invariance_defect(parabola_chart(), A2, step=1e-3)
    fd = affine_invariance_defect(parabola_chart(analytic=False), A2, step=1e-3)
    analytic3 = affine_invariance_defect(paraboloid_chart(3, halfwidth=0.8), 2 * np.eye(3),
                                         step=2e-2)
    elapsed = time.time() - t0
    return (parab <= 1e-8 and surface <= 1e-8 and circle <= 1e-6 and analytic <= 1e-6
            and analytic3 <= 1e-6 and fd <= 1e-3 and elapsed < 5.0,
            f"parabola {parab:.1e}, paraboloid {surface:.1e}, circle {circle:.1e}, "
            f"defects {analytic:.1e}/{fd:.1e} (analytic/FD), {elapsed:.1f}s")


@functools.lru_cache(maxsize=2)  # one entry per scale
def _extremizer_runs(scale: Scale):
    """The production search on the coarse and the fine grid of `scale`, run
    once per scale and shared by criteria 11 and 13: ((trace, seconds), ...)."""
    runs = []
    for n in scale.extremizer_grids:
        spec = box_spec([-4, -4], [4, 4], [n, n])
        plan = TransformPlan(spec, t_step=scale.extremizer_tstep)
        t0 = time.time()
        trace = extremize(gaussian_init(spec), plan, max_iters=500, tol=1e-6, theta=0.5)
        runs.append((trace, time.time() - t0))
    return tuple(runs)


def criterion_11_extremizer_run(scale: Scale):
    (coarse, _), (trace, elapsed) = _extremizer_runs(scale)
    phis = trace.phis()
    iters = len(trace.steps) - 1
    dips = float(np.min(np.diff(phis))) if len(phis) > 1 else 0.0
    residual = trace.steps[-1].residual
    central_min = positivity_profile(trace.final, [((-2.0, -2.0), (2.0, 2.0))])[0][1]
    drift = abs(coarse.a_estimate - trace.a_estimate) / trace.a_estimate
    tail = tail_mass(trace.final, 2.0, P)
    decay = decay_exponent(decay_profile(trace.final))
    n0, n1 = scale.extremizer_grids
    return (iters < 500 and dips >= -1e-10 * phis.max() and residual <= 1e-3
            and central_min > 0 and drift < 0.02 and elapsed < 600.0,
            f"iters {iters}, worst step {dips:.1e}, residual {residual:.2e}, "
            f"min {central_min:.1e}, A drift {n0}->{n1} {drift:.2%}, "
            f"A = {trace.a_estimate:.6f}, tail mass {tail:.2e}, "
            f"tube decay exponent {decay:.2f} (reported), {elapsed:.0f}s")


def criterion_12_greedy_cover(scale: Scale):
    spec = box_spec([-1.6, -1.6], [1.6, 2.6], [52, 68])
    f = rasterize(unit_paraball(2), spec)
    pieces = greedy_cover(f, eta=0.05, budget=500)
    frac = lp_norm(pieces[0][1], P) / lp_norm(f, P)
    bound = math.ceil(CAPTURE_TOL ** (-P))
    return (frac >= 0.9 and len(pieces) <= bound,
            f"first-piece capture {frac:.3f} (>= 0.9), {len(pieces)} piece(s) <= bound {bound}")


def criterion_13_frequency_split(scale: Scale):
    spec = box_spec([-2, -2], [2, 2], [64, 64])
    x = spec.midpoints()
    band = GridFunction(spec, (1.0 + 0.5 * np.cos(math.pi * x[:, 0])).reshape(spec.shape))
    g_sharp, g_flat = frequency_split(band, 4.0)
    band_leak = lp_norm(g_flat, 2.0)
    additive = np.array_equal(g_sharp.values, band.values - g_flat.values)
    residual = np.abs(g_sharp.values + g_flat.values - band.values).max()
    final = _extremizer_runs(scale)[1][0].final
    flats = [lp_norm(frequency_split(final, rho)[1], P) for rho in (1, 2, 4, 8)]
    monotone = all(b <= a for a, b in zip(flats, flats[1:]))
    return (additive and residual <= 1e-12 and band_leak <= 1e-12 and monotone,
            f"additivity exact: {additive} (residual {residual:.1e}), "
            f"band-limited leak {band_leak:.1e}, flat norms {['%.3e' % v for v in flats]}")


# every criterion_NN_* function above, in criterion order
CRITERIA = tuple(fn for name, fn in sorted(globals().items()) if name.startswith("criterion_"))


def run_selftest() -> int:
    """Run every criterion at desk scale, one PASS/FAIL line each."""
    failures = 0
    for criterion in CRITERIA:
        name = criterion.__name__[len("criterion_nn_"):].replace("_", " ")
        t0 = time.time()
        try:
            ok, detail = criterion(DESK)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'}  {name}  [{time.time() - t0:.2f}s]  {detail}")
        failures += not ok
    print(f"{len(CRITERIA) - failures}/{len(CRITERIA)} checks passed")
    return 1 if failures else 0
