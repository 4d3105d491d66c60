import json
import math
import warnings

import numpy as np
import pytest

from pararadon import paraball
from pararadon.grid import GridFunction, box_spec
from pararadon.norms import ExponentPair, lp_norm
from pararadon.operator import TransformPlan
from pararadon.paraball import (Paraball, _basis_from_angles, _trial_balls, _TrialBall, contains,
                                dual, expanded_contains, fit_paraball, from_incidence,
                                greedy_cover, partition_by_interaction, quasidistance, rasterize,
                                transform_paraball, unit_ball_volume, unit_paraball, volume)
from pararadon.symmetry import apply_partner_point, apply_point, scaling, translation
from pararadon.testing import (intersection_volume, random_element, random_paraball,
                               random_paraball_pair, sample_points)

P = 1.5


def test_membership_basics():
    B = unit_paraball(2)
    assert contains(B, [0.5, 0.3])
    assert not contains(B, [2.0, 0.0])
    assert contains(B, B.base)  # the base sits on the slab sheet
    assert contains(dual(B), [0.0, 0.0])


def test_membership_rejects_points_of_another_dimension():
    # broadcasting would let x[..., :-1] - base[:-1] pass for some mismatches
    mids = box_spec([-2, -2], [2, 2], [16, 16]).midpoints()
    for ball, pts in ((unit_paraball(3), mids), (unit_paraball(2), np.zeros((5, 3)))):
        record = _TrialBall(ball.base[None, None], ball.apex[None, None], ball.basis[None],
                            ball.radii[None, None], np.array([[ball.rho]]), ball.sign)
        for B in (ball, record):
            with pytest.raises(ValueError, match="points of dimension"):
                contains(B, pts)
    plan = TransformPlan(box_spec([-2, -2], [2, 2], [16, 16]))
    with pytest.raises(ValueError, match="paraball of dimension 3"):
        partition_by_interaction(np.ones((16, 16), bool), [unit_paraball(3)], 0.1, plan)
    with pytest.raises(ValueError, match="^points of dimension 2 against an element of dim"):
        transform_paraball(scaling(2.0, 3), unit_paraball(2))


def test_construction_validation():
    with pytest.raises(ValueError):
        Paraball([0, 0], [0, 0], np.eye(1), [-1.0], 1.0, 1)
    with pytest.raises(ValueError):
        Paraball([0, 0], [0, 0], [[2.0]], [1.0], 1.0, 1)  # non-orthonormal
    with pytest.raises(ValueError):
        Paraball([0, 1.0], [0, 0], np.eye(1), [1.0], 1.0, 1)  # off the sheet
    good = {"base": [0.0, 0.0], "apex": [0.0, 0.0], "basis": [[1.0]], "radii": [1.0], "rho": 1.0}
    for sign in (2, 1.5, -0.5, True, "1"):
        with pytest.raises(ValueError, match="sign"):
            Paraball(**good, sign=sign)
        with pytest.raises(ValueError, match="sign"):
            Paraball.from_json(json.dumps(dict(good, sign=sign)))
    assert Paraball(**good, sign=-1.0).sign == -1
    with pytest.raises(ValueError, match="^paraballs must share the dimension$"):
        quasidistance(unit_paraball(2), unit_paraball(3))
    for v in (math.nan, math.inf, -math.inf):
        for field, value in (("base", [0.0, v]), ("apex", [v, 0.0]), ("basis", [[v]]),
                             ("radii", [v]), ("rho", v)):
            data = dict(good, **{field: value})
            with pytest.raises(ValueError, match="finite"):
                Paraball(**data)
            with pytest.raises(ValueError, match="^paraball JSON holds non-finite values$"):
                Paraball.from_json(json.dumps(data))
        with pytest.raises(ValueError, match="dual radii"):
            Paraball(**good, _dual_radii=[v])
    # rho / r overflows for r = 1e-310 and underflows to 0 for r = 1e300, rho = 1e-30
    for radii, rho in (([1e-310], 1.0), ([1e300], 1e-30)):
        data = dict(good, radii=radii, rho=rho)
        with pytest.raises(ValueError, match="^dual radii rho / r_j must be finite and positive"):
            Paraball(**data)
        with pytest.raises(ValueError, match="^dual radii rho / r_j must be finite and positive"):
            Paraball.from_json(json.dumps(data))


def test_expanded_membership():
    B = unit_paraball(2)
    assert not expanded_contains(B, 2.0, [1.5, 0.0])  # ellipse ok, slab 2.25 > 2
    assert expanded_contains(B, 3.0, [1.5, 0.0])
    for bad in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="expansion factor"):
            expanded_contains(B, bad, [0.0, 0.0])
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, (500, 2))
    inside = contains(B, pts)
    for lam in (1.0, 1.5, 3.0):
        grown = expanded_contains(B, lam, pts)
        assert np.all(grown[inside])  # monotone in the expansion factor


def _scalar_contains(B, lam, p):
    """Membership of one point by the definition, in Python floats."""
    k = len(p) - 1
    ell = 0.0
    for j in range(k):
        proj = sum(float(B.basis[j][i]) * (p[i] - float(B.base[i])) for i in range(k))
        ell += (proj / float(B.radii[j])) ** 2
    sq = sum((p[i] - float(B.apex[i])) ** 2 for i in range(k))
    slab = p[k] - float(B.apex[k]) - B.sign * sq
    return ell < lam * lam and abs(slab) < lam * B.rho


def _batch_record(balls):
    """The `_TrialBall` batch record of balls of one orientation."""
    return _TrialBall(*(np.stack([getattr(b, name) for b in balls])[:, None]
                        for name in ("base", "apex", "basis", "radii")),
                      np.array([[b.rho] for b in balls]), balls[0].sign)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_expanded_contains_layouts_match_a_scalar_reference(d):
    # the one points-last formula reads a single point, (N, d) rows,
    # stacked (A, B, d) points and a batch record's trial rows alike
    rng = np.random.default_rng(40 + d)
    primal = [random_paraball(rng, d) for _ in range(3)]
    for balls in (primal, [dual(b) for b in primal]):
        pts = np.concatenate([sample_points(balls[0], 60, rng), rng.uniform(-4, 4, (60, d))])
        for lam in (1.0, 1.6):
            expected = np.array([[_scalar_contains(b, lam, p) for p in pts.tolist()]
                                 for b in balls])
            assert expected.any() and not expected.all()
            record = _batch_record(balls)
            assert np.array_equal(expanded_contains(record, lam, pts), expected)
            assert np.array_equal(expanded_contains(record, lam, pts[7]), expected[:, 7:8])
            for b, row in zip(balls, expected):
                assert np.array_equal(expanded_contains(b, lam, pts), row)
                stacked = expanded_contains(b, lam, pts.reshape(8, 15, d))
                assert np.array_equal(stacked, row.reshape(8, 15))
                for p, e in zip(pts[::12], row[::12]):
                    one = expanded_contains(b, lam, p)
                    assert one.shape == () and one == e


def test_volume_formulas():
    assert volume(unit_paraball(2)) == 4.0  # 2 rho * 2 * r
    assert volume(unit_paraball(3)) == pytest.approx(2 * math.pi, rel=1e-15)
    B = from_incidence([0.0], 0.0, [0.0], np.eye(1), [3.0], 1.0)
    assert volume(B) == pytest.approx(3 * volume(unit_paraball(2)), rel=1e-15)


def test_dual_ball():
    B = from_incidence([0.5], 0.25, [0.0], np.eye(1), [2.0], 1.0)
    D = dual(B)
    assert D.sign == -1
    assert D.radii[0] == 0.5  # rho / r
    assert np.array_equal(D.base, B.apex) and np.array_equal(D.apex, B.base)
    DD = dual(D)
    assert np.array_equal(DD.radii, B.radii) and DD.sign == 1
    assert np.array_equal(DD.base, B.base)
    assert volume(D) == pytest.approx(2 * B.rho * 2 * (B.rho / 2.0), rel=1e-15)


def test_dual_pair_invariants():
    # dyadic radii make r * r_star = rho exact in floating point
    B = from_incidence([0.25, -0.5], 0.75, [0.0, 0.0], np.eye(2), [2.0, 0.5], 4.0)
    D = dual(B)
    assert np.array_equal(B.radii * D.radii, [4.0, 4.0])
    assert (D.rho, D.sign) == (B.rho, -1)
    # the partner radii a ball carries must satisfy r_j r*_j = rho
    with pytest.raises(ValueError, match="dual radii"):
        Paraball(D.base, D.apex, D.basis, D.radii, D.rho, -1, _dual_radii=[2.0, 4.0])


def test_quasidistance_self_and_symmetry():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4):
        B = random_paraball(rng, d)
        assert quasidistance(B, B) == 3.0
        C = random_paraball(rng, d)
        assert quasidistance(B, C) == quasidistance(C, B)  # bitwise, sorted sum
        assert quasidistance(B, C) >= 1.0
    with pytest.raises(ValueError):
        quasidistance(B, dual(C))


def test_quasidistance_offset_growth():
    # moving the base by w in x' adds |w|^2 to each base-offset term
    B = unit_paraball(2)
    for w in (0.3, 0.7, 2.0):
        C = from_incidence([w], w * w, [0.0], np.eye(1), [1.0], 1.0)
        assert quasidistance(B, C) == pytest.approx(3.0 + 2 * w * w, abs=1e-12)


def test_quasidistance_group_invariance():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        for _ in range(100):
            a, b = random_paraball_pair(rng, d, shared_rho=False)
            el = random_element(rng, d)
            q = quasidistance(a, b)
            qt = quasidistance(transform_paraball(el, a), transform_paraball(el, b))
            assert abs(qt - q) <= 1e-9 * q


def test_quasidistance_dual_pair_equality():
    # exact when the two balls share the thickness (the nine terms permute)
    rng = np.random.default_rng(3)
    for d in (2, 3):
        for _ in range(100):
            a, b = random_paraball_pair(rng, d, shared_rho=True)
            q = quasidistance(a, b)
            assert abs(quasidistance(dual(a), dual(b)) - q) <= 1e-9 * q


def test_transform_identity_and_scaling():
    B = unit_paraball(2)
    TB = transform_paraball(translation(np.zeros(2)), B)
    assert np.allclose(TB.radii, B.radii) and TB.rho == pytest.approx(B.rho)
    TB = transform_paraball(scaling(3.0, 2), B)
    assert TB.radii[0] == pytest.approx(1 / 3, rel=1e-12)
    assert TB.rho == pytest.approx(1 / 9, rel=1e-12)
    with pytest.raises(ValueError):
        transform_paraball(scaling(2.0, 2), dual(B))


def test_transform_membership_agreement():
    rng = np.random.default_rng(4)
    for d in (2, 3):
        el = random_element(rng, d)
        B = random_paraball(rng, d)
        TB = transform_paraball(el, B)
        pts = sample_points(TB, 1000, rng)
        # jitter toward/past the boundary to stress both sides
        pts = TB.base + (pts - TB.base) * rng.uniform(0.8, 1.2, (len(pts), 1))
        agree = np.mean(contains(TB, pts) == contains(B, apply_point(el, pts)))
        assert agree >= 0.999


def test_transform_dual_pair_tracks_partner():
    rng = np.random.default_rng(5)
    el = random_element(rng, 3)
    B = random_paraball(rng, 3)
    moved = dual(transform_paraball(el, B))
    pts = sample_points(moved, 1000, rng)
    agree = np.mean(contains(moved, pts) == contains(dual(B), apply_partner_point(el, pts)))
    assert agree >= 0.999


def test_intersection_volume():
    B = unit_paraball(2)
    assert intersection_volume(B, B, n=20000) == pytest.approx(volume(B), rel=1e-12)
    far = from_incidence([40.0], 0.0, [40.0], np.eye(1), [1.0], 1.0)
    assert intersection_volume(B, far, n=20000) == 0.0
    # half-overlapping slabs: |intersection| computable through both samples
    C = from_incidence([0.0], 1.0, [0.0], np.eye(1), [1.0], 1.0)
    v1 = intersection_volume(B, C, n=200000, seed=1)
    v2 = intersection_volume(C, B, n=200000, seed=2)
    assert v1 == pytest.approx(v2, rel=0.02)


def test_intersection_distance_envelope():
    # overlapping pairs: the quasidistance grows as the overlap shrinks
    rng = np.random.default_rng(6)
    samples = []
    count = 0
    while count < 200:
        a, b = random_paraball_pair(rng, 2, shared_rho=False)
        cap = intersection_volume(a, b, n=4000, seed=count)
        ratio = max(volume(a), volume(b)) / cap if cap > 0 else math.inf
        if cap > 0.1 * max(volume(a), volume(b)):
            samples.append((ratio, quasidistance(a, b)))
            count += 1
    # strongly overlapping pairs sit lower than barely overlapping ones
    lo = np.median([q for x, q in samples if x <= 2.0])
    hi = np.median([q for x, q in samples if x > 5.0])
    assert lo <= hi


def test_fit_recovers_indicator():
    spec = box_spec([-1.6, -1.6], [1.6, 2.6], [52, 68])
    f = rasterize(unit_paraball(2), spec)
    ball, captured = fit_paraball(f, volume(unit_paraball(2)), budget=500, seed=0)
    assert volume(ball) <= volume(unit_paraball(2)) * (1 + 1e-9)
    assert captured >= 0.9 * lp_norm(f, P)
    # budget 0 returns the moment-seeded candidate
    ball0, cap0 = fit_paraball(f, volume(unit_paraball(2)), budget=0, seed=0)
    assert cap0 > 0
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="max_volume"):
            fit_paraball(f, bad, budget=10)
    with pytest.raises(ValueError, match="budget"):
        fit_paraball(f, volume(unit_paraball(2)), budget=-1)
    with pytest.raises(ValueError):
        fit_paraball(GridFunction.zeros(spec), 1.0, budget=10)


def test_fit_two_distant_bumps():
    spec = box_spec([-2, -2], [9, 2], [110, 40])
    f1 = rasterize(unit_paraball(2), spec)
    f2 = rasterize(from_incidence([7.0], 0.0, [7.0], np.eye(1), [1.0], 1.0), spec)
    f = GridFunction(spec, f1.values + f2.values)
    ball, captured = fit_paraball(f, volume(unit_paraball(2)), budget=500, seed=0)
    # one ball holds at most half the p-mass: 2^(-1/p) of the norm
    half = 2 ** (-1 / P) * lp_norm(f, P)
    assert 0.9 * half <= captured <= 1.02 * half


def test_fit_recovers_indicator_3d():
    spec = box_spec([-1.6, -1.6, -1.6], [1.6, 1.6, 2.6], [28, 28, 36])
    B = from_incidence([0.2, -0.1], 0.3, [0.0, 0.1], np.eye(2), [0.9, 0.6], 0.5)
    f = rasterize(B, spec)
    ball, captured = fit_paraball(f, volume(B), budget=500, seed=0)
    assert ball.dim == 3 and volume(ball) <= volume(B) * (1 + 1e-9)
    assert captured >= 0.95 * lp_norm(f, ExponentPair(3).p)


def test_fit_deterministic():
    spec = box_spec([-1.6, -1.6], [1.6, 2.6], [40, 52])
    f = rasterize(unit_paraball(2), spec)
    b1, c1 = fit_paraball(f, 4.0, budget=200, seed=3)
    b2, c2 = fit_paraball(f, 4.0, budget=200, seed=3)
    assert c1 == c2 and np.array_equal(b1.base, b2.base)
    # a fit whose ball and capture are pinned bit for bit
    spec = box_spec([-2, -2], [2, 2], [32, 32])
    x = spec.midpoints()
    g = GridFunction(spec, np.exp(-np.sum((x - [0.3, -0.2]) ** 2, axis=1)).reshape(spec.shape))
    ball, captured = fit_paraball(g, 1.0, budget=150, seed=3)
    assert ball.to_json() == (
        '{"base": [0.3088211396902296, -0.3579573916786609], '
        '"apex": [0.28536614289814133, -0.3585075285531778], "basis": [[1.0]], '
        '"radii": [0.39279554745763584], "rho": 0.6364634263756853, "sign": 1}')
    assert captured == 0.8869041055676136
    # and one in d = 3 whose basis turns, so the k = 2 projection's rounding
    # is pinned too
    spec = box_spec([-2, -2, -2], [2, 2, 2], [14, 14, 14])
    q = spec.midpoints() - [0.3, -0.2, 0.1]
    g = GridFunction(spec, np.exp(-(q[:, 0] + 0.5 * q[:, 1]) ** 2 - 2 * q[:, 1] ** 2
                                  - q[:, 2] ** 2).reshape(spec.shape))
    ball, captured = fit_paraball(g, 1.0, budget=150, seed=3)
    assert ball.to_json() == (
        '{"base": [0.3054160976220938, -0.3183396096276514, -0.07822365164272488], '
        '"apex": [0.12434841128538324, -0.20008198138254946, -0.12499402531621101], '
        '"basis": [[0.999636671707228, -0.026954119872399696], '
        '[0.026954119872399696, 0.999636671707228]], '
        '"radii": [0.8858305653121441, 0.47145779754427736], "rho": 0.38108920534706037, '
        '"sign": 1}')
    assert captured == 0.6999424811473002


def reference_fit(f, max_volume, budget, seed=0):
    """`fit_paraball` as one-trial-at-a-time coordinate descent: each trial
    is scored on its own, in sweep order, and charged as it is scored; its
    captured mass is always summed, and the p-mass and midpoints are set
    up on the full grid before the zero cells are dropped.
    Trial balls are built one at a time with scalar arithmetic (`np.exp`
    on the radii, `math.exp` on the thickness, a 1-D dot product for the
    apex height), independently of `_trial_balls`' batched builder."""
    d = f.dim
    k = d - 1
    p = ExponentPair(d).p
    pmass = (f.values.ravel() ** p) * f.spec.cell_volume
    held = pmass > 0
    mids = f.spec.midpoints()[held]
    pmass = pmass[held]
    max_volume = float(max_volume)

    def ball(params):
        base_prime = params[:k]
        base_d = params[k]
        q = params[d : d + k]
        log_r = params[d + k : d + 2 * k]
        log_rho = params[d + 2 * k]
        angles = params[d + 2 * k + 1 :]
        radii = np.exp(np.clip(log_r, -20, 20))
        rho = math.exp(min(max(log_rho, -20), 20))
        cap = max_volume / (2.0 * unit_ball_volume(k) * float(np.prod(radii)))
        rho = min(rho, cap)
        basis = _basis_from_angles(k, angles) if k > 1 else np.eye(1)
        apex_prime = base_prime + q
        diff = base_prime - apex_prime
        apex_d = float(base_d) - float(diff @ diff)
        base = np.concatenate([base_prime, [float(base_d)]])
        apex = np.concatenate([apex_prime, [apex_d]])
        return _TrialBall(base, apex, basis, radii, rho, 1)

    def score(params):
        return float(pmass[paraball.contains(ball(params), mids)].sum())

    w = pmass / pmass.sum()
    centroid = w @ mids
    sigma = np.sqrt(np.maximum(w @ (mids - centroid) ** 2, 1e-12))
    slab_res = mids[:, -1] - centroid[-1] - np.sum((mids[:, :-1] - centroid[:-1]) ** 2, axis=1)
    sigma_slab = math.sqrt(max(float(w @ slab_res**2), 1e-12))
    h = f.spec.widths

    n_angles = k * (k - 1) // 2
    init = np.concatenate([
        centroid,
        np.zeros(k),
        np.log(np.maximum(2.0 * sigma[:-1], h[:-1])),
        [math.log(max(2.0 * sigma_slab, h[-1]))],
        np.zeros(n_angles),
    ])
    steps0 = np.concatenate([
        np.maximum(sigma, h) * 0.5,
        np.maximum(sigma[:-1], h[:-1]) * 0.5,
        np.full(k, 0.3),
        [0.3],
        np.full(n_angles, 0.2),
    ])

    rng = np.random.default_rng(seed)
    best_params = init.copy()
    best_val = score(init)
    evals = 0
    restarts = 3  # coordinate-descent starts, sharing the budget
    per_restart = budget // restarts
    for restart in range(restarts):
        if evals >= budget:
            break
        params = init.copy()
        val = best_val  # restart 0 starts from the moment candidate, scored above
        if restart > 0:
            params += steps0 * rng.standard_normal(len(init))
            val = score(params)
        evals += 1
        steps = steps0.copy()
        budget_here = min(per_restart, budget - evals)
        used = 0
        while used < budget_here:
            improved = False
            for i in range(len(params)):
                if used >= budget_here:
                    break
                for sgn in (1.0, -1.0):
                    trial = params.copy()
                    trial[i] += sgn * steps[i]
                    tv = score(trial)
                    used += 1
                    if tv > val:
                        params, val = trial, tv
                        improved = True
                        break
                    if used >= budget_here:
                        break
            if not improved:
                steps *= 0.5
                if np.all(steps < 1e-6):
                    break
        evals += used
        if val > best_val:
            best_val, best_params = val, params.copy()
    return Paraball(*ball(best_params)), best_val ** (1.0 / p)


def _fit_input(d, seed):
    """A bump whose fit keeps moving for a few sweeps, with a zero cell
    margin so not every cell takes part.  In d >= 3 the bump is turned in
    x', so the fitted basis turns too."""
    rng = np.random.default_rng(seed)
    n = {2: 24, 3: 10, 4: 5}[d]
    spec = box_spec([-2.0] * d, [2.0] * d, [n] * d)
    x = spec.midpoints()
    centre = rng.uniform(-0.5, 0.5, d)
    scale = rng.uniform(0.6, 1.4, d)
    q = x - centre
    if d >= 3:
        c, s = math.cos(0.6), math.sin(0.6)
        q[:, :2] = q[:, :2] @ np.array([[c, -s], [s, c]])
    vals = np.exp(-np.sum((q / scale) ** 2, axis=1)) * (1 + 0.3 * rng.random(len(x)))
    vals[np.abs(x).max(axis=1) > 1.5] = 0.0
    return GridFunction(spec, vals.reshape(spec.shape))


def _scoring_calls(monkeypatch, fit, f, max_volume, budget, seed):
    """fit's result and the trial shape of each of its `contains` calls:
    () for a single ball, (T, 1) for a batch of T."""
    calls = []

    def counting(ball, pts):
        calls.append(np.shape(ball.rho))
        return contains(ball, pts)

    with monkeypatch.context() as m:
        m.setattr(paraball, "contains", counting)
        result = fit(f, max_volume, budget, seed=seed)
    return result, calls


@pytest.mark.parametrize("d", [2, 3, 4])
def test_fit_matches_one_trial_at_a_time_descent(d, monkeypatch):
    n_params = d + 2 * (d - 1) + 1 + (d - 1) * (d - 2) // 2
    budgets = [*range(81 if d == 2 else 2 * (2 * n_params) + 4), 150, 500]
    turned = False
    for seed in range(3 if d < 4 else 2):
        f = _fit_input(d, seed)
        for budget in budgets:
            ball, cap = fit_paraball(f, 1.0, budget, seed=seed)
            ref_ball, ref_cap = reference_fit(f, 1.0, budget, seed=seed)
            assert ball.to_json() == ref_ball.to_json() and cap == ref_cap, (seed, budget)
            turned |= not np.array_equal(ball.basis, np.eye(d - 1))
    assert turned or d == 2
    # a byte budget of three trials per scoring call splits every sweep
    # across calls, mid-coordinate too
    f = _fit_input(d, 7)
    monkeypatch.setattr(paraball, "_TRIAL_BYTES", 3 * 8 * d * np.count_nonzero(f.values))
    for budget in (2 * n_params + 1, 150):
        ball, cap = fit_paraball(f, 1.0, budget, seed=7)
        ref_ball, ref_cap = reference_fit(f, 1.0, budget, seed=7)
        assert ball.to_json() == ref_ball.to_json() and cap == ref_cap, budget
    # a byte budget of 4000 trials: one scoring call takes the miss path
    # across many sweeps, to the step-halving stop or into the middle of a
    # sweep where the budget ends.  The reference scores one trial per call,
    # so fewer calls than the budget mean that a restart ended at the stop;
    # once every restart does, a larger budget scores the very same trials.
    for seed in range(3):
        f = _fit_input(d, seed)
        monkeypatch.setattr(paraball, "_TRIAL_BYTES", 4000 * 8 * d * np.count_nonzero(f.values))
        scored = {}
        for budget in (37, 121, 460, 3000, 30000):
            (ball, cap), scored[budget] = _scoring_calls(monkeypatch, fit_paraball, f, 1.0,
                                                         budget, seed)
            (ref_ball, ref_cap), calls = _scoring_calls(monkeypatch, reference_fit, f, 1.0,
                                                        budget, seed)
            assert ball.to_json() == ref_ball.to_json() and cap == ref_cap, (seed, budget)
            if budget >= 3000:
                assert len(calls) < budget, (seed, budget)
        assert scored[3000] == scored[30000]


def test_fit_evaluations_equal_the_budget(monkeypatch):
    # the reference descent scores one trial per `contains` call, so the
    # calls count its evaluations; the moment candidate is scored once and
    # charged to restart 0.  fit_paraball returns the reference's result
    # bit for bit, so it charges the same trials.
    spec = box_spec([-1.6, -1.6], [1.6, 2.6], [40, 52])
    f = rasterize(unit_paraball(2), spec)
    for budget in (0, 30, 120):
        expected = fit_paraball(f, 4.0, budget=budget, seed=1)
        (ball, cap), calls = _scoring_calls(monkeypatch, reference_fit, f, 4.0, budget, 1)
        assert calls == [()] * max(budget, 1)
        assert ball.to_json() == expected[0].to_json() and cap == expected[1]


def test_fit_trial_record_matches_paraball():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        k = d - 1
        B = random_paraball(rng, d)
        for ball in (B, dual(B)):
            pts = np.concatenate([sample_points(ball, 500, rng), rng.uniform(-5, 5, (500, d))])
            record = _TrialBall(ball.base, ball.apex, ball.basis, ball.radii, ball.rho, ball.sign)
            inside = contains(ball, pts)
            assert inside.any() and not inside.all()
            assert np.array_equal(contains(record, pts), inside)
        # a batch record: row t is from_incidence's ball of params[t], bit
        # for bit, and the batched membership is the per-row one
        pts = np.concatenate([pts, rng.uniform(-1, 1, (500, d))])
        params = np.column_stack([rng.uniform(-1, 1, (7, d)), rng.uniform(-0.5, 0.5, (7, k)),
                                  rng.uniform(-0.7, 0.7, (7, k + 1)),
                                  rng.uniform(-math.pi, math.pi, (7, k * (k - 1) // 2))])
        params[:, d + 2 * k] = 3.0  # a thickness the volume cap cuts
        record = _trial_balls(params, d, 2.0)
        assert np.all(record.rho < math.exp(3.0))
        inside = contains(record, pts)
        assert inside.shape == (7, len(pts)) and inside.any()
        for t, row in enumerate(params):
            ball = Paraball(record.base[t, 0], record.apex[t, 0], record.basis[t, 0],
                            record.radii[t, 0], record.rho[t, 0], record.sign)
            expected = from_incidence(row[:k], row[k], row[:k] + row[d:d + k],
                                      record.basis[t, 0], record.radii[t, 0], record.rho[t, 0])
            assert ball.to_json() == expected.to_json()
            assert np.array_equal(inside[t], contains(ball, pts))
            assert np.array_equal(inside[t], contains(_trial_balls(row[None], d, 2.0), pts)[0])
            assert volume(ball) <= 2.0 * (1 + 1e-12)


def test_fit_ignores_zero_cells():
    # the same values on a grid padded with zero cells: the midpoints are
    # bit-equal, and the fit must not see the padding.  The mass is not
    # dyadic, so a sum regrouped by zero cells would round differently.
    small = box_spec([-2, -2], [2, 2], [64, 64])
    ball = from_incidence([1.5], 1.6, [1.4], np.eye(1), [0.7], 0.5)
    f = GridFunction(small, 1.3 * rasterize(ball, small).values)
    large = box_spec([-4, -4], [4, 4], [128, 128])
    padded = np.zeros(large.shape)
    padded[32:96, 32:96] = f.values
    g = GridFunction(large, padded)
    assert np.array_equal(large.midpoints().reshape(128, 128, 2)[32:96, 32:96],
                          small.midpoints().reshape(64, 64, 2))
    for seed in range(10):
        bf, cf = fit_paraball(f, 1.0, budget=300, seed=seed)
        bg, cg = fit_paraball(g, 1.0, budget=300, seed=seed)
        assert bf.to_json() == bg.to_json() and cf == cg, seed


def test_greedy_cover_single_ball():
    spec = box_spec([-1.6, -1.6], [1.6, 2.6], [52, 68])
    f = rasterize(unit_paraball(2), spec)
    pieces, stop = greedy_cover(f, eta=0.05, budget=400)
    assert len(pieces) <= math.ceil(0.05 ** (-P)) and stop == "zero_residual"
    assert lp_norm(pieces[0][1], P) >= 0.9 * lp_norm(f, P)
    # no piece once the ratio starts below eta
    assert greedy_cover(f, eta=10.0, budget=10) == ([], "ratio_below_eta")
    # a far dust cell on a low level: its ratio passes eta, its fit captures too little
    dusty = f.values.copy()
    dusty[-2, -2] = 2.0 ** -8
    pieces, stop = greedy_cover(GridFunction(spec, dusty), eta=0.05, budget=400)
    assert len(pieces) == 1 and stop == "capture_below_tol"
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eta"):
            greedy_cover(f, eta=bad, budget=10)
    with pytest.raises(ValueError, match="budget"):
        greedy_cover(f, eta=0.05, budget=-5)
    with pytest.raises(ValueError):
        greedy_cover(GridFunction.zeros(spec), eta=0.1, budget=10)
    # a signed input is refused up front, not by the residual's own check
    signed = f.values.copy()
    signed[0, 0] = -1.0
    with pytest.raises(ValueError, match="^cover needs a nonnegative function$"):
        greedy_cover(GridFunction(spec, signed, allow_negative=True), eta=0.05, budget=10)


def test_greedy_cover_two_bumps():
    spec = box_spec([-2, -2], [9, 2], [110, 40])
    f1 = rasterize(unit_paraball(2), spec)
    f2 = rasterize(from_incidence([7.0], 0.0, [7.0], np.eye(1), [1.0], 1.0), spec)
    f = GridFunction(spec, f1.values + f2.values)
    pieces, _ = greedy_cover(f, eta=0.05, budget=400)
    assert len(pieces) >= 2
    fractions = sorted(lp_norm(pc, P) / lp_norm(f, P) for _, pc in pieces[:2])
    for frac in fractions:
        assert frac == pytest.approx(2 ** (-1 / P), abs=0.07)
    # pieces are pairwise disjoint and sum below the total p-mass
    overlap = np.zeros(spec.shape, dtype=int)
    total = 0.0
    for _, pc in pieces:
        overlap += pc.values > 0
        total += lp_norm(pc, P) ** P
    assert overlap.max() <= 1
    assert total <= lp_norm(f, P) ** P * (1 + 1e-12)


def test_cover_is_scale_exact_where_powers_overflow():
    # at 2^996 the p-th powers overflow, so the fit and the level sums take
    # those of f / max f, which for a constant are the constant 1's: the
    # balls are its balls and the captures exactly 2^996 times its own,
    # with no warning
    spec = box_spec([-1, -1], [1, 1], [8, 8])
    one = GridFunction(spec, np.ones(spec.shape))
    big = one.with_values(np.full(spec.shape, 2.0**996))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ball, captured = fit_paraball(big, 2.0, budget=50, seed=3)
        pieces, stop = greedy_cover(big, eta=0.05, budget=50)
    want_ball, want_captured = fit_paraball(one, 2.0, budget=50, seed=3)
    assert ball.to_json() == want_ball.to_json()
    assert captured == math.ldexp(want_captured, 996)
    want, want_stop = greedy_cover(one, eta=0.05, budget=50)
    assert stop == want_stop and len(pieces) == len(want) > 1
    for (b, pc), (wb, wpc) in zip(pieces, want):
        assert b.to_json() == wb.to_json()
        assert np.array_equal(pc.values, np.ldexp(wpc.values, 996))
        assert lp_norm(pc, P) == math.ldexp(lp_norm(wpc, P), 996)


def _two_ball_setup():
    spec = box_spec([-2.5, -2.5], [9.5, 3.0], [120, 55])
    plan = TransformPlan(spec)
    a = unit_paraball(2)
    b = from_incidence([7.0], 0.0, [7.0], np.eye(1), [1.0], 1.0)
    mids = spec.midpoints()
    mask = (expanded_contains(a, 2.0, mids) | expanded_contains(b, 2.0, mids)).reshape(spec.shape)
    return spec, plan, a, b, mask


def test_partition_two_separated_balls():
    spec, plan, a, b, mask = _two_ball_setup()
    part = partition_by_interaction(mask, [a, b], 0.1, plan)
    cv = spec.cell_volume
    measure_f = mask.sum() * cv
    balls = [a, b]
    for i, tchi in enumerate(part.transforms):
        assert not np.any(part.parts[i] & ~(tchi.values > part.gammas[i]))
        assert not np.any(part.remainder & (tchi.values > part.gammas[i]))
        pairing = float((part.remainder * tchi.values).sum()) * cv
        assert pairing <= (0.1 / 3) * measure_f ** (1 / P) * volume(balls[i]) ** (1 / P)
    # cross interactions for far-separated balls
    for alpha in range(2):
        for beta in range(2):
            if alpha == beta:
                continue
            val = float((part.parts[beta] * part.transforms[alpha].values).sum()) * cv
            assert val <= 0.1 * measure_f ** (1 / P) * volume(balls[alpha]) ** (1 / P)
    # the parts partition the mask
    union = part.remainder.copy()
    for p_mask in part.parts:
        assert not np.any(union & p_mask)
        union |= p_mask
    assert np.array_equal(union, mask)


def test_partition_priority_and_validation():
    spec, plan, a, b, mask = _two_ball_setup()
    part = partition_by_interaction(mask, [a, a], 0.1, plan)
    assert part.parts[1].sum() == 0  # duplicate ball loses by priority
    single = partition_by_interaction(mask, [a], 0.1, plan)
    assert len(single.parts) == 1
    with pytest.raises(ValueError):
        partition_by_interaction(mask, [], 0.1, plan)
    with pytest.raises(ValueError):
        partition_by_interaction(mask, [a], 2.0, plan)


def test_paraball_json_round_trip():
    rng = np.random.default_rng(8)
    B = random_paraball(rng, 3)
    C = Paraball.from_json(B.to_json())
    assert np.array_equal(B.base, C.base) and np.array_equal(B.radii, C.radii)
    assert B.rho == C.rho and B.sign == C.sign
