import warnings

import numpy as np
import pytest

from pararadon.grid import GridFunction, box_spec
from pararadon.norms import lp_norm
from pararadon.operator import TransformPlan, bilinear_form, forward_transform
from pararadon.symmetry import (GroupElement, apply_partner_point, apply_point, compose,
                                galilean, general_position, incidence, incidence_defect,
                                interpolate_points, inverse, invert_partner_point,
                                linear_symmetry, partner, partner_pullback, preimage_spec,
                                pullback, scaling, translation)
from pararadon.testing import random_element, smooth_bump


def test_incidence_form():
    x = np.array([1.0, 2.0, 3.0])
    assert incidence(x, x) == 0.0
    y = np.array([0.0, 1.0, 1.0])
    assert incidence(x, y) == pytest.approx(3.0 - 1.0 - 2.0, abs=0)


def test_translation_generator():
    w = np.array([0.3, -1.2, 0.7])
    el = translation(w)
    assert el.t == 1.0
    x = np.array([0.1, 0.2, 0.3])
    assert np.allclose(apply_point(el, x), x + w, atol=0)
    assert np.allclose(apply_partner_point(el, x), x + w, atol=1e-15)


def test_scaling_generator():
    el = scaling(2.0, 2)
    assert el.t == 4.0
    assert np.allclose(apply_point(el, [1.0, 1.0]), [2.0, 4.0], atol=0)
    assert np.allclose(apply_partner_point(el, [1.0, 1.0]), [2.0, 4.0], atol=0)


def test_generators_below_dimension_two_are_refused():
    for w in ([], [1.0]):
        with pytest.raises(ValueError, match="d >= 2"):
            translation(w)
    for d in (-1, 0, 1):
        with pytest.raises(ValueError, match="d >= 2"):
            scaling(2.0, d)


def test_galilean_generator():
    u0 = np.array([0.8])
    el = galilean(u0)
    assert el.t == 1.0
    # partner parameters: ut = 0, vt = 2 u0, at = 0, so E* = (1, 0, 1, -0, -2 u0)
    ps = partner(el)
    assert np.allclose(ps.u, 0.0, atol=1e-15)
    assert np.allclose(ps.v, -2 * u0, atol=1e-15)
    assert ps.a == pytest.approx(0.0, abs=1e-15)
    y = np.array([0.5, 2.0])
    assert np.allclose(apply_partner_point(el, y), [0.5, 2.0 + 2 * 0.8 * 0.5], atol=1e-15)
    x = np.array([0.5, 2.0])
    assert np.allclose(apply_point(el, x), [1.3, 2.0 + 0.8 + 0.64], atol=1e-15)


def test_linear_generator():
    L = np.array([[1.3, 0.2], [0.1, 0.9]])
    el = linear_symmetry(L)
    assert el.t == 1.0
    y = np.array([0.4, -0.2, 1.0])
    Ld = np.linalg.inv(L).T
    expect = np.concatenate([Ld @ y[:2], [y[2] - np.sum((Ld @ y[:2]) ** 2) + np.sum(y[:2] ** 2)]])
    assert np.allclose(apply_partner_point(el, y), expect, atol=1e-14)


def test_make_element_validation():
    with pytest.raises(ValueError):
        GroupElement([[0.0]], [0.0], 1.0, 0.0, [0.0])  # singular L
    with pytest.raises(ValueError):
        GroupElement([[1.0]], [0.0], 0.0, 0.0, [0.0])  # t = 0
    # finite nonzero factors whose product |det L| * |t| over- or underflows
    for L, t in (([[1e200]], 1e200), ([[1e200]], -1e200), ([[1e-200]], 1e-200)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^the Jacobian \|det L\| \* \|t\| must be "
                                                 r"finite and nonzero$"):
                GroupElement(L, [0.0], t, 0.0, [0.0])
    el = GroupElement([[1.2, 0.3], [0.0, 0.8]], [0.1, 0.2], 1.5, -0.4, [0.3, 0.1])
    assert el.dim == 3
    # the incidence identity on 100 seeded point pairs
    rng = np.random.default_rng(0)
    x = rng.standard_normal((100, el.dim))
    y = rng.standard_normal((100, el.dim))
    assert np.all(np.abs(incidence_defect(el, x, y)) <= 1e-9 * (1.0 + np.abs(incidence(x, y))))


def test_point_maps_reject_points_of_another_dimension():
    # matmul would fail with a message that names neither dimension
    el = scaling(2.0, 3)
    f = smooth_bump(box_spec([-1, -1], [1, 1], [8, 8]))
    for call in (lambda: apply_point(el, np.zeros((4, 2))),
                 lambda: apply_partner_point(el, [1.0, 2.0]),
                 lambda: invert_partner_point(el, np.zeros(2)),
                 lambda: incidence_defect(el, np.zeros(2), np.zeros(3)),
                 lambda: pullback(el, f), lambda: partner_pullback(el, f)):
        with pytest.raises(ValueError, match="^points of dimension 2 against an element of "
                                             "dimension 3$"):
            call()
    with pytest.raises(ValueError, match="^points of dimension 3 against an element of dim"):
        apply_point(scaling(2.0, 2), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="^points of dimension 0 against an element"):
        apply_point(el, 1.0)


def test_incidence_defect_random():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        for _ in range(200):
            el = random_element(rng, d, moderate=False)
            x = rng.standard_normal(d) * 3
            y = rng.standard_normal(d) * 3
            defect = incidence_defect(el, x, y)
            assert abs(defect) <= 1e-9 * (1 + abs(incidence(x, y)))


def test_partner_consistency():
    rng = np.random.default_rng(1)
    for d in (2, 3, 5):
        el = random_element(rng, d)
        gram = partner(el).L.T @ el.L
        assert np.abs(gram - el.t * np.eye(d - 1)).max() <= 1e-12 * max(1.0, abs(el.t))


def test_partner_point_closed_form():
    # psi(y) = (Lt y' + ut, t y_d + at + vt.y' + t|y'|^2 - |Lt y'|^2) with the
    # partner parameters Lt = t L^{-T}, ut = u - L^{-T} v / 2, vt = t L^{-1} L^{-T} v
    # and at = a - |u - ut|^2, for both signs of t
    rng = np.random.default_rng(14)
    for d in (2, 3, 4):
        for sign in (1.0, -1.0):
            for _ in range(10):
                el = random_element(rng, d)
                el = GroupElement(el.L, el.u, sign * abs(el.t), el.a, el.v)
                Lit = np.linalg.inv(el.L).T
                Lt = el.t * Lit
                ut = el.u - 0.5 * Lit @ el.v
                vt = el.t * Lit.T @ (Lit @ el.v)
                at = el.a - np.sum((el.u - ut) ** 2)
                y = rng.standard_normal((20, d)) * 2
                yp = y[:, :-1]
                ly = yp @ Lt.T
                expect = np.concatenate([ly + ut, (el.t * y[:, -1] + at + yp @ vt
                                                   + el.t * np.sum(yp**2, axis=1)
                                                   - np.sum(ly**2, axis=1))[:, None]], axis=1)
                got = apply_partner_point(el, y)
                assert np.abs(got - expect).max() <= 1e-12 * (1 + np.abs(expect).max())
                assert partner(el).jacobian == pytest.approx(abs(np.linalg.det(Lt) * el.t),
                                                             rel=1e-12)
                back = invert_partner_point(el, got)
                assert np.abs(back - y).max() <= 1e-10 * (1 + np.abs(y).max())


def test_jacobian_matches_volume_distortion():
    rng = np.random.default_rng(2)
    el = random_element(rng, 3)
    x0 = rng.standard_normal(3)
    h = 1e-5
    J = np.empty((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        J[:, j] = (apply_point(el, x0 + e) - apply_point(el, x0 - e)) / (2 * h)
    assert abs(np.linalg.det(J)) == pytest.approx(el.jacobian, abs=1e-6)


def test_compose_against_pointwise():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        for _ in range(30):
            e1 = random_element(rng, d)
            e2 = random_element(rng, d)
            x = rng.standard_normal((20, d))
            lhs = apply_point(compose(e2, e1), x)
            rhs = apply_point(e2, apply_point(e1, x))
            assert np.abs(lhs - rhs).max() <= 1e-9


def test_compose_scalings():
    c = compose(scaling(2.0, 3), scaling(3.0, 3))
    assert np.allclose(c.L, 6.0 * np.eye(2), atol=0)
    assert c.t == 36.0


def test_identity_and_inverse():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((50, 3))
    for _ in range(20):
        el = random_element(rng, 3)
        ident = compose(el, inverse(el))
        assert np.abs(apply_point(ident, x) - x).max() <= 1e-9
        ident = compose(inverse(el), el)
        assert np.abs(apply_point(ident, x) - x).max() <= 1e-9
    e = translation(np.zeros(3))
    assert np.array_equal(apply_point(e, x), x)


def test_inverse_of_galilean():
    u0 = np.array([0.6, -0.3])
    el = galilean(u0)
    inv = inverse(el)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((100, 3))
    # inverse is the opposite shear with its compensating constant
    assert np.allclose(apply_point(inv, apply_point(el, x)), x, atol=1e-12)
    assert np.allclose(inv.u, -u0, atol=1e-15)


def test_associativity():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((20, 3))
    for _ in range(20):
        e1, e2, e3 = (random_element(rng, 3) for _ in range(3))
        lhs = apply_point(compose(compose(e3, e2), e1), x)
        rhs = apply_point(compose(e3, compose(e2, e1)), x)
        assert np.abs(lhs - rhs).max() <= 1e-9 * (1 + np.abs(lhs).max())


def test_general_position():
    assert general_position([[0.0, 0.0], [1.0, 1.0]])
    assert not general_position([[0.0, 0.0], [0.0, 5.0]])
    assert general_position([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        general_position([[0.0, 0.0]])


def test_interpolate_worked_instance():
    el = interpolate_points([[0, 0], [1, 1]], [[0, 0], [2, 0]], 1.0)
    # hand-solved: L = 2, u = 0, a = 0, v = -4
    assert el.L[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert el.u[0] == pytest.approx(0.0, abs=1e-12)
    assert el.a == pytest.approx(0.0, abs=1e-12)
    assert el.v[0] == pytest.approx(-4.0, abs=1e-12)
    assert np.abs(apply_point(el, [1.0, 1.0]) - [2.0, 0.0]).max() <= 1e-12


def test_interpolate_identity():
    xs = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
    el = interpolate_points(xs, xs, 1.0)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((20, 3))
    assert np.abs(apply_point(el, x) - x).max() <= 1e-12


def test_interpolate_random_instances():
    rng = np.random.default_rng(8)
    done = 0
    for d in (2, 3):
        while done < 100:
            xs = rng.standard_normal((d, d)) * 2
            ys = rng.standard_normal((d, d)) * 2
            if not (general_position(xs) and general_position(ys)):
                continue
            t = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            el = interpolate_points(xs, ys, t)
            assert np.abs(apply_point(el, xs) - ys).max() <= 1e-9
            done += 1
        done = 0
    with pytest.raises(ValueError):
        interpolate_points([[0, 0], [0, 1]], [[0, 0], [1, 1]], 1.0)


def test_pullback_identity_exact():
    spec = box_spec([-2, -2], [2, 2], [32, 32])  # dyadic widths: exact sampling
    rng = np.random.default_rng(9)
    f = GridFunction(spec, rng.random(spec.shape))
    pf = pullback(translation(np.zeros(2)), f, out=spec)
    assert np.array_equal(pf.values, f.values)


def test_pullback_scaling_closed_form():
    # scaling r = 2 sends chi_[0,1]^2 to 4 chi_[0,1/2]x[0,1/4]
    spec = box_spec([-2, -2], [2, 2], [256, 256])
    f = GridFunction.box_indicator(spec, [0, 0], [1, 1])
    pf = pullback(scaling(2.0, 2), f, out=spec)
    assert pf.values.max() == pytest.approx(4.0, rel=1e-12)
    inside = pf.sample_at(np.array([[0.25, 0.125], [0.4, 0.2]]))
    assert np.allclose(inside, 4.0, rtol=1e-12)
    outside = pf.sample_at(np.array([[0.75, 0.125], [0.25, 0.5]]))
    assert np.all(outside <= 1e-12)
    assert lp_norm(pf, 1.5) == pytest.approx(lp_norm(f, 1.5), rel=1e-2)


def test_pullback_isometry_random():
    spec = box_spec([-1.5, -1.5], [1.5, 1.5], [256, 256])
    f = smooth_bump(spec, radius=1.2)
    base = lp_norm(f, 1.5)
    rng = np.random.default_rng(10)
    for _ in range(10):
        el = random_element(rng, 2)
        assert abs(lp_norm(pullback(el, f), 1.5) - base) / base <= 0.01
        assert abs(lp_norm(partner_pullback(el, f), 1.5) - base) / base <= 0.01


def test_pairing_invariance():
    # output-side factor pulled by the primary map, input-side by the partner
    spec = box_spec([-1.5, -1.5], [1.5, 1.5], [256, 256])
    f = smooth_bump(spec, center=[0.1, 0.0], radius=1.2)
    g = smooth_bump(spec, center=[-0.1, 0.2], radius=1.1)
    ref = bilinear_form(g, f, TransformPlan(spec))
    rng = np.random.default_rng(11)
    for _ in range(5):
        el = random_element(rng, 2)
        f2 = partner_pullback(el, f)
        g2 = pullback(el, g)
        plan = TransformPlan(f2.spec, output=g2.spec, t_step=float(min(f2.spec.widths[:-1])))
        assert abs(bilinear_form(g2, f2, plan) - ref) / ref <= 0.02


def test_transform_ratio_invariance():
    # the transform of a partner pullback is the transform composed with the
    # primary map, so matching output windows give equal L^q norms
    spec = box_spec([-1.5, -1.5], [1.5, 1.5], [192, 192])
    f = smooth_bump(spec, center=[0.1, 0.0], radius=1.2)
    out_ref = box_spec([-3, -3], [3, 6], [160, 240])
    ref = lp_norm(forward_transform(f, TransformPlan(spec, output=out_ref)), 3.0) / lp_norm(f, 1.5)
    rng = np.random.default_rng(12)
    for _ in range(4):
        el = random_element(rng, 2)
        f2 = partner_pullback(el, f)
        out2 = preimage_spec(el, out_ref, counts=out_ref.counts, pad=0.0)
        plan = TransformPlan(f2.spec, output=out2, t_step=float(min(f2.spec.widths[:-1])))
        phi2 = lp_norm(forward_transform(f2, plan), 3.0) / lp_norm(f2, 1.5)
        assert abs(phi2 - ref) / ref <= 0.02


def test_element_json_round_trip():
    rng = np.random.default_rng(13)
    el = random_element(rng, 3)
    el2 = GroupElement.from_json(el.to_json())
    assert np.array_equal(el2.L, el.L) and np.array_equal(el2.v, el.v)
    assert el2.t == el.t and el2.a == el.a
