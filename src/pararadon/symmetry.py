"""The symmetry group of the incidence form Theta(x, y) = x_d - y_d - |x'-y'|^2.

An element E = (L, u, t, a, v) acts by phi_E(x', x_d) = (Lx' + u, t x_d + a
+ v.x' + Q(x')) with Q(x') = |Lx'|^2 - t|x'|^2.  Its partner map psi acts on
the second argument so that Theta(phi(x), psi(y)) = t * Theta(x, y)
identically; with the flip R(y', y_d) = (y', -y_d) it is psi = R o phi_{E*} o R,

    E* = (Lt, ut, t, -at, -vt),   Lt = t L^{-T},   ut = u - (1/2) L^{-T} v,
    vt = t L^{-1} L^{-T} v,   at = a - |u - ut|^2.

The pullback f -> f(phi(.)) J^{d/(d+1)} is an L^{(d+1)/d} isometry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, GridSpec, lattice_points, real_leaves


def incidence(x, y):
    """Theta(x, y) = x_d - y_d - |x' - y'|^2, batched over leading axes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = x[..., :-1] - y[..., :-1]
    return x[..., -1] - y[..., -1] - np.sum(diff * diff, axis=-1)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Group element with parameters (L, u, t, a, v); see :func:`partner`
    for the element whose flipped primary map is the partner map.

    Build from the free parameters or through the named generators; the
    scale factor of the incidence form is t and the Jacobian is |det L| * |t|.
    """

    L: np.ndarray
    u: np.ndarray
    t: float
    a: float
    v: np.ndarray

    def __post_init__(self):
        L = np.atleast_2d(np.asarray(self.L, dtype=float))
        k = L.shape[0]
        if L.shape != (k, k):
            raise ValueError("L must be square")
        if k == 0:
            raise ValueError("a group element acts on R^d with d >= 2; L is 0 x 0")
        u = np.asarray(self.u, dtype=float).reshape(k)
        v = np.asarray(self.v, dtype=float).reshape(k)
        t = float(self.t)
        a = float(self.a)
        with np.errstate(all="ignore"):  # a NaN entry or an overflow is named below
            det = np.linalg.det(L)
            jacobian = abs(det) * abs(t)
        if not 0 < abs(det) < math.inf:
            raise ValueError("L must be invertible with a finite determinant")
        if t == 0 or not np.isfinite(t):
            raise ValueError("t must be finite and nonzero")
        if not 0 < jacobian < math.inf:
            raise ValueError("the Jacobian |det L| * |t| must be finite and nonzero")
        if not (np.isfinite(a) and np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValueError("u, a and v must be finite")
        object.__setattr__(self, "L", _readonly(L))
        object.__setattr__(self, "u", _readonly(u))
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "v", _readonly(v))

    # -- basic data ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.L.shape[0] + 1

    @property
    def jacobian(self) -> float:
        return abs(np.linalg.det(self.L)) * abs(self.t)

    def quadratic(self, xp: np.ndarray) -> np.ndarray:
        """Q(x') = |Lx'|^2 - t|x'|^2 (batched)."""
        xp = np.asarray(xp, dtype=float)
        lx = xp @ self.L.T
        return np.sum(lx * lx, axis=-1) - self.t * np.sum(xp * xp, axis=-1)

    def to_json(self) -> str:
        return json.dumps(
            {
                "L": self.L.tolist(),
                "u": self.u.tolist(),
                "t": self.t,
                "a": self.a,
                "v": self.v.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GroupElement":
        data = json.loads(text)
        try:
            fields = [data[key] for key in ("L", "u", "t", "a", "v")]
            if not real_leaves(fields):
                raise TypeError("every value must be a number, not a string or a bool")
            return cls(*fields)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed group element JSON: {exc!r}") from None


# -- named generators ---------------------------------------------------

def translation(w) -> GroupElement:
    """Simultaneous translation of both arguments by w in R^d."""
    w = np.asarray(w, dtype=float)
    d = len(w)
    if d < 2:
        raise ValueError(f"a translation needs w in R^d with d >= 2, got d = {d}")
    return GroupElement(np.eye(d - 1), w[:-1], 1.0, w[-1], np.zeros(d - 1))


def scaling(r: float, d: int) -> GroupElement:
    """Parabolic dilation (x', x_d) -> (r x', r^2 x_d)."""
    r = float(r)
    if d < 2:
        raise ValueError(f"a scaling acts on R^d with d >= 2, got d = {d}")
    with np.errstate(all="ignore"):  # a NaN r, or a Jacobian that leaves the doubles
        jacobian = np.abs(np.float64(r)) ** (d + 1)
    if not 0 < jacobian < math.inf:
        raise ValueError(f"a scaling needs |r|^(d+1) finite and nonzero, got r = {r!r}, d = {d}")
    return GroupElement(r * np.eye(d - 1), np.zeros(d - 1), r * r, 0.0, np.zeros(d - 1))


def galilean(u0) -> GroupElement:
    """Shear (x', x_d) -> (x' + u0, x_d + 2 u0.x' + |u0|^2)."""
    u0 = np.asarray(u0, dtype=float)
    with np.errstate(over="ignore"):
        a = float(u0 @ u0)
    if not a < math.inf:  # also a NaN in u0
        raise ValueError(f"a galilean shear needs |u0|^2 finite, got u0 = {u0.tolist()}")
    return GroupElement(np.eye(len(u0)), u0, 1.0, a, 2.0 * u0)


def linear_symmetry(L) -> GroupElement:
    """(x', x_d) -> (Lx', x_d + |Lx'|^2 - |x'|^2) for invertible L."""
    L = np.atleast_2d(np.asarray(L, dtype=float))
    k = L.shape[0]
    return GroupElement(L, np.zeros(k), 1.0, 0.0, np.zeros(k))


# -- the action ----------------------------------------------------------

def apply_point(el: GroupElement, x) -> np.ndarray:
    """phi(x) = (Lx' + u, t x_d + a + v.x' + Q(x')), batched."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (el.dim,):
        raise ValueError(f"points of dimension {x.shape[-1] if x.ndim else 0} against an "
                         f"element of dimension {el.dim}")
    xp = x[..., :-1]
    xd = x[..., -1]
    yp = xp @ el.L.T + el.u
    yd = el.t * xd + el.a + xp @ el.v + el.quadratic(xp)
    return np.concatenate([yp, yd[..., None]], axis=-1)


def _reflected(el: GroupElement, y) -> np.ndarray:
    """R(phi_el(R y)) with R(y', y_d) = (y', -y_d), batched: psi for el = E*,
    psi^{-1} for el = (E*)^{-1}."""
    y = np.array(y, dtype=float)
    y[..., -1] *= -1.0
    z = apply_point(el, y)  # a new array
    z[..., -1] *= -1.0
    return z


def apply_partner_point(el: GroupElement, y) -> np.ndarray:
    """psi(y) = R(phi_{E*}(R y)) for the partner element E*, batched."""
    return _reflected(partner(el), y)


def incidence_defect(el: GroupElement, x, y):
    """Theta(phi(x), psi(y)) - t Theta(x, y); zero for valid elements."""
    return incidence(apply_point(el, x), apply_partner_point(el, y)) - el.t * incidence(x, y)


def compose(e2: GroupElement, e1: GroupElement) -> GroupElement:
    """The element acting as e2 after e1.

    Closure is exact in parameters: L = L2 L1 and t = t2 t1 reproduce the
    composed quadratic, while u, v, a are the affine/linear/constant parts
    of the composed maps.
    """
    if e2.dim != e1.dim:
        raise ValueError("elements act on different dimensions")
    L = e2.L @ e1.L
    t = e2.t * e1.t
    u = e2.L @ e1.u + e2.u
    # gradient of x' -> Q2(L1 x' + u1) at 0 is L1^T grad Q2(u1)
    grad_q2_u1 = 2.0 * (e2.L.T @ (e2.L @ e1.u)) - 2.0 * e2.t * e1.u
    v = e2.t * e1.v + e1.L.T @ e2.v + e1.L.T @ grad_q2_u1
    a = e2.t * e1.a + e2.a + float(e2.v @ e1.u) + float(e2.quadratic(e1.u))
    return GroupElement(L, u, t, a, v)


def inverse(el: GroupElement) -> GroupElement:
    """Two-sided inverse; parameters solved from compose(el, result) = id."""
    Linv = np.linalg.inv(el.L)
    u_inv = -Linv @ el.u
    t_inv = 1.0 / el.t
    a_inv = -(el.a + float(el.v @ u_inv) + float(el.quadratic(u_inv))) / el.t
    grad_q_uinv = 2.0 * (el.L.T @ (el.L @ u_inv)) - 2.0 * el.t * u_inv
    v_inv = -(Linv.T @ el.v + Linv.T @ grad_q_uinv) / el.t
    return GroupElement(Linv, u_inv, t_inv, a_inv, v_inv)


def partner(el: GroupElement) -> GroupElement:
    """The element E* = (Lt, ut, t, -at, -vt) with psi = R o phi_{E*} o R."""
    Linv = np.linalg.inv(el.L)
    u_p = el.u - 0.5 * Linv.T @ el.v
    v_p = el.t * Linv @ (Linv.T @ el.v)
    a_p = el.a - float(np.sum((el.u - u_p) ** 2))
    return GroupElement(el.t * Linv.T, u_p, el.t, -a_p, -v_p)


# -- pullback action on grid functions -----------------------------------

def _map_box_spec(point_map, spec: GridSpec, counts, pad: float = 0.05) -> GridSpec:
    """Bounding grid for the image of `spec`'s box under `point_map`
    (lattice-sampled since the map is quadratic, slightly padded)."""
    images = point_map(lattice_points([np.linspace(lo, hi, 17) for lo, hi in spec.bounds]))
    lo = images.min(axis=0)
    hi = images.max(axis=0)
    width = np.maximum(hi - lo, 1e-9)
    lo = lo - pad * width
    hi = hi + pad * width
    return GridSpec(tuple(zip(lo, hi)), tuple(counts))


def preimage_spec(el: GroupElement, spec: GridSpec, counts=None, pad: float = 0.05) -> GridSpec:
    """Grid covering {x : phi(x) in spec's box}, for resampling pullbacks."""
    counts = spec.counts if counts is None else counts
    inv = inverse(el)
    return _map_box_spec(lambda pts: apply_point(inv, pts), spec, counts, pad)


def _pullback_by(point_map, jacobian: float, f: GridFunction, out: GridSpec) -> GridFunction:
    d = f.spec.dim
    weight = jacobian ** (d / (d + 1.0))
    vals = f.sample_at(point_map(out.midpoints())) * weight
    return GridFunction._owned(out, vals.reshape(out.shape), allow_negative=f.allow_negative)


def pullback(el: GroupElement, f: GridFunction, out: GridSpec | None = None) -> GridFunction:
    """f(phi(.)) J^{d/(d+1)} for the element's primary map, resampled on
    `out` (an adapted grid covering the pulled-back support when omitted).

    Both this and :func:`partner_pullback` preserve the L^{(d+1)/d} norm
    (any constant-Jacobian substitution with that power does).  Under the
    transform they play dual roles: the convolution intertwines the
    partner pullback on inputs with the primary map on outputs, so the
    invariant pairing pulls the output-side factor by the primary map and
    the input-side factor by the partner map.
    """
    if out is None:
        out = preimage_spec(el, f.spec)
    return _pullback_by(lambda pts: apply_point(el, pts), el.jacobian, f, out)


def partner_pullback(el: GroupElement, g: GridFunction) -> GridFunction:
    """g(psi(.)) J_psi^{d/(d+1)} for the partner map on an adapted grid; its
    transform is the transform of g composed with the primary map (times
    a constant), which makes its L^{d+1} norm invariant."""
    star = partner(el)
    star_inv = inverse(star)
    out = _map_box_spec(lambda pts: _reflected(star_inv, pts), g.spec, g.spec.counts)
    return _pullback_by(lambda pts: _reflected(star, pts), star.jacobian, g, out)


def invert_partner_point(el: GroupElement, pts: np.ndarray) -> np.ndarray:
    """Solve psi(y) = z for y: y = R(phi_{E*}^{-1}(R z))."""
    return _reflected(inverse(partner(el)), np.atleast_2d(pts))


# -- d-fold transitivity --------------------------------------------------

def general_position(points) -> bool:
    """True when the d points, with last coordinates replaced by 1, form a
    nonsingular matrix (scale-aware tolerance)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts.shape[1]
    if pts.shape[0] != d:
        raise ValueError(f"need exactly {d} points in R^{d}")
    m = np.concatenate([pts[:, :-1], np.ones((d, 1))], axis=1)
    scale = max(float(np.abs(m).sum(axis=1).max()), 1.0)
    return bool(abs(np.linalg.det(m)) > 1e-10 * scale**d)


def interpolate_points(xs, ys, t: float) -> GroupElement:
    """The element with phi(xs[j]) = ys[j] for all j, at the given scale t.

    First the affine map x' -> Lx' + u through the primed coordinates,
    then the d x d linear solve for (v, a) matching the last coordinates.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    t = float(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    d = xs.shape[1]
    if xs.shape != (d, d) or ys.shape != (d, d):
        raise ValueError(f"need d = {d} source and target points")
    if not (general_position(xs) and general_position(ys)):
        raise ValueError("points must be in general position")
    A = np.concatenate([xs[:, :-1], np.ones((d, 1))], axis=1)
    affine = np.linalg.solve(A, ys[:, :-1])  # rows: L^T then u
    L = affine[:-1].T
    u = affine[-1]
    if abs(np.linalg.det(L)) < 1e-12:
        raise ValueError("degenerate configuration: singular primed map")
    lx = xs[:, :-1] @ L.T
    rhs = ys[:, -1] - np.sum(lx * lx, axis=1) - t * (xs[:, -1] - np.sum(xs[:, :-1] ** 2, axis=1))
    va = np.linalg.solve(A, rhs)
    return GroupElement(L, u, t, float(va[-1]), va[:-1])
