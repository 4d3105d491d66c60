"""Convolution with the parabolic surface measure on R^d.

The forward map is Tf(x) = int_{R^{d-1}} f(x' - t, x_d - |t|^2) dt; the
adjoint is T*g(y) = int g(y' + t, y_d + |t|^2) dt.  The t integral is a
midpoint rule over the box of shifts that can move output points into
the input box (exact for compactly supported f): one plan table `shifts`
of nodes (t, |t|^2), which both engines and `forward_at_points` read, so
all integrate over one node set.  f is sampled multilinearly with the
per-axis weights of `grid.cell_weights`.

Two engines evaluate that sum.  When the output grid is the input grid
(every plan the CLI builds), a shift s = (t, |t|^2) moves every cell by
the same offset -s/h in cell units, so T is a lattice correlation
Tf[j] = sum_o K[o] f[j + o] with one sparse kernel K, and the discrete
adjoint is the matching convolution.  That engine runs as a zero-padded
FFT with K's spectrum cached on the plan; since FFT rounding would blur
exact zeros and signs, the support of f dilated by the support of K
(itself one FFT of 0/1 indicators) restores the exact zero set, and a
nonnegative input gives a clipped nonnegative output.  An input with no
zero cell has the full grid's dilation, which the plan keeps per
direction once computed and reuses, so such inputs (every extremizer
iterate from a Gaussian start) run one FFT pass, not two.  So does
`rayleigh_ratio`, which needs only ||Tf||_q: it reads the value pass
without the support pass, since the cells that pass would zero hold
rounding of about 1e-17 of the maximum, whose q-th powers cannot reach
the last bit of the norm's sum.  The continuum adjoint pairs the same
offsets with the same weights there, so on matched grids both adjoint
modes are one operator.

Otherwise the separable loop runs: every t term is a tensor product of
per-axis interpolation matrices W (two weights per row, ghost cells
dropped), applied one axis at a time.  The forward applies W built on
the input grid at the output midpoints minus (t, |t|^2); the discrete
adjoint applies the same W transposed, so <g, Tf> = <T*g, f> holds to
rounding by construction; the continuum adjoint applies W built on the
output grid at the input midpoints plus (t, |t|^2).  Each W is built
and applied only on the block its operand can reach: the rows (or, for
the transpose, the columns) that meet the nonzero bounding box of the
input, found once per call.  An axis's positions depend on one column
of `shifts` only, so the taps of W, the block bounds and which shifts
reach a cell are array operations over a block of shifts at once; per
shift the loop fills W and runs the d matmuls.  The loop is also the
reference the lattice engine is tested against, and `forward_at_points`
the pointwise one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (GridFunction, GridSpec, axis_taps, cell_weights, corner_weights, lattice_points,
                   midpoint_axis)
from .norms import ExponentPair, array_lp_norm, lp_norm

ADJOINT_MODES = ("discrete", "continuum")
_NODE_BYTES = 1 << 28  # largest t-node table (`shifts`) a plan builds
_TAP_BYTES = 1 << 16  # one per-target tap table of a block of the separable loop's shifts
# the moved points of a block of shifts that forward_at_points samples; with
# 1 MB blocks, later transforms in the same process ran 9-20% slower (bench
# `extremize` passes after its oracle check, on a 2-core machine)
_ORACLE_BYTES = 1 << 16


@dataclass(frozen=True)
class TransformPlan:
    """Quadrature plan tying an input grid, an output grid, and a t-grid.

    The t-box per x'-axis i is [out_lo'_i - in_hi'_i, out_hi'_i - in_lo'_i],
    capped by |t_i| <= sqrt(out_hi_d - in_lo_d) since larger shifts drop
    below the input box in the last coordinate.  `shifts` holds one row
    (t, |t|^2) per t-node, row-major over the per-axis midpoint t-grids;
    it is (0, d) when the t-box is empty.  Plans compare and hash by their
    constructor fields.
    """

    input: GridSpec
    output: GridSpec = None
    t_step: float | None = None  # stored as one step per x' axis
    t_weight: float = field(init=False, compare=False)
    shifts: np.ndarray = field(init=False, compare=False, repr=False)
    # the lattice engine's kernel spectra, built on the first matched transform
    _lattice: "_Lattice | None" = field(init=False, default=None, compare=False, repr=False)
    # a class constant, not a field: the mode adjoint_transform uses by default
    adjoint_mode = "discrete"

    def __post_init__(self):
        if self.output is None:
            object.__setattr__(self, "output", self.input)
        if self.input.dim != self.output.dim:
            raise ValueError("input and output grids must share the dimension")
        d = self.input.dim
        if self.t_step is None:
            steps = tuple(self.input.widths[:-1])
        else:
            steps = (float(self.t_step),) * (d - 1)
        for s, h in zip(steps, self.input.widths[:-1]):
            if not (0 < s <= h * (1 + 1e-12)):
                raise ValueError(
                    f"t step {s} must be positive and at most the input cell width {h}"
                )
        object.__setattr__(self, "t_step", steps)

        in_lo, in_hi = self.input.lo, self.input.hi
        out_lo, out_hi = self.output.lo, self.output.hi
        smax = out_hi[-1] - in_lo[-1]
        boxes = []
        for i in range(d - 1):
            lo_t = out_lo[i] - in_hi[i]
            hi_t = out_hi[i] - in_lo[i]
            if smax > 0:
                lo_t = max(lo_t, -np.sqrt(smax))
                hi_t = min(hi_t, np.sqrt(smax))
            if smax <= 0 or hi_t <= lo_t:
                boxes = []
                break
            with np.errstate(over="ignore"):  # a subnormal step gives infinitely many
                boxes.append((lo_t, hi_t, (hi_t - lo_t) / steps[i]))
        # the node table's size, in Python ints, before anything is allocated
        counts = [int(np.ceil(cells)) if cells < np.inf else np.inf for *_, cells in boxes]
        if 8 * d * math.prod(counts) > _NODE_BYTES:
            raise ValueError(f"t step {min(steps)} is too fine: its t-node table is larger "
                             f"than the budget of {_NODE_BYTES} bytes")
        axes = [np.empty(0) for _ in range(d - 1)]
        weight = 0.0 if not boxes else 1.0
        for i, ((lo_t, hi_t, _), n) in enumerate(zip(boxes, counts)):
            axes[i], h = midpoint_axis(lo_t, hi_t, n)
            weight *= h
        t = lattice_points(axes)
        shifts = np.column_stack([t, np.sum(t * t, axis=1)])
        shifts.setflags(write=False)
        object.__setattr__(self, "t_weight", weight)
        object.__setattr__(self, "shifts", shifts)

    @property
    def dim(self) -> int:
        return self.input.dim

    def t_count(self) -> int:
        return len(self.shifts)


# -- the separable loop (mismatched grids) ------------------------------

def _shift_sum(values: np.ndarray, plan: TransformPlan, src: GridSpec,
               dst: GridSpec, sign: float, transpose: bool) -> np.ndarray:
    """t_weight * sum over shifts of the tensor product of per-axis W.

    W interpolates `src` along each axis at the midpoints of `dst` moved by
    sign * (t, |t|^2): row j holds 1 - w at cell i0 and w at i0 + 1, with
    i0 + w the target's position in cell coordinates (midpoint k at k).
    With `transpose`, values live on `dst` and each axis gets W^T instead,
    which is the exact transpose of the sum.  Each W is built and applied
    only on the block that the nonzero bounding box of `values` reaches,
    and multiplies only the rows that reach a cell of `src`; taps on ghost
    cells, or on cells outside that box, are dropped, and a shift that
    reaches no cell is skipped.
    """
    acc = np.zeros(src.shape if transpose else dst.shape)
    nonzero = values != 0
    window = []
    for axis in range(plan.dim):
        hit = np.flatnonzero(nonzero.any(axis=tuple(a for a in range(plan.dim) if a != axis)))
        if hit.size == 0:
            return acc
        window.append((int(hit[0]), int(hit[-1]) + 1))
    operand = values[tuple(slice(lo, hi) for lo, hi in window)]
    # with `transpose` the targets are the operand's own cells
    mids = [dst.axis_midpoints(axis)[slice(*window[axis]) if transpose else slice(None)]
            for axis in range(plan.dim)]
    origin, widths = src.lo, src.widths
    cycle = (*range(1, plan.dim), 0)
    step = max(1, _TAP_BYTES // (8 * sum(map(len, mids))))
    for start in range(0, plan.t_count(), step):
        # the taps of a block of shifts as (shifts, targets) tables per axis
        block = plan.shifts[start:start + step]
        reach, taps = np.ones(len(block), dtype=bool), []
        for axis, (lo, hi) in enumerate(window):
            i0, w1 = cell_weights((mids[axis] + sign * block[:, axis, None] - origin[axis])
                                  / widths[axis] - 0.5)
            # each row of i0 is nondecreasing, so each range below is contiguous
            if transpose:
                r0, r1 = np.sum(i0 < -1, axis=1), np.sum(i0 < src.counts[axis], axis=1)
                c0, c1 = np.maximum(i0[:, 0], 0), np.minimum(i0[:, -1] + 2, src.counts[axis])
            else:
                r0, r1 = np.sum(i0 < lo - 1, axis=1), np.sum(i0 < hi, axis=1)
                c0, c1 = np.full_like(r0, lo), np.full_like(r0, hi)
            k = np.maximum(c1 - c0, 0)[:, None]
            reach &= (r1 > r0) & (k[:, 0] > 0)
            # flat indices into the block [r0, r1) x [c0, c1) of W padded by
            # columns 0 and k + 1, where every dropped tap lands
            row = (np.arange(i0.shape[1]) - r0[:, None]) * (k + 2)
            cols = i0 - (c0[:, None] - 1)
            taps.append((np.column_stack([r0, r1, c0, c1]).tolist(),
                         ((row + np.clip(cols, 0, k + 1), 1.0 - w1),
                          (row + np.clip(cols + 1, 0, k + 1), w1))))
        for b in np.flatnonzero(reach):
            # each step contracts the leading axis and appends the result
            # last, so after d steps the axes are back in order
            h, index = operand, []
            for bounds, pair in taps:
                r0, r1, c0, c1 = bounds[b]
                W = np.zeros((r1 - r0) * (c1 - c0 + 2))
                for flat, w in pair:
                    W[flat[b, r0:r1]] = w[b, r0:r1]
                W = W.reshape(r1 - r0, -1)[:, 1:-1]
                if transpose:
                    h = h[r0:r1].transpose(cycle) @ W
                    index.append(slice(c0, c1))
                else:
                    h = h.transpose(cycle) @ W.T
                    index.append(slice(r0, r1))
            acc[tuple(index)] += h
    acc *= plan.t_weight
    return acc


# -- the lattice engine (matched grids) ---------------------------------

def _fast_len(n: int) -> int:
    """The smallest 5-smooth integer >= n, a length numpy's FFT runs fast."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _spectrum(values: np.ndarray, padded: tuple[int, ...]) -> np.ndarray:
    """rfftn of `values` zero-padded to the shape `padded`, built in one
    complex buffer: the last-axis rfft pads that axis into the rows that
    `values` fills, and the other axes are transformed in place, first to
    last (rfftn's own order is last to first, which rounds differently),
    each only over the rows still nonzero."""
    n = values.shape
    buf = np.zeros((*padded[:-1], padded[-1] // 2 + 1), dtype=complex)
    rows = buf[tuple(slice(k) for k in n[:-1])]
    np.fft.rfft(values, n=padded[-1], axis=-1, out=rows)
    for axis in range(len(n) - 1):
        rows = buf[(slice(None),) * (axis + 1) + tuple(slice(k) for k in n[axis + 1:-1])]
        np.fft.fft(rows, axis=axis, out=rows)
    return buf


@dataclass(frozen=True, eq=False)
class _Lattice:
    """Spectra of the kernel K laid out cyclically on the padded lattice,
    and of the 0/1 indicator of its support; `full` maps a direction
    (`adjoint`) to the cells outside the whole grid dilated by supp K, or
    to None when there are none, once computed."""

    padded: tuple[int, ...]
    kernel: np.ndarray
    support: np.ndarray
    full: dict = field(default_factory=dict)


def _lattice(plan: TransformPlan) -> _Lattice:
    """The plan's lattice spectra, built once on first use.

    K[o] sums t_weight times the corner weights of every shift whose cell
    offset -s/h has o as a corner; offsets with |o_i| >= n_i reach no cell
    and zero weights touch none, so both are dropped.  Padding each axis
    to n_i + max|o_i| keeps the cyclic wrap off the outputs on [0, n).
    """
    if plan._lattice is not None:
        return plan._lattice
    spec = plan.input
    counts = np.array(spec.counts)
    corners = list(corner_weights([axis_taps(pos) for pos in (-plan.shifts / spec.widths).T]))
    offsets = np.concatenate([np.column_stack(idx) for idx, _ in corners])
    weights = np.concatenate([w * plan.t_weight for _, w in corners])
    keep = (weights > 0) & np.all(np.abs(offsets) < counts, axis=1)
    offsets, weights = offsets[keep], weights[keep]
    reach = np.abs(offsets).max(axis=0, initial=0)
    box = tuple(2 * reach + 1)
    flat = np.ravel_multi_index(tuple((offsets + reach).T), box)
    kernel = np.bincount(flat, weights, minlength=int(np.prod(box))).reshape(box)
    padded = tuple(_fast_len(int(n + r)) for n, r in zip(counts, reach))
    # the box starts at offset -reach; a phase ramp per axis moves it to the
    # cyclic layout of a correlation kernel (offset o at o mod L)
    spectra = []
    for a in (kernel, kernel > 0):
        buf = _spectrum(a, padded)
        for axis, (L, r) in enumerate(zip(padded, reach)):
            k = np.arange(buf.shape[axis]).reshape((-1,) + (1,) * (plan.dim - 1 - axis))
            buf *= np.exp(2j * np.pi * (k * r % L) / L)  # exact integer phase index
        spectra.append(buf)
    lattice = _Lattice(padded, *spectra)
    object.__setattr__(plan, "_lattice", lattice)
    return lattice


def _correlate(values: np.ndarray, spectrum: np.ndarray, lat: _Lattice,
               adjoint: bool) -> np.ndarray:
    """Correlate `values` with the kernel of `spectrum` (convolve for the
    adjoint), cropped to the shape of `values`.  The inverse FFTs run in
    place, in `_spectrum`'s axis order, and skip the rows that the crop
    drops; the result is a C-contiguous copy, so the padded-length real
    array of the last-axis irfft does not outlive the call."""
    n, padded = values.shape, lat.padded
    buf = _spectrum(values, padded)
    if adjoint:
        buf *= spectrum
    else:
        # F * conj(K) without a temporary
        np.conjugate(buf, out=buf)
        buf *= spectrum
        np.conjugate(buf, out=buf)
    for axis in range(len(n) - 1):
        rows = buf[tuple(slice(k) for k in n[:axis])]
        np.fft.ifft(rows, axis=axis, out=rows)
    crop = buf[tuple(slice(k) for k in n[:-1])]
    return np.fft.irfft(crop, n=padded[-1], axis=-1)[..., :n[-1]].copy()


def _lattice_transform(values: np.ndarray, lo: float, plan: TransformPlan,
                       adjoint: bool) -> np.ndarray:
    """T (or its transpose) on a matched plan: the value pass of
    `_lattice_values`, with the loop's exact zero set written in."""
    lat = _lattice(plan)
    # supp(values) dilated by supp K: integer counts, so 0.5 splits them
    # exactly; with no zero cell it is the whole grid's, kept per direction.
    # An input whose minimum is 0 has a zero cell, a positive one none.
    full = lo > 0 or (lo < 0 and values.all())
    if full and adjoint in lat.full:
        outside = lat.full[adjoint]
    else:
        inside = _correlate(values != 0, lat.support, lat, adjoint) > 0.5
        outside = None if inside.all() else ~inside
        if full:
            lat.full[adjoint] = outside
    out = _lattice_values(values, lo, plan, adjoint)
    if outside is not None:
        out[outside] = 0.0
    return out


def _lattice_values(values: np.ndarray, lo: float, plan: TransformPlan,
                    adjoint: bool) -> np.ndarray:
    """The lattice engine's value pass: `values` correlated with K (convolved
    for the adjoint), clipped at 0 for an input whose minimum `lo` is >= 0.
    Cells outside the dilated support hold FFT rounding, not exact zeros."""
    lat = _lattice(plan)
    out = _correlate(values, lat.kernel, lat, adjoint)
    if lo >= 0:
        np.maximum(out, 0.0, out=out)
    return out


# -- the transform ------------------------------------------------------

def forward_transform(f: GridFunction, plan: TransformPlan) -> GridFunction:
    """Tf on the plan's output grid."""
    if f.spec != plan.input:
        raise ValueError("function grid does not match the plan input grid")
    lo = f.minimum
    if plan.input == plan.output:
        acc = _lattice_transform(f.values, lo, plan, adjoint=False)
    else:
        acc = _shift_sum(f.values, plan, plan.input, plan.output, -1.0, transpose=False)
    # sums of products of nonnegative terms stay nonnegative, so signedness
    # only ever comes in through a signed input
    return GridFunction._owned(plan.output, acc, allow_negative=bool(lo < 0))


def forward_at_points(f: GridFunction, points: np.ndarray, plan: TransformPlan) -> np.ndarray:
    """Tf evaluated at arbitrary points (..., d) with the plan's
    t-quadrature; the result has the points' leading shape."""
    if f.spec != plan.input:
        raise ValueError("function grid does not match the plan input grid")
    points = np.asarray(points, dtype=float)
    if points.shape[-1:] != (plan.dim,):
        raise ValueError(f"points of dimension {points.shape[-1] if points.ndim else 0} "
                         f"against a plan of dimension {plan.dim}")
    pts = points.reshape(-1, plan.dim)
    out = np.zeros(len(pts))
    step = max(1, _ORACLE_BYTES // (8 * max(pts.size, 1)))
    for start in range(0, plan.t_count(), step):
        # one sample_at call per block of shifts, its rows added in shift order
        block = plan.shifts[start:start + step]
        rows = f.sample_at((pts - block[:, None]).reshape(-1, plan.dim))
        for row in rows.reshape(len(block), -1):
            out += row
    return (out * plan.t_weight).reshape(points.shape[:-1])


def adjoint_transform(g: GridFunction, plan: TransformPlan, mode: str = "discrete") -> GridFunction:
    """T*g on the plan's input grid.

    ``discrete`` applies the exact matrix transpose of the forward
    quadrature (default); ``continuum`` discretizes the integral
    T*g(y) = int g(y' + t, y_d + |t|^2) dt directly.  On matched grids
    the two are one operator and run the same lattice convolution; on
    mismatched grids they differ by O(h).
    """
    if g.spec != plan.output:
        raise ValueError("function grid does not match the plan output grid")
    if mode not in ADJOINT_MODES:
        raise ValueError(f"adjoint mode must be one of {ADJOINT_MODES}")
    in_spec, out_spec = plan.input, plan.output
    lo = g.minimum
    if in_spec == out_spec:
        acc = _lattice_transform(g.values, lo, plan, adjoint=True)
    elif mode == "discrete":
        acc = _shift_sum(g.values, plan, in_spec, out_spec, -1.0, transpose=True)
        # transpose of the L^2(out) -> L^2(in) pairing, not the bare matrix
        acc *= out_spec.cell_volume / in_spec.cell_volume
    else:
        acc = _shift_sum(g.values, plan, out_spec, in_spec, 1.0, transpose=False)
    return GridFunction._owned(in_spec, acc, allow_negative=bool(lo < 0))


def bilinear_form(g: GridFunction, f: GridFunction, plan: TransformPlan) -> float:
    """<g, Tf> on the plan's output grid, where g must live."""
    return inner(g, forward_transform(f, plan))


def inner(a: GridFunction, b: GridFunction) -> float:
    """Grid L^2 pairing on a shared grid."""
    if a.spec != b.spec:
        raise ValueError("functions live on different grids")
    return float(np.sum(a.values * b.values)) * a.spec.cell_volume


def rayleigh_ratio(f: GridFunction, plan: TransformPlan) -> float:
    """||Tf||_q / ||f||_p at the scale-invariant exponents p = (d+1)/d,
    q = d+1; any value is a lower bound for the discrete operator norm.

    On a matched plan ||Tf||_q is taken over the lattice engine's value
    pass alone, without the support pass that writes exact zeros: one FFT
    correlation, not two.  The cells that pass would zero hold FFT rounding
    of about 1e-17 of the largest value, so their q-th powers (1e-50 of its
    q-th power or less) fall far below the last bit of the sum, and the
    ratio keeps the bits of the exact-zero transform's norm.
    """
    exps = ExponentPair(plan.dim)
    denom = lp_norm(f, exps.p)
    if denom == 0.0:
        raise ZeroDivisionError("rayleigh ratio of the zero function")
    if plan.input == plan.output and f.spec == plan.input:
        tf = _lattice_values(f.values, f.minimum, plan, adjoint=False)
        return array_lp_norm(tf, exps.q, plan.output.cell_volume) / denom
    # a mismatched plan runs the loop, which makes exact zeros with no extra
    # pass; an input off the plan's grid gets forward_transform's error
    return lp_norm(forward_transform(f, plan), exps.q) / denom
