"""Grid-sampled nonnegative functions on axis-aligned boxes in R^d.

Values live at the midpoints of a uniform tensor-product grid; every
integral is a midpoint-rule sum, so indicators of sets aligned with
cell edges integrate exactly.  Off-grid evaluation is multilinear with
zero ghost cells outside the box.  Its rules are written once, here:
`midpoint_axis`, `lattice_points` (row-major tensor grids), the per-axis
`cell_weights` and `axis_taps`, the 2^d-corner `corner_weights`, and
`write_csv`, the package's one CSV row rule.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

PRGF_MAGIC = "PRGF1"
SNAP = 1e-9  # cell widths; a position this close to a midpoint sits on it
_GATHER_BYTES = 1 << 15  # one float64 column of the points sample_at reads at once
_READ_BYTES = 1 << 20  # one read of a PRGF1 value block


def midpoint_axis(lo: float, hi: float, n: int) -> tuple[np.ndarray, float]:
    """The midpoints of [lo, hi] cut into n equal cells, and the cell width."""
    h = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * h, h


def lattice_points(axes) -> np.ndarray:
    """All points of the tensor grid of the 1-D `axes` as a (count, len(axes))
    array in row-major order (last axis fastest); an empty axis gives none."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def cell_weights(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split positions in cell coordinates (midpoint k at k) into the lower
    cell i0 and the weight w1 of cell i0 + 1; cell i0 gets 1 - w1.

    A position within SNAP of a midpoint is snapped to it (w1 = 0), so
    whether the neighbour gets a rounding-sized weight does not depend on
    how the position was computed: every interpolation shares one zero set.
    """
    i0 = np.floor(pos + SNAP)
    w1 = pos - i0
    return i0.astype(np.int64), np.where(w1 < SNAP, 0.0, w1)


def axis_taps(pos: np.ndarray):
    """The two taps of multilinear sampling along one axis at positions in
    cell coordinates: (cell, weight) pairs for the lower cell i0, with
    weight 1 - w1, and for i0 + 1, with weight w1 (see `cell_weights`)."""
    i0, w1 = cell_weights(pos)
    return (i0, 1.0 - w1), (i0 + 1, w1)


def corner_weights(taps):
    """Multilinear sampling from per-axis taps: `taps[a]` holds axis a's two
    (index, weight) pairs, as `axis_taps` gives them.  Yields, for each of
    the 2^d cell corners in row-major order (last axis fastest), the d
    per-axis indices and the product of the d weights, multiplied in axis
    order; a product over leading axes is built once for all its corners."""
    *head, last = taps
    if not head:
        yield from (((i,), w) for i, w in last)
        return
    for idx, w in corner_weights(head):
        for i, v in last:
            yield (*idx, i), w * v


def write_csv(fh, header: str, rows) -> None:
    """Write a header line, then one line per row: a float with 17 significant
    digits (`g` format), which reads back as the same float64, else `str`."""
    fh.write(header + "\n")
    for row in rows:
        fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def real_leaves(tree) -> bool:
    """Whether `tree`, a number or nested lists of numbers, holds only real
    numbers and no bool: the one rule for numbers read from outside, since
    float() would parse "0" and take True as 1."""
    if isinstance(tree, list):
        return all(real_leaves(x) for x in tree)
    return isinstance(tree, numbers.Real) and not isinstance(tree, bool)


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling grid: per-axis closed bounds and cell counts."""

    bounds: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    # derived once, read-only; equality and hashing stay on (bounds, counts)
    lo: np.ndarray = field(init=False, compare=False, repr=False)
    hi: np.ndarray = field(init=False, compare=False, repr=False)
    widths: np.ndarray = field(init=False, compare=False, repr=False)  # cell width per axis
    cell_volume: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # int() would truncate 4.9
        if not all(real_leaves(v) for axis in self.bounds for v in axis):
            raise TypeError(f"grid bounds must be real numbers, got {self.bounds!r}")
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        counts = tuple(operator.index(n) for n in self.counts)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "counts", counts)
        if len(bounds) != len(counts):
            raise ValueError("bounds and counts must have equal length")
        if len(bounds) < 2:
            raise ValueError("grid dimension must be at least 2")
        for (lo, hi), n in zip(bounds, counts):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"invalid axis bounds [{lo}, {hi}]")
            if n < 2:
                raise ValueError("need at least 2 samples per axis")
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        widths = (hi - lo) / np.array(counts, dtype=float)
        for name, val in (("lo", lo), ("hi", hi), ("widths", widths)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        object.__setattr__(self, "cell_volume", float(np.prod(widths)))

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.counts

    @property
    def size(self) -> int:
        return math.prod(self.counts)  # exact: np.prod wraps in int64

    def axis_midpoints(self, axis: int) -> np.ndarray:
        return midpoint_axis(*self.bounds[axis], self.counts[axis])[0]

    def midpoints(self) -> np.ndarray:
        """All cell midpoints as a (size, dim) array, row-major cell order."""
        return lattice_points([self.axis_midpoints(i) for i in range(self.dim)])


def box_spec(lo, hi, counts) -> GridSpec:
    """Convenience constructor from per-axis lows/highs/counts."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    return GridSpec(tuple(zip(lo, hi)), tuple(np.atleast_1d(counts)))


def _checked(spec: GridSpec, values, allow_negative: bool) -> tuple[np.ndarray, np.float64]:
    """`values` as a float64 array of the grid's shape, finite and, unless
    `allow_negative`, nonnegative, with its minimum.  A NaN propagates
    through min and max, so two reductions check it all; -0.0 is not below
    0 and passes."""
    values = np.asarray(values, dtype=float)
    if values.shape != spec.shape:
        raise ValueError(f"values shape {values.shape} does not match grid {spec.shape}")
    lo, hi = values.min(), values.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("values must be finite")
    if not allow_negative and lo < 0:
        raise ValueError("values must be nonnegative")
    return values, lo


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Function sampled at cell midpoints.  Treated as an immutable value.

    Values are nonnegative by default; diagnostic fields (for instance
    high-pass components) may carry signs when built with
    ``allow_negative=True``.
    """

    spec: GridSpec
    values: np.ndarray
    allow_negative: bool = False
    # min(values), taken when they were validated; the transforms branch on it
    minimum: np.float64 = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the caller keeps its array, so the function holds a copy
        values, lo = _checked(self.spec, self.values, self.allow_negative)
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "minimum", lo)

    # -- constructors -------------------------------------------------

    @classmethod
    def _owned(cls, spec: GridSpec, values: np.ndarray,
               allow_negative: bool = False) -> "GridFunction":
        """Wrap a float64 array made inside the package that nothing else
        writes to (a transform output, an extremizer iterate): validated
        as the public constructor does, set read-only, but not copied."""
        f = object.__new__(cls)
        values, lo = _checked(spec, values, allow_negative)
        values.setflags(write=False)
        object.__setattr__(f, "spec", spec)
        object.__setattr__(f, "values", values)
        object.__setattr__(f, "allow_negative", allow_negative)
        object.__setattr__(f, "minimum", lo)
        return f

    @classmethod
    def zeros(cls, spec: GridSpec) -> "GridFunction":
        return cls(spec, np.zeros(spec.shape))

    @classmethod
    def from_callable(cls, spec: GridSpec, fn) -> "GridFunction":
        """Sample ``fn`` (vectorized over an (N, d) array) at midpoints."""
        vals = np.asarray(fn(spec.midpoints()), dtype=float).reshape(spec.shape)
        return cls(spec, vals)

    @classmethod
    def indicator(cls, spec: GridSpec, predicate) -> "GridFunction":
        """Indicator of the cells whose midpoint satisfies ``predicate``."""
        mask = np.asarray(predicate(spec.midpoints()), dtype=bool).reshape(spec.shape)
        return cls(spec, mask.astype(float))

    @classmethod
    def box_indicator(cls, spec: GridSpec, lo, hi) -> "GridFunction":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        return cls.indicator(spec, lambda x: np.all((x >= lo) & (x <= hi), axis=1))

    def with_values(self, values) -> "GridFunction":
        """Same grid and sign convention, new values."""
        return GridFunction(self.spec, values, allow_negative=self.allow_negative)

    # -- basic queries ------------------------------------------------

    @property
    def dim(self) -> int:
        return self.spec.dim

    def is_zero(self) -> bool:
        return not np.any(self.values)

    def support_mask(self) -> np.ndarray:
        return self.values != 0

    def sample_at(self, points: np.ndarray) -> np.ndarray:
        """Multilinear interpolation at arbitrary finite points, zero outside.

        The values get zero ghost cells, one below and two above each axis,
        and each position is clipped to [-1, n] cell units, so every tap
        lands on a cell or a ghost, a tap outside the box reads 0 with no
        mask, and no far point overflows its int64 cell index.  The points
        go through in chunks of _GATHER_BYTES; per chunk the taps are found
        once per axis, and each corner is one flat `take`, added in corner
        order.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError("points have wrong dimension")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        spec = self.spec
        lo, widths = spec.lo, spec.widths
        padded = np.zeros(tuple(n + 3 for n in spec.counts))
        padded[tuple(slice(1, n + 1) for n in spec.counts)] = self.values
        strides = [s // padded.itemsize for s in padded.strides]
        padded = padded.ravel()
        out = np.zeros(len(pts))
        step = _GATHER_BYTES // 8
        for start in range(0, len(pts), step):
            chunk = slice(start, start + step)
            taps = []
            for a, (n, stride) in enumerate(zip(spec.counts, strides)):
                pos = np.clip((pts[chunk, a] - lo[a]) / widths[a] - 0.5, -1.0, n)
                (_, w0), (i1, w1) = axis_taps(pos)
                # cell i sits at padded index i + 1
                flat = i1 * stride
                taps.append(((flat, w0), (flat + stride, w1)))
            part = out[chunk]
            for idx, w in corner_weights(taps):
                part += w * padded.take(sum(idx[1:], idx[0]))
        return out if np.asarray(points).ndim > 1 else out[0]

    # -- file formats -------------------------------------------------

    def save(self, path) -> None:
        """Write the PRGF1 format: one JSON header line, then raw little-endian
        64-bit floats in row-major cell order."""
        header = {
            "magic": PRGF_MAGIC,
            "dim": self.dim,
            "bounds": [[lo, hi] for lo, hi in self.spec.bounds],
            "counts": list(self.spec.counts),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("ascii"))
            fh.write(b"\n")
            fh.write(self.values.astype("<f8").tobytes(order="C"))

    @classmethod
    def load(cls, path) -> "GridFunction":
        with open(path, "rb") as fh:
            try:
                header = json.loads(fh.readline().decode("ascii"))
            except ValueError:  # not ASCII, or not JSON
                header = None
            if not isinstance(header, dict) or header.get("magic") != PRGF_MAGIC:
                raise ValueError(f"not a {PRGF_MAGIC} file: {path}")
            try:
                spec = GridSpec(
                    tuple((lo, hi) for lo, hi in header["bounds"]),
                    tuple(header["counts"]),
                )
            except (KeyError, TypeError, ValueError) as exc:  # missing, mistyped or out of range
                raise ValueError(f"malformed {PRGF_MAGIC} header in {path}: {exc!r}") from None
            if header.get("dim") != spec.dim:
                raise ValueError(f"header dim {header.get('dim')} does not match "
                                 f"{spec.dim} counts in {path}")
            nbytes = 8 * spec.size
            # the header must not size a read, so the block is read in bounded
            # chunks and a short one stops at the end of the input
            chunks, left = [], nbytes
            while left and (chunk := fh.read(min(left, _READ_BYTES))):
                chunks.append(chunk)
                left -= len(chunk)
            raw = b"".join(chunks)
            if len(raw) != nbytes:
                raise ValueError(f"truncated value block in {path}")
            if fh.read(1):
                raise ValueError(f"trailing bytes after the value block in {path}")
            values = np.frombuffer(raw, dtype="<f8").reshape(spec.shape)
        return cls(spec, values, allow_negative=True)
