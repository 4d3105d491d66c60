"""Grid-sampled nonnegative functions on axis-aligned boxes in R^d.

Values live at the midpoints of a uniform tensor-product grid; every
integral is a midpoint-rule sum, so indicators of sets aligned with
cell edges integrate exactly.  Off-grid evaluation is multilinear with
zero ghost cells outside the box.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

PRGF_MAGIC = "PRGF1"


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling grid: per-axis closed bounds and cell counts."""

    bounds: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        counts = tuple(int(n) for n in self.counts)
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

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.counts

    @property
    def lo(self) -> np.ndarray:
        return np.array([b[0] for b in self.bounds])

    @property
    def hi(self) -> np.ndarray:
        return np.array([b[1] for b in self.bounds])

    @property
    def widths(self) -> np.ndarray:
        """Cell width per axis."""
        return (self.hi - self.lo) / np.array(self.counts, dtype=float)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.widths))

    @property
    def size(self) -> int:
        return int(np.prod(self.counts))

    def axis_midpoints(self, axis: int) -> np.ndarray:
        lo, hi = self.bounds[axis]
        n = self.counts[axis]
        h = (hi - lo) / n
        return lo + (np.arange(n) + 0.5) * h

    def midpoints(self) -> np.ndarray:
        """All cell midpoints as a (size, dim) array, row-major cell order."""
        axes = [self.axis_midpoints(i) for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def box_spec(lo, hi, counts) -> GridSpec:
    """Convenience constructor from per-axis lows/highs/counts."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    counts = np.atleast_1d(np.asarray(counts, dtype=int))
    return GridSpec(tuple(zip(lo, hi)), tuple(counts))


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

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.spec.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid {self.spec.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if not self.allow_negative and np.any(values < 0):
            raise ValueError("values must be nonnegative")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    # -- constructors -------------------------------------------------

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
        """Multilinear interpolation at arbitrary points, zero outside."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = self.dim
        if pts.shape[1] != d:
            raise ValueError("points have wrong dimension")
        lo = self.spec.lo
        h = self.spec.widths
        counts = np.array(self.spec.counts)
        pos = (pts - lo) / h - 0.5
        i0 = np.floor(pos).astype(np.int64)
        w1 = pos - i0
        out = np.zeros(pts.shape[0])
        flat = self.values.ravel()
        strides = np.cumprod([1] + list(counts[::-1]))[::-1][1:]  # row-major strides
        for corner in itertools.product((0, 1), repeat=d):
            idx = i0 + np.array(corner)
            valid = np.all((idx >= 0) & (idx < counts), axis=1)
            w = np.prod(np.where(np.array(corner) == 1, w1, 1.0 - w1), axis=1)
            if not np.any(valid):
                continue
            flat_idx = (idx[valid] * strides).sum(axis=1)
            out[valid] += w[valid] * flat[flat_idx]
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
            header_line = fh.readline()
            header = json.loads(header_line.decode("ascii"))
            if not isinstance(header, dict) or header.get("magic") != PRGF_MAGIC:
                raise ValueError(f"not a {PRGF_MAGIC} file: {path}")
            try:
                spec = GridSpec(
                    tuple((lo, hi) for lo, hi in header["bounds"]),
                    tuple(header["counts"]),
                )
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed {PRGF_MAGIC} header in {path}: {exc!r}") from None
            if header.get("dim") != spec.dim:
                raise ValueError(f"header dim {header.get('dim')} does not match "
                                 f"{spec.dim} counts in {path}")
            raw = fh.read(8 * spec.size)
            if len(raw) != 8 * spec.size:
                raise ValueError("truncated value block")
            if fh.read(1):
                raise ValueError(f"trailing bytes after the value block in {path}")
            values = np.frombuffer(raw, dtype="<f8").reshape(spec.shape)
        return cls(spec, values, allow_negative=True)

    def to_csv(self, path) -> None:
        """CSV export for d = 2: header x1,x2,value, one row per midpoint."""
        if self.dim != 2:
            raise ValueError("CSV export is defined for d = 2 only")
        pts = self.spec.midpoints()
        vals = self.values.ravel()
        with open(path, "w") as fh:
            fh.write("x1,x2,value\n")
            for (x1, x2), v in zip(pts, vals):
                fh.write(f"{x1:.17g},{x2:.17g},{v:.17g}\n")
