"""Lattice geometry, neighborhoods, and sliding-window signatures.

Coordinates are 0-based tuples, arrays are row-major. A node's w-window is
the axis-aligned hypercube [t-w, t+w] clamped to the lattice; signatures are
normalized by the actual (clamped) cell count so they stay valid at edges.
The sweep sums each channel over these windows by a separable box sum, so no
node is visited in a Python loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericError


@dataclass(frozen=True)
class LatticeShape:
    """d-dimensional grid extents."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(int(n) for n in self.lengths))
        if len(self.lengths) < 1:
            raise InputError("lattice needs at least one dimension")
        if any(n < 1 for n in self.lengths):
            raise InputError(f"lattice lengths must be positive, got {self.lengths}")

    @property
    def d(self) -> int:
        return len(self.lengths)

    @property
    def node_count(self) -> int:
        return math.prod(self.lengths)

    def contains(self, t) -> bool:
        return len(t) == self.d and all(0 <= c < n for c, n in zip(t, self.lengths))


@dataclass(frozen=True)
class SymbolLattice:
    """Observation lattice: symbol indices (discrete) or vectors in R^M (real)."""

    shape: LatticeShape
    values: np.ndarray
    M: int
    kind: str  # "discrete" | "real"

    def __post_init__(self):
        if self.kind not in ("discrete", "real"):
            raise InputError(f"unknown lattice kind {self.kind!r}")
        want = self.shape.lengths if self.kind == "discrete" else self.shape.lengths + (self.M,)
        if self.values.shape != want:
            raise InputError(f"payload shape {self.values.shape} != expected {want}")
        if self.kind == "discrete":
            if self.values.size and (self.values.min() < 0 or self.values.max() >= self.M):
                raise InputError(f"symbol indices must lie in [0, {self.M})")
        elif not np.isfinite(self.values).all():
            raise InputError("real lattice values must be finite")

    @classmethod
    def discrete(cls, values, M=None) -> "SymbolLattice":
        values = np.ascontiguousarray(values, dtype=np.int64)
        if M is None:
            M = int(values.max()) + 1 if values.size else 1
        return cls(LatticeShape(values.shape), values, int(M), "discrete")

    @classmethod
    def real(cls, values) -> "SymbolLattice":
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim < 2:
            raise InputError("real lattice payload needs a trailing vector axis")
        return cls(LatticeShape(values.shape[:-1]), values, int(values.shape[-1]), "real")


@dataclass(frozen=True)
class StateLattice(SymbolLattice):
    """Decoded latent-state configuration Q: a discrete lattice of N states."""

    kind: str = "discrete"

    @property
    def states(self) -> np.ndarray:
        return self.values

    @property
    def N(self) -> int:
        return self.M

    @classmethod
    def from_array(cls, states, N=None) -> "StateLattice":
        return cls.discrete(states, M=N)


@dataclass(frozen=True)
class SignatureField:
    """Per-node window statistic X: a simplex point or a sample-mean vector."""

    shape: LatticeShape
    signatures: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.signatures.shape[:-1] != self.shape.lengths:
            raise InputError("signature array shape does not match lattice shape")

    @property
    def M(self) -> int:
        return int(self.signatures.shape[-1])

    def flat(self) -> np.ndarray:
        return self.signatures.reshape(-1, self.M)


def neighbors(shape: LatticeShape, t) -> list[tuple[int, ...]]:
    """Axis-adjacent coordinates of t inside the lattice (<= 2d of them)."""
    t = tuple(int(c) for c in t)
    if not shape.contains(t):
        raise InputError(f"node {t} outside lattice {shape.lengths}")
    out = []
    for axis in range(shape.d):
        for step in (-1, 1):
            c = t[axis] + step
            if 0 <= c < shape.lengths[axis]:
                out.append(t[:axis] + (c,) + t[axis + 1:])
    return out


def axis_pairs(d: int) -> list[tuple[tuple[slice, ...], tuple[slice, ...]]]:
    """Per-axis (lo, hi) index tuples of a d-dimensional array: arr[lo] and
    arr[hi] line up every node with its successor along that axis, so each
    axis-adjacent pair appears once."""
    pairs = []
    for axis in range(d):
        lo = tuple(slice(None) if i != axis else slice(None, -1) for i in range(d))
        hi = tuple(slice(None) if i != axis else slice(1, None) for i in range(d))
        pairs.append((lo, hi))
    return pairs


def window_bounds(shape: LatticeShape, t, w: int):
    """Clamped hypercube [t-w, t+w]: returns (lo, hi, cell_count), inclusive."""
    t = tuple(int(c) for c in t)
    if not shape.contains(t):
        raise InputError(f"node {t} outside lattice {shape.lengths}")
    if w < 0:
        raise InputError("window radius must be >= 0")
    lo = tuple(max(0, c - w) for c in t)
    hi = tuple(min(n - 1, c + w) for c, n in zip(t, shape.lengths))
    cells = int(np.prod([h - l + 1 for l, h in zip(lo, hi)]))
    return lo, hi, cells


def _box_sum(plane: np.ndarray, w: int) -> np.ndarray:
    """Sum of `plane` over the clamped box [t-w, t+w] at every node t.

    One axis at a time, the shifted slices for offsets -r..+r are added to
    zeros in ascending order, so each node adds its window's cells in index
    order and nodes with the same clamped window get bit-equal sums.
    """
    for axis, n in enumerate(plane.shape):
        r = min(w, n - 1)
        acc = np.zeros_like(plane)
        for k in range(-r, r + 1):
            dst = [slice(None)] * plane.ndim
            src = [slice(None)] * plane.ndim
            dst[axis] = slice(max(0, -k), n - max(0, k))
            src[axis] = slice(max(0, k), n - max(0, -k))
            acc[tuple(dst)] += plane[tuple(src)]
        plane = acc
    return plane


def sweep_signatures(lattice: SymbolLattice, w: int) -> SignatureField:
    """Window statistic at every node by a separable box sum, one channel at
    a time.

    Discrete: empirical symbol distribution over the clamped window (exact
    integer counts, so bit-identical to a per-node recount). Real: sample
    mean of the window vectors.
    """
    if w < 0:
        raise InputError("window radius must be >= 0")
    lengths = lattice.shape.lengths
    out = np.empty(lengths + (lattice.M,), dtype=np.float64)
    cells = _box_sum(np.ones(lengths, dtype=np.int64), w)
    for c in range(lattice.M):
        if lattice.kind == "discrete":
            plane = (lattice.values == c).astype(np.int64)
        else:
            plane = lattice.values[..., c]
        out[..., c] = _box_sum(plane, w) / cells
    if lattice.kind == "real" and not np.isfinite(out).all():
        raise NumericError("window mean overflows")
    return SignatureField(lattice.shape, out)
