"""Lattice geometry, neighborhoods, and incremental sliding-window signatures.

Coordinates are 0-based tuples, arrays are row-major. A node's w-window is
the axis-aligned hypercube [t-w, t+w] clamped to the lattice; signatures are
normalized by the actual (clamped) cell count so they stay valid at edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


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
        return int(np.prod(self.lengths))

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
class StateLattice:
    """Decoded latent-state configuration Q."""

    shape: LatticeShape
    states: np.ndarray
    N: int

    def __post_init__(self):
        if self.states.shape != self.shape.lengths:
            raise InputError("state array shape does not match lattice shape")
        if self.states.size and (self.states.min() < 0 or self.states.max() >= self.N):
            raise InputError(f"state indices must lie in [0, {self.N})")

    @classmethod
    def from_array(cls, states, N=None) -> "StateLattice":
        states = np.ascontiguousarray(states, dtype=np.int64)
        if N is None:
            N = int(states.max()) + 1 if states.size else 1
        return cls(LatticeShape(states.shape), states, int(N))


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


def sweep_signatures(lattice: SymbolLattice, w: int) -> SignatureField:
    """Window statistic at every node by an incremental row-major sweep.

    Discrete: empirical symbol distribution over the clamped window (exact
    integer counts). Real: sample mean of the window vectors. The scan slides
    along the last axis and reinitializes at the start of each row, so the
    result matches naive per-node recomputation.
    """
    if w < 0:
        raise InputError("window radius must be >= 0")
    lengths = lattice.shape.lengths
    M = lattice.M
    last = lengths[-1]
    out = np.empty(lengths + (M,), dtype=np.float64)
    discrete = lattice.kind == "discrete"

    for prefix in np.ndindex(*lengths[:-1]):
        row_slices = tuple(
            slice(max(0, c - w), min(n - 1, c + w) + 1)
            for c, n in zip(prefix, lengths[:-1])
        )
        block = lattice.values[row_slices + (slice(None),)]
        if discrete:
            flat = block.reshape(-1, last)
            rows = flat.shape[0]
            hi0 = min(last - 1, w)
            counts = np.bincount(flat[:, : hi0 + 1].ravel(), minlength=M).astype(np.int64)
            for j in range(last):
                lo = max(0, j - w)
                hi = min(last - 1, j + w)
                if j > 0:
                    if j + w <= last - 1:
                        counts += np.bincount(flat[:, j + w], minlength=M)
                    if j - 1 - w >= 0:
                        counts -= np.bincount(flat[:, j - 1 - w], minlength=M)
                out[prefix + (j,)] = counts / (rows * (hi - lo + 1))
        else:
            flat = block.reshape(-1, last, M)
            rows = flat.shape[0]
            colsums = flat.sum(axis=0)  # (last, M)
            hi0 = min(last - 1, w)
            acc = colsums[: hi0 + 1].sum(axis=0)
            for j in range(last):
                lo = max(0, j - w)
                hi = min(last - 1, j + w)
                if j > 0:
                    if j + w <= last - 1:
                        acc = acc + colsums[j + w]
                    if j - 1 - w >= 0:
                        acc = acc - colsums[j - 1 - w]
                out[prefix + (j,)] = acc / (rows * (hi - lo + 1))

    return SignatureField(lattice.shape, out)
