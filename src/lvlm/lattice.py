"""Lattice geometry, neighborhoods, and sliding-window signatures.

Coordinates are 0-based tuples, arrays are row-major. A node's w-window is
the axis-aligned hypercube [t-w, t+w] clamped to the lattice; signatures are
normalized by the actual (clamped) cell count so they stay valid at edges.
The sweep sums every channel over these windows in one separable box sum,
the channel a trailing axis, so no node or channel is visited in a Python
loop. `sweep_blocks` gives the same field a block of nodes at a time, and
`window_counts` a discrete lattice's exact window counts, held in an integer
type.
"""

from __future__ import annotations

import functools
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


# largest table indexed by a node's state and its neighbours' states that is
# built per call: Gibbs sampling's conditionals, evaluation's neighbour codes
TABLE_ENTRIES = 1 << 18


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


def _box_sum(planes: np.ndarray, w: int) -> np.ndarray:
    """Sum of `planes` over the clamped box [t-w, t+w] at every node t, for
    each channel of the trailing axis at once.

    One lattice axis at a time, the shifted slices for offsets -r..+r are
    added to zeros in ascending order, so each node adds its window's cells
    in index order and nodes with the same clamped window get bit-equal sums.
    """
    for axis, n in enumerate(planes.shape[:-1]):
        r = min(w, n - 1)
        acc = np.zeros_like(planes)
        for k in range(-r, r + 1):
            dst = [slice(None)] * planes.ndim
            src = [slice(None)] * planes.ndim
            dst[axis] = slice(max(0, -k), n - max(0, k))
            src[axis] = slice(max(0, k), n - max(0, -k))
            acc[tuple(dst)] += planes[tuple(src)]
        planes = acc
    return planes


def _window_cells(lengths: tuple[int, ...], w: int) -> np.ndarray:
    """Cell count of every node's clamped window, with a trailing unit axis:
    the product of the per-axis clamped window lengths."""
    spans = []
    for n in lengths:
        t, r = np.arange(n), min(w, n - 1)
        spans.append(np.minimum(t + r, n - 1) - np.maximum(t - r, 0) + 1)
    return functools.reduce(np.multiply, np.ix_(*spans))[..., None]


def count_type(lengths: tuple[int, ...], w: int) -> np.dtype:
    """The narrowest unsigned type that holds a full w-window's cell count
    on a lattice of these lengths."""
    return np.min_scalar_type(math.prod(min(2 * w + 1, n) for n in lengths))


def window_counts(lattice: SymbolLattice, w: int, M: int, dtype) -> np.ndarray:
    """Exact count of each of M symbols (M at least the discrete lattice's)
    over every node's clamped window, of shape lengths + (M,), in the
    unsigned `dtype` (`count_type` or wider): one box sum over all symbols."""
    if w < 0:
        raise InputError("window radius must be >= 0")
    onehot = (lattice.values[..., None] == np.arange(M)).astype(dtype)
    return _box_sum(onehot, w)


def sweep_signatures(lattice: SymbolLattice, w: int) -> SignatureField:
    """Window statistic at every node by one separable box sum over all
    channels, the channel a trailing axis.

    Discrete: empirical symbol distribution over the clamped window, from
    one-hot symbol counts in the narrowest unsigned type that holds a full
    window's count (exact, so bit-identical to a per-node recount). The
    one-hot is built for a block of symbols at a time, a block's counts
    taking no more bytes per node than one float64 output channel, so the
    working memory beside the output is a few output channels at any M.
    Real: sample mean of the window vectors.
    """
    if w < 0:
        raise InputError("window radius must be >= 0")
    lengths = lattice.shape.lengths
    cells = _window_cells(lengths, w)
    if lattice.kind == "real":
        # a window sum that overflows is inf or nan, and raises below
        with np.errstate(over="ignore", invalid="ignore"):
            out = _box_sum(np.asarray(lattice.values, dtype=np.float64), w)
            np.divide(out, cells, out=out)
        if not np.isfinite(out).all():
            raise NumericError("window mean overflows")
        return SignatureField(lattice.shape, out)
    out = np.empty(lengths + (lattice.M,), dtype=np.float64)
    count = count_type(lengths, w)
    block = max(1, out.itemsize // count.itemsize)
    symbols = lattice.values[..., None]
    for c in range(0, lattice.M, block):
        onehot = (symbols == np.arange(c, min(c + block, lattice.M))).astype(count)
        np.divide(_box_sum(onehot, w), cells, out=out[..., c:c + block])
    return SignatureField(lattice.shape, out)


def sweep_blocks(lattice: SymbolLattice, w: int, nodes: int):
    """The rows of `sweep_signatures(lattice, w).signatures` taken as an
    array of (node, channel), in consecutive blocks of at most `nodes` nodes:
    yields (first node, block). The whole field is never held: rows of the
    first axis are swept a block's worth at a time, from the rows their
    windows reach. A row's clamped window is the same in that part as in the
    lattice, so every signature is bit-equal to the whole sweep's. A real
    window cut short at the part's edge can overflow where none of the
    lattice's does; the rest then comes from the whole sweep, which raises
    only where one of the lattice's windows overflows."""
    lengths = lattice.shape.lengths
    per_row = lattice.shape.node_count // lengths[0]
    top = end = 0  # rows [top, end) of the first axis are swept into X
    for a in range(0, lattice.shape.node_count, nodes):
        b = min(a + nodes, lattice.shape.node_count)
        if b > end * per_row:
            top, end = a // per_row, -(-b // per_row)
            lo, hi = max(0, top - w), min(lengths[0], end + w)
            part = SymbolLattice(LatticeShape((hi - lo,) + lengths[1:]), lattice.values[lo:hi],
                                 lattice.M, lattice.kind)
            try:
                X = sweep_signatures(part, w).signatures[top - lo:end - lo].reshape(-1, lattice.M)
            except NumericError:
                X, top, end = sweep_signatures(lattice, w).flat(), 0, lengths[0]
        yield a, X[a - top * per_row:b - top * per_row]
