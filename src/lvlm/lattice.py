"""Lattice geometry, neighborhoods, and sliding-window signatures.

Coordinates are 0-based tuples, arrays are row-major. A node's w-window is
the axis-aligned hypercube [t-w, t+w] clamped to the lattice; signatures are
normalized by the actual (clamped) cell count so they stay valid at edges.
The sweep sums every channel over these windows in one separable box sum,
the channel a trailing axis, so no node or channel is visited in a Python
loop. `window_counts` gives a discrete lattice's exact window counts a slab
of first-axis rows at a time, the kernel of its sweep and of the inertia
index; `WindowCode` one integer code per node from those counts, equal exactly
where the count vectors are, so a caller can work once per distinct window;
`sweep_blocks` the field a block of nodes at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

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


# largest table built per call that is indexed by a code of a node's
# neighbourhood: Gibbs sampling's conditionals and evaluation's neighbour
# codes (a node's state and its neighbours' states), and window codes (a
# node's exact window counts)
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


def _box_sum(planes: np.ndarray, w: int, rows=slice(None)) -> np.ndarray:
    """Sum of `planes` over the clamped box [t-w, t+w] at every node t in the
    `rows` of the first axis, for each channel of the trailing axis at once.

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
        planes = acc if axis else acc[rows]
    return planes


def _window_spans(lengths: tuple[int, ...], w: int) -> list[np.ndarray]:
    """Per axis, the clamped window length at each coordinate."""
    spans = []
    for n in lengths:
        t, r = np.arange(n), min(w, n - 1)
        spans.append(np.minimum(t + r, n - 1) - np.maximum(t - r, 0) + 1)
    return spans


def _span_products(lengths: tuple[int, ...], w: int) -> np.ndarray:
    """The cell count of a window of every combination of per-axis window
    lengths. Along an axis of n nodes a clamped window is min(w, n - 1) + 1
    long at either end and min(2w + 1, n) at its longest, and takes every
    length between, since it moves by at most one from a node to the next."""
    return functools.reduce(np.multiply, np.ix_(*(np.arange(min(w, n - 1) + 1, min(2 * w + 1, n) + 1)
                                                  for n in lengths)))


def _window_cells(lengths: tuple[int, ...], w: int) -> np.ndarray:
    """Cell count of every node's clamped window, as a float64 with a trailing
    unit axis: the product of the per-axis clamped window lengths."""
    spans = [s.astype(np.float64) for s in _window_spans(lengths, w)]
    return functools.reduce(np.multiply, np.ix_(*spans))[..., None]


def count_type(lengths: tuple[int, ...], w: int) -> np.dtype:
    """The narrowest unsigned type that holds a full w-window's cell count
    on a lattice of these lengths."""
    return np.min_scalar_type(math.prod(min(2 * w + 1, n) for n in lengths))


def window_counts(lattice: SymbolLattice, w: int, M: int, dtype):
    """Exact counts of M symbols (M at least the discrete lattice's) over the
    clamped windows of a slab of first-axis rows at a time, in the unsigned
    `dtype` (`count_type` or wider): yields (top, end, counts of rows [top,
    end)), a slab's counts no more bytes than one float64 lattice channel, from
    a one-hot of the rows its windows reach, 1 scattered at node * M + symbol."""
    if w < 0:
        raise InputError("window radius must be >= 0")
    lengths = lattice.shape.lengths
    step = max(1, 8 * lengths[0] // (M * np.dtype(dtype).itemsize))
    for top in range(0, lengths[0], step):
        lo, end, hi = max(0, top - w), min(top + step, lengths[0]), min(top + step + w, lengths[0])
        onehot = np.zeros((hi - lo,) + lengths[1:] + (M,), dtype=dtype)
        onehot.ravel()[np.arange(0, onehot.size, M) + lattice.values[lo:hi].ravel()] = 1
        yield top, end, _box_sum(onehot, w, slice(top - lo, end - lo))


@dataclass(frozen=True)
class WindowCode:
    """One code per node of a discrete lattice for its exact w-window
    counts of M symbols: the rank of the window's cell count among `sizes`,
    then the counts of symbols 0 .. M-2 as digits in base sizes[-1] + 1 (a
    count is at most the full window's cell count, the largest size). The
    last count is the cell count less the others, so equal codes mean equal
    count vectors and so equal signatures. A table indexed by code has
    `entries` entries; `fitting` gives a code only where that is at most
    `TABLE_ENTRIES` and at most the lattice's signature field's values."""

    w: int
    M: int
    sizes: np.ndarray = field(repr=False)  # the distinct cell counts of the windows coded, ascending

    @classmethod
    def fitting(cls, shape: LatticeShape, w: int, M: int) -> "WindowCode | None":
        """The code of the w-windows of a lattice of this shape over M
        symbols, or None where its table would pass `TABLE_ENTRIES` or the
        node_count * M values of the lattice's signature field: a table
        larger than the field costs more to mark and scan than the search
        it spares."""
        if w < 0:
            raise InputError("window radius must be >= 0")
        bound = min(TABLE_ENTRIES, shape.node_count * M)
        full = math.prod(min(2 * w + 1, n) for n in shape.lengths)
        # past the bound with one size already (each digit at least doubles it)
        if (full + 1) ** min(M - 1, bound.bit_length()) > bound:
            return None
        code = cls(w, M, np.unique(_span_products(shape.lengths, w)))
        return code if code.entries <= bound else None

    @property
    def entries(self) -> int:
        return len(self.sizes) * (int(self.sizes[-1]) + 1) ** (self.M - 1)

    def codes(self, lattice: SymbolLattice, signatures: np.ndarray | None = None) -> np.ndarray:
        """The code of every node of `lattice` (of the shape the code was
        made for), flat, as the index type, from one `window_counts`
        pass (so a table is indexed without a cast); that pass also
        writes the lattice's signatures into `signatures` when given, an
        array of its lengths and M channels, bit-equal to
        `sweep_signatures`'s."""
        lengths, base = lattice.shape.lengths, int(self.sizes[-1]) + 1
        spans = _window_spans(lengths, self.w)
        # the rank at each combination of per-axis window lengths, spread
        # over every axis but the first
        rank = np.searchsorted(self.sizes, _span_products(lengths, self.w))
        for axis in range(1, len(spans)):
            rank = rank.take(spans[axis] - spans[axis][0], axis=axis)
        first = spans[0] - spans[0][0]
        cells = _window_cells(lengths, self.w) if signatures is not None else None
        out = np.empty(lengths, dtype=np.intp)
        for top, end, counts in window_counts(lattice, self.w, self.M, count_type(lengths, self.w)):
            code = rank.take(first[top:end], axis=0, out=out[top:end])
            for m in range(self.M - 1):
                code *= base
                code += counts[..., m]
            if cells is not None:
                np.divide(counts, cells[top:end], out=signatures[top:end])
        return out.ravel()

    def rows(self, codes: np.ndarray) -> np.ndarray:
        """The signature of each code: its counts over its cell count, in
        float64, bit-equal to the row of `sweep_signatures` of a node that
        has it."""
        base = int(self.sizes[-1]) + 1
        counts, rest = np.empty((self.M, len(codes)), dtype=np.int64), codes
        for m in range(self.M - 2, -1, -1):
            rest, counts[m] = np.divmod(rest, base)
        cells = self.sizes[rest]
        np.subtract(cells, counts[:-1].sum(axis=0), out=counts[-1])
        return (counts / cells).T


def sweep_signatures(lattice: SymbolLattice, w: int) -> SignatureField:
    """Window statistic at every node by one separable box sum over all
    channels, the channel a trailing axis.

    Discrete: empirical symbol distribution over the clamped window, from
    `window_counts` in the narrowest unsigned type that holds a full
    window's count (so bit-identical to a per-node recount), a slab of rows
    at a time, so the memory beside the output is an output channel or two.
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
    for top, end, counts in window_counts(lattice, w, lattice.M, count_type(lengths, w)):
        np.divide(counts, cells[top:end], out=out[top:end])
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
            part = replace(lattice, shape=LatticeShape((hi - lo,) + lengths[1:]), values=lattice.values[lo:hi])
            try:
                X = sweep_signatures(part, w).signatures[top - lo:end - lo].reshape(-1, lattice.M)
            except NumericError:
                X, top, end = sweep_signatures(lattice, w).flat(), 0, lengths[0]
        yield a, X[a - top * per_row:b - top * per_row]
