"""The lattice model both variants share: parameter checks, nearest-row
assignment, decoding, evaluation, and learning.

Decoding gives each node the state whose emission row is L2-closest to the
node's window signature. Evaluation scores a lattice as the sum over nodes of
log p(o_t | q_t) + 1/2 * sum_r [log alpha + log a(q_t,q_r) - log k_t], with
k_t = sum_r a(q_t,q_r). Learning PNN-quantizes the pooled window signatures
into N emission rows, re-assigns every node to its nearest row, and
row-normalizes the neighbor-pair counts into A. Discrete learning never
builds the float field: it finds the distinct windows from exact integer
window counts (`_distinct_windows`), quantizes each once, weighted by its
node count, and assigns each once, so it learns what quantizing every node
would. Decoding, evaluation, the scalar `assign` and learning's
re-assignment share one nearest-row search. It copies a bounded block of
signatures into contiguous columns, in buffers reused by every block of a
call, and keeps a running minimum of d² over the states in ascending order,
so ties go to the lowest state. Each state's d² adds its squared
differences in the order of numpy's pairwise summation, so it is bit-equal
to `((x - row) ** 2).sum(axis=1)`. Evaluation sweeps its field in the search's
blocks (`lattice.sweep_blocks`) and never holds it whole. Every node's
neighbor term has the same form and depends only on its own state and its
neighbors' states, so evaluation scores from exact integer counts: the
neighbor-pair counts C give sum_ij C_ij log a_ij and log alpha * sum C, and
each distinct (state, neighbor-state multiset) code gives deg log k once,
times the number of nodes that have it (`_pair_score`). Those counts are
taken a bounded block of nodes at a time, so the temporaries stay small and
are reused from the heap call after call, and they add exactly, so the
score does not depend on the blocks.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field

import numpy as np

# the sweep and the quantizer are looked up on their modules at call time, so
# that wrappers installed there (tracing, profiling) see every call
from . import lattice, vq
from .errors import InputError, NumericError
from .lattice import SignatureField, StateLattice, SymbolLattice, axis_pairs


@dataclass(frozen=True)
class LatticeModel:
    """<A, emission, w>. The window radii w (decoding), w_e (evaluation), w_l
    (learning) and alpha are keyword-only fields declared here. A variant
    declares its emission fields and supplies `kind` (of its observations),
    `exact_alphabet` (observations need exactly M entries), `rows` (the N x M
    rows decoding assigns to), `_check_emission()`,
    `_rows_from_codebook(centroids)`, `_fit(rows, lattices, states)` (learned
    emission fields) and `_log_emission(obs, q)` (sum over nodes of
    log p(o_t | q_t))."""

    N: int
    M: int
    d: int
    A: np.ndarray = field(repr=False)  # N x N nonnegative state adjacency potential
    _: KW_ONLY
    w: int = 1
    w_e: int = 1
    w_l: int = 1
    alpha: float = 1.0

    def __post_init__(self):
        if self.N < 1 or self.M < 1 or self.d < 1:
            raise InputError("N, M, d must be >= 1")
        if min(self.w, self.w_e, self.w_l) < 0:
            raise InputError("window radii must be >= 0")
        if not 0.0 < self.alpha <= 1.0:
            raise InputError("alpha must lie in (0, 1]")
        if self.A.shape != (self.N, self.N) or not np.isfinite(self.A).all() or self.A.min() < 0:
            raise InputError("A must be N x N finite nonnegative")
        self._check_emission()


_BLOCK = 1 << 18  # elements of one block's transposed signatures and squared differences together
_BLOCK_NODES = 1 << 14  # nodes of one block at most; at M = 4 faster than one 65,536-node block
# nodes of one block of evaluation's counting (neighbour codes, state-symbol
# codes): its int64 codes, and the int32 padded rows the neighbour codes are
# read from, stay below glibc's least mmap threshold (128 KiB), so they reuse
# heap memory instead of being mapped, page-faulted and unmapped again on
# every call
_PAIR_BLOCK_NODES = 1 << 13


def _sum_rows_pairwise(a: np.ndarray) -> np.ndarray:
    """Sum the rows of the C-contiguous 2-D `a` into a[0], in place, adding in
    the order numpy's pairwise summation adds a length-len(a) vector: one by
    one below 8 terms; up to 128, eight running sums over the full groups of
    8 combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest one by
    one; above 128, the two halves split at a multiple of 8. So each column of
    the result is bit-equal to that column's `.sum()`."""
    n = len(a)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        _sum_rows_pairwise(a[:half])
        _sum_rows_pairwise(a[half:])
        a[0] += a[half]
        return a[0]
    full = 1
    if n >= 8:
        full = n - n % 8
        for i in range(8, full, 8):
            a[:8] += a[i:i + 8]
        a[0:8:2] += a[1:8:2]
        a[0:8:4] += a[2:8:4]
        a[0] += a[4]
    for j in range(full, n):
        a[0] += a[j]
    return a[0]


def _nearest_step(M: int) -> int:
    """Nodes of one block of the nearest-row search at M entries."""
    return max(1, min(_BLOCK_NODES, _BLOCK // (2 * M)))


def _nearest_rows(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the L2-closest of the N x M `rows` for each row of x, ties to
    the lowest index; a block of at most `_BLOCK_NODES` rows of x, and of
    `_BLOCK` working elements, at a time. The blocks share one set of
    working buffers, allocated once per call."""
    out = np.empty(len(x), dtype=np.int64)
    M, step = rows.shape[1], _nearest_step(rows.shape[1])
    m = min(step, len(x))
    work = np.empty(M * m), np.empty(M * m), np.empty(m), np.empty(m, dtype=bool)
    for i in range(0, len(x), step):
        block = x[i:i + step]
        with np.errstate(over="ignore"):  # a d² that overflows is inf, above every finite one
            found = _nearest_block(rows, block, out[i:i + step], work)
        if not found:
            # at some node every state's d² overflows: search the block again,
            # scaled by the power of two that keeps d² finite
            k = vq.overflow_shift(rows, block)
            _nearest_block(np.ldexp(rows, -k), np.ldexp(block, -k), out[i:i + step], work)
    return out


def _nearest_block(rows: np.ndarray, x: np.ndarray, q: np.ndarray, work) -> bool:
    """Write the nearest-row index of each row of x into q: the columns of x
    copied contiguous, then a running minimum of d² over the states in
    ascending order, taken over only where a state's d² is strictly smaller.
    `work` holds buffers of at least the block's columns and squared
    differences, its minimum and a mask. Returns False when some node's
    least d² overflows."""
    M, m = rows.shape[1], len(x)
    cols, sq = (buf[:M * m].reshape(M, m) for buf in work[:2])
    best, closer = work[2][:m], work[3][:m]
    np.copyto(cols, x.T)
    best.fill(np.inf)
    q[:] = 0
    for n, r in enumerate(rows):
        np.square(np.subtract(cols, r[:, None], out=sq), out=sq)
        d2 = _sum_rows_pairwise(sq)
        np.less(d2, best, out=closer)
        np.minimum(best, d2, out=best)
        np.copyto(q, n, where=closer)
    return not np.isinf(best).any()


def assign(model: LatticeModel, x) -> int:
    """State whose emission row is L2-closest to signature x; ties go to lowest index."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.M,):
        raise InputError(f"signature has {x.shape} entries, model expects {model.M}")
    return int(_nearest_rows(model.rows, x[None])[0])


def _assign_field(rows: np.ndarray, X: SignatureField) -> np.ndarray:
    """Nearest-row state of every node of X."""
    return _nearest_rows(rows, X.flat()).reshape(X.shape.lengths)


def _assign_swept(rows: np.ndarray, obs: SymbolLattice, M: int, w: int) -> np.ndarray:
    """`_assign_field(rows, _signatures(obs, M, w))` from the field swept in
    the nearest-row search's own blocks of nodes, never held whole."""
    q = np.empty(obs.shape.node_count, dtype=np.int64)
    for a, X in lattice.sweep_blocks(SymbolLattice(obs.shape, obs.values, M, obs.kind), w, _nearest_step(M)):
        q[a:a + len(X)] = _nearest_rows(rows, X)
    return q.reshape(obs.shape.lengths)


def _signatures(obs: SymbolLattice, M: int, w: int) -> SignatureField:
    """Window signatures of obs with M entries (discrete: over M symbols)."""
    return lattice.sweep_signatures(SymbolLattice(obs.shape, obs.values, M, obs.kind), w)


def _check_obs(model: LatticeModel, obs: SymbolLattice):
    """obs is a lattice the model can decode: its variant, alphabet and dimension."""
    if obs.kind != model.kind:
        raise InputError(f"{model.kind} model needs a {model.kind} lattice")
    if obs.M > model.M or (model.exact_alphabet and obs.M != model.M):
        raise InputError(f"lattice has M={obs.M}, model has M={model.M}")
    if obs.shape.d != model.d:
        raise InputError(f"lattice is {obs.shape.d}-d, model expects {model.d}-d")


def decode(model: LatticeModel, obs: SymbolLattice, w: int):
    """Signature field and per-node nearest-row state at window radius w."""
    _check_obs(model, obs)
    X = _signatures(obs, model.M, w)
    return X, StateLattice(obs.shape, _assign_field(model.rows, X), model.N)


def _neighbour_blocks(q: np.ndarray, fill: np.ndarray):
    """For blocks of first-axis rows [s, e) of q, about `_PAIR_BLOCK_NODES`
    nodes (one row at least): (s, e, near), near the 2d views, each of
    q[s:e]'s shape, of fill[q_r] at each node's neighbour r one step back
    and one step on along each axis, in axis order; fill[-1] where that
    neighbour lies off the lattice. They are read from one reused buffer:
    the block's rows and a halo row on either side, padded on every axis."""
    rows = min(len(q), max(1, _PAIR_BLOCK_NODES // (q.size // len(q))))
    pad = np.full((rows + 2,) + tuple(n + 2 for n in q.shape[1:]), fill[-1], dtype=fill.dtype)
    inner = tuple(slice(1, n + 1) for n in q.shape[1:])
    for s in range(0, len(q), rows):
        e = min(s + rows, len(q))
        lo, hi = max(s - 1, 0), min(e + 1, len(q))
        block = pad[:e - s + 2]
        fill.take(q[lo:hi], out=block[(slice(lo - s + 1, hi - s + 1),) + inner], mode="clip")
        if hi == e:  # no row after the last: a halo of sentinels
            block[-1] = fill[-1]
        near = []
        for axis in range(q.ndim):
            for step in (-1, 1):
                at = [slice(1, e - s + 1), *inner]
                at[axis] = slice(at[axis].start + step, at[axis].stop + step)
                near.append(block[tuple(at)])
        yield s, e, near


def _pair_score(A: np.ndarray, q: np.ndarray, alpha: float) -> float:
    """Sum over nodes of 1/2 * sum_r [log alpha + log a(q_t,q_r) - log k_t],
    from exact integer counts: with C the neighbour-pair counts (both
    orientations) and deg_t the neighbour count of node t, it is
    1/2 [sum_ij C_ij log a_ij + log alpha * sum C - sum_t deg_t log k_t].
    Each node's k_t and deg_t depend only on its state and the multiset of
    its neighbours' states, so where N (2d+1)^N codes fit
    `lattice.TABLE_ENTRIES` each node gets one code, q_t (2d+1)^N plus
    (2d+1)^(q_r) per neighbour, and deg_t log k_t is taken once per code that
    occurs, times its count; C follows from the same counts. Past that bound
    each node's k_t is summed from its 2d neighbours and C is counted pair by
    pair. The nodes are read a block of first-axis rows at a time
    (`_neighbour_blocks`); counts add exactly, so the score does not depend
    on the blocks. -inf where some k_t is 0 or some neighbouring pair has
    a = 0. On a lattice of two or more nodes every node has a neighbor."""
    if q.size < 2:
        return 0.0
    N, base = len(A), 2 * q.ndim + 1
    if N * base ** N <= lattice.TABLE_ENTRIES:
        top = base ** N
        hist = np.zeros(N * top, dtype=np.int64)
        digit = np.append(base ** np.arange(N, dtype=np.int32), 0)  # a missing neighbour adds 0
        for s, e, near in _neighbour_blocks(q, digit):
            code = q[s:e] * top
            for v in near:
                code += v
            hist += np.bincount(code.ravel(), minlength=len(hist))
        seen = np.flatnonzero(hist)
        times = hist[seen]
        state = seen // top
        counts = seen[:, None] // digit[:-1] % base  # neighbours in each state
        k = (counts * A[state]).sum(axis=1)
        if np.any(k <= 0):
            return float("-inf")
        deg_log_k = (times * counts.sum(axis=1) * np.log(k)).sum()
        C = np.zeros((N, N), dtype=np.int64)
        np.add.at(C, state, times[:, None] * counts)
    else:
        flat = np.zeros((N, N + 1))  # column N: a missing neighbour adds a = 0
        flat[:, :N] = A
        flat = flat.ravel()
        terms = np.empty(q.shape)  # deg_t log k_t, summed once, whatever the blocks
        for s, e, near in _neighbour_blocks(q, np.arange(N + 1, dtype=np.int32)):
            row = q[s:e] * (N + 1)
            k = sum(flat.take(row + v) for v in near)
            if np.any(k <= 0):
                return float("-inf")
            deg = sum(v < N for v in near)
            np.multiply(deg, np.log(k), out=terms[s:e])
        deg_log_k = terms.sum()
        C = _adjacency_counts(N, q)
    paired = C > 0
    if np.any(A[paired] <= 0):
        return float("-inf")
    return float(0.5 * ((C[paired] * np.log(A[paired])).sum() + np.log(alpha) * C.sum() - deg_log_k))


def evaluation_field(model: LatticeModel, obs: SymbolLattice) -> SignatureField:
    """obs's signature field at the model's w_e, which `evaluate` decodes."""
    _check_obs(model, obs)
    return _signatures(obs, model.M, model.w_e)


def evaluate(model: LatticeModel, obs: SymbolLattice, *, signatures: SignatureField | None = None) -> float:
    """Log-score of obs: decode with w_e, then emission + neighbor terms.
    `signatures` is obs's field at w_e when the caller has swept it already
    (the same for every model of M entries, so classification sweeps an
    image once per radius); it must match obs's shape and the model's M."""
    _check_obs(model, obs)
    if signatures is None:
        q = _assign_swept(model.rows, obs, model.M, model.w_e)
    elif signatures.signatures.shape != obs.shape.lengths + (model.M,):
        raise InputError(f"signature field of shape {signatures.signatures.shape} does not fit a "
                         f"{obs.shape.lengths} lattice under a model of M={model.M}")
    else:
        q = _assign_field(model.rows, signatures)
    return model._log_emission(obs, q) + _pair_score(model.A, q, model.alpha)


def _adjacency_counts(N: int, q: np.ndarray) -> np.ndarray:
    """Neighbor-pair counts in both orientations: the forward pairs of every
    axis, plus their transpose."""
    C = sum(np.bincount((q[lo] * N + q[hi]).ravel(), minlength=N * N)
            for lo, hi in axis_pairs(q.ndim)).reshape(N, N)
    return C + C.T


def _normalize_adjacency(counts: np.ndarray, occupied: np.ndarray) -> np.ndarray:
    """Row-normalize by actual neighbor-pair counts; occupied isolated states
    (possible only on single-node lattices) fall back to a uniform row."""
    if not occupied.all():
        missing = np.flatnonzero(~occupied)
        raise NumericError(f"states {missing.tolist()} have no assigned nodes", state=int(missing[0]))
    rowsum = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, rowsum, out=np.full(counts.shape, 1.0 / len(counts)), where=rowsum > 0)


def _distinct_windows(lattices, M: int, w: int):
    """The distinct windows of the pooled discrete `lattices`, found from
    their exact symbol counts (`lattice.window_counts`): (points, weights,
    inverse), where points are the signatures of the distinct count vectors
    in order of first occurrence, weights how many nodes have each, and
    inverse each pooled node's row of points. Each node's count bytes are
    packed into 64-bit words and sorted as integers once; only the first node
    of each distinct vector is divided by its cell count, the sum of its
    counts, so every point is bit-equal to that node's row of the float
    sweep. Count vectors that differ can still have equal signatures (an
    edge window of 6 in 15 cells, an inner one of 10 in 25); `vq.pnn_quantize`
    merges those."""
    dtype = np.result_type(*(lattice.count_type(lat.shape.lengths, w) for lat in lattices))
    counts = np.concatenate([lattice.window_counts(lat, w, M, dtype).reshape(-1, M) for lat in lattices])
    n, width = len(counts), counts.itemsize * M
    packed = np.zeros((n, -(-width // 8) * 8), dtype=np.uint8)
    packed[:, :width] = counts.view(np.uint8).reshape(n, width)
    keys = packed.view(np.uint64)
    # any order of the words groups equal vectors; the sort need not be stable
    order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T)
    ranked = keys[order]
    new = np.ones(n, dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    first = np.minimum.reduceat(order, starts)  # each distinct vector's lowest node
    by_first = np.argsort(first)
    label = np.empty(len(first), dtype=np.int64)
    label[by_first] = np.arange(len(first))
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.repeat(label, np.diff(starts, append=n))
    distinct = counts[first[by_first]]
    return distinct / distinct.sum(axis=1, keepdims=True), np.bincount(inverse), inverse


def learn(cls: type[LatticeModel], obs, w_l: int, n_states: int, *, w=None, w_e=None, alpha=1.0):
    """Learn a `cls` model from one or more lattices (never counting neighbor
    pairs across lattice boundaries); w and w_e default to w_l."""
    lattices = [obs] if isinstance(obs, SymbolLattice) else list(obs)
    if not lattices:
        raise InputError("need at least one training lattice")
    M = max(lat.M for lat in lattices)
    d = lattices[0].shape.d
    for lat in lattices:
        if lat.kind != cls.kind:
            raise InputError(f"learn_{cls.kind} needs {cls.kind} lattices")
        if lat.shape.d != d or (cls.exact_alphabet and lat.M != M):
            raise InputError("training lattices must share dimensionality")
    total = sum(lat.shape.node_count for lat in lattices)
    if total < n_states:
        raise InputError(f"need at least {n_states} nodes, got {total}")

    if cls.kind == "discrete":
        points, weights, inverse = _distinct_windows(lattices, M, w_l)
    else:
        flats = [_signatures(lat, M, w_l).flat() for lat in lattices]
        points, weights, inverse = flats[0] if len(flats) == 1 else np.concatenate(flats), None, None
    if len(points) < n_states:  # fewer distinct windows than states: the check below raises
        centroids = points
    else:
        centroids = vq.pnn_quantize(points, n_states, weights=weights)[0].centroids
    rows = cls._rows_from_codebook(centroids)
    distinct = len(np.unique(rows, axis=0))
    if distinct < n_states:
        raise NumericError(f"only {distinct} distinct emission rows for {n_states} states: "
                           "too few distinct window signatures")

    q = _nearest_rows(rows, points)
    if inverse is not None:
        q = q[inverse]
    ends = np.cumsum([lat.shape.node_count for lat in lattices])
    states = [part.reshape(lat.shape.lengths) for lat, part in zip(lattices, np.split(q, ends[:-1]))]
    counts = np.zeros((n_states, n_states))
    for part in states:
        counts += _adjacency_counts(n_states, part)
    occupied = np.zeros(n_states, dtype=bool)
    occupied[q] = True
    A = _normalize_adjacency(counts, occupied)
    return cls(
        N=n_states, M=M, d=d, A=A, **cls._fit(rows, lattices, states),
        w=w_l if w is None else w,
        w_e=w_l if w_e is None else w_e,
        w_l=w_l, alpha=alpha,
    )
