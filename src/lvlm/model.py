"""The lattice model both variants share: parameter checks, nearest-row
assignment, decoding, evaluation, and learning.

Decoding gives each node the state whose emission row is L2-closest to the
node's window signature. Evaluation scores a lattice as the sum over nodes of
log p(o_t | q_t) + 1/2 * sum_r [log alpha + log a(q_t,q_r) - log k_t], with
k_t = sum_r a(q_t,q_r). Learning PNN-quantizes the pooled window signatures
into N emission rows, re-assigns every node to its nearest row, and
row-normalizes the neighbor-pair counts into A. Decoding, evaluation, the
scalar `assign` and learning's re-assignment share one nearest-row search. It
transposes a bounded block of signatures into contiguous columns and keeps a
running minimum of d² over the states in ascending order, so ties go to the
lowest state. Each state's d² adds its squared differences in the order of
numpy's pairwise summation, so it is bit-equal to
`((x - row) ** 2).sum(axis=1)`.
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


def _nearest_rows(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the L2-closest of the N x M `rows` for each row of x, ties to
    the lowest index; a block of at most `_BLOCK_NODES` rows of x, and of
    `_BLOCK` working elements, at a time."""
    out = np.empty(len(x), dtype=np.int64)
    step = max(1, min(_BLOCK_NODES, _BLOCK // (2 * rows.shape[1])))
    for i in range(0, len(x), step):
        block = x[i:i + step]
        with np.errstate(over="ignore"):  # a d² that overflows is inf, above every finite one
            found = _nearest_block(rows, block, out[i:i + step])
        if not found:
            # at some node every state's d² overflows: search the block again,
            # scaled by the power of two that keeps d² finite
            k = vq.overflow_shift(rows, block)
            _nearest_block(np.ldexp(rows, -k), np.ldexp(block, -k), out[i:i + step])
    return out


def _nearest_block(rows: np.ndarray, x: np.ndarray, q: np.ndarray) -> bool:
    """Write the nearest-row index of each row of x into q: the columns of x
    made contiguous, then a running minimum of d² over the states in
    ascending order, taken over only where a state's d² is strictly smaller.
    Returns False when some node's least d² overflows."""
    cols = np.ascontiguousarray(x.T)
    sq = np.empty(cols.shape)
    best = np.full(len(x), np.inf)
    closer = np.empty(len(x), dtype=bool)
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


def _signatures(obs: SymbolLattice, M: int, w: int) -> SignatureField:
    """Window signatures of obs with M entries (discrete: over M symbols)."""
    return lattice.sweep_signatures(SymbolLattice(obs.shape, obs.values, M, obs.kind), w)


def decode(model: LatticeModel, obs: SymbolLattice, w: int):
    """Signature field and per-node nearest-row state at window radius w."""
    if obs.kind != model.kind:
        raise InputError(f"{model.kind} model needs a {model.kind} lattice")
    if obs.M > model.M or (model.exact_alphabet and obs.M != model.M):
        raise InputError(f"lattice has M={obs.M}, model has M={model.M}")
    if obs.shape.d != model.d:
        raise InputError(f"lattice is {obs.shape.d}-d, model expects {model.d}-d")
    X = _signatures(obs, model.M, w)
    return X, StateLattice(obs.shape, _assign_field(model.rows, X), model.N)


def _pair_score(A: np.ndarray, q: np.ndarray, alpha: float) -> float:
    """Sum over nodes of 1/2 * sum_r [log alpha + log a(q_t,q_r) - log k_t].
    On a lattice of two or more nodes every node has a neighbor."""
    if q.size < 2:
        return 0.0
    with np.errstate(divide="ignore"):
        logA = np.log(A)
    # per node: k_t, sum_r log a(q_t,q_r), and its neighbor count
    k = np.zeros(q.shape)
    sla = np.zeros(q.shape)
    deg = np.zeros(q.shape, dtype=np.int64)
    for lo, hi in axis_pairs(q.ndim):
        qa, qb = q[lo], q[hi]
        k[lo] += A[qa, qb]
        k[hi] += A[qb, qa]
        sla[lo] += logA[qa, qb]
        sla[hi] += logA[qb, qa]
        deg[lo] += 1
        deg[hi] += 1
    if np.any(k <= 0):
        return float("-inf")
    return float(0.5 * (sla.sum() + np.log(alpha) * deg.sum() - (deg * np.log(k)).sum()))


def evaluate(model: LatticeModel, obs: SymbolLattice) -> float:
    """Log-score of obs: decode with w_e, then emission + neighbor terms."""
    _, Q = decode(model, obs, model.w_e)
    return model._log_emission(obs, Q.states) + _pair_score(model.A, Q.states, model.alpha)


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

    fields = [_signatures(lat, M, w_l) for lat in lattices]
    points = np.concatenate([f.flat() for f in fields])
    codebook, _ = vq.pnn_quantize(points, n_states)
    rows = cls._rows_from_codebook(codebook.centroids)
    distinct = len(np.unique(rows, axis=0))
    if distinct < n_states:
        raise NumericError(f"only {distinct} distinct emission rows for {n_states} states: "
                           "too few distinct window signatures")

    counts = np.zeros((n_states, n_states))
    occupied = np.zeros(n_states, dtype=bool)
    states = []
    for f in fields:
        q = _assign_field(rows, f)
        occupied[np.unique(q)] = True
        counts += _adjacency_counts(n_states, q)
        states.append(q)
    A = _normalize_adjacency(counts, occupied)
    return cls(
        N=n_states, M=M, d=d, A=A, **cls._fit(rows, lattices, states),
        w=w_l if w is None else w,
        w_e=w_l if w_e is None else w_e,
        w_l=w_l, alpha=alpha,
    )
