"""The lattice model both variants share: parameter checks, nearest-row
assignment, decoding, evaluation, and learning.

Decoding gives each node the state whose emission row is L2-closest to the
node's window signature. Evaluation scores a lattice as the sum over nodes of
log p(o_t | q_t) + 1/2 * sum_r [log alpha + log a(q_t,q_r) - log k_t], with
k_t = sum_r a(q_t,q_r). Learning PNN-quantizes the pooled window signatures
into N emission rows, re-assigns every node to its nearest row, and
row-normalizes the neighbor-pair counts into A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# the sweep and the quantizer are looked up on their modules at call time, so
# that wrappers installed there (tracing, profiling) see every call
from . import lattice, vq
from .errors import InputError, NumericError
from .lattice import SignatureField, StateLattice, SymbolLattice, axis_pairs

_ASSIGN_CHUNK = 8192


@dataclass(frozen=True)
class LatticeModel:
    """<A, emission, w>. A variant declares its emission fields, then w, w_e,
    w_l, alpha, and supplies `kind` (of its observations), `exact_alphabet`
    (observations need exactly M entries), `rows` (the N x M rows decoding
    assigns to), `_check_emission()`, `_rows_from_codebook(centroids)`,
    `_fit(rows, lattices, states)` (learned emission fields) and
    `_log_emission(obs, q)` (sum over nodes of log p(o_t | q_t))."""

    N: int
    M: int
    d: int
    A: np.ndarray = field(repr=False)  # N x N nonnegative state adjacency potential

    def __post_init__(self):
        if self.N < 1 or self.M < 1 or self.d < 1:
            raise InputError("N, M, d must be >= 1")
        if min(self.w, self.w_e, self.w_l) < 0:
            raise InputError("window radii must be >= 0")
        if not 0.0 < self.alpha <= 1.0:
            raise InputError("alpha must lie in (0, 1]")
        if self.A.shape != (self.N, self.N) or self.A.min() < 0:
            raise InputError("A must be N x N nonnegative")
        self._check_emission()


def assign(model: LatticeModel, x) -> int:
    """State whose emission row is L2-closest to signature x; ties go to lowest index."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.M,):
        raise InputError(f"signature has {x.shape} entries, model expects {model.M}")
    d2 = ((x - model.rows) ** 2).sum(axis=1)
    return int(np.argmin(d2))


def _assign_field(rows: np.ndarray, X: SignatureField) -> np.ndarray:
    """Vectorized nearest-row assignment; same arithmetic as the scalar assign."""
    flat = X.flat()
    out = np.empty(len(flat), dtype=np.int64)
    for s in range(0, len(flat), _ASSIGN_CHUNK):
        chunk = flat[s:s + _ASSIGN_CHUNK]
        d2 = ((chunk[:, None, :] - rows[None, :, :]) ** 2).sum(axis=2)
        out[s:s + _ASSIGN_CHUNK] = np.argmin(d2, axis=1)
    return out.reshape(X.shape.lengths)


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


def _neighbor_terms(A: np.ndarray, q: np.ndarray, d: int):
    """Per-node sums over lattice neighbors: k_t, sum_r log a(q_t,q_r), degree."""
    k = np.zeros(q.shape)
    with np.errstate(divide="ignore"):
        logA = np.log(A)
    sla = np.zeros(q.shape)
    deg = np.zeros(q.shape, dtype=np.int64)
    for lo, hi in axis_pairs(d):
        qa, qb = q[lo], q[hi]
        k[lo] += A[qa, qb]
        k[hi] += A[qb, qa]
        sla[lo] += logA[qa, qb]
        sla[hi] += logA[qb, qa]
        deg[lo] += 1
        deg[hi] += 1
    return k, sla, deg


def _pair_score(k, sla, deg, alpha):
    has = deg > 0
    if np.any(k[has] <= 0):
        return float("-inf")
    with np.errstate(divide="ignore"):
        logk = np.where(has, np.log(np.where(has, k, 1.0)), 0.0)
    val = 0.5 * (sla.sum() + np.log(alpha) * deg.sum() - (deg * logk).sum())
    return float(val)


def evaluate(model: LatticeModel, obs: SymbolLattice) -> float:
    """Log-score of obs: decode with w_e, then emission + neighbor terms."""
    _, Q = decode(model, obs, model.w_e)
    emission = model._log_emission(obs, Q.states)
    k, sla, deg = _neighbor_terms(model.A, Q.states, model.d)
    return emission + _pair_score(k, sla, deg, model.alpha)


def _adjacency_counts(N: int, q: np.ndarray, d: int) -> np.ndarray:
    counts = np.zeros((N, N), dtype=np.float64)
    for lo, hi in axis_pairs(d):
        qa, qb = q[lo].ravel(), q[hi].ravel()
        np.add.at(counts, (qa, qb), 1.0)
        np.add.at(counts, (qb, qa), 1.0)
    return counts


def _normalize_adjacency(counts: np.ndarray, occupied: np.ndarray) -> np.ndarray:
    """Row-normalize by actual neighbor-pair counts; occupied isolated states
    (possible only on single-node lattices) fall back to a uniform row."""
    N = len(counts)
    if not occupied.all():
        missing = np.flatnonzero(~occupied)
        raise NumericError(f"states {missing.tolist()} have no assigned nodes", state=int(missing[0]))
    A = counts.copy()
    rowsum = A.sum(axis=1)
    for j in range(N):
        if rowsum[j] > 0:
            A[j] /= rowsum[j]
        else:
            A[j] = 1.0 / N
    return A


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

    counts = np.zeros((n_states, n_states))
    occupied = np.zeros(n_states, dtype=bool)
    states = []
    for f in fields:
        q = _assign_field(rows, f)
        occupied[np.unique(q)] = True
        counts += _adjacency_counts(n_states, q, d)
        states.append(q)
    A = _normalize_adjacency(counts, occupied)
    return cls(
        N=n_states, M=M, d=d, A=A, **cls._fit(rows, lattices, states),
        w=w_l if w is None else w,
        w_e=w_l if w_e is None else w_e,
        w_l=w_l, alpha=alpha,
    )
