"""Ground-truth synthesis: Gibbs-sampled state lattices plus emissions.

Sampling uses numpy's PCG64 generator seeded explicitly, so outputs are
reproducible byte-for-byte for a given seed and numpy version. A "sweep" is
one red pass plus one black pass of checkerboard Gibbs updates (nodes of one
parity are conditionally independent given the other parity). The field is
homogeneous, so a node's conditional depends only on its 2d neighbours'
states. The lattice is padded with a sentinel state of potential 1 so that
every flat stride is odd, and its flat array is held as two contiguous
arrays, the even and the odd indices: a colour is one run of one of them and
each of its neighbours a run of the other. A half-sweep writes its colour as
one run and then resets the sentinel slots of that run. Each node draws its
new state from one uniform variate by inverse CDF; for small N the draw
compares the variate with thresholds tabulated once per call for every
neighbour code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lattice
from .errors import InputError
from .lattice import LatticeShape, StateLattice, SymbolLattice


@dataclass(frozen=True)
class DiscreteEmission:
    B: np.ndarray = field(repr=False)  # N x M row-stochastic

    def __post_init__(self):
        if (self.B.ndim != 2 or not np.isfinite(self.B).all() or self.B.min() < 0
                or np.abs(self.B.sum(1) - 1).max() > 1e-9):
            raise InputError("emission rows must be distributions")

    @property
    def N(self) -> int:
        return len(self.B)


@dataclass(frozen=True)
class RealEmission:
    mu: np.ndarray = field(repr=False)     # N x M
    sigma: np.ndarray = field(repr=False)  # N x M x M

    def __post_init__(self):
        if self.mu.ndim != 2 or self.sigma.shape != self.mu.shape + (self.mu.shape[1],):
            raise InputError("mu must be N x M and sigma N x M x M")
        if not (np.isfinite(self.mu).all() and np.isfinite(self.sigma).all()):
            raise InputError("mu and sigma must be finite")
        if not np.array_equal(self.sigma, self.sigma.transpose(0, 2, 1)):
            raise InputError("covariances must be symmetric")
        try:
            np.linalg.cholesky(self.sigma)
        except np.linalg.LinAlgError as e:
            raise InputError("sigma must be positive definite") from e

    @property
    def N(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class SynthConfig:
    shape: LatticeShape
    N: int
    potentials: np.ndarray = field(repr=False)  # N x N nonnegative, phi(node, next node along an axis)
    emission: DiscreteEmission | RealEmission | None = None
    sweeps: int = 50
    seed: int = 0

    def __post_init__(self):
        phi = self.potentials
        if self.N < 1:
            raise InputError("state count must be >= 1")
        if phi.shape != (self.N, self.N) or not np.isfinite(phi).all() or phi.min() < 0:
            raise InputError("potentials must be N x N finite nonnegative")
        if np.any(phi.sum(axis=1) <= 0):
            raise InputError("potential rows must have positive sums")
        if self.sweeps < 1:
            raise InputError("sweeps must be >= 1")
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        if self.emission is not None and self.emission.N != self.N:
            raise InputError("emission parameters must match N")


def _tail_masses(loglik: np.ndarray) -> np.ndarray:
    """Column-wise conditionals from (N, k) log-weights: row s becomes the mass
    of states s..N-1, scaled so the likeliest state weighs 1 (every weight is 0
    when every state has potential 0)."""
    top = loglik.max(axis=0)
    top[top == -np.inf] = 0.0
    p = np.exp(loglik - top)
    for s in range(len(p) - 2, -1, -1):
        p[s] += p[s + 1]
    return p


def _thresholds(p: np.ndarray) -> np.ndarray:
    """From tail masses p as `_tail_masses` makes them, row s - 1 of the result
    holds per column the least double t with fl(t * p[0]) >= p[s], or 0 where
    p[s] is 0. fl(u * p[0]) does not decrease with u, so for every u >= 0,
    p[s] > fl(u * p[0]) exactly when u < t: the draws compare u with t and
    need no product."""
    total, tail = p[0], p[1:]
    t = np.divide(tail, total, out=np.zeros_like(tail), where=tail > 0)
    # the rounded quotient lies within an ulp or two of the least t
    while (low := t * total < tail).any():
        t[low] = np.nextafter(t[low], 1.0)
    while (high := (tail > 0) & (np.nextafter(t, 0.0) * total >= tail)).any():
        t[high] = np.nextafter(t[high], 0.0)
    return t


def gibbs_sample(config: SynthConfig) -> StateLattice:
    """Sample a state lattice from the joint prod phi(q_i, q_j) over the
    axis-adjacent pairs, j the node after i along the axis: uniform random
    init, then checkerboard Gibbs sweeps with node conditionals proportional
    to prod phi(s, q_r) over the next neighbors r times prod phi(q_l, s) over
    the previous neighbors l.

    The lattice is padded with sentinels so that every stride is odd, and its
    flat array is held as two contiguous arrays, the even and the odd flat
    indices. A colour's slots then lie in one of them and each of its 2d
    neighbours' in the other, all contiguous. A half-sweep writes the colour's
    new states in one run and resets the sentinel slots of that run, found once
    per call. When N (N + 1)^(2d) is at most `lattice.TABLE_ENTRIES`, the
    neighbour states form one base-(N + 1) code, and a table built once per
    call gives each code's N - 1 thresholds on the uniform variate; otherwise
    the log-conditionals are summed per neighbour. Both forms add the same
    log-potentials in the same order, so they draw the same states."""
    rng = np.random.default_rng(config.seed)
    lengths = config.shape.lengths
    N = config.N
    states = rng.integers(0, N, size=lengths, dtype=np.int64)
    if N == 1:
        return StateLattice(config.shape, np.zeros(lengths, dtype=np.int64), 1)
    # a length-1 axis only adds log 1 = 0.0 to each node's conditional
    body = tuple(n for n in lengths if n > 1) or (1,)
    # sentinel state N (potential 1) pads axis 0 by a row on each side and every
    # other axis to an odd length, so the sentinels closing one row also open the
    # next, every stride is odd and a node's colour is the parity of its flat index
    padded = np.full((body[0] + 2,) + tuple(n + 1 + n % 2 for n in body[1:]), N,
                     dtype=np.min_scalar_type(N))
    inner = (slice(1, -1),) + tuple(slice(0, n) for n in body[1:])
    padded[inner] = states.reshape(body)
    flat = padded.reshape(-1)
    strides = [s // flat.itemsize for s in padded.strides]
    offsets = [o for s in strides for o in (-s, s)]
    # flat index i is slot i // 2 of halves[i % 2]; an odd offset o moves slot
    # i // 2 of one half to slot (i + o) // 2 of the other
    halves = [flat[0::2].copy(), flat[1::2].copy()]
    is_node = np.zeros(padded.shape, dtype=bool)
    is_node[inner] = True
    colours = []
    for c in (0, 1):
        # colour c (coordinate sum of parity c) is every other flat index from row 1 on
        start = strides[0] + c
        node = is_node.reshape(-1)[start:strides[0] * (body[0] + 1):2]
        own, other = halves[start % 2], halves[1 - start % 2]
        near = [other[(start + o) // 2:][:len(node)] for o in offsets]  # views, read as they change
        colours.append((node, int(node.sum()), np.flatnonzero(~node), own[start // 2:][:len(node)], near))
    # state-major: row s of `ahead` holds log phi(s, .) for the +stride
    # neighbor, row s of `behind` log phi(., s) for the -stride neighbor
    ahead, behind = np.zeros((N, N + 1)), np.zeros((N, N + 1))
    with np.errstate(divide="ignore"):
        ahead[:, :N] = np.log(config.potentials)
        behind[:, :N] = np.log(config.potentials.T)
    logs = [t for _ in strides for t in (behind, ahead)]
    table = None
    if N * (N + 1) ** len(offsets) <= lattice.TABLE_ENTRIES:
        # column c: the neighbour states read as base-(N + 1) digits, first offset first
        loglik = np.zeros(N)
        for t in logs:
            loglik = loglik[..., None] + t.reshape((N,) + (1,) * (loglik.ndim - 1) + (N + 1,))
        table = _thresholds(_tail_masses(loglik.reshape(N, -1)))
        code_type = np.min_scalar_type(table.shape[1] - 1)
    for _ in range(config.sweeps):
        for node, count, gaps, target, near in colours:
            u = np.zeros(len(node))
            u[node] = rng.random(count)
            if table is None:
                loglik = np.zeros((N, len(node)))
                for t, q in zip(logs, near):
                    loglik += t.take(q, axis=1)
                p = _tail_masses(loglik)
                u *= p[0]
                above = p[1:]
            else:
                code = near[0].astype(code_type)
                for q in near[1:]:
                    code *= N + 1
                    code += q
                above = table.take(code, axis=1)
            # P(draw >= s) = tail[s] / tail[0], so the draw counts the s >= 1 with
            # tail[s] > u tail[0], that is with u below threshold s; with all
            # weights 0 it is state 0
            (above > u).sum(axis=0, dtype=target.dtype, out=target)
            target[gaps] = N  # the run overwrote this colour's sentinels too
    flat[0::2], flat[1::2] = halves
    return StateLattice(config.shape, padded[inner].astype(np.int64).reshape(lengths), N)


def emit_observations(states: StateLattice, emission, seed: int = 0) -> SymbolLattice:
    """Draw per-node observations from the state's emission distribution."""
    if emission.N != states.N:
        raise InputError("emission parameters must match the state count")
    rng = np.random.default_rng(seed)
    q, lengths = states.states.reshape(-1), states.shape.lengths
    if isinstance(emission, DiscreteEmission):
        cdf = np.cumsum(emission.B, axis=1)
        u = rng.random(size=q.size)
        symbols = np.empty(q.size, dtype=np.int64)
        # symbol: how many of the state's cdf entries lie below u, at most its
        # last of positive probability (a row may sum to just under 1); each
        # state's nodes are taken by index, in ascending order
        for j in range(emission.N):
            at = np.flatnonzero(q == j)
            symbols[at] = np.minimum(np.searchsorted(cdf[j], u.take(at), side="left"),
                                     np.flatnonzero(emission.B[j])[-1])
        return SymbolLattice.discrete(symbols.reshape(lengths), M=emission.B.shape[1])
    if isinstance(emission, RealEmission):
        M = emission.mu.shape[1]
        z = rng.standard_normal(size=(q.size, M))
        out = np.empty_like(z)
        for j in range(emission.N):
            L = np.linalg.cholesky(emission.sigma[j])
            at = np.flatnonzero(q == j)
            out[at] = emission.mu[j] + z.take(at, axis=0) @ L.T
        return SymbolLattice.real(out.reshape(lengths + (M,)))
    raise InputError(f"unknown emission type {type(emission).__name__}")
