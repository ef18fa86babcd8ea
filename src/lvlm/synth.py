"""Ground-truth synthesis: Gibbs-sampled state lattices plus emissions.

Sampling uses numpy's PCG64 generator seeded explicitly, so outputs are
reproducible byte-for-byte for a given seed and numpy version. A "sweep" is
one red pass plus one black pass of checkerboard Gibbs updates (nodes of one
parity are conditionally independent given the other parity). Each pass
works only on the nodes of its parity: their log-conditionals are summed
from their neighbors' states in a lattice padded with a sentinel state of
potential 1, and each node draws its new state from one uniform variate by
inverse CDF.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def gibbs_sample(config: SynthConfig) -> StateLattice:
    """Sample a state lattice from the joint prod phi(q_i, q_j) over the
    axis-adjacent pairs, j the node after i along the axis: uniform random
    init, then checkerboard Gibbs sweeps with node conditionals proportional
    to prod phi(s, q_r) over the next neighbors r times prod phi(q_l, s) over
    the previous neighbors l."""
    rng = np.random.default_rng(config.seed)
    lengths = config.shape.lengths
    N = config.N
    states = rng.integers(0, N, size=lengths, dtype=np.int64)
    if N == 1:
        return StateLattice(config.shape, np.zeros(lengths, dtype=np.int64), 1)
    # the border holds sentinel state N, whose potential column is log 1 = 0,
    # so every node's neighbors are at flat index +- one stride per axis
    padded = np.full(tuple(n + 2 for n in lengths), N, dtype=np.intp)
    inner = (slice(1, -1),) * len(lengths)
    padded[inner] = states
    flat = padded.reshape(-1)
    strides = [s // flat.itemsize for s in padded.strides]
    # state-major: row s of `ahead` holds log phi(s, .) for the +stride
    # neighbor, row s of `behind` log phi(., s) for the -stride neighbor
    ahead, behind = np.zeros((N, N + 1)), np.zeros((N, N + 1))
    with np.errstate(divide="ignore"):
        ahead[:, :N] = np.log(config.potentials)
        behind[:, :N] = np.log(config.potentials.T)
    parity = np.indices(lengths).sum(axis=0) % 2
    node = np.arange(flat.size).reshape(padded.shape)[inner]
    colors = [node[parity == color] for color in (0, 1)]
    for _ in range(config.sweeps):
        for idx in colors:
            loglik = np.zeros((N, len(idx)))
            for stride in strides:
                loglik += behind.take(flat[idx - stride], axis=1)
                loglik += ahead.take(flat[idx + stride], axis=1)
            top = loglik.max(axis=0)
            top[top == -np.inf] = 0.0  # every state has potential 0: all weights 0
            p = np.exp(loglik - top)
            for s in range(N - 2, -1, -1):  # p[s] becomes the tail mass p[s] + ... + p[N-1]
                p[s] += p[s + 1]
            # P(draw >= s) = tail[s] / tail[0]; with all weights 0 the draw is state 0
            u = rng.random(len(idx)) * p[0]
            flat[idx] = (p[1:] > u).sum(axis=0)
    return StateLattice(config.shape, padded[inner].astype(np.int64), N)


def emit_observations(states: StateLattice, emission, seed: int = 0) -> SymbolLattice:
    """Draw per-node observations from the state's emission distribution."""
    if emission.N != states.N:
        raise InputError("emission parameters must match the state count")
    rng = np.random.default_rng(seed)
    if isinstance(emission, DiscreteEmission):
        cdf = np.cumsum(emission.B, axis=1)
        u = rng.random(size=states.shape.lengths)
        symbols = np.empty(u.shape, dtype=np.int64)
        for j in range(emission.N):  # symbol: how many of the state's cdf entries lie below u
            mask = states.states == j
            symbols[mask] = np.searchsorted(cdf[j], u[mask], side="left")
        return SymbolLattice.discrete(symbols, M=emission.B.shape[1])
    if isinstance(emission, RealEmission):
        M = emission.mu.shape[1]
        z = rng.standard_normal(size=states.shape.lengths + (M,))
        out = np.empty_like(z)
        for j in range(emission.N):
            L = np.linalg.cholesky(emission.sigma[j])
            mask = states.states == j
            out[mask] = emission.mu[j] + z[mask] @ L.T
        return SymbolLattice.real(out)
    raise InputError(f"unknown emission type {type(emission).__name__}")
