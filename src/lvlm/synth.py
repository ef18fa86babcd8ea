"""Ground-truth synthesis: Gibbs-sampled state lattices plus emissions.

Sampling uses numpy's PCG64 generator seeded explicitly, so outputs are
reproducible byte-for-byte for a given seed and numpy version. A "sweep" is
one red pass plus one black pass of checkerboard Gibbs updates (nodes of one
parity are conditionally independent given the other parity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .lattice import LatticeShape, StateLattice, SymbolLattice, axis_pairs


@dataclass(frozen=True)
class DiscreteEmission:
    B: np.ndarray = field(repr=False)  # N x M row-stochastic

    def __post_init__(self):
        if self.B.ndim != 2 or self.B.min() < 0 or np.abs(self.B.sum(1) - 1).max() > 1e-9:
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

    @property
    def N(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class SynthConfig:
    shape: LatticeShape
    N: int
    potentials: np.ndarray = field(repr=False)  # N x N nonnegative
    emission: DiscreteEmission | RealEmission | None = None
    sweeps: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.potentials.shape != (self.N, self.N) or self.potentials.min() < 0:
            raise InputError("potentials must be N x N nonnegative")
        if np.any(self.potentials.sum(axis=1) <= 0):
            raise InputError("potential rows must have positive sums")
        if self.sweeps < 1:
            raise InputError("sweeps must be >= 1")
        if self.emission is not None and self.emission.N != self.N:
            raise InputError("emission parameters must match N")


def gibbs_sample(config: SynthConfig) -> StateLattice:
    """Sample a state lattice: uniform random init, then checkerboard Gibbs
    sweeps with node conditionals proportional to prod_r phi(s, q_r)."""
    rng = np.random.default_rng(config.seed)
    lengths = config.shape.lengths
    N = config.N
    states = rng.integers(0, N, size=lengths, dtype=np.int64)
    if N == 1:
        return StateLattice(config.shape, np.zeros(lengths, dtype=np.int64), 1)
    with np.errstate(divide="ignore"):
        logphi = np.log(config.potentials)
    parity = np.zeros(lengths, dtype=np.int64)
    for axis, n in enumerate(lengths):
        idx = np.arange(n).reshape((1,) * axis + (n,) + (1,) * (len(lengths) - axis - 1))
        parity = parity + idx
    parity %= 2
    pairs = axis_pairs(len(lengths))
    for _ in range(config.sweeps):
        for color in (0, 1):
            loglik = np.zeros(lengths + (N,))
            for lo, hi in pairs:
                # contribution to each node from its neighbor's current state
                loglik[lo] += logphi.T[states[hi]]
                loglik[hi] += logphi.T[states[lo]]
            gumbel = rng.gumbel(size=lengths + (N,))
            draw = np.argmax(loglik + gumbel, axis=-1)
            mask = parity == color
            states[mask] = draw[mask]
    return StateLattice(config.shape, states, N)


def emit_observations(states: StateLattice, emission, seed: int = 0) -> SymbolLattice:
    """Draw per-node observations from the state's emission distribution."""
    if emission.N != states.N:
        raise InputError("emission parameters must match the state count")
    rng = np.random.default_rng(seed)
    if isinstance(emission, DiscreteEmission):
        cdf = np.cumsum(emission.B, axis=1)
        u = rng.random(size=states.shape.lengths)
        symbols = (u[..., None] > cdf[states.states]).sum(axis=-1)
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
