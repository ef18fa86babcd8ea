"""Discrete-symbol variant: parameters <A, B, w> with categorical emissions.

The emission rows are B itself: decoding is nearest-centroid in the
probability simplex, the emission log-term of node t is log b(q_t, o_t), and
learning renormalizes the VQ codebook onto the simplex to get B. The shared
pipeline is in `model`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model as core
from .errors import InputError, NumericError
from .lattice import SymbolLattice, sweep_signatures  # noqa: F401 (benchmark/selftest.py reads it here)


@dataclass(frozen=True)
class DiscreteModel(core.LatticeModel):
    B: np.ndarray = field(repr=False)  # N x M row-stochastic emission matrix

    kind, exact_alphabet = "discrete", False

    @property
    def rows(self) -> np.ndarray:
        return self.B

    def _check_emission(self):
        if self.B.shape != (self.N, self.M) or not np.isfinite(self.B).all() or self.B.min() < 0:
            raise InputError("B must be N x M finite nonnegative")
        if np.abs(self.B.sum(axis=1) - 1.0).max() > 1e-9:
            raise InputError("rows of B must sum to 1")

    @staticmethod
    def _rows_from_codebook(centroids: np.ndarray) -> np.ndarray:
        B = np.clip(centroids, 0.0, None)
        rowsum = B.sum(axis=1)
        if np.any(rowsum <= 0):
            raise NumericError("degenerate VQ centroid with zero mass")
        return B / rowsum[:, None]

    @staticmethod
    def _fit(B, lattices, states) -> dict:
        return {"B": B}

    def _log_emission(self, obs: SymbolLattice, q: np.ndarray) -> float:
        """Sum over (state, symbol) pairs of their node count times log b,
        the pairs counted from codes q_t M + o_t a block of nodes at a time;
        -inf exactly where an observed pair has b = 0."""
        q, o = q.ravel(), obs.values.ravel()
        counts = np.zeros(self.B.size, dtype=np.int64)
        for s in range(0, len(q), core._PAIR_BLOCK_NODES):
            e = s + core._PAIR_BLOCK_NODES
            counts += np.bincount(q[s:e] * self.M + o[s:e], minlength=len(counts))
        seen = np.flatnonzero(counts)
        b = self.B.ravel()[seen]
        if np.any(b <= 0):
            return float("-inf")
        return float((counts[seen] * np.log(b)).sum())


def assign_discrete(model: DiscreteModel, x) -> int:
    """State whose B row is L2-closest to signature x; ties go to lowest index."""
    return core.assign(model, x)


def decode_discrete(model: DiscreteModel, obs: SymbolLattice):
    """Signature field and per-node nearest-emission state, window radius w."""
    return core.decode(model, obs, model.w)


def evaluate_discrete(model: DiscreteModel, obs: SymbolLattice, *, signatures=None) -> float:
    """Log-score of obs: decode with w_e, then emission + neighbor terms;
    `signatures`, when given, is obs's field at w_e (see `model.evaluate`)."""
    return core.evaluate(model, obs, signatures=signatures)


def learn_discrete(obs, w_l: int, n_states: int, *, w=None, w_e=None, alpha=1.0) -> DiscreteModel:
    """Learn <A, B> from one or more lattices: pooled window signatures are
    PNN-quantized to N clusters; B is the codebook (renormalized onto the
    simplex), states are re-assigned by nearest B row, and A accumulates
    neighbor-pair counts (never across lattice boundaries)."""
    return core.learn(DiscreteModel, obs, w_l, n_states, w=w, w_e=w_e, alpha=alpha)
