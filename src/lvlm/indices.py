"""Associativity and inertia diagnostics for lattice models.

Associativity = trace(A) / sum(A): 1 when adjacent nodes always share a
state, 0 when never. Inertia = mean over nodes of sqrt(sum_j p_j^2) with p_j
the state-j frequency in the node's clamped w-window: 1 for a constant
window, 1/sqrt(N) when all N states are equally frequent.

Inertia divides the window counts a slab of rows at a time
(`lattice.window_counts`) and sums a slab's squared frequencies channel by
channel in numpy's pairwise order (`model._sum_rows_pairwise`), so it equals
`sqrt(square(sweep_signatures(states, w).signatures).sum(axis=-1)).mean()`
bit for bit.

Advisory applicability thresholds: associativity >= 0.5, inertia >= 0.9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .lattice import StateLattice, _window_cells, count_type, window_counts
from .model import _sum_rows_pairwise

ASSOCIATIVITY_THRESHOLD = 0.5
INERTIA_THRESHOLD = 0.9


@dataclass(frozen=True)
class IndexReport:
    associativity: float | None
    inertia: float | None
    window: int | None
    N: int | None

    def lines(self) -> list[str]:
        out = []
        if self.associativity is not None:
            out.append(f"associativity={self.associativity:.17g}")
            if self.associativity < ASSOCIATIVITY_THRESHOLD:
                out.append(f"warning=associativity below {ASSOCIATIVITY_THRESHOLD}")
        if self.inertia is not None:
            out.append(f"inertia={self.inertia:.17g}")
            out.append(f"inertia_window={self.window}")
            out.append(f"n_states={self.N}")
            if self.inertia < INERTIA_THRESHOLD:
                out.append(f"warning=inertia below {INERTIA_THRESHOLD}")
        return out


def associativity_index(A) -> float:
    """trace(A) / total sum of A."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError("A must be square")
    if A.min() < 0:
        raise InputError("A must be nonnegative")
    total = A.sum()
    if total == 0:
        raise InputError("A must not be all zero")
    return float(np.trace(A) / total)


def inertia_index(states: StateLattice, w: int, *, interior_only: bool = False) -> float:
    """Mean root-sum-of-squared state frequencies over clamped w-windows.

    interior_only restricts the mean to nodes at distance >= w from every
    boundary (whose windows are never clamped), for exact analytic checks.
    """
    if w < 0:
        raise InputError("window radius must be >= 0")
    lengths = states.shape.lengths
    cells = _window_cells(lengths, w)
    vals = np.empty(lengths)
    for top, end, counts in window_counts(states, w, states.M, count_type(lengths, w)):
        freqs = np.divide(counts, cells[top:end])
        np.square(freqs, out=freqs)
        np.sqrt(_sum_rows_pairwise(freqs.reshape(-1, states.M).T), out=vals[top:end].reshape(-1))
    if interior_only:
        sl = tuple(slice(w, n - w) for n in lengths)
        vals = vals[sl]
        if vals.size == 0:
            raise InputError("no interior nodes at this window radius")
    return float(vals.mean())
