"""Learning against the straight-line oracles on random 1-3-D lattices.

Both sides start from the same PNN codebook of the pooled window signatures
(the sweep and the quantizer have oracles of their own in the acceptance
suite); everything after it is recomputed node by node in tests/oracles.py.
Discrete learning, which quantizes each distinct window once, is also held
bit-equal to quantizing the whole pooled float field.
"""

import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from lvlm import (DiscreteModel, NumericError, SymbolLattice, learn_discrete, learn_real, model, pnn_quantize,
                  sweep_signatures)

from oracles import straightline_learn_discrete, straightline_learn_real

TOL = 1e-12

params = dict(d=st.integers(1, 3), count=st.integers(1, 2), N=st.integers(1, 3),
              w_l=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))


def _lengths(rng, d):
    return tuple(int(n) for n in rng.integers(1, 6 if d < 3 else 4, size=d))


def _codebook(lattices, M, w_l, N):
    fields = [sweep_signatures(SymbolLattice(lat.shape, lat.values, M, lat.kind), w_l) for lat in lattices]
    codebook, _ = pnn_quantize(np.concatenate([f.flat() for f in fields]), N)
    return codebook.centroids


@settings(max_examples=100, deadline=None)
@given(M=st.integers(2, 4), **params)
def test_learn_discrete_matches_straightline(d, count, N, M, w_l, seed):
    rng = np.random.default_rng(seed)
    lattices = [SymbolLattice.discrete(rng.integers(0, m, size=_lengths(rng, d)), M=m)
                for m in [M] + [int(rng.integers(1, M + 1)) for _ in range(count - 1)]]
    assume(sum(lat.shape.node_count for lat in lattices) >= N)
    want = straightline_learn_discrete([lat.values for lat in lattices], M, w_l,
                                       _codebook(lattices, M, w_l, N))
    if want is None:
        with pytest.raises(NumericError):
            learn_discrete(lattices, w_l, N)
        return
    model = learn_discrete(lattices, w_l, N)
    A, B = want
    assert np.abs(model.A - A).max() <= TOL
    assert np.abs(model.B - B).max() <= TOL


@settings(max_examples=100, deadline=None)
@given(M=st.integers(1, 3), **params)
def test_learn_real_matches_straightline(d, count, N, M, w_l, seed):
    rng = np.random.default_rng(seed)
    lattices = [SymbolLattice.real(rng.normal(size=_lengths(rng, d) + (M,)) + rng.integers(0, 2) * 3.0)
                for _ in range(count)]
    assume(sum(lat.shape.node_count for lat in lattices) >= N)
    want = straightline_learn_real([lat.values for lat in lattices], w_l, _codebook(lattices, M, w_l, N))
    if want is None:
        with pytest.raises(NumericError):
            learn_real(lattices, w_l, N)
        return
    model = learn_real(lattices, w_l, N)
    A, mu, sigma = want
    assert np.abs(model.A - A).max() <= TOL
    assert np.abs(model.mu - mu).max() <= TOL
    assert np.abs(model.sigma - sigma).max() <= TOL


def _float_field_learn_discrete(lattices, w_l, N):
    """(A, B) learned from the pooled float signature field: every node's
    signature swept whole, PNN over all of them, and every node assigned
    to its nearest B row; raises NumericError as learning does."""
    M = max(lat.M for lat in lattices)
    fields = [sweep_signatures(SymbolLattice(lat.shape, lat.values, M, lat.kind), w_l).flat() for lat in lattices]
    codebook, _ = pnn_quantize(np.concatenate(fields), N)
    B = DiscreteModel._rows_from_codebook(codebook.centroids)
    distinct = len(np.unique(B, axis=0))
    if distinct < N:
        raise NumericError(f"only {distinct} distinct emission rows for {N} states: "
                           "too few distinct window signatures")
    counts, occupied = np.zeros((N, N)), np.zeros(N, dtype=bool)
    for lat, field in zip(lattices, fields):
        q = model._nearest_rows(B, field).reshape(lat.shape.lengths)
        occupied[np.unique(q)] = True
        counts += model._adjacency_counts(N, q)
    return model._normalize_adjacency(counts, occupied), B


def _assert_learns_as_float_field(lattices, w_l, N):
    try:
        A, B = _float_field_learn_discrete(lattices, w_l, N)
    except NumericError as e:
        with pytest.raises(NumericError, match=f"^{re.escape(str(e))}$"):
            learn_discrete(lattices, w_l, N)
        return
    learned = learn_discrete(lattices, w_l, N)
    assert learned.A.tobytes() == A.tobytes() and learned.B.tobytes() == B.tobytes()


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 3), w_l=st.integers(0, 3), M=st.integers(1, 300), count=st.integers(1, 2),
       N=st.integers(1, 4), used=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_distinct_window_learning_bit_equal_to_float_field(d, w_l, M, count, N, used, seed):
    # few symbols in use, so that windows repeat and distinct counts often
    # share a signature; 3-D lattices up to 8 long hold windows of up to
    # 7^3 = 343 cells at w = 3; pooled lattices may have fewer symbols
    rng = np.random.default_rng(seed)
    lattices = []
    for m in [M] + [int(rng.integers(1, M + 1)) for _ in range(count - 1)]:
        symbols = rng.choice(m, size=min(used, m), replace=False)
        lengths = tuple(int(n) for n in rng.integers(1, 9 if d == 3 else 13, size=d))
        lattices.append(SymbolLattice.discrete(symbols[rng.integers(0, len(symbols), size=lengths)], M=m))
    assume(sum(lat.shape.node_count for lat in lattices) >= N)
    _assert_learns_as_float_field(lattices, w_l, N)


def _checkerboard(n):
    return np.indices((n, n)).sum(axis=0) % 2


# (lattices, w_l, N): windows whose counts differ but whose signatures are
# equal; windows of more than 255 cells, counted in uint16; pooled lattices
# of unequal M
EDGE_CASES = {
    # corners (2, 2) and edges (3, 3) both read [1/2, 1/2]; inner windows (5, 4) and (4, 5)
    "checkerboard": ([SymbolLattice.discrete(_checkerboard(6), M=2)], 1, 3),
    "checkerboard-w2": ([SymbolLattice.discrete(_checkerboard(9), M=3)], 2, 4),
    # edge windows of 6 in 15 cells and inner ones of 10 in 25 share a signature
    "stripes": ([SymbolLattice.discrete(np.tile([0, 0, 1, 1, 1], (7, 3)), M=2)], 2, 3),
    "343-cells": ([SymbolLattice.discrete(np.random.default_rng(0).integers(0, 3, size=(9, 8, 7)), M=3)], 3, 3),
    "pooled-M": ([SymbolLattice.discrete(_checkerboard(7), M=2),
                  SymbolLattice.discrete(np.random.default_rng(1).integers(0, 5, size=(5, 6)), M=5)], 1, 4),
}


@pytest.mark.parametrize("lattices, w_l, N", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_distinct_window_learning_edge_cases_bit_equal_to_float_field(lattices, w_l, N):
    _assert_learns_as_float_field(lattices, w_l, N)


def test_checkerboard_counts_outnumber_its_signatures():
    # the case above is one where the weighted start must merge equal signatures
    points, weights, inverse = model._distinct_windows(EDGE_CASES["checkerboard"][0], 2, 1)
    assert len(points) == 4 and len(np.unique(points, axis=0)) == 3
    assert weights.sum() == 36 and np.array_equal(np.bincount(inverse), weights)


@pytest.mark.parametrize("N", [2, 3, 4, 9])
def test_fewer_distinct_windows_than_states_is_numeric_error(N):
    # a constant lattice has 3 distinct window counts at w = 1 (corner, edge,
    # inner) and one signature, so learning fails whether or not it quantizes
    obs = SymbolLattice.discrete(np.zeros((6, 6), dtype=int), M=2)
    with pytest.raises(NumericError, match=f"^only 1 distinct emission rows for {N} states: "):
        learn_discrete(obs, 1, N)
