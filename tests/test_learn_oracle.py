"""Learning against the straight-line oracles on random 1-3-D lattices.

Both sides start from the same PNN codebook of the pooled window signatures
(the sweep and the quantizer have oracles of their own in the acceptance
suite); everything after it is recomputed node by node in tests/oracles.py.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from lvlm import NumericError, SymbolLattice, learn_discrete, learn_real, pnn_quantize, sweep_signatures

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
