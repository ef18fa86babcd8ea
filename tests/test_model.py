import tracemalloc

import numpy as np
import pytest

from lvlm import SymbolLattice, sweep_signatures
from lvlm import model
from lvlm.model import _assign_field, _nearest_rows, _sum_rows_pairwise

from oracles import nearest_row

STATE_COUNTS = [1, 2, 3, 64, 256]
WIDTHS = [*range(1, 21), 127, 128, 129, 200, 256]


def per_row(rows, x):
    return np.array([nearest_row(rows, t) for t in x], dtype=np.int64)


def test_pairwise_row_sum_bit_equal_to_numpy_sum():
    # each width from below 8 terms through several halvings past 128, on
    # terms of mixed magnitude so that any other order of addition shows
    rng = np.random.default_rng(0)
    for M in [*range(1, 300), 511, 777, 1024]:
        x = rng.normal(size=(37, M)) * 10.0 ** rng.integers(-4, 5, size=(37, M))
        r = rng.normal(size=M)
        want = ((x - r) ** 2).sum(axis=1)
        got = _sum_rows_pairwise(np.ascontiguousarray((x - r).T) ** 2)
        assert got.tobytes() == want.tobytes(), M


@pytest.mark.parametrize("N", STATE_COUNTS)
def test_nearest_rows_match_per_row_argmin(monkeypatch, N):
    # blocks of 5 nodes, so 23 nodes end in a partial block; discrete
    # signatures k/25 and rows drawn among them tie often, in exact and in
    # rounded arithmetic, and a duplicated last row ties with row 0 everywhere
    monkeypatch.setattr(model, "_BLOCK_NODES", 5)
    rng = np.random.default_rng(N)
    for M in WIDTHS:
        for x in (rng.integers(0, 26, size=(23, M)) / 25, rng.normal(size=(23, M))):
            rows = np.concatenate([x[rng.integers(0, 23, size=N // 2)],
                                   rng.integers(0, 26, size=(N - N // 2, M)) / 25])
            rows[-1] = rows[0]
            for u in (23, 1):
                assert np.array_equal(_nearest_rows(rows, x[:u]), per_row(rows, x[:u])), (M, u)


def test_nearest_rows_element_bound_splits_wide_blocks(monkeypatch):
    # an element budget of 64 leaves 3 nodes per block at M = 10
    monkeypatch.setattr(model, "_BLOCK", 64)
    rng = np.random.default_rng(3)
    x = rng.integers(0, 26, size=(20, 10)) / 25
    rows = x[[4, 9, 4, 17]]
    assert np.array_equal(_nearest_rows(rows, x), per_row(rows, x))


def test_nearest_rows_equidistant_points_go_to_lowest_state():
    rows = np.array([[0.0, 0.0], [2.0, 2.0], [0.0, 0.0], [2.0, 0.0]])
    x = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0], [1.0, 0.0], [3.0, 3.0], [2.0, 1.0]])
    assert _nearest_rows(rows, x).tolist() == [0, 0, 1, 0, 1, 1]
    assert np.array_equal(_nearest_rows(rows, x), per_row(rows, x))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assign_field_memory_wide_alphabet():
    # N = M = 256 on 32²: one block of transposed signatures and their squared
    # differences, bounded by the element budget, not by N x M
    rng = np.random.default_rng(12)
    X = sweep_signatures(SymbolLattice.discrete(rng.integers(0, 256, size=(32, 32)), M=256), 1)
    rows = rng.dirichlet(np.ones(256), size=256)
    q, peak = _traced_peak(lambda: _assign_field(rows, X))
    assert peak <= q.nbytes + 1.25 * model._BLOCK * 8


def test_assign_field_memory_large_field():
    # 512² at N = 3, M = 4: the int64 states plus one block, however many nodes
    rng = np.random.default_rng(13)
    X = sweep_signatures(SymbolLattice.discrete(rng.integers(0, 4, size=(512, 512)), M=4), 1)
    rows = rng.dirichlet(np.ones(4), size=3)
    q, peak = _traced_peak(lambda: _assign_field(rows, X))
    assert peak <= 1.25 * q.nbytes + model._BLOCK * 8
    assert np.array_equal(q.ravel()[::997], per_row(rows, X.flat()[::997]))


def test_nearest_rows_where_every_d2_overflows():
    # every d² of the first two nodes overflows; the last node's stays finite
    rows = np.array([[0.0], [1e200], [3e200]])
    x = np.array([[0.9e200], [2.5e200], [1.0]])
    assert _nearest_rows(rows, x).tolist() == [1, 2, 0]
    assert _nearest_rows(rows, x).tolist() == per_row(np.ldexp(rows, -700), np.ldexp(x, -700)).tolist()
