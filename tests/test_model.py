import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from lvlm import (DiscreteModel, InputError, LatticeShape, RealModel, SymbolLattice, evaluate_discrete, evaluate_real,
                  sweep_signatures)
from lvlm import model
from lvlm.model import _assign_field, _nearest_rows, _sum_rows_pairwise

from oracles import _straightline_pairs, nearest_row

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


@pytest.mark.parametrize("lengths", [(2,), (9,), (5, 7), (4, 3, 6), (1, 5, 1)])
@pytest.mark.parametrize("zeros", [False, True])
def test_pair_score_matches_straightline(lengths, zeros):
    # zeros in A make some pairs score -inf, and a row of zeros a k_t of 0
    rng = np.random.default_rng(len(lengths) * 10 + zeros)
    N = 4
    A = rng.random((N, N))
    if zeros:
        A[0, 1] = A[2] = 0.0
    q = rng.integers(0, N, size=lengths)
    if zeros:
        q[...] = np.where(q == 2, 3, q)  # keep the zero row unoccupied, so some scores stay finite
    for states in (q, np.where(q == 1, 0, q)):
        oracle = SimpleNamespace(A=A, alpha=0.7)
        want = _straightline_pairs(oracle, LatticeShape(lengths), {t: states[t] for t in np.ndindex(*lengths)},
                                   lambda t: 0.0)
        got = model._pair_score(A, states, 0.7)
        assert got == pytest.approx(want, rel=1e-12) if math.isfinite(want) else got == want


@pytest.mark.parametrize("lengths", [(2,), (300,), (13, 17), (1, 40), (40, 1), (6, 5, 7), (3, 1, 9)])
def test_pair_score_in_blocks_bit_equal_to_one_pass(monkeypatch, lengths):
    # blocks of 1, 7 and 20 nodes end mid-row, take part rows of wide rows and
    # split a first-axis pair across two blocks; terms of mixed magnitude, and
    # zeros in A, show any other order of addition
    rng = np.random.default_rng(sum(lengths))
    A = rng.random((5, 5)) * 10.0 ** rng.integers(-6, 6, size=(5, 5))
    A[1, 2] = 0.0
    q = rng.integers(0, 5, size=lengths)
    monkeypatch.setattr(model, "_PAIR_BLOCK_NODES", 1 << 30)
    want = model._pair_score(A, q, 0.3)
    for nodes in (1, 7, 20):
        monkeypatch.setattr(model, "_PAIR_BLOCK_NODES", nodes)
        assert np.float64(model._pair_score(A, q, 0.3)).tobytes() == np.float64(want).tobytes(), nodes


@pytest.mark.parametrize("lengths,w", [((50,), 2), ((9, 11), 1), ((3, 40), 2), ((7, 6, 5), 1), ((4, 3), 5)])
def test_evaluate_bit_equal_to_whole_field(monkeypatch, lengths, w):
    # nearest-row blocks of 6 nodes, so that the field is swept in parts of
    # a row or of a few rows; each equals the score from the whole field
    monkeypatch.setattr(model, "_BLOCK_NODES", 6)
    rng = np.random.default_rng(sum(lengths) + w)
    A = rng.random((3, 3))
    d = SymbolLattice.discrete(rng.integers(0, 4, size=lengths), M=4)
    md = DiscreteModel(N=3, M=4, d=len(lengths), A=A, B=rng.dirichlet(np.ones(4), size=3), w_e=w)
    r = SymbolLattice.real(rng.normal(size=lengths + (2,)))
    mr = RealModel(N=3, M=2, d=len(lengths), A=A, mu=rng.normal(size=(3, 2)),
                   sigma=np.tile(np.eye(2), (3, 1, 1)), w_e=w)
    for evaluate, m, obs in ((evaluate_discrete, md, d), (evaluate_real, mr, r)):
        whole = evaluate(m, obs, signatures=model.evaluation_field(m, obs))
        assert np.float64(evaluate(m, obs)).tobytes() == np.float64(whole).tobytes()


def test_evaluate_memory_below_whole_field():
    # 512² at M = 4: the field (8 MB) is swept a block at a time, never whole
    rng = np.random.default_rng(15)
    obs = SymbolLattice.discrete(rng.integers(0, 4, size=(512, 512)), M=4)
    m = DiscreteModel(N=3, M=4, d=2, A=np.full((3, 3), 1 / 3), B=rng.dirichlet(np.ones(4), size=3), w_e=2)
    _, peak = _traced_peak(lambda: evaluate_discrete(m, obs))
    assert peak < 512 * 512 * 4 * 8


def test_pair_score_zero_row_occupied_is_minus_inf():
    A = np.array([[0.5, 0.5], [0.0, 0.0]])
    assert model._pair_score(A, np.array([[0, 1], [0, 0]]), 1.0) == -np.inf


def test_evaluate_rejects_mismatched_signatures():
    rng = np.random.default_rng(14)
    m = DiscreteModel(N=2, M=3, d=2, A=np.full((2, 2), 0.5), B=np.array([[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]]))
    obs = SymbolLattice.discrete(rng.integers(0, 3, size=(6, 5)), M=3)
    X = sweep_signatures(obs, m.w_e)
    assert evaluate_discrete(m, obs, signatures=X) == evaluate_discrete(m, obs)
    for wrong in (sweep_signatures(SymbolLattice.discrete(obs.values.T, M=3), 1),           # shape
                  sweep_signatures(SymbolLattice.discrete(obs.values, M=4), 1),             # M
                  sweep_signatures(SymbolLattice.discrete(obs.values[:, :4], M=3), 1)):     # nodes
        with pytest.raises(InputError):
            evaluate_discrete(m, obs, signatures=wrong)
