import math
import tracemalloc
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from lvlm import (DiscreteModel, InputError, LatticeShape, RealModel, SymbolLattice, decode_discrete, evaluate_discrete,
                  evaluate_real, sweep_signatures)
from lvlm import lattice, model
from lvlm.lattice import sweep_blocks
from lvlm.model import _assign_field, _nearest_rows, _sum_rows_pairwise

from oracles import _straightline_pairs, nearest_row, straightline_evaluate_discrete

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


def straightline_pairs(A, alpha, states):
    oracle = SimpleNamespace(A=A, alpha=alpha)
    return _straightline_pairs(oracle, LatticeShape(states.shape), {t: states[t] for t in np.ndindex(*states.shape)},
                               lambda t: 0.0)


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
        want = straightline_pairs(A, 0.7, states)
        got = model._pair_score(A, states, 0.7)
        assert got == pytest.approx(want, rel=1e-12) if math.isfinite(want) else got == want


@pytest.mark.parametrize("lengths", [(1,), (2,), (7,), (1, 1), (1, 6), (5, 1), (4, 6), (1, 1, 1), (3, 1, 4),
                                     (1, 5, 1), (3, 4, 5)])
@pytest.mark.parametrize("zeros", ["none", "unused", "paired", "occupied-row"])
def test_pair_score_both_paths_match_straightline(monkeypatch, lengths, zeros):
    # states 0-2 occupy the lattice, state 3 none of it. "unused": zeros in
    # state 3's row and column only, so the score stays finite; "paired": a
    # zero a(q_t,q_r) of some neighbouring pair; "occupied-row": the row of
    # an occupied state all zeros, so its k_t is 0
    rng = np.random.default_rng(len(lengths) * 100 + sum(lengths))
    A = rng.uniform(0.05, 2.0, size=(4, 4))
    q = rng.integers(0, 3, size=lengths)
    if zeros == "unused":
        A[3] = A[:, 3] = 0.0
    elif zeros == "paired" and q.size > 1:
        flat = q.ravel()
        A[flat[0], flat[1]] = 0.0  # nodes 0 and 1 are neighbours along the last axis longer than one
    elif zeros == "occupied-row":
        A[q.flat[0]] = 0.0
    want = straightline_pairs(A, 0.7, q)
    if zeros == "unused" or q.size == 1:
        assert math.isfinite(want)
    elif zeros != "none":
        assert want == -np.inf
    scores = []
    for bound in (lattice.TABLE_ENTRIES, 0):  # neighbour codes (4 x 7^4 of them at most), then per-node k_t
        monkeypatch.setattr(lattice, "TABLE_ENTRIES", bound)
        scores.append(model._pair_score(A, q, 0.7))
    for got in scores:
        assert got == pytest.approx(want, rel=1e-12) if math.isfinite(want) else got == want


@pytest.mark.parametrize("lengths", [(30,), (9, 11), (4, 5, 3)])
def test_evaluate_past_the_table_bound_matches_straightline(lengths):
    # 40 states: 40 x (2d+1)^40 codes are far past the table bound, so each
    # node's k_t is summed from its neighbours
    rng = np.random.default_rng(len(lengths))
    N, M = 40, 5
    m = DiscreteModel(N=N, M=M, d=len(lengths), A=rng.uniform(0.01, 1.0, size=(N, N)),
                      B=rng.dirichlet(np.ones(M), size=N), w_e=1)
    assert N * (2 * m.d + 1) ** N > lattice.TABLE_ENTRIES
    obs = SymbolLattice.discrete(rng.integers(0, M, size=lengths), M=M)
    got, want = evaluate_discrete(m, obs), straightline_evaluate_discrete(m, obs.values)
    assert math.isfinite(want) and got == pytest.approx(want, rel=1e-12)
    assert len(np.unique(_assign_field(m.B, sweep_signatures(obs, 1)))) > 3


@pytest.mark.parametrize("lengths", [(2,), (300,), (13, 17), (1, 40), (40, 1), (6, 5, 7), (3, 1, 9)])
def test_pair_score_in_blocks_bit_equal_to_one_pass(monkeypatch, lengths):
    # blocks of 1, 7 and 20 nodes end mid-row, take part rows of wide rows and
    # split a first-axis pair across two blocks; terms of mixed magnitude, and
    # zeros in A, show any other order of addition
    rng = np.random.default_rng(sum(lengths))
    A = rng.random((5, 5)) * 10.0 ** rng.integers(-6, 6, size=(5, 5))
    A[1, 2] = 0.0
    q = rng.integers(0, 5, size=lengths)
    for bound in (lattice.TABLE_ENTRIES, 0):  # neighbour codes, then per-node k_t
        monkeypatch.setattr(lattice, "TABLE_ENTRIES", bound)
        monkeypatch.setattr(model, "_PAIR_BLOCK_NODES", 1 << 30)
        want = model._pair_score(A, q, 0.3)
        for nodes in (1, 7, 20):
            monkeypatch.setattr(model, "_PAIR_BLOCK_NODES", nodes)
            got = model._pair_score(A, q, 0.3)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (bound, nodes)


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


@pytest.mark.parametrize("lengths", [(50,), (9, 11), (3, 40), (7, 6, 5)])
def test_evaluate_bit_equal_across_count_blocks(monkeypatch, lengths):
    # the emission's state-symbol counts and the neighbour counts, a block of
    # 1, 5 or 23 nodes (or of whole first-axis rows) at a time, on both paths
    rng = np.random.default_rng(sum(lengths))
    A = rng.random((3, 3)) * 10.0 ** rng.integers(-6, 6, size=(3, 3))
    B = rng.dirichlet(np.ones(4), size=3) * 10.0 ** rng.integers(-6, 1, size=(3, 4))
    md = DiscreteModel(N=3, M=4, d=len(lengths), A=A, B=B / B.sum(axis=1, keepdims=True))
    d = SymbolLattice.discrete(rng.integers(0, 4, size=lengths), M=4)
    mr = RealModel(N=3, M=2, d=len(lengths), A=A, mu=rng.normal(size=(3, 2)), sigma=np.tile(np.eye(2), (3, 1, 1)))
    r = SymbolLattice.real(rng.normal(size=lengths + (2,)))
    for bound in (lattice.TABLE_ENTRIES, 0):
        monkeypatch.setattr(lattice, "TABLE_ENTRIES", bound)
        for evaluate, m, obs in ((evaluate_discrete, md, d), (evaluate_real, mr, r)):
            monkeypatch.setattr(model, "_PAIR_BLOCK_NODES", 1 << 30)
            want = evaluate(m, obs)
            assert math.isfinite(want)
            for nodes in (1, 5, 23):
                monkeypatch.setattr(model, "_PAIR_BLOCK_NODES", nodes)
                assert np.float64(evaluate(m, obs)).tobytes() == np.float64(want).tobytes(), (bound, nodes)


def test_evaluate_memory_below_whole_field():
    # 512² at M = 4: the field (8 MB) is swept a block at a time, never whole
    rng = np.random.default_rng(15)
    obs = SymbolLattice.discrete(rng.integers(0, 4, size=(512, 512)), M=4)
    m = DiscreteModel(N=3, M=4, d=2, A=np.full((3, 3), 1 / 3), B=rng.dirichlet(np.ones(4), size=3), w_e=2)
    _, peak = _traced_peak(lambda: evaluate_discrete(m, obs))
    assert peak < 512 * 512 * 4 * 8


@pytest.mark.parametrize("lengths", [(512, 512), (64, 64, 64)])
def test_pair_score_memory_is_a_block(lengths):
    # a block of rows at a time: its int64 neighbour codes (which bincount
    # takes as they are) and its int32 padded buffer, each below glibc's
    # least mmap threshold, and numpy's transient copies of them; nothing of
    # the lattice's size (2 MB of states here; whole-lattice float terms
    # peaked at 4.9 MB)
    q = np.random.default_rng(16).integers(0, 3, size=lengths)
    A = np.full((3, 3), 1 / 3)
    _, peak = _traced_peak(lambda: model._pair_score(A, q, 1.0))
    assert peak < 4 * 128 * 1024


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


@st.composite
def coded_cases(draw):
    """A discrete model and lattice: 1-3 axes of 1-6, a radius from 0 to past
    the axis lengths, up to 5 symbols (the lattice's no more than the
    model's), and a last emission row equal to the first, so ties occur."""
    lengths = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    M, w, N = draw(st.integers(1, 5)), draw(st.integers(0, 8)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    obs = SymbolLattice.discrete(rng.integers(0, draw(st.integers(1, M)), size=lengths), M=None)
    B = rng.dirichlet(np.ones(M), size=N)
    B[-1] = B[0]
    m = DiscreteModel(N=N, M=M, d=len(lengths), A=rng.random((N, N)), B=B, w=w, w_e=w)
    return m, obs


@given(coded_cases())
@settings(max_examples=300, deadline=None)
def test_discrete_decode_and_evaluate_bit_equal_to_field_path(case):
    # from window codes where they fit, else from the field; and the codes
    # themselves wherever their table fits TABLE_ENTRIES, though these small
    # lattices' fields are mostly smaller than it
    m, obs = case
    X = sweep_signatures(SymbolLattice(obs.shape, obs.values, m.M, "discrete"), m.w)
    q = _assign_field(m.B, X)
    got_X, got_q = decode_discrete(m, obs)
    assert got_X.signatures.tobytes() == X.signatures.tobytes()
    assert got_q.states.dtype == np.int64 and got_q.states.tobytes() == q.tobytes()
    want = evaluate_discrete(m, obs, signatures=X)
    assert np.float64(evaluate_discrete(m, obs)).tobytes() == np.float64(want).tobytes()
    code = lattice.WindowCode(m.w, m.M, np.unique(lattice._span_products(obs.shape.lengths, m.w)))
    if code.entries <= lattice.TABLE_ENTRIES:
        coded_X = np.empty_like(X.signatures)
        coded_q = model._code_states(m.B, code, code.codes(obs, coded_X))
        assert coded_X.tobytes() == X.signatures.tobytes()
        assert coded_q.dtype == np.int64 and coded_q.tobytes() == q.tobytes()


@pytest.mark.parametrize("lengths,M,w", [
    ((9, 11), 8, 1),    # 3 window sizes x 9^7 codes pass TABLE_ENTRIES
    ((64, 64), 4, 2),   # 105,456 codes pass the field's 64 * 64 * 4 values
])
def test_discrete_past_the_code_bound_takes_the_field_path(monkeypatch, lengths, M, w):
    rng = np.random.default_rng(17)
    obs = SymbolLattice.discrete(rng.integers(0, M, size=lengths), M=M)
    m = DiscreteModel(N=3, M=M, d=2, A=rng.random((3, 3)), B=rng.dirichlet(np.ones(M), size=3), w=w, w_e=w)
    assert lattice.WindowCode.fitting(obs.shape, w, M) is None
    swept = []
    monkeypatch.setattr(lattice, "sweep_blocks", lambda *a: swept.append(a) or sweep_blocks(*a))
    X = sweep_signatures(obs, w)
    assert evaluate_discrete(m, obs) == evaluate_discrete(m, obs, signatures=X) and swept
    got_X, got_q = decode_discrete(m, obs)
    assert got_X.signatures.tobytes() == X.signatures.tobytes()
    assert got_q.states.tobytes() == _assign_field(m.B, X).tobytes()


def test_discrete_evaluate_searches_each_distinct_window_once(monkeypatch):
    # 256², M = 4, w = 2: the search sees one row per distinct count vector
    rng = np.random.default_rng(18)
    values = np.kron(rng.integers(0, 3, size=(16, 16)), np.ones((16, 16), dtype=np.int64))
    values = np.where(rng.random(values.shape) < 0.7, values, rng.integers(0, 4, size=values.shape))
    obs = SymbolLattice.discrete(values, M=4)
    assert lattice.WindowCode.fitting(obs.shape, 2, 4).entries == 105_456
    m = DiscreteModel(N=3, M=4, d=2, A=np.full((3, 3), 1 / 3), B=rng.dirichlet(np.ones(4), size=3), w_e=2)
    counts = np.concatenate([c.reshape(-1, 4) for _, _, c in lattice.window_counts(obs, 2, 4, np.uint8)])
    seen = []
    monkeypatch.setattr(model, "_nearest_rows", lambda rows, x: seen.append(x) or _nearest_rows(rows, x))
    score = evaluate_discrete(m, obs)
    assert [len(x) for x in seen] == [len(np.unique(counts, axis=0))]
    assert len(seen[0]) < obs.shape.node_count / 10
    field = sweep_signatures(obs, 2).flat()
    assert np.array_equal(np.unique(seen[0], axis=0), np.unique(field, axis=0))
    monkeypatch.setattr(model, "_nearest_rows", _nearest_rows)
    assert score == evaluate_discrete(m, obs, signatures=sweep_signatures(obs, 2))


def test_discrete_evaluate_many_states_scores_wide_codes():
    # N = 100 states of M = 4: a state-symbol code q M + o passes 255, which a
    # state table narrower than int64 would wrap
    rng = np.random.default_rng(19)
    obs = SymbolLattice.discrete(rng.integers(0, 4, size=(40, 40)), M=4)
    m = DiscreteModel(N=100, M=4, d=2, A=rng.uniform(0.1, 1.0, size=(100, 100)),
                      B=rng.dirichlet(np.ones(4), size=100))
    X = sweep_signatures(obs, 1)
    assert lattice.WindowCode.fitting(obs.shape, 1, 4) is not None
    assert _assign_field(m.B, X).max() * 4 >= 256
    want = evaluate_discrete(m, obs, signatures=X)
    assert math.isfinite(want) and np.float64(evaluate_discrete(m, obs)).tobytes() == np.float64(want).tobytes()
    assert decode_discrete(m, obs)[1].states.tobytes() == _assign_field(m.B, X).tobytes()


def test_decode_rejects_a_negative_radius():
    obs = SymbolLattice.discrete(np.zeros((4, 4), dtype=int), M=2)
    m = DiscreteModel(N=1, M=2, d=2, A=np.ones((1, 1)), B=np.full((1, 2), 0.5))
    with pytest.raises(InputError, match="window radius"):
        model.decode(m, obs, -3)
