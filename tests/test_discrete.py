import math
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from lvlm import (
    DiscreteModel,
    InputError,
    NumericError,
    SymbolLattice,
    assign_discrete,
    decode_discrete,
    evaluate_discrete,
    learn_discrete,
    sweep_signatures,
)

from oracles import straightline_evaluate_discrete

B2 = np.array([[0.8, 0.2], [0.2, 0.8]])


def model2(A=None, **kw):
    A = np.array([[1.0, 0.1], [0.1, 1.0]]) if A is None else A
    return DiscreteModel(N=2, M=2, d=kw.pop("d", 1), A=A, B=kw.pop("B", B2), **kw)


def test_assign_exact_row():
    m = model2()
    assert assign_discrete(m, B2[1]) == 1


def test_assign_nearest_row():
    assert assign_discrete(model2(), [0.9, 0.1]) == 0


def test_assign_tie_lowest_index():
    m = model2(B=np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert assign_discrete(m, [0.5, 0.5]) == 0


def test_assign_dimension_mismatch():
    with pytest.raises(InputError):
        assign_discrete(model2(), [0.5, 0.25, 0.25])


def test_decode_constant_lattice():
    m = model2(d=2)
    obs = SymbolLattice.discrete(np.zeros((5, 5), dtype=int), M=2)
    _, q = decode_discrete(m, obs)
    assert (q.states == 0).all()


def test_decode_1d_halves():
    m = model2(w=1)
    obs = SymbolLattice.discrete(np.array([0, 0, 0, 0, 1, 1, 1, 1]), M=2)
    _, q = decode_discrete(m, obs)
    assert list(q.states) == [0, 0, 0, 0, 1, 1, 1, 1]


def test_decode_checkerboard_signatures():
    m = model2(d=2, w=1)
    obs = SymbolLattice.discrete(np.indices((8, 8)).sum(axis=0) % 2, M=2)
    X, q = decode_discrete(m, obs)
    interior = X.signatures[1:-1, 1:-1]
    assert np.all(np.isin(interior, [4 / 9, 5 / 9]))
    # decoded per nearest row: majority symbol wins
    assert np.array_equal(q.states[1:-1, 1:-1], np.argmax(interior, axis=-1))


def test_evaluate_single_neighbor_reduces_to_iid():
    # with exactly one neighbor per node, k = a so the pair term vanishes
    m = DiscreteModel(N=1, M=2, d=1, A=np.array([[1.0]]), B=np.array([[0.7, 0.3]]))
    obs = SymbolLattice.discrete(np.array([0, 1]), M=2)
    assert evaluate_discrete(m, obs) == pytest.approx(math.log(0.7) + math.log(0.3))


def test_evaluate_matches_straightline_tiny():
    rng = np.random.default_rng(0)
    A = rng.uniform(0.1, 1.0, (2, 2))
    m = model2(A=A, w=1, w_e=1)
    obs = SymbolLattice.discrete(np.array([0, 1]), M=2)
    assert evaluate_discrete(m, obs) == pytest.approx(straightline_evaluate_discrete(m, obs.values), abs=1e-9)


def test_alpha_shifts_score_by_closed_form():
    obs = SymbolLattice.discrete(np.random.default_rng(1).integers(0, 2, (6, 6)), M=2)
    m1 = model2(d=2, alpha=1.0)
    m5 = model2(d=2, alpha=0.5)
    degrees = 2 * (2 * 6 * 5)  # directed neighbor pairs in a 6x6 grid
    shift = 0.5 * math.log(0.5) * degrees
    assert evaluate_discrete(m5, obs) - evaluate_discrete(m1, obs) == pytest.approx(shift, abs=1e-9)


def test_evaluate_zero_emission_is_neg_inf():
    # mixed window signatures tie onto state 0, whose row gives b(0, 1) = 0
    m = model2(B=np.array([[1.0, 0.0], [0.0, 1.0]]), w=1, w_e=1)
    obs = SymbolLattice.discrete(np.array([0, 1]), M=2)
    assert evaluate_discrete(m, obs) == float("-inf")


@pytest.mark.filterwarnings("error::RuntimeWarning")  # -inf from the rule, not from log(0)
@pytest.mark.parametrize("seed", range(12))
def test_log_emission_minus_inf_exactly_where_an_observed_pair_has_b_zero(seed):
    # zeros in B at random places: the term is -inf exactly when some node's
    # (state, symbol) lands on one, and otherwise the per-node sum of log b
    rng = np.random.default_rng(seed)
    B = rng.dirichlet(np.ones(5), size=4) * (rng.random((4, 5)) < 0.9)
    B[:, 0] += 0.01
    B /= B.sum(axis=1, keepdims=True)
    m = DiscreteModel(N=4, M=5, d=2, A=np.full((4, 4), 0.25), B=B)
    q = rng.integers(0, 4, size=(6, 7))
    obs = SymbolLattice.discrete(rng.integers(0, 5, size=(6, 7)), M=5)
    b = B[q, obs.values]
    got = m._log_emission(obs, q)
    if (b == 0).any():
        assert got == float("-inf")
    else:
        assert got == pytest.approx(math.fsum(np.log(b).ravel()), rel=1e-12)


def test_evaluate_zero_emission_no_node_uses_stays_finite():
    # symbol 3 of a 4-symbol model has b = 0 in every state, and the 3-symbol
    # lattice never shows it: the score is finite and equals the oracle's
    rng = np.random.default_rng(7)
    B = rng.dirichlet(np.ones(4), size=3)
    B[:, 3] = 0.0
    B /= B.sum(axis=1, keepdims=True)
    m = DiscreteModel(N=3, M=4, d=2, A=rng.uniform(0.1, 1.0, size=(3, 3)), B=B, w_e=1)
    obs = SymbolLattice.discrete(rng.integers(0, 3, size=(8, 9)), M=3)
    got, want = evaluate_discrete(m, obs), straightline_evaluate_discrete(m, obs.values)
    assert math.isfinite(want) and got == pytest.approx(want, rel=1e-12)


def test_learn_constant_lattice():
    obs = SymbolLattice.discrete(np.ones((6, 6), dtype=int), M=2)
    m = learn_discrete(obs, 1, 1)
    assert np.allclose(m.B, [[0.0, 1.0]])
    assert np.array_equal(m.A, [[1.0]])


def test_learn_too_few_distinct_signatures():
    obs = SymbolLattice.discrete(np.ones((6, 6), dtype=int), M=2)
    with pytest.raises(NumericError, match="^only 1 distinct emission rows for 2 states: "
                                           "too few distinct window signatures$"):
        learn_discrete(obs, 1, 2)


def test_learn_two_halves():
    rng = np.random.default_rng(5)
    half = rng.random((32, 16))
    obs = SymbolLattice.discrete(np.hstack([(half < 0.2).astype(int), (half > 0.2).astype(int)]), M=2)
    m = learn_discrete(obs, 2, 2)
    p = obs.values[:, :16].mean()  # per-half empirical symbol-1 frequency
    rows = sorted(m.B.tolist())
    assert np.linalg.norm(np.array(rows[0]) - [p, 1 - p]) < 0.05
    assert np.linalg.norm(np.array(rows[1]) - [1 - p, p]) < 0.05
    assert m.A[0, 0] > 0.9 and m.A[1, 1] > 0.9


def test_learn_rejects_too_many_states():
    with pytest.raises(InputError):
        learn_discrete(SymbolLattice.discrete(np.array([0, 1]), M=2), 1, 3)


def test_learn_decode_round_trip_exact():
    rng = np.random.default_rng(9)
    obs = SymbolLattice.discrete(rng.integers(0, 3, (12, 12)), M=3)
    from lvlm import sweep_signatures
    from lvlm.model import _assign_field

    m = learn_discrete(obs, 1, 3)
    X = sweep_signatures(obs, 1)

    internal_q = _assign_field(m.B, X)
    _, q = decode_discrete(m, obs)
    assert np.array_equal(q.states, internal_q)


def test_decode_permutation_covariant():
    rng = np.random.default_rng(2)
    obs = SymbolLattice.discrete(rng.integers(0, 2, (10, 10)), M=2)
    A = np.array([[1.0, 0.2], [0.2, 1.0]])
    m = model2(A=A, d=2)
    mp = DiscreteModel(N=2, M=2, d=2, A=A, B=B2[::-1].copy())
    X, q = decode_discrete(m, obs)
    _, qp = decode_discrete(mp, obs)
    # covariance holds wherever the signature is not equidistant from B's rows
    d2 = ((X.signatures[..., None, :] - B2) ** 2).sum(-1)
    untied = d2[..., 0] != d2[..., 1]
    assert np.array_equal(qp.states[untied], 1 - q.states[untied])


def test_scaling_A_leaves_decode_and_pair_term_unchanged():
    rng = np.random.default_rng(4)
    obs = SymbolLattice.discrete(rng.integers(0, 2, (8, 8)), M=2)
    A = rng.uniform(0.1, 1.0, (2, 2))
    m = model2(A=A, d=2)
    ms = model2(A=7.5 * A, d=2)
    assert np.array_equal(decode_discrete(m, obs)[1].states, decode_discrete(ms, obs)[1].states)
    assert evaluate_discrete(m, obs) == pytest.approx(evaluate_discrete(ms, obs), abs=1e-9)


@given(seed=st.integers(0, 10**6), n=st.integers(1, 3), m=st.integers(2, 4),
       h=st.integers(3, 7), wvar=st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_learned_rows_stochastic(seed, n, m, h, wvar):
    rng = np.random.default_rng(seed)
    obs = SymbolLattice.discrete(rng.integers(0, m, (h, h)), M=m)
    try:
        model = learn_discrete(obs, wvar, n)
    except NumericError:  # degenerate draws may legitimately leave a state empty
        return
    assert np.abs(model.B.sum(axis=1) - 1.0).max() <= 1e-9
    assert np.abs(model.A.sum(axis=1) - 1.0).max() <= 1e-9
    assert model.B.min() >= 0 and model.A.min() >= 0


def test_model_validation():
    with pytest.raises(InputError):
        DiscreteModel(N=2, M=2, d=1, A=np.eye(2), B=np.array([[0.5, 0.4], [0.2, 0.8]]))
    with pytest.raises(InputError):
        model2(alpha=0.0)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decode_memory_wide_alphabet():
    # nearest-row blocks hold a bounded number of elements, so decoding at
    # N = M = 256 peaks near the window sweep's own peak
    rng = np.random.default_rng(12)
    m = DiscreteModel(N=256, M=256, d=2, A=np.full((256, 256), 1 / 256),
                      B=rng.dirichlet(np.ones(256), size=256))
    obs = SymbolLattice.discrete(rng.integers(0, 256, size=(32, 32)), M=256)
    sweep_peak = _traced_peak(lambda: sweep_signatures(obs, m.w))
    assert _traced_peak(lambda: decode_discrete(m, obs)) <= 3 * sweep_peak
