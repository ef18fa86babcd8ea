import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from lvlm import (
    InputError,
    NumericError,
    RealModel,
    SymbolLattice,
    assign_real,
    decode_real,
    evaluate_real,
    learn_real,
)

from lvlm.model import _pair_score
from lvlm.real import _scatter
from oracles import masked_log_emission_real, masked_scatter, naive_signatures, straightline_evaluate_real


def toy_model(N=2, M=2, d=1, **kw):
    mu = kw.pop("mu", np.array([[0.0, 0.0], [10.0, 10.0]])[:N, :M])
    sigma = kw.pop("sigma", np.tile(np.eye(M), (N, 1, 1)))
    A = kw.pop("A", np.full((N, N), 1.0 / N))
    return RealModel(N=N, M=M, d=d, A=A, mu=mu, sigma=sigma, **kw)


def test_assign_exact_mean():
    m = toy_model()
    assert assign_real(m, [10.0, 10.0]) == 1


def test_assign_nearest_mean():
    assert assign_real(toy_model(), [1.0, 1.0]) == 0


def test_assign_tie_lowest_index():
    assert assign_real(toy_model(), [5.0, 5.0]) == 0


def test_assign_dimension_mismatch():
    with pytest.raises(InputError):
        assign_real(toy_model(), [1.0, 2.0, 3.0])


def test_decode_constant_lattice():
    m = toy_model(d=2)
    obs = SymbolLattice.real(np.full((4, 4, 2), 10.0))
    _, q = decode_real(m, obs)
    assert (q.states == 1).all()


def test_decode_ramp_step_function():
    m = toy_model(M=1, mu=np.array([[0.0], [10.0]]), sigma=np.ones((2, 1, 1)), w=1)
    obs = SymbolLattice.real(np.linspace(0, 10, 21)[:, None])
    _, q = decode_real(m, obs)
    assert (np.diff(q.states) >= 0).all()
    assert q.states[0] == 0 and q.states[-1] == 1


def test_decode_matches_naive_random():
    rng = np.random.default_rng(6)
    vals = rng.normal(size=(16, 16, 3))
    m = toy_model(N=3, M=3, d=2, mu=rng.normal(size=(3, 3)), sigma=np.tile(np.eye(3), (3, 1, 1)), w=2)
    X, q = decode_real(m, SymbolLattice.real(vals))
    want_X = naive_signatures(vals, 3, 2, "real")
    assert np.abs(X.signatures - want_X).max() <= 1e-12
    d2 = ((want_X[..., None, :] - m.mu) ** 2).sum(-1)
    assert np.array_equal(q.states, np.argmin(d2, axis=-1))


def test_standard_normal_emission_at_mean():
    m = toy_model(N=1, M=1, mu=np.zeros((1, 1)), sigma=np.ones((1, 1, 1)), A=np.ones((1, 1)), w_e=0)
    obs = SymbolLattice.real(np.zeros((2, 1)))
    # two nodes, each with one neighbor so the pair term vanishes
    assert evaluate_real(m, obs) == pytest.approx(2 * math.log(1 / math.sqrt(2 * math.pi)))


def test_single_state_score_is_sum_of_densities():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=(3, 1))
    m = toy_model(N=1, M=1, mu=np.zeros((1, 1)), sigma=np.ones((1, 1, 1)), A=np.ones((1, 1)))
    got = evaluate_real(m, SymbolLattice.real(vals))
    iid = sum(-0.5 * (math.log(2 * math.pi) + v * v) for v in vals.ravel())
    # single state: a/k = 1/|R(t)| exactly, alpha = 1
    pair = sum(0.5 * -math.log(deg) * deg for deg in (1, 2, 1))
    assert got == pytest.approx(iid + pair, abs=1e-9)


def test_evaluate_matches_straightline_tiny():
    rng = np.random.default_rng(3)
    m = toy_model(N=2, M=2, d=1, mu=rng.normal(size=(2, 2)),
                  sigma=np.tile(np.eye(2) * 0.5, (2, 1, 1)),
                  A=rng.uniform(0.1, 1, (2, 2)), w=1, w_e=1)
    vals = rng.normal(size=(3, 2))
    got = evaluate_real(m, SymbolLattice.real(vals))
    assert got == pytest.approx(straightline_evaluate_real(m, vals), abs=1e-9)


def test_learn_constant_data_gives_ridge_covariance():
    obs = SymbolLattice.real(np.full((5, 5, 2), 3.0))
    m = learn_real(obs, 1, 1)
    assert np.allclose(m.mu, [[3.0, 3.0]])
    assert np.allclose(m.sigma[0], 1e-12 * np.eye(2))


def test_learn_two_blobs():
    rng = np.random.default_rng(8)
    lo = rng.normal(0.0, 0.3, size=(32, 32, 2))
    hi = rng.normal(5.0, 0.3, size=(32, 32, 2))
    obs = SymbolLattice.real(np.concatenate([lo, hi], axis=1))
    m = learn_real(obs, 1, 2)
    mus = sorted(m.mu.tolist())
    # boundary windows mix the blobs and pull centroids slightly inward
    assert np.linalg.norm(np.array(mus[0]) - [0.0, 0.0]) < 0.25
    assert np.linalg.norm(np.array(mus[1]) - [5.0, 5.0]) < 0.25


def test_learn_rejects_too_many_states():
    with pytest.raises(InputError):
        learn_real(SymbolLattice.real(np.zeros((2, 1))), 1, 3)


def test_learn_decode_round_trip_exact():
    from lvlm import sweep_signatures
    from lvlm.model import _assign_field

    rng = np.random.default_rng(10)
    obs = SymbolLattice.real(rng.normal(size=(10, 10, 2)))
    m = learn_real(obs, 1, 3)
    internal_q = _assign_field(m.mu, sweep_signatures(obs, 1))
    _, q = decode_real(m, obs)
    assert np.array_equal(q.states, internal_q)


def test_score_decreases_moving_point_off_mean():
    rng = np.random.default_rng(12)
    m = toy_model(N=1, M=2, d=2, mu=np.zeros((1, 2)), sigma=np.eye(2)[None] * 1.5,
                  A=np.ones((1, 1)), w=0, w_e=0)
    vals = rng.normal(0, 0.1, size=(5, 5, 2))
    eigvec = np.array([1.0, 0.0])
    scores = []
    for step in (0.0, 1.0, 2.0):
        v = vals.copy()
        v[2, 2] = m.mu[0] + step * eigvec
        scores.append(evaluate_real(m, SymbolLattice.real(v)))
    assert scores[0] >= scores[1] > scores[2]


@given(seed=st.integers(0, 10**6), n=st.integers(1, 3), h=st.integers(3, 6))
@settings(max_examples=100, deadline=None)
def test_learned_sigma_symmetric_psd(seed, n, h):
    rng = np.random.default_rng(seed)
    obs = SymbolLattice.real(rng.normal(size=(h, h, 2)))
    try:
        m = learn_real(obs, 1, n)
    except NumericError:
        return
    assert np.abs(m.sigma - m.sigma.transpose(0, 2, 1)).max() == 0
    for j in range(n):
        assert np.linalg.eigvalsh(m.sigma[j]).min() >= 1e-13
    assert np.abs(m.A.sum(axis=1) - 1.0).max() <= 1e-9


def test_model_validation():
    with pytest.raises(InputError):
        toy_model(sigma=np.array([[[1.0, 0.5], [0.2, 1.0]]] * 2))


NOT_PD = np.array([[1.0, 2.0], [2.0, 1.0]])  # symmetric, eigenvalues -1 and 3


def not_pd_model():
    """States 0, 2 and 3 have a covariance that is not positive definite; w_e = 0
    decodes a node at a state's mean to that state."""
    mu = np.array([[0.0, 0.0], [10.0, 10.0], [20.0, 20.0], [30.0, 30.0]])
    return toy_model(N=4, mu=mu, sigma=np.array([NOT_PD, np.eye(2), NOT_PD, NOT_PD]), w_e=0)


def test_evaluate_not_pd_names_lowest_occupied_state():
    obs = SymbolLattice.real(np.array([[30.0, 30.0], [10.0, 10.0], [20.0, 20.0]]))
    with pytest.raises(NumericError, match="^covariance of state 2 is not positive definite$") as e:
        evaluate_real(not_pd_model(), obs)
    assert e.value.state == 2


def test_evaluate_not_pd_on_unoccupied_state_scores():
    m = not_pd_model()
    vals = np.array([[10.0, 10.0], [10.5, 9.0], [9.0, 10.0]])
    got = evaluate_real(m, SymbolLattice.real(vals))
    assert got == pytest.approx(straightline_evaluate_real(m, vals), abs=1e-9)


def test_learn_overflowing_covariance_is_numeric_error():
    # finite values whose squared residuals overflow
    vals = 1e160 * (1 + np.random.default_rng(0).normal(size=(8, 8, 2)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="^covariance of state 0 overflows") as e:
            learn_real(SymbolLattice.real(vals), 1, 2)
    assert e.value.state == 0


def test_evaluate_overflowing_residuals_score_minus_inf():
    # finite values whose squared residuals overflow: the density underflows to 0
    m = toy_model(N=1, mu=np.zeros((1, 2)), sigma=np.eye(2)[None], A=np.ones((1, 1)), w_e=0)
    vals = 1e160 * np.random.default_rng(0).normal(size=(4, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        assert evaluate_real(m, SymbolLattice.real(vals)) == -np.inf


def test_evaluate_overflowing_scatter_rescaled_to_finite_score():
    # the scatter of residuals 1e160 overflows, but under Sigma = 1e300 I each
    # node's quadratic term is 2e20: the score is finite, about -4e20
    m = toy_model(N=1, mu=np.zeros((1, 2)), sigma=1e300 * np.eye(2)[None], A=np.ones((1, 1)), w_e=0)
    vals = np.full((4, 2), 1e160)
    q = np.zeros(4, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        got = evaluate_real(m, SymbolLattice.real(vals))
        want = masked_log_emission_real(m, vals, q) + _pair_score(m.A, q, m.alpha)
    assert got == pytest.approx(-4e20, rel=1e-12)
    assert got == want  # the state's rows gathered by index and by mask scatter alike


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def gaussian_states(draw):
    """(model, observations, states): a 1- to 3-D lattice labelled with N in
    1..300 states (often more than its nodes, leaving most unoccupied) over M
    in 1..16 channels, under non-identity covariances. The nodes of about a
    third of the states lie near 1e160, so that their scatter overflows, and
    those states' covariances are scaled by 1e300."""
    ndim = draw(st.integers(1, 3))
    lengths = tuple(draw(st.integers(1, (48, 8, 4)[ndim - 1])) for _ in range(ndim))
    N, M = draw(st.integers(1, 300)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = rng.integers(0, N, size=lengths)
    big = rng.random(N) < 1 / 3
    o = rng.normal(size=lengths + (M,)) * np.where(big[q], 1e160, 1.0)[..., None]
    g = rng.normal(scale=0.25, size=(N, M, M))
    sigma = np.eye(M) + g @ g.transpose(0, 2, 1)
    sigma = (sigma + sigma.transpose(0, 2, 1)) / 2 * np.where(big, 1e300, 1.0)[:, None, None]
    model = toy_model(N=N, M=M, d=ndim, mu=rng.normal(size=(N, M)), sigma=sigma)
    return model, SymbolLattice.real(o), q


@settings(max_examples=150, deadline=None)
@given(case=gaussian_states())
def test_scatter_bit_equal_to_masked_rows(case):
    model, obs, q = case
    o = obs.values.reshape(-1, model.M)
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _scatter(model.mu, o, q.ravel()), masked_scatter(model.mu, o, q.ravel())
    assert all(same_bytes(a, b) for a, b in zip(got, want))


@settings(max_examples=150, deadline=None)
@given(case=gaussian_states())
def test_log_emission_bit_equal_to_masked_rows(case):
    model, obs, q = case
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        got = model._log_emission(obs, q)
        want = masked_log_emission_real(model, obs.values.reshape(-1, model.M), q.ravel())
    assert same_bytes(got, want)
