import tracemalloc

import numpy as np
import pytest
from oracles import gibbs_chain, gibbs_joint, straightline_gibbs
from scipy.stats import chi2

from lvlm import (
    DiscreteEmission,
    InputError,
    LatticeShape,
    RealEmission,
    StateLattice,
    SynthConfig,
    emit_observations,
    gibbs_sample,
    inertia_index,
    lattice,
)


def config(n=2, self_weight=0.95, shape=(32, 32), sweeps=30, seed=0):
    phi = np.full((n, n), (1 - self_weight) / max(1, n - 1))
    np.fill_diagonal(phi, self_weight)
    return SynthConfig(shape=LatticeShape(shape), N=n, potentials=phi, sweeps=sweeps, seed=seed)


def test_single_state_is_constant():
    q = gibbs_sample(config(n=1, self_weight=1.0, seed=3))
    assert (q.states == 0).all()


def test_same_seed_reproduces():
    a = gibbs_sample(config(seed=7))
    b = gibbs_sample(config(seed=7))
    assert np.array_equal(a.states, b.states)


def test_different_seeds_differ():
    a = gibbs_sample(config(seed=1))
    b = gibbs_sample(config(seed=2))
    assert not np.array_equal(a.states, b.states)


def test_diagonal_potentials_give_high_inertia():
    cfg = config(self_weight=0.99, shape=(64, 64), sweeps=50, seed=4)
    q = gibbs_sample(cfg)
    assert inertia_index(q, 1) > 0.9


def test_emit_one_hot_reproduces_states():
    q = gibbs_sample(config(seed=5))
    obs = emit_observations(q, DiscreteEmission(np.eye(2)), seed=6)
    assert np.array_equal(obs.values, q.states)


def test_emit_discrete_frequencies():
    B = np.array([[0.8, 0.2], [0.2, 0.8]])
    q = gibbs_sample(config(shape=(64, 64), seed=8))
    obs = emit_observations(q, DiscreteEmission(B), seed=9)
    for j in range(2):
        freq = (obs.values[q.states == j] == 1).mean()
        assert freq == pytest.approx(B[j, 1], abs=0.02)


def test_emit_discrete_equals_cdf_count():
    # reference: each node's symbol counts the entries of its state's cdf
    # below its uniform draw, compared over all M symbols at once
    q = gibbs_sample(config(n=3, shape=(40, 50), sweeps=3, seed=2))
    B = np.random.default_rng(5).dirichlet(np.ones(7), size=3)
    obs = emit_observations(q, DiscreteEmission(B), seed=4)
    u = np.random.default_rng(4).random(size=(40, 50))
    want = (u[..., None] > np.cumsum(B, axis=1)[q.states]).sum(axis=-1)
    assert np.array_equal(obs.values, want)


def test_emit_discrete_row_short_of_one_stays_in_alphabet(monkeypatch):
    # the row [0.5, 0.4999999995, 0] sums to 1 within tolerance, but its cdf
    # ends below the largest uniform draw, which then takes its last symbol
    # of positive probability
    class LargestDraw:
        def random(self, size):
            return np.full(size, 1 - 2.0 ** -53)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: LargestDraw())
    B = np.array([[0.5, 0.4999999995, 0.0], [0.0, 0.5, 0.5]])
    q = StateLattice.from_array(np.array([[0, 1], [1, 0]]), N=2)
    obs = emit_observations(q, DiscreteEmission(B), seed=0)
    assert np.array_equal(obs.values, [[1, 2], [2, 1]])


def test_emit_discrete_memory_wide_alphabet():
    # one state at a time: no node x symbol temporary at M = 256
    rng = np.random.default_rng(13)
    q = StateLattice.from_array(rng.integers(0, 256, size=(256, 256)), N=256)
    emission = DiscreteEmission(rng.dirichlet(np.ones(256), size=256))
    tracemalloc.start()
    try:
        obs = emit_observations(q, emission, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * obs.values.nbytes


def test_emit_real_tiny_noise_recovers_means():
    mu = np.array([[0.0, 0.0], [3.0, 3.0]])
    sigma = np.tile(np.eye(2) * 1e-18, (2, 1, 1))
    q = gibbs_sample(config(seed=10))
    obs = emit_observations(q, RealEmission(mu, sigma), seed=11)
    assert np.abs(obs.values - mu[q.states]).max() < 1e-6


def test_emission_state_count_mismatch():
    q = gibbs_sample(config(n=2, seed=12))
    with pytest.raises(InputError):
        emit_observations(q, DiscreteEmission(np.eye(3)), seed=0)


def test_config_validation():
    with pytest.raises(InputError):
        config(sweeps=0)
    with pytest.raises(InputError):
        SynthConfig(shape=LatticeShape((4,)), N=2, potentials=np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_parameters_rejected(bad):
    phi = np.array([[bad, 1.0], [1.0, 1.0]])
    with pytest.raises(InputError):
        SynthConfig(shape=LatticeShape((4, 4)), N=2, potentials=phi)
    with pytest.raises(InputError):
        DiscreteEmission(np.array([[bad, bad], [0.5, 0.5]]))
    with pytest.raises(InputError):
        RealEmission(np.array([[bad, 0.0]]), np.eye(2)[None])
    with pytest.raises(InputError):
        RealEmission(np.zeros((1, 2)), np.array([[[1.0, 0.0], [0.0, bad]]]))


def test_3d_sampling_works():
    phi = np.array([[0.9, 0.1], [0.1, 0.9]])
    cfg = SynthConfig(shape=LatticeShape((8, 8, 8)), N=2, potentials=phi, sweeps=10, seed=13)
    q = gibbs_sample(cfg)
    assert q.states.shape == (8, 8, 8)
    assert set(np.unique(q.states)) <= {0, 1}


# Potentials on tiny lattices; the first has zero entries, the last three are
# not symmetric, so each pair's factor is phi(node, next node along the axis).
# The last pads an odd and an even axis and drops a length-1 axis. After 10
# sweeps from the uniform start the exact distribution of the final state is
# within 3e-6 (total variation) of the joint on each of these.
GIBBS_CASES = {
    "2x2-N3-zeros": ((2, 2), [[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]]),
    "2x2x2-N2": ((2, 2, 2), [[0.6, 0.4], [0.4, 0.6]]),
    "chain5-N3": ((5,), [[2.0, 1.0, 0.5], [1.0, 3.0, 1.0], [0.5, 1.0, 1.0]]),
    "chain2-N2-oriented": ((2,), [[0.9, 0.1], [0.5, 0.5]]),
    "2x2-N2-oriented": ((2, 2), [[1.0, 0.3], [0.8, 0.5]]),
    "3x1x2-N2-oriented": ((3, 1, 2), [[1.0, 0.3], [0.8, 0.5]]),
}
GIBBS_SEEDS = 4000


@pytest.mark.parametrize("case", GIBBS_CASES)
def test_gibbs_final_state_follows_joint(case):
    lengths, phi = GIBBS_CASES[case]
    phi = np.array(phi)
    N = len(phi)
    nodes = int(np.prod(lengths))
    counts = np.zeros(N ** nodes)
    for seed in range(GIBBS_SEEDS):
        cfg = SynthConfig(shape=LatticeShape(lengths), N=N, potentials=phi, sweeps=10, seed=seed)
        counts[np.ravel_multi_index(tuple(gibbs_sample(cfg).states.ravel()), (N,) * nodes)] += 1
    expected = gibbs_joint(lengths, phi) * GIBBS_SEEDS
    assert counts[expected == 0].sum() == 0
    # chi-square over the configurations expected at least 5 times, the rest pooled
    big = expected >= 5
    pooled = ~big & (expected > 0)
    observed, wanted = counts[big], expected[big]
    if pooled.any():
        observed = np.append(observed, counts[pooled].sum())
        wanted = np.append(wanted, expected[pooled].sum())
    stat = ((observed - wanted) ** 2 / wanted).sum()
    assert chi2.sf(stat, len(observed) - 1) > 1e-3


@pytest.mark.parametrize("case", GIBBS_CASES)
def test_gibbs_cases_mix_within_claim(case):
    lengths, phi = GIBBS_CASES[case]
    chain = gibbs_chain(lengths, phi, sweeps=10)
    assert 0.5 * np.abs(chain - gibbs_joint(lengths, phi)).sum() <= 3e-6


# odd, even and length-1 axes in one to three dimensions
ORACLE_SHAPES = [(1,), (5,), (6,), (3, 4), (4, 1), (1, 5), (2, 2), (2, 3, 1), (3, 1, 2),
                 (1, 1, 1), (3, 4, 3), (2, 2, 2)]


@pytest.mark.parametrize("form", ["table", "summed"])
def test_gibbs_equals_straightline(form, monkeypatch):
    if form == "summed":
        monkeypatch.setattr(lattice, "TABLE_ENTRIES", 0)
    rng = np.random.default_rng(21)
    for lengths in ORACLE_SHAPES:
        for N in range(1, 5):
            # non-symmetric, with zeros, every row keeping a positive entry
            phi = rng.random((N, N)) * (rng.random((N, N)) < 0.7)
            phi[np.arange(N), rng.integers(0, N, size=N)] += 0.05
            cfg = SynthConfig(shape=LatticeShape(lengths), N=N, potentials=phi,
                              sweeps=int(rng.integers(1, 4)), seed=int(rng.integers(1000)))
            got = gibbs_sample(cfg).states
            want = straightline_gibbs(cfg)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (lengths, N)


def test_gibbs_wide_state_count_sums_per_neighbour():
    # N = 256 in 4-D: the 256 x 257^8 conditional table is far past the budget
    rng = np.random.default_rng(3)
    phi = rng.random((256, 256)) + 0.01
    cfg = SynthConfig(shape=LatticeShape((2, 3, 2, 3)), N=256, potentials=phi, sweeps=2, seed=5)
    tracemalloc.start()
    try:
        q = gibbs_sample(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * phi.nbytes  # the log-potential tables and their temporaries
    assert q.states.tobytes() == straightline_gibbs(cfg).tobytes()


@pytest.mark.filterwarnings("error")
def test_gibbs_all_zero_conditional():
    # phi = I on a 4-chain: node 2's neighbors 1 and 3 start in different
    # states for some seeds, leaving every state of node 2 at potential 0
    for seed in range(20):
        cfg = SynthConfig(shape=LatticeShape((4,)), N=2, potentials=np.eye(2), sweeps=3, seed=seed)
        q = gibbs_sample(cfg).states
        assert q.min() >= 0 and q.max() < 2
        assert (q == q[0]).all()  # only constant chains have positive probability
