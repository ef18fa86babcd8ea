import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from lvlm import InputError, StateLattice, associativity_index, inertia_index, sweep_signatures

from oracles import naive_signatures


def test_associativity_strong_diagonal():
    assert associativity_index(np.array([[1, 0.1], [0.1, 1]])) == pytest.approx(0.91, abs=0.005)


def test_associativity_strong_offdiagonal():
    assert associativity_index(np.array([[1, 10], [10, 1]])) == pytest.approx(0.09, abs=0.005)


@pytest.mark.parametrize("n", [1, 3, 7])
def test_associativity_identity(n):
    assert associativity_index(np.eye(n)) == 1.0


def test_associativity_rejects_all_zero():
    with pytest.raises(InputError):
        associativity_index(np.zeros((2, 2)))


def test_inertia_constant_lattice():
    states = StateLattice.from_array(np.zeros((32, 32), dtype=int), N=1)
    assert inertia_index(states, 1) == 1.0


def test_inertia_lower_bound_balanced_windows():
    # every clamped window is the whole lattice and holds the 4 states equally
    states = StateLattice.from_array(np.tile(np.arange(4), 4), N=4)
    assert inertia_index(states, 15) == pytest.approx(0.5, abs=1e-12)


def test_inertia_checkerboard_interior():
    states = StateLattice.from_array(np.indices((10, 10)).sum(axis=0) % 2, N=2)
    # 3x3 windows on a two-state checkerboard split 5/4
    want = np.sqrt(25 + 16) / 9
    assert inertia_index(states, 1, interior_only=True) == pytest.approx(want, abs=1e-12)


def test_inertia_matches_naive_windows():
    rng = np.random.default_rng(0)
    arr = rng.integers(0, 3, (9, 9))
    sigs = naive_signatures(arr, 3, 2, "discrete")
    want = float(np.sqrt((sigs ** 2).sum(-1)).mean())
    got = inertia_index(StateLattice.from_array(arr, N=3), 2)
    assert got == pytest.approx(want, abs=1e-12)


def test_inertia_interior_only_requires_interior():
    states = StateLattice.from_array(np.zeros((3, 3), dtype=int), N=1)
    with pytest.raises(InputError):
        inertia_index(states, 2, interior_only=True)


@given(seed=st.integers(0, 10**6), n=st.integers(1, 5), w=st.integers(0, 3),
       lengths=st.lists(st.integers(1, 8), min_size=1, max_size=3).map(tuple))
@settings(max_examples=150, deadline=None)
def test_inertia_range(seed, n, w, lengths):
    rng = np.random.default_rng(seed)
    states = StateLattice.from_array(rng.integers(0, n, lengths), N=n)
    val = inertia_index(states, w)
    assert 1 / np.sqrt(n) - 1e-12 <= val <= 1.0 + 1e-12


@given(seed=st.integers(0, 10**6), scale=st.floats(1e-3, 1e3))
@settings(max_examples=150, deadline=None)
def test_associativity_scale_invariant(seed, scale):
    rng = np.random.default_rng(seed)
    A = rng.random((3, 3)) + 1e-9
    assert associativity_index(scale * A) == pytest.approx(associativity_index(A), rel=1e-12)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_inertia_relabel_invariant(seed):
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, 3, (6, 6))
    perm = rng.permutation(3)
    a = inertia_index(StateLattice.from_array(arr, N=3), 1)
    b = inertia_index(StateLattice.from_array(perm[arr], N=3), 1)
    assert a == pytest.approx(b, abs=1e-12)


@given(seed=st.integers(0, 10**6), n=st.sampled_from([1, 2, 3, 7, 8, 9, 17, 130]), w=st.integers(0, 3),
       lengths=st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple), interior=st.booleans())
@settings(max_examples=150, deadline=None)
def test_inertia_bit_equal_to_whole_field(seed, n, w, lengths, interior):
    # channel passes in numpy's pairwise order (past 128 terms at N = 130), a
    # slab of rows at a time: the same float as summing the squared field's
    # trailing axis
    states = StateLattice.from_array(np.random.default_rng(seed).integers(0, n, lengths), N=n)
    vals = np.sqrt(np.square(sweep_signatures(states, w).signatures).sum(axis=-1))
    if interior:
        vals = vals[tuple(slice(w, k - w) for k in lengths)]
        if vals.size == 0:
            with pytest.raises(InputError):
                inertia_index(states, w, interior_only=True)
            return
    assert inertia_index(states, w, interior_only=interior) == float(vals.mean())
