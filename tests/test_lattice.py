import hashlib
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from lvlm import InputError, LatticeShape, NumericError, SymbolLattice, neighbors, sweep_signatures, window_bounds
from lvlm.lattice import count_type, sweep_blocks, window_counts

from oracles import naive_signatures


def test_neighbors_interior_2d():
    s = LatticeShape((10, 10))
    assert sorted(neighbors(s, (5, 5))) == [(4, 5), (5, 4), (5, 6), (6, 5)]


def test_neighbors_corner():
    s = LatticeShape((10, 10))
    assert sorted(neighbors(s, (0, 0))) == [(0, 1), (1, 0)]


def test_neighbors_1d():
    assert neighbors(LatticeShape((3,)), (1,)) == [(0,), (2,)]


def test_neighbors_out_of_range():
    with pytest.raises(InputError):
        neighbors(LatticeShape((3, 3)), (3, 0))


def test_window_bounds_interior():
    lo, hi, cells = window_bounds(LatticeShape((10, 10)), (5, 5), 1)
    assert (lo, hi, cells) == ((4, 4), (6, 6), 9)


def test_window_bounds_clamped_corner():
    lo, hi, cells = window_bounds(LatticeShape((10, 10)), (0, 0), 2)
    assert (lo, hi, cells) == ((0, 0), (2, 2), 9)


def test_window_bounds_zero_radius():
    lo, hi, cells = window_bounds(LatticeShape((7, 3)), (4, 1), 0)
    assert (lo, hi, cells) == ((4, 1), (4, 1), 1)


def test_sweep_discrete_1d_examples():
    lat = SymbolLattice.discrete(np.array([0, 0, 0, 1, 1, 1]), M=2)
    f = sweep_signatures(lat, 1)
    assert np.array_equal(f.signatures[1], [1.0, 0.0])
    assert np.allclose(f.signatures[3], [1 / 3, 2 / 3], atol=0, rtol=0)


def test_sweep_matches_naive_recount_2d():
    rng = np.random.default_rng(7)
    vals = rng.integers(0, 4, size=(16, 16))
    lat = SymbolLattice.discrete(vals, M=4)
    got = sweep_signatures(lat, 2).signatures
    want = naive_signatures(vals, 4, 2, "discrete")
    assert np.array_equal(got, want)


@pytest.mark.parametrize("lengths,w", [((5,), 0), ((5,), 2), ((4, 6), 1), ((3, 3, 3), 1), ((2, 5, 3), 3)])
def test_sweep_real_matches_naive(lengths, w):
    rng = np.random.default_rng(hash((lengths, w)) % 2**32)
    vals = rng.normal(size=lengths + (3,))
    got = sweep_signatures(SymbolLattice.real(vals), w).signatures
    want = naive_signatures(vals, 3, w, "real")
    assert np.abs(got - want).max() <= 1e-12


shapes = st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple)


@given(lengths=shapes, w=st.integers(0, 3), m=st.integers(1, 5), seed=st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_discrete_signatures_on_simplex(lengths, w, m, seed):
    rng = np.random.default_rng(seed)
    lat = SymbolLattice.discrete(rng.integers(0, m, size=lengths), M=m)
    sigs = sweep_signatures(lat, w).signatures
    assert sigs.min() >= 0
    assert np.abs(sigs.sum(axis=-1) - 1.0).max() <= 1e-9


@given(lengths=shapes, seed=st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_neighbor_symmetry(lengths, seed):
    shape = LatticeShape(lengths)
    rng = np.random.default_rng(seed)
    t = tuple(int(rng.integers(0, n)) for n in lengths)
    for r in neighbors(shape, t):
        assert t in neighbors(shape, r)


@given(lengths=st.lists(st.integers(3, 9), min_size=1, max_size=3).map(tuple), w=st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_interior_window_cell_count(lengths, w):
    shape = LatticeShape(lengths)
    t = tuple(n // 2 for n in lengths)
    if all(w <= t_i and t_i + w < n for t_i, n in zip(t, lengths)):
        _, _, cells = window_bounds(shape, t, w)
        assert cells == (2 * w + 1) ** shape.d


def test_symbol_lattice_rejects_bad_indices():
    with pytest.raises(InputError):
        SymbolLattice.discrete(np.array([0, 3]), M=2)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_real_lattice_rejects_non_finite_values(value):
    vals = np.zeros((3, 2))
    vals[1, 0] = value
    with pytest.raises(InputError):
        SymbolLattice.real(vals)


@given(lengths=shapes, w=st.integers(0, 4), m=st.integers(1, 3), seed=st.integers(0, 10**6))
@settings(max_examples=100, deadline=None)
def test_real_equal_windows_give_equal_signatures(lengths, w, m, seed):
    # nodes whose clamped windows coincide must get bit-equal signatures,
    # or learning splits copies of one window into different states
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=lengths + (m,)) * 10.0 ** rng.integers(-3, 4, size=m) + rng.normal(size=m)
    sigs = sweep_signatures(SymbolLattice.real(vals), w).signatures
    shape = LatticeShape(lengths)
    first = {}
    for t in np.ndindex(*lengths):
        lo, hi, _ = window_bounds(shape, t, w)
        assert np.array_equal(sigs[t], sigs[first.setdefault((lo, hi), t)])


def test_sweep_memory_wide_alphabet():
    # window counts taken a slab of rows at a time, each slab's counts taking
    # the bytes of one output channel: the peak stays near the output itself even
    # at PGM alphabet size, and a corner crop equals the per-node recount
    vals = np.random.default_rng(11).integers(0, 256, size=(128, 128))
    lat = SymbolLattice.discrete(vals, M=256)
    tracemalloc.start()
    try:
        got = sweep_signatures(lat, 2).signatures
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * got.nbytes
    want = naive_signatures(vals[:12, :12], 256, 2, "discrete")
    assert np.array_equal(got[:10, :10], want[:10, :10])


@pytest.mark.parametrize("lengths,M,w", [
    ((40,), 3, 2), ((7,), 5, 9),                # 1-D, w past the axis
    ((17, 11), 4, 3), ((5, 30), 6, 7),          # w past one axis only
    ((20, 20), 3, 8),                           # 17² = 289 cells: uint16 counts
    ((7, 6, 5), 3, 1), ((4, 9, 3), 2, 4),       # 3-D, w past two axes
    ((9, 9), 256, 2),                           # slabs of one row
    # slab edges: slabs of 17 rows, the last one short; of 23, 23 and 4 rows
    ((20, 6), 9, 2), ((50, 4), 17, 3),
    ((9, 9), 256, 3), ((6, 8), 255, 9),         # one-row slabs, w past the slab and past both axes
    ((1, 30), 7, 2), ((1, 40), 256, 3),         # one row
    ((40,), 300, 3), ((33,), 9, 40),            # 1-D; w past the axis and past its slab of 29
    ((20, 20), 9, 8), ((17, 17), 300, 8),       # uint16 counts, slabs of 8 rows and of 1
    ((12, 5), 1, 2), ((16, 3), 7, 1), ((16, 3), 8, 1),
])
def test_discrete_sweep_equals_recount(lengths, M, w):
    vals = np.random.default_rng(sum(lengths) * M + w).integers(0, M, size=lengths)
    got = sweep_signatures(SymbolLattice.discrete(vals, M=M), w).signatures
    assert np.array_equal(got, naive_signatures(vals, M, w, "discrete"))


@pytest.mark.parametrize("lengths,M,w,wider", [
    ((20, 6), 9, 2, False), ((9, 9), 256, 3, False), ((33,), 9, 40, False),
    ((20, 20), 9, 8, False), ((7, 6, 5), 3, 1, False), ((4, 9, 3), 300, 4, False),
    ((50, 4), 17, 3, True),                     # uint16 counts where uint8 would do, as learning pools them
])
def test_window_counts_equal_brute_force(lengths, M, w, wider):
    vals = np.random.default_rng(sum(lengths) * M + w).integers(0, M, size=lengths)
    dtype = np.dtype(np.uint16) if wider else count_type(lengths, w)
    shape = LatticeShape(lengths)
    want = np.empty(lengths + (M,), dtype=np.int64)
    for t in np.ndindex(*lengths):
        lo, hi, _ = window_bounds(shape, t, w)
        want[t] = np.bincount(vals[tuple(slice(l, h + 1) for l, h in zip(lo, hi))].ravel(), minlength=M)
    slabs = list(window_counts(SymbolLattice.discrete(vals, M=M), w, M, dtype))
    assert [top for top, _, _ in slabs] == [0] + [end for _, end, _ in slabs[:-1]] and slabs[-1][1] == lengths[0]
    for top, end, counts in slabs:
        assert counts.dtype == dtype and np.array_equal(counts, want[top:end])
        # a slab's counts take at most one float64 channel, unless it is a single row
        assert end - top == 1 or counts.nbytes <= 8 * shape.node_count


@pytest.mark.parametrize("lengths,w", [((40,), 2), ((7,), 9), ((17, 11), 3), ((2, 30), 1), ((7, 6, 5), 1), ((4, 9, 3), 4)])
@pytest.mark.parametrize("nodes", [1, 5, 11, 64, 10_000])
def test_sweep_blocks_equal_whole_sweep(lengths, w, nodes):
    # blocks within a row, across rows, and of the whole lattice, at w past
    # an axis too: every block is a bit-equal slice of the whole sweep
    rng = np.random.default_rng(sum(lengths) + w)
    for lat in (SymbolLattice.discrete(rng.integers(0, 3, size=lengths), M=3),
                SymbolLattice.real(rng.normal(size=lengths + (2,)) * 10.0 ** rng.integers(-5, 5, size=lengths + (2,)))):
        want = sweep_signatures(lat, w).flat()
        blocks = list(sweep_blocks(lat, w, nodes))
        assert [a for a, _ in blocks] == list(range(0, len(want), nodes))
        assert np.concatenate([X for _, X in blocks]).tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_blocks_where_only_a_cut_window_overflows():
    # row 2's window, cut at the top edge of row 3's part, sums 0 - 1.2e308
    # per column and overflows across the two columns; the lattice's window
    # adds row 1's 6e307 first and stays finite: the blocks equal the whole
    # sweep, and a lattice whose own windows overflow still raises
    rows = np.array([-1.2e308, 6e307, 0.0, -1.2e308, 6e307])
    lat = SymbolLattice.real(np.repeat(rows[:, None, None], 2, axis=1))
    want = sweep_signatures(lat, 1).flat()
    assert np.concatenate([X for _, X in sweep_blocks(lat, 1, 2)]).tobytes() == want.tobytes()
    with pytest.raises(NumericError):
        list(sweep_blocks(SymbolLattice.real(np.full((5, 2, 1), 1.2e308)), 1, 2))


# (lengths, M, w) -> blake2b digest of the sweep's bytes, as the one-channel-
# at-a-time sweep computed them: the all-channel sweep adds in the same order
REAL_SWEEP_FINGERPRINTS = {
    ((257,), 3, 9): "b1e129e3d6defefa",
    ((31, 17), 2, 2): "89433668d661f05a",
    ((12, 9, 5), 3, 1): "5c4454ab07ce0fd8",
    ((6, 40), 1, 8): "013a99766995ca97",
    ((4, 3, 2), 2, 5): "ca64322c16f55d11",
}


@pytest.mark.parametrize("case", REAL_SWEEP_FINGERPRINTS)
def test_real_sweep_bytes_unchanged(case):
    lengths, M, w = case
    rng = np.random.default_rng(sum(lengths) + M + w)
    vals = rng.normal(size=lengths + (M,)) * 10.0 ** rng.integers(-8, 9, size=M)
    sig = sweep_signatures(SymbolLattice.real(vals), w).signatures
    assert hashlib.blake2b(sig.tobytes(), digest_size=8).hexdigest() == REAL_SWEEP_FINGERPRINTS[case]


def test_overflowing_window_mean_is_numeric_error():
    vals = np.full((3, 3, 1), 1e308)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="window mean overflows"):
        sweep_signatures(SymbolLattice.real(vals), 1)
    assert np.array_equal(sweep_signatures(SymbolLattice.real(vals), 0).signatures, vals)
