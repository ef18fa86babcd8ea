import threading

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, ward

from scipy.spatial import cKDTree

from lvlm import Codebook, InputError, SymbolLattice, merge_cost, pnn_quantize, sweep_signatures, vq

from oracles import coalesce_rounds_oracle, greedy_pnn, total_distortion


def test_merge_cost_singletons():
    assert merge_cost(1, [0.0, 0.0], 1, [3.0, 4.0]) == pytest.approx(25.0 / 2)


def test_merge_cost_size_two():
    assert merge_cost(2, [0.0], 2, [1.0]) == pytest.approx(1.0)


def test_merge_cost_identical_centroids():
    assert merge_cost(5, [1.0, 2.0], 3, [1.0, 2.0]) == 0.0


def test_merge_cost_rejects_empty_cluster():
    with pytest.raises(InputError):
        merge_cost(0, [0.0], 1, [1.0])


def test_pnn_zero_cost_merge_first():
    cb, asg = pnn_quantize(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]), 2)
    assert np.array_equal(cb.centroids, [[0.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(cb.sizes, [2, 1])
    assert list(asg) == [0, 0, 1]


def test_pnn_tight_pairs():
    pts = np.array([[0.0, 0.0], [5.0, 5.0], [0.1, 0.0], [5.1, 5.0]])
    cb, asg = pnn_quantize(pts, 2)
    assert np.allclose(sorted(cb.centroids.tolist()), [[0.05, 0.0], [5.05, 5.0]])
    assert asg[0] == asg[2] and asg[1] == asg[3] and asg[0] != asg[1]


def test_pnn_rejects_too_few_points():
    with pytest.raises(InputError):
        pnn_quantize(np.zeros((2, 3)), 3)


def test_pnn_matches_exact_oracle_distortion():
    rng = np.random.default_rng(42)
    pts = rng.random((32, 2))
    _, asg = pnn_quantize(pts, 4)
    _, _, oracle_asg, _ = greedy_pnn(pts, 4)
    assert total_distortion(pts, asg) <= 1.000000001 * total_distortion(pts, oracle_asg)


@pytest.mark.parametrize("seed", range(8))
def test_pnn_merge_sequence_matches_oracle_small(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    pts = rng.random((n, int(rng.integers(1, 4))))
    target = int(rng.integers(1, n))
    _, asg, history = pnn_quantize(pts, target, return_history=True)
    _, _, oracle_asg, oracle_hist = greedy_pnn(pts, target)
    assert [(a, b) for a, b, _ in history] == [(a, b) for a, b, _ in oracle_hist]
    assert np.array_equal(asg, oracle_asg)


def _repeated_rows(seed, n_distinct):
    """Random normal rows, each repeated 1-4 times, then shuffled."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n_distinct, int(rng.integers(1, 4))))
    return rng.permutation(np.repeat(rows, rng.integers(1, 5, size=n_distinct), axis=0))


DUPLICATE_CASES = {
    "hand": (np.array([[0.0], [1.0], [0.0], [1.0], [0.5], [0.0]]), 2),
    **{f"seed{seed}": (_repeated_rows(seed, 10), 1 + seed) for seed in range(8)},
    "fewer-distinct-than-N": (np.random.default_rng(0).permutation(
        np.repeat([[0.3, -1.2], [2.0, 0.1], [-0.4, 0.9]], [3, 1, 4], axis=0)), 5),
}


@pytest.mark.parametrize("pts, n_clusters", DUPLICATE_CASES.values(), ids=DUPLICATE_CASES.keys())
def test_pnn_duplicate_points_match_oracle(pts, n_clusters):
    _, asg, history = pnn_quantize(pts, n_clusters, return_history=True)
    _, _, oracle_asg, oracle_hist = greedy_pnn(pts, n_clusters)
    assert [(a, b) for a, b, _ in history] == [(a, b) for a, b, _ in oracle_hist]
    assert np.array_equal(asg, oracle_asg)


def test_repeated_point_centroid_is_the_point():
    pts = np.array([[0.1, 0.7]] * 7 + [[5.0, 5.0]])
    cb, asg = pnn_quantize(pts, 2)
    assert np.array_equal(cb.centroids[0], [0.1, 0.7])
    assert np.array_equal(cb.sizes, [7, 1]) and list(asg) == [0] * 7 + [1]


@pytest.mark.parametrize("seed", range(4))
def test_exact_pnn_matches_ward_linkage(seed):
    # PNN's merge cost is Ward's criterion, with cost = height**2 / 2
    pts, N = _repeated_rows(seed, 500), 2 + 2 * seed
    _, asg, history = pnn_quantize(pts, N, exact_threshold=10**9, return_history=True)
    Z = ward(pts)
    labels = fcluster(Z, N, "maxclust")
    pairs = set(zip(asg.tolist(), labels.tolist()))
    assert len(pairs) == len(set(asg.tolist())) == len(set(labels.tolist())) == N
    costs = np.array([c for _, _, c in history])
    np.testing.assert_allclose(np.sort(costs), np.sort(Z[:, 2] ** 2 / 2)[:len(pts) - N], rtol=1e-9)
    assert np.count_nonzero(costs == 0.0) == len(pts) - 500


@pytest.mark.parametrize("seed", range(5))
def test_distortion_increases_by_selected_cost(seed):
    rng = np.random.default_rng(100 + seed)
    pts = rng.random((24, 3))
    cb, asg, history = pnn_quantize(pts, 3, return_history=True)
    # replay the merge tree: distortion after all merges equals the cost sum
    final = total_distortion(pts, asg)
    assert final == pytest.approx(sum(c for _, _, c in history), rel=1e-9)
    # stepwise: prefix sums are each reachable distortions of the partial merge
    parent = np.arange(len(pts))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    running = 0.0
    for a, b, c in history:
        parent[find(b)] = find(a)
        running += c
        labels = np.array([find(i) for i in range(len(pts))])
        assert total_distortion(pts, labels) == pytest.approx(running, rel=1e-9, abs=1e-12)


def test_merged_centroid_is_weighted_member_mean():
    rng = np.random.default_rng(3)
    pts = rng.random((30, 2))
    cb, asg = pnn_quantize(pts, 5)
    for j in range(cb.N):
        members = pts[asg == j]
        assert len(members) == cb.sizes[j]
        assert np.allclose(cb.centroids[j], members.mean(axis=0), atol=1e-12)


def test_all_identical_points_split_arbitrarily():
    pts = np.zeros((6, 2))
    cb, asg = pnn_quantize(pts, 3)
    assert cb.N == 3
    assert np.array_equal(np.unique(asg), [0, 1, 2])
    assert np.allclose(cb.centroids, 0.0)


def test_fast_path_close_to_exact():
    # force the k-d tree path with a small exact_threshold
    rng = np.random.default_rng(11)
    pts = rng.random((400, 2))
    _, asg_fast = pnn_quantize(pts, 8, exact_threshold=16)
    _, asg_exact = pnn_quantize(pts, 8, exact_threshold=10**9)
    assert total_distortion(pts, asg_fast) <= 1.05 * total_distortion(pts, asg_exact)


def test_codebook_invariants():
    with pytest.raises(InputError):
        Codebook(np.zeros((2, 2)), np.array([1.0, 0.0]))


def _mixture(rng, n, M, components=8):
    """n points from `components` unit-variance normals with spread-out means."""
    centers = rng.normal(scale=3.0, size=(components, M))
    return centers[rng.integers(0, components, size=n)] + rng.normal(size=(n, M))


@pytest.mark.parametrize("seed", range(6))
def test_coalesce_rounds_match_oracle(seed):
    rng = np.random.default_rng(600 + seed)
    n, M, N = int(rng.integers(500, 3001)), int(rng.integers(1, 5)), int(rng.integers(1, 9))
    pts = _mixture(rng, n, M) if seed % 2 else rng.normal(size=(n, M))
    # a threshold at or below N leaves the whole merge sequence to the coalesce stage
    threshold = vq.EXACT_THRESHOLD if seed < 3 else N
    _, _, history = pnn_quantize(pts, N, exact_threshold=threshold, return_history=True)
    stop_at = max(N, threshold)
    oracle = coalesce_rounds_oracle(pts, stop_at)
    assert len(oracle) == n - stop_at
    assert [(a, b) for a, b, _ in history[:n - stop_at]] == [(a, b) for a, b, _ in oracle]
    np.testing.assert_allclose([c for *_, c in history[:n - stop_at]], [c for *_, c in oracle], rtol=1e-9)


@pytest.mark.parametrize("seed", range(3))
def test_coalesce_ties_go_to_lowest_id(seed):
    # small integers in 1-d: the query's distances are exact, so equal costs tie exactly
    pts = np.random.default_rng(seed).permutation(np.arange(40.0))[:, None]
    _, _, history = pnn_quantize(pts, 2, exact_threshold=1, return_history=True)
    assert [(a, b) for a, b, _ in history] == [(a, b) for a, b, _ in coalesce_rounds_oracle(pts, 2)]


@pytest.mark.parametrize("seed", range(12))
def test_weighted_coalesce_rounds_match_oracle(seed):
    # rows repeated a geometric number of times (about 1-50) start the
    # coalesce stage from clusters of unequal size, so many partners stay
    # unsettled; the rows are distinct normals, so no two distances tie
    rng = np.random.default_rng(900 + seed)
    rows = rng.normal(size=(int(rng.integers(1000, 2500)), int(rng.integers(2, 4))))
    pts = rng.permutation(np.repeat(rows, rng.geometric(0.15, size=len(rows)), axis=0))
    N = int(rng.integers(1, 9))
    threshold = vq.EXACT_THRESHOLD if seed % 2 else N
    _, _, history = pnn_quantize(pts, N, exact_threshold=threshold, return_history=True)
    # the oracle runs on the unique rows in first-occurrence order, weighted
    # by their counts, so its cluster j is the point first[j]
    unique, first, counts = np.unique(pts, axis=0, return_index=True, return_counts=True)
    order = np.argsort(first)
    first = first[order]
    oracle = coalesce_rounds_oracle(unique[order], max(N, threshold), sizes=counts[order])
    zero_cost = len(pts) - len(first)
    merges = history[zero_cost:zero_cost + len(oracle)]
    assert all(c == 0.0 for *_, c in history[:zero_cost])
    assert [(a, b) for a, b, _ in merges] == [(first[a], first[b]) for a, b, _ in oracle]
    np.testing.assert_allclose([c for *_, c in merges], [c for *_, c in oracle], rtol=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_exact_tail_matches_weighted_greedy(seed):
    # after the coalesce stage leaves `stop_at` clusters, the rest of the merges
    # are the exact greedy PNN of those weighted clusters
    rng = np.random.default_rng(800 + seed)
    n, M, N = int(rng.integers(500, 3001)), int(rng.integers(1, 4)), int(rng.integers(1, 9))
    pts = _mixture(rng, n, M) if seed % 2 else rng.normal(size=(n, M))
    _, _, history = pnn_quantize(pts, N, return_history=True)
    stop_at = max(N, vq.EXACT_THRESHOLD)
    centroid, size = pts.copy(), np.ones(n)  # each cluster is named by its lowest point id

    def replay(merges):
        """Apply the merges; return each one's cost priced from the centroids."""
        costs = []
        for a, b, _ in merges:
            costs.append(size[a] * size[b] / (size[a] + size[b]) * ((centroid[a] - centroid[b]) ** 2).sum())
            centroid[a] = (size[a] * centroid[a] + size[b] * centroid[b]) / (size[a] + size[b])
            size[a], size[b] = size[a] + size[b], 0
        return costs

    replay(history[:n - stop_at])
    ids = np.flatnonzero(size)
    assert len(ids) == stop_at
    _, _, _, oracle = greedy_pnn(centroid[ids], N, sizes=size[ids])
    tail = history[n - stop_at:]
    assert [(a, b) for a, b, _ in tail] == [(ids[a], ids[b]) for a, b, _ in oracle]
    np.testing.assert_allclose([c for *_, c in tail], [c for *_, c in oracle], rtol=1e-12)
    # exact rounds price merges from the centroids, not from the k-d query's distances
    assert [c for *_, c in tail] == replay(tail)


def _signature_points(seed):
    lattice = SymbolLattice.real(np.random.default_rng(seed).normal(size=(56, 56, 2)))
    return sweep_signatures(lattice, 2).signatures.reshape(-1, 2)


def _labels_after(n, history):
    """Each point's cluster (its kept id) after replaying merge history triples."""
    root = np.arange(n)
    for a, b, _ in history:
        root[b] = a
    while not np.array_equal(root[root], root):
        root = root[root]
    return root


QUALITY_CASES = [("signatures", seed, (4, 16)) for seed in range(4)] + [
    ("mixture", seed, (8, 16, 32)) for seed in range(3)]


@pytest.mark.parametrize("kind, seed, Ns", QUALITY_CASES, ids=[f"{k}-seed{s}" for k, s, _ in QUALITY_CASES])
def test_coalesce_distortion_close_to_exact_at_scale(kind, seed, Ns):
    # criterion 4's bound, at sizes where the coalesce stage does most merges
    pts = _signature_points(seed) if kind == "signatures" else _mixture(np.random.default_rng(700 + seed), 2400, 3)
    n = len(pts)
    # exact greedy merging to fewer clusters passes through every larger N's partition
    _, _, exact_history = pnn_quantize(pts, min(Ns), exact_threshold=10**9, return_history=True)
    Z = ward(pts)
    for N in Ns:
        exact = total_distortion(pts, _labels_after(n, exact_history[:n - N]))
        # PNN's merge cost is Ward's criterion, so the exact stage must agree with it
        assert total_distortion(pts, fcluster(Z, N, "maxclust")) == pytest.approx(exact, rel=1e-9)
        _, asg = pnn_quantize(pts, N)
        assert total_distortion(pts, asg) <= 1.001 * exact, f"N={N}"


def _record_queries(monkeypatch):
    """Patch the k-d tree in `vq` to record (query points, thread, k) per query."""
    calls = []

    class RecordingTree(cKDTree):
        def query(self, x, k=1, *args, **kwargs):
            assert not args and not kwargs  # one thread per query part, scipy's own threads unused
            calls.append((len(x), threading.get_ident(), k))
            return super().query(x, k)

    monkeypatch.setattr(vq, "cKDTree", RecordingTree)
    return calls


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_query_bounds_split_rule(cpus):
    # in-order parts covering every row, one per CPU at most, each of at
    # least QUERY_PART_MIN rows when there is more than one, sizes within 1
    part = vq.QUERY_PART_MIN
    for n in [0, 1, part - 1, part, 2 * part - 1, 2 * part, 3 * part + 5, 100 * part + 7]:
        bounds = vq._query_bounds(n, cpus)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == n and (sizes >= 0).all()
        assert len(sizes) == max(1, min(cpus, n // part))
        assert len(sizes) == 1 or (sizes.min() >= part and sizes.max() - sizes.min() <= 1)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_queries_split_across_one_pool_per_call(monkeypatch, cpus):
    # every query is split by `_query_bounds`; the caller queries the first
    # part, and the other parts run on the cpus - 1 threads of one pool
    calls = _record_queries(monkeypatch)
    split, bounds = [], vq._query_bounds
    monkeypatch.setattr(vq, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(vq, "_query_bounds", lambda n, c: split.append(bounds(n, c)) or split[-1])
    pnn_quantize(np.random.default_rng(0).normal(size=(6000, 2)), 4)
    caller = threading.get_ident()
    assert max(len(s) - 1 for s in split) == cpus
    assert sorted(size for size, _, _ in calls) == sorted(b - a for s in split for a, b in zip(s, s[1:]))
    assert sorted(size for size, thread, _ in calls if thread == caller) == sorted(s[1] for s in split)
    pool_threads = {thread for _, thread, _ in calls} - {caller}
    assert 0 < len(pool_threads) <= cpus - 1 if cpus > 1 else not pool_threads


def _blocky_signatures(seed, side, block=8, M=4, w=2):
    """Window signatures of a categorical image: square blocks of 3 states,
    state j showing symbol j with probability 0.7, else a uniform one of M.
    Few signatures are unique, of very unequal counts, and many distances tie."""
    rng = np.random.default_rng(seed)
    states = np.kron(rng.integers(0, 3, size=(side // block,) * 2), np.ones((block, block), dtype=np.int64))
    symbols = np.where(rng.random(states.shape) < 0.7, states, rng.integers(0, M, size=states.shape))
    return sweep_signatures(SymbolLattice.discrete(symbols, M=M), w).signatures.reshape(-1, M)


def test_coalesce_query_volume_on_categorical_image(monkeypatch):
    # a stale cluster is queried once per round, and one left unsettled goes
    # straight to the long query: here that is 215,497 query points x
    # neighbors, against 263,586 when every round re-queried each unsettled
    # cluster with a short and then a long query
    calls = _record_queries(monkeypatch)
    pnn_quantize(_blocky_signatures(0, 128), 3)
    assert sum(points * k for points, _, k in calls) < 235_000


@pytest.mark.parametrize("kind, seed", [("image", seed) for seed in range(10)] + [("normal", 17)])
def test_short_long_routing_changes_no_output(monkeypatch, kind, seed):
    # a short query that settles names the partner the long one would, so
    # making every query long must give the same merges, costs, assignment
    # and codebook. In the images, 3x3 windows of 5 symbols put many
    # signatures at equal distances, so a short query's last neighbor often
    # ties with clusters it did not return
    if kind == "image":
        pts, N = _blocky_signatures(seed, 48, block=4, M=5, w=1), 3
    else:
        rng = np.random.default_rng(seed)
        pts, N = rng.normal(size=(int(rng.integers(200, 2500)), int(rng.integers(1, 5)))), 9
    routed = pnn_quantize(pts, N, exact_threshold=1, return_history=True)
    monkeypatch.setattr(vq, "SHORT_CANDIDATES", vq.TREE_CANDIDATES)
    long_only = pnn_quantize(pts, N, exact_threshold=1, return_history=True)
    assert routed[2] == long_only[2] and np.array_equal(routed[1], long_only[1])
    assert np.array_equal(routed[0].centroids, long_only[0].centroids)


def test_pnn_huge_finite_points_priced_without_overflow():
    # every squared distance here overflows; greedy PNN merges 0-1, 2.5-4, then those two
    points = np.array([[0.0], [1e200], [2.5e200], [4e200], [7e200]])
    cb, asg = pnn_quantize(points, 2)
    assert asg.tolist() == [0, 0, 0, 0, 1] and cb.sizes.tolist() == [4.0, 1.0]
    assert cb.centroids[:, 0] == pytest.approx([1.875e200, 7e200])
    with np.errstate(over="ignore"):  # the reported costs overflow to inf
        _, asg, history = pnn_quantize(points, 2, return_history=True)
    assert [(a, b) for a, b, _ in history] == [(0, 1), (2, 3), (0, 2)]


@pytest.mark.parametrize("exact_threshold", [1, 64])
def test_pnn_huge_points_as_their_power_of_two_scaling(exact_threshold):
    # scaling by a power of two changes no merge; coalesce queries included
    points = np.random.default_rng(5).uniform(0, 1e200, size=(300, 2))
    cb, asg = pnn_quantize(points, 2, exact_threshold=exact_threshold)
    small_cb, small_asg = pnn_quantize(np.ldexp(points, -700), 2, exact_threshold=exact_threshold)
    assert np.array_equal(asg, small_asg)
    assert np.array_equal(cb.centroids, np.ldexp(small_cb.centroids, 700))
    assert np.array_equal(cb.sizes, small_cb.sizes)


@pytest.mark.parametrize("kind, seed", [("normal", seed) for seed in range(3)] + [("image", seed) for seed in range(3)])
def test_pool_changes_no_output(monkeypatch, kind, seed):
    # queries split into parts of 8 rows over 4 CPUs, against one CPU: a
    # row's neighbors do not depend on the rows queried with it, so merges,
    # costs, assignment and codebook are the same, ties included
    if kind == "image":
        pts, N = _blocky_signatures(seed, 48, block=4, M=5, w=1), 3
    else:
        rng = np.random.default_rng(seed)
        pts, N = rng.normal(size=(int(rng.integers(500, 3000)), int(rng.integers(1, 5)))), 5
    monkeypatch.setattr(vq, "QUERY_PART_MIN", 8)
    results = []
    for cpus in (1, 4):
        monkeypatch.setattr(vq, "_cpu_count", lambda cpus=cpus: cpus)
        results.append(pnn_quantize(pts, N, return_history=True))
    (cb1, asg1, hist1), (cb4, asg4, hist4) = results
    assert hist1 == hist4 and np.array_equal(asg1, asg4)
    assert cb1.centroids.tobytes() == cb4.centroids.tobytes() and np.array_equal(cb1.sizes, cb4.sizes)


@pytest.mark.parametrize("seed", range(6))
def test_weighted_points_quantize_like_their_repeats(seed):
    # each distinct row once, weighted by its count, in first-occurrence
    # order: the same codebook as all the rows, and each row's cluster is
    # its distinct row's; equal weighted rows merge too
    pts = _blocky_signatures(seed, 32, block=4, M=4, w=1) if seed % 2 else _repeated_rows(seed, 300)
    _, first, inverse, counts = np.unique(pts, axis=0, return_index=True, return_inverse=True,
                                          return_counts=True)
    by_first = np.argsort(first)
    label = np.argsort(by_first)[inverse.ravel()]
    rows, weights = pts[first[by_first]], counts[by_first]
    # split each weight between a row and its copy placed last
    weights[0] = max(1, weights[0] - 1)
    rows, weights = np.vstack([rows, rows[:1]]), np.append(weights, counts[by_first][0] - weights[0])
    if weights[-1] < 1:
        rows, weights = rows[:-1], weights[:-1]
    N = 1 + seed
    cb, asg = pnn_quantize(pts, N)
    weighted_cb, weighted_asg = pnn_quantize(rows, N, weights=weights)
    assert weighted_cb.centroids.tobytes() == cb.centroids.tobytes()
    assert np.array_equal(weighted_cb.sizes, cb.sizes)
    assert np.array_equal(weighted_asg[label], asg)


@pytest.mark.parametrize("weights", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 1.0, 1.0]], [1.0, 0.5, 2.0],
                                     [1.0, 0.0, 1.0], [1.0, -3.0, 1.0], [1.0, np.nan, 1.0], [1.0, np.inf, 1.0]],
                         ids=["short", "long", "2-d", "half", "zero", "negative", "nan", "inf"])
def test_pnn_rejects_bad_weights(weights):
    with pytest.raises(InputError, match="weights"):
        pnn_quantize(np.array([[0.0], [1.0], [5.0]]), 2, weights=weights)
