"""Pairwise-nearest-neighbor vector quantization.

Greedy agglomeration: repeatedly merge the pair whose merge raises total
squared distortion the least, until N clusters remain. Identical points merge
first, at zero cost, so merging starts from the weighted unique points, each
centroid exactly its point. Candidate pairs live in a lazily-invalidated heap
keyed by (cost, lowest-id pair); stale entries are re-validated before use, so
on inputs up to `exact_threshold` live clusters the merge sequence equals the
exact greedy one. Above the threshold, clusters are first coalesced by
mutual-nearest-neighbor rounds — each round batch-queries one k-d tree over
all live centroids and merges every pair that picked each other — which is
near-linearithmic, then the exact heap finishes the tail.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import InputError

EXACT_THRESHOLD = 64
TREE_CANDIDATES = 12


@dataclass(frozen=True)
class Codebook:
    """VQ output: N centroids with their cluster sizes."""

    centroids: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.centroids) != len(self.sizes):
            raise InputError("centroid/size count mismatch")
        if not (np.isfinite(self.centroids).all() and np.isfinite(self.sizes).all()):
            raise InputError("centroids and sizes must be finite")
        if self.sizes.size and self.sizes.min() < 1:
            raise InputError("cluster sizes must be >= 1")

    @property
    def N(self) -> int:
        return len(self.centroids)

    @property
    def M(self) -> int:
        return int(self.centroids.shape[1])


def merge_cost(size_a, centroid_a, size_b, centroid_b) -> float:
    """Exact increase in total squared distortion from merging two clusters."""
    if size_a < 1 or size_b < 1:
        raise InputError("cluster sizes must be >= 1")
    diff = np.asarray(centroid_a, dtype=np.float64) - np.asarray(centroid_b, dtype=np.float64)
    return float(size_a * size_b / (size_a + size_b) * np.dot(diff, diff))


class _Agglomerator:
    def __init__(self, centroid, size):
        k = len(centroid)
        self.centroid = centroid
        self.size = size
        self.alive = np.ones(k, dtype=bool)
        self.gen = np.zeros(k, dtype=np.int64)
        self.parent = np.arange(k)
        self.active = k
        self.history: list[tuple[int, int, float]] = []

    def merge(self, a, b, cost):
        """Merge clusters b[i] into a[i] (a[i] < b[i]); centroids become size-weighted means."""
        total = self.size[a] + self.size[b]
        self.centroid[a] = (self.size[a, None] * self.centroid[a]
                            + self.size[b, None] * self.centroid[b]) / total[:, None]
        self.size[a] = total
        self.alive[b] = False
        self.gen[a] += 1
        self.parent[b] = a
        self.active -= len(a)
        self.history.extend(zip(a.tolist(), b.tolist(), cost.tolist()))

    # -- batched approximate stage (large inputs) ---------------------------

    def _round_candidates(self, ids):
        """Per cluster: cheapest merge partner among its k-d tree neighbors."""
        k = min(TREE_CANDIDATES + 1, len(ids))
        tree = cKDTree(self.centroid[ids])
        _, idx = tree.query(self.centroid[ids], k=k, workers=-1)
        idx = idx.reshape(len(ids), -1)
        cid = ids[idx]
        d2 = ((self.centroid[cid] - self.centroid[ids][:, None, :]) ** 2).sum(axis=2)
        costs = self.size[cid] * self.size[ids][:, None] / (self.size[cid] + self.size[ids][:, None]) * d2
        costs[cid == ids[:, None]] = np.inf
        j = np.argmin(costs, axis=1)
        rows = np.arange(len(ids))
        return cid[rows, j], costs[rows, j]

    def coalesce(self, stop_at):
        """Shrink to `stop_at` clusters by mutual-nearest-neighbor rounds.

        Merging every mutually-nearest pair per round approximates the greedy
        sequence (the globally cheapest pair is always mutual) while keeping
        each round a few vectorized passes over the live clusters.
        """
        while self.active > stop_at:
            ids = np.flatnonzero(self.alive)
            partner, cost = self._round_candidates(ids)
            pos = np.full(len(self.alive), -1, dtype=np.int64)
            pos[ids] = np.arange(len(ids))
            mutual = (partner[pos[partner]] == ids) & (ids < partner)
            a, b, c = ids[mutual], partner[mutual], cost[mutual]
            if a.size == 0:
                # no mutual pair among candidates: force the round's best pair
                i = int(np.argmin(cost))
                lo, hi = sorted((ids[i], partner[i]))
                self.merge(np.array([lo]), np.array([hi]), cost[i:i + 1])
                continue
            room = self.active - stop_at
            if a.size > room:
                keep = np.argsort(c, kind="stable")[:room]
                a, b, c = a[keep], b[keep], c[keep]
            self.merge(a, b, c)

    # -- exact stage ---------------------------------------------------------

    def _pick(self, a, ids, costs):
        m = costs.min()
        cand = ids[costs == m]
        lower = cand[cand < a]
        b = int(lower.min() if lower.size else cand.min())
        return float(m), b

    def nn_exact(self, a, ids):
        ids = ids[ids != a]
        d2 = ((self.centroid[ids] - self.centroid[a]) ** 2).sum(axis=1)
        costs = self.size[ids] * self.size[a] / (self.size[ids] + self.size[a]) * d2
        return self._pick(a, ids, costs)

    def entry(self, a, ids):
        c, b = self.nn_exact(a, ids)
        return (c, min(a, b), max(a, b), a, b, self.gen[a], self.gen[b])

    def run(self, n_target):
        if self.active <= n_target:
            return
        ids = np.flatnonzero(self.alive)
        heap = [self.entry(int(a), ids) for a in ids]
        heapq.heapify(heap)
        while self.active > n_target:
            cost, pmin, pmax, owner, partner, go, gp = heapq.heappop(heap)
            if not self.alive[owner] or self.gen[owner] != go:
                continue
            if not self.alive[partner] or self.gen[partner] != gp:
                heapq.heappush(heap, self.entry(owner, ids))
                continue
            self.merge(np.array([pmin]), np.array([pmax]), np.array([cost]))
            ids = ids[ids != pmax]
            if self.active <= n_target:
                break
            heapq.heappush(heap, self.entry(pmin, ids))


def pnn_quantize(points, n_clusters, *, exact_threshold=EXACT_THRESHOLD, return_history=False):
    """Quantize points into `n_clusters` clusters by greedy PNN merging.

    Returns (Codebook, per-point cluster index); ties during merge selection
    break toward the lowest cluster-identifier pair, so output is
    deterministic given input order. The zero-cost merges come first (one
    column sort finds the repeated rows): each repeat of a row merges into
    the row's first occurrence, in (first index, repeat index) order, until
    `n_clusters` remain. Above `exact_threshold` live clusters the merge
    sequence is the batched mutual-nearest-neighbor approximation; at or
    below it, the exact greedy sequence. `return_history` adds the merges as
    (kept point, merged point, cost) triples.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] < 1:
        raise InputError("points must be a 2-d array (n, M) with M >= 1")
    if n_clusters < 1:
        raise InputError("cluster count must be >= 1")
    n = len(points)
    if n < n_clusters:
        raise InputError(f"need at least {n_clusters} points, got {n}")
    # a stable column sort puts equal rows next to each other in ascending id,
    # so each run of equal rows starts at the row's first occurrence
    order = np.lexsort(points.T)
    ranked = points[order]
    run_start = np.ones(n, dtype=bool)
    run_start[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first_of = np.empty(n, dtype=np.int64)
    first_of[order] = order[run_start][np.cumsum(run_start) - 1]
    repeats = np.flatnonzero(first_of != np.arange(n))
    repeats = repeats[np.argsort(first_of[repeats], kind="stable")][:n - n_clusters]
    kept = np.ones(n, dtype=bool)
    kept[repeats] = False
    rep = np.flatnonzero(kept)  # point id of each starting cluster
    start = np.cumsum(kept) - 1  # each point's starting cluster
    start[repeats] = start[first_of[repeats]]

    agg = _Agglomerator(points[rep], np.bincount(start).astype(np.float64))
    if agg.active > exact_threshold:
        agg.coalesce(stop_at=max(n_clusters, exact_threshold))
    agg.run(n_clusters)

    # resolve merge chains by pointer jumping; the roots are the survivors
    root = agg.parent
    while not np.array_equal(root[root], root):
        root = root[root]
    codebook = Codebook(agg.centroid[agg.alive], agg.size[agg.alive])
    assignment = (np.cumsum(agg.alive) - 1)[root[start]]
    if return_history:
        ids = rep.tolist()
        history = list(zip(first_of[repeats].tolist(), repeats.tolist(), [0.0] * len(repeats)))
        history += [(ids[a], ids[b], c) for a, b, c in agg.history]
        return codebook, assignment, history
    return codebook, assignment
