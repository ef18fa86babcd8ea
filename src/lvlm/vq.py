"""Pairwise-nearest-neighbor vector quantization.

Greedy agglomeration: start from singleton clusters and repeatedly merge the
pair whose merge raises total squared distortion the least, until N clusters
remain. Candidate pairs live in a lazily-invalidated heap keyed by
(cost, lowest-id pair); stale entries are re-validated before use, so on
inputs up to `exact_threshold` live clusters the merge sequence equals the
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
    def __init__(self, points, exact_threshold, tree_candidates):
        self.pts = points
        n = len(points)
        self.centroid = points.copy()
        self.size = np.ones(n, dtype=np.float64)
        self.alive = np.ones(n, dtype=bool)
        self.gen = np.zeros(n, dtype=np.int64)
        self.parent = np.arange(n)
        self.active = n
        self.history: list[tuple[int, int, float]] = []
        self.exact_threshold = exact_threshold
        self.tree_candidates = tree_candidates

    # -- merge bookkeeping ------------------------------------------------

    def merge(self, a, b, cost):
        """Merge cluster b into a (a < b); centroid becomes size-weighted mean."""
        total = self.size[a] + self.size[b]
        self.centroid[a] = (self.size[a] * self.centroid[a] + self.size[b] * self.centroid[b]) / total
        self.size[a] = total
        self.alive[b] = False
        self.gen[a] += 1
        self.parent[b] = a
        self.active -= 1
        self.history.append((int(a), int(b), float(cost)))

    def dedupe(self, stop_at):
        """Collapse identical points (the zero-cost merges exact PNN does first)."""
        if self.active <= stop_at:
            return
        _, inverse = np.unique(self.pts, axis=0, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(inverse[order])) + 1)
        groups = [g for g in groups if len(g) > 1]
        groups.sort(key=lambda g: g[0])
        for g in groups:
            rep = int(g[0])
            for m in g[1:]:
                if self.active <= stop_at:
                    return
                self.merge(rep, int(m), 0.0)

    # -- batched approximate stage (large inputs) ---------------------------

    def _round_candidates(self, ids):
        """Per cluster: cheapest merge partner among its k-d tree neighbors."""
        k = min(self.tree_candidates + 1, len(ids))
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

    def _merge_pairs(self, a, b, cost):
        total = self.size[a] + self.size[b]
        self.centroid[a] = (self.size[a, None] * self.centroid[a]
                            + self.size[b, None] * self.centroid[b]) / total[:, None]
        self.size[a] = total
        self.alive[b] = False
        self.gen[a] += 1
        self.parent[b] = a
        self.active -= len(a)
        self.history.extend(zip(a.tolist(), b.tolist(), cost.tolist()))

    def coalesce(self, stop_at):
        """Shrink to `stop_at` clusters by mutual-nearest-neighbor rounds.

        Merging every mutually-nearest pair per round approximates the greedy
        sequence (the globally cheapest pair is always mutual) while keeping
        each round a few vectorized passes over the live clusters.
        """
        while self.active > stop_at:
            ids = np.flatnonzero(self.alive)
            partner, cost = self._round_candidates(ids)
            pos = np.full(len(self.pts), -1, dtype=np.int64)
            pos[ids] = np.arange(len(ids))
            mutual = (partner[pos[partner]] == ids) & (ids < partner)
            a, b, c = ids[mutual], partner[mutual], cost[mutual]
            if a.size == 0:
                # no mutual pair among candidates: force the round's best pair
                i = int(np.argmin(cost))
                lo, hi = sorted((int(ids[i]), int(partner[i])))
                self.merge(lo, hi, float(cost[i]))
                continue
            room = self.active - stop_at
            if a.size > room:
                keep = np.argsort(c, kind="stable")[:room]
                a, b, c = a[keep], b[keep], c[keep]
            self._merge_pairs(a, b, c)

    # -- exact stage ---------------------------------------------------------

    def _pick(self, a, ids, costs):
        m = costs.min()
        cand = ids[costs == m]
        lower = cand[cand < a]
        b = int(lower.min() if lower.size else cand.min())
        return float(m), b

    def nn_exact(self, a, ids=None):
        if ids is None:
            ids = np.flatnonzero(self.alive)
        ids = ids[ids != a]
        d2 = ((self.centroid[ids] - self.centroid[a]) ** 2).sum(axis=1)
        costs = self.size[ids] * self.size[a] / (self.size[ids] + self.size[a]) * d2
        return self._pick(a, ids, costs)

    def entry(self, a, ids=None):
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
            self.merge(pmin, pmax, cost)
            ids = ids[ids != pmax]
            if self.active <= n_target:
                break
            heapq.heappush(heap, self.entry(pmin, ids))

    def result(self):
        survivors = np.flatnonzero(self.alive)
        # resolve merge chains by pointer jumping; the roots are the survivors
        root = self.parent
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        index = np.empty(len(self.pts), dtype=np.int64)
        index[survivors] = np.arange(len(survivors))
        codebook = Codebook(self.centroid[survivors].copy(), self.size[survivors].copy())
        return codebook, index[root]


def pnn_quantize(points, n_clusters, *, dedupe=True, exact_threshold=EXACT_THRESHOLD,
                 tree_candidates=TREE_CANDIDATES, return_history=False):
    """Quantize points into `n_clusters` clusters by greedy PNN merging.

    Returns (Codebook, per-point cluster index); ties during merge selection
    break toward the lowest cluster-identifier pair, so output is
    deterministic given input order. Above `exact_threshold` live clusters
    the merge sequence is the batched mutual-nearest-neighbor approximation;
    at or below it, the exact greedy sequence.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise InputError("points must be a 2-d array (n, M)")
    if n_clusters < 1:
        raise InputError("cluster count must be >= 1")
    if len(points) < n_clusters:
        raise InputError(f"need at least {n_clusters} points, got {len(points)}")
    agg = _Agglomerator(points, exact_threshold, tree_candidates)
    if dedupe:
        agg.dedupe(stop_at=n_clusters)
    if agg.active > exact_threshold:
        agg.coalesce(stop_at=max(n_clusters, exact_threshold))
    agg.run(n_clusters)
    codebook, assignment = agg.result()
    if return_history:
        return codebook, assignment, agg.history
    return codebook, assignment
