"""Pairwise-nearest-neighbor vector quantization.

Greedy agglomeration: repeatedly merge the pair whose merge raises total
squared distortion the least, until N clusters remain. Identical points merge
first, at zero cost, so merging starts from the weighted unique points, each
centroid exactly its point; a caller that already holds distinct points
passes their multiplicities as weights, which merge the same way. Then one
loop merges round by round. Every live cluster keeps its cheapest known
partner; by the reducibility of the merge cost that partner stays the
cheapest while other clusters merge, so a round re-prices only the stale
clusters: those that merged, those whose partner merged, and those whose
partner is not known to be the cheapest of all.

- Above `exact_threshold` live clusters, a round builds one k-d tree over
  the live centroids and merges every pair that picked each other, which is
  near-linearithmic. A query prices partners from its own distances, ties to
  the lowest cluster id; a partner is settled, the cheapest of all live
  clusters, when a smallest live cluster just beyond the last neighbor would
  cost more. Each stale cluster is queried once where it can be: one whose
  last query was short (in the first round, every one) gets the short
  `SHORT_CANDIDATES` query and, only if that does not settle it, the long
  `TREE_CANDIDATES` one; one whose last query was long goes straight to the
  long query. That routing is exact, since a short query that settles
  names the same partner at the same cost as the long one, and the long one
  settles whatever the short one does.
- A query is split into in-order parts of at least `QUERY_PART_MIN` rows,
  one per CPU the process may run on at most. Each part is queried and
  priced on a thread of its own and writes only its own rows: the caller
  runs the first part and a thread pool, made once per `pnn_quantize` call,
  the others; the k-d query releases the GIL. A row's neighbors and price
  do not depend on the rows queried with it, so the split changes no output.
- At or below `exact_threshold`, the live clusters' costs, with d² from the
  centroids, go in one matrix (n clusters hold n² costs), and a round merges
  only the cheapest pair, least in (cost, lower id, higher id): the exact
  greedy step. No partner carries over from the coalesce rounds. The
  query's distances round, so coalesce ties go to the lowest id only where
  those distances are exact; exact-round ties are exact.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import InputError

EXACT_THRESHOLD = 64
TREE_CANDIDATES = 12
SHORT_CANDIDATES = 5
# rows of one query part at least. Measured on 2 cores: smaller parts gain
# nothing, and neither does a query of 256-511 rows split in two parts;
# one of 512 rows split in two runs 20-27 % faster
QUERY_PART_MIN = 128


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


def overflow_shift(*arrays) -> int:
    """The k for which 2^-k brings the largest magnitude in `arrays` below
    2^480, or 0 when it is there already. Below that no squared distance or
    merge cost of finite points overflows; and scaling by a power of two is
    exact short of underflow, so it keeps the order of distances and costs."""
    top = max(float(np.abs(a).max(initial=0.0)) for a in arrays)
    return max(0, int(np.frexp(top)[1]) - 480)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _query_bounds(n: int, cpus: int) -> list[int]:
    """Bounds of the in-order parts a query of n rows is split into: one per
    CPU, but no more than hold `QUERY_PART_MIN` rows each, and at least one."""
    parts = max(1, min(cpus, n // QUERY_PART_MIN))
    return [n * i // parts for i in range(parts + 1)]


def merge_cost(size_a, centroid_a, size_b, centroid_b) -> float:
    """Exact increase in total squared distortion from merging two clusters."""
    if size_a < 1 or size_b < 1:
        raise InputError("cluster sizes must be >= 1")
    diff = np.asarray(centroid_a, dtype=np.float64) - np.asarray(centroid_b, dtype=np.float64)
    return float(size_a * size_b / (size_a + size_b) * np.dot(diff, diff))


class _Agglomerator:
    def __init__(self, centroid, size, pool, cpus):
        k = len(centroid)
        self.pool, self.cpus = pool, cpus  # the thread pool of the query parts past the first
        self.centroid = centroid
        self.size = size
        self.alive = np.ones(k, dtype=bool)
        self.parent = np.arange(k)
        self.history: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # each round's (a, b, cost)
        # kept between rounds: each cluster's cheapest known partner, that
        # merge's cost, whether it is the cheapest of all live clusters, and
        # whether its last query was the long one (none is before any query,
        # so that the first round starts short)
        self.partner = np.zeros(k, dtype=np.int64)
        self.best = np.zeros(k)
        self.settled = np.zeros(k, dtype=bool)
        self.long = np.zeros(k, dtype=bool)

    def merge(self, a, b, cost):
        """Merge clusters b[i] into a[i] (a[i] < b[i]); centroids become size-weighted means."""
        total = self.size[a] + self.size[b]
        self.centroid[a] = (self.size[a, None] * self.centroid[a]
                            + self.size[b, None] * self.centroid[b]) / total[:, None]
        self.size[a] = total
        self.alive[b] = False
        self.parent[b] = a
        self.history.append((a, b, cost))

    def _price(self, tree, ids, q, k, s_min):
        """Cheapest partner of each cluster in `q` among its k-1 nearest others.

        Costs come from the query's own distances; ties go to the lowest
        cluster id. A partner is settled (the cheapest of all live clusters)
        when even a smallest live cluster just beyond the k-th neighbor would
        cost more; the bound is strict so that no cluster outside the query
        can tie with a lower id.
        """
        dist, cid = tree.query(self.centroid[q], k)
        cid = ids[cid]
        s, size = self.size[q], self.size[cid]
        cost = s[:, None] * size
        cost /= s[:, None] + size
        cost *= np.square(dist, out=dist)
        cost[cid == q[:, None]] = np.inf
        best = cost.min(axis=1)
        self.partner[q] = np.where(cost == best[:, None], cid, len(self.alive)).min(axis=1)
        self.best[q] = best
        self.settled[q] = (k == len(ids)) | (s * s_min / (s + s_min) * dist[:, -1] > best)

    def _query(self, tree, ids, q, k, s_min):
        """`_price` the rows of `q` in the parts of `_query_bounds`, each on
        its own thread: the caller the first part, the pool the others. Each
        part writes only its own rows."""
        bounds = _query_bounds(len(q), self.cpus)
        rest = [self.pool.submit(self._price, tree, ids, q[a:b], k, s_min) for a, b in zip(bounds[1:-1], bounds[2:])]
        self._price(tree, ids, q[:bounds[1]], k, s_min)
        for part in rest:
            part.result()

    def _requery(self, ids, q, s_min):
        """One query for each cluster in `q`: the long one for clusters whose
        last query was long; for the rest the short one, then the long one
        where the short one does not settle.

        Routing loses nothing: where the short query settles, its partner is
        cheaper than anything beyond its last neighbor, so the long query
        names the same partner at the same cost; and the long query settles
        whatever the short one does, its last neighbor being no nearer.
        """
        tree = cKDTree(self.centroid[ids])
        short = q[~self.long[q]]
        if short.size:
            self._query(tree, ids, short, min(SHORT_CANDIDATES + 1, len(ids)), s_min)
            self.long[short] = ~self.settled[short]
        retry = q[self.long[q]]
        if retry.size:
            self._query(tree, ids, retry, min(TREE_CANDIDATES + 1, len(ids)), s_min)

    def _exact(self, ids, n_target):
        """Merge the cheapest pair of the live clusters `ids`, least in (cost,
        lower id, higher id), until `n_target` remain: the exact greedy step.
        Costs come from d² of the centroids, in a matrix over `ids`. A merge
        re-prices the kept cluster's row and column, and only the clusters
        that merged or whose partner merged take a new partner, ties to the
        lowest id; a merged-away cluster's centroid, so its cost, is infinite."""
        c, s = self.centroid[ids], self.size[ids]
        cost = s * s[:, None] / (s + s[:, None]) * ((c - c[:, None]) ** 2).sum(axis=2)
        np.fill_diagonal(cost, np.inf)
        partner, best = cost.argmin(axis=1), cost.min(axis=1)
        history = []
        for _ in range(len(ids) - n_target):
            i = int(best.argmin())
            lo, hi = sorted((i, int(partner[i])))
            history.append((lo, hi, best[i]))
            total = s[lo] + s[hi]
            c[lo] = (s[lo] * c[lo] + s[hi] * c[hi]) / total
            s[lo], c[hi] = total, np.inf
            cost[lo] = cost[:, lo] = s * s[lo] / (s + s[lo]) * ((c - c[lo]) ** 2).sum(axis=1)
            cost[lo, lo] = cost[hi] = cost[:, hi] = np.inf
            partner[lo] = hi  # the kept cluster takes a new partner too
            stale = np.flatnonzero((partner == lo) | (partner == hi))
            partner[stale], best[stale] = cost[stale].argmin(axis=1), cost[stale].min(axis=1)
        self.centroid[ids], self.size[ids] = c, s
        kept, gone, costs = map(np.array, zip(*history))
        self.alive[ids[gone]], self.parent[ids[gone]] = False, ids[kept]
        self.history.append((ids[kept], ids[gone], costs))

    def run(self, n_target, exact_threshold):
        """Merge round by round until `n_target` clusters remain: mutual pairs
        from k-d queries above `exact_threshold` live clusters (but not past
        it), then the cheapest pair by `_exact` at or below it. A round with
        no mutual pair merges its cheapest pair too.
        """
        ids = np.flatnonzero(self.alive)  # live clusters, ascending
        stale = ids
        merged = np.zeros(len(self.alive), dtype=bool)
        stop = max(n_target, exact_threshold)
        while len(ids) > stop:
            self._requery(ids, stale, self.size[ids].min())
            partner, cost = self.partner[ids], self.best[ids]
            mutual = (self.partner[partner] == ids) & (ids < partner)
            a, b, c = ids[mutual], partner[mutual], cost[mutual]
            if a.size > len(ids) - stop:
                keep = np.argsort(c, kind="stable")[:len(ids) - stop]
                a, b, c = a[keep], b[keep], c[keep]
            if a.size == 0:  # no mutual pair: the pair least in (cost, owner id)
                i = int(np.argmin(cost))
                lo, hi = sorted((ids[i], partner[i]))
                a, b, c = np.array([lo]), np.array([hi]), cost[i:i + 1]
            self.merge(a, b, c)
            merged[a] = merged[b] = True
            ids = ids[self.alive[ids]]
            stale = ids[merged[ids] | merged[self.partner[ids]] | ~self.settled[ids]]
            merged[a] = merged[b] = False
        if len(ids) > n_target:  # the query's distances round: no partner carries over
            self._exact(ids, n_target)


def pnn_quantize(points, n_clusters, *, weights=None, exact_threshold=EXACT_THRESHOLD, return_history=False):
    """Quantize points into `n_clusters` clusters by greedy PNN merging.

    `weights` gives each point's multiplicity, at least 1 (default 1): a
    point of weight k is a cluster of k equal points, which is never split,
    so a caller that holds only the distinct points of a larger set gets
    the quantization of that set. Returns (Codebook, per-point cluster
    index); ties during merge selection break toward the lowest
    cluster-identifier pair, so output is deterministic given input order.
    The zero-cost merges come first (one column sort finds the repeated
    rows): each repeat of a row merges into the row's first occurrence, in
    (first index, repeat index) order, until `n_clusters` remain. Above
    `exact_threshold` live clusters the merge sequence is the batched
    mutual-nearest-neighbor approximation; at or below it, the exact greedy
    sequence. `return_history` adds the merges as (kept point, merged point,
    cost) triples; a cost past the largest float reads inf.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] < 1:
        raise InputError("points must be a 2-d array (n, M) with M >= 1")
    if n_clusters < 1:
        raise InputError("cluster count must be >= 1")
    n = len(points)
    if n < n_clusters:
        raise InputError(f"need at least {n_clusters} points, got {n}")
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,) or not (np.isfinite(weights) & (weights >= 1)).all():
        raise InputError(f"weights must be {n} finite values >= 1")
    # a stable column sort puts equal rows next to each other in ascending id,
    # so each run of equal rows starts at the row's first occurrence
    order = np.lexsort(points.T)
    ranked = points[order]
    run_start = np.zeros(n, dtype=bool)
    for column in ranked.T:
        run_start[1:] |= column[1:] != column[:-1]
    run_start[0] = True
    first_of = np.empty(n, dtype=np.int64)
    first_of[order] = order[run_start][np.cumsum(run_start) - 1]
    repeats = np.flatnonzero(first_of != np.arange(n))
    repeats = repeats[np.argsort(first_of[repeats], kind="stable")][:n - n_clusters]
    kept = np.ones(n, dtype=bool)
    kept[repeats] = False
    rep = np.flatnonzero(kept)  # point id of each starting cluster
    start = np.cumsum(kept) - 1  # each point's starting cluster
    start[repeats] = start[first_of[repeats]]

    # merges are priced on points scaled by a power of two, so that the costs
    # of huge finite points do not overflow
    shift = overflow_shift(points)
    cpus = _cpu_count()
    with ThreadPoolExecutor(cpus - 1) if cpus > 1 else nullcontext() as pool:
        agg = _Agglomerator(np.ldexp(points[rep], -shift), np.bincount(start, weights), pool, cpus)
        agg.run(n_clusters, exact_threshold)

    # resolve merge chains by pointer jumping; the roots are the survivors
    root = agg.parent
    while not np.array_equal(root[root], root):
        root = root[root]
    codebook = Codebook(np.ldexp(agg.centroid[agg.alive], shift), agg.size[agg.alive])
    assignment = (np.cumsum(agg.alive) - 1)[root[start]]
    if return_history:
        history = list(zip(first_of[repeats].tolist(), repeats.tolist(), [0.0] * len(repeats)))
        for a, b, c in agg.history:
            history += zip(rep[a].tolist(), rep[b].tolist(), np.ldexp(c, 2 * shift).tolist())
        return codebook, assignment, history
    return codebook, assignment
