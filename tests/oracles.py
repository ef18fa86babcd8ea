"""Independent brute-force reference implementations used as test oracles.

Everything here recomputes from first principles (per-node window recounts,
full pairwise merge scans, straight-line log-score accumulation, joint
distributions by enumeration, files written and parsed value by value) and stays
independent of the vectorized / accelerated code paths it checks.
"""

import itertools
import math

import numpy as np

from lvlm.lattice import LatticeShape, window_bounds


def naive_signatures(values, M, w, kind):
    """Per-node window statistic by full recount of each node's window."""
    lengths = values.shape if kind == "discrete" else values.shape[:-1]
    shape = LatticeShape(lengths)
    out = np.empty(lengths + (M,))
    for t in np.ndindex(*lengths):
        lo, hi, cells = window_bounds(shape, t, w)
        sl = tuple(slice(l, h + 1) for l, h in zip(lo, hi))
        if kind == "discrete":
            counts = np.zeros(M)
            for v in values[sl].ravel():
                counts[v] += 1
            out[t] = counts / cells
        else:
            out[t] = values[sl].reshape(-1, M).sum(axis=0) / cells
    return out


def greedy_pnn(points, n_clusters, sizes=None):
    """Exact O(n^3) PNN: full pairwise scan each step, ties to lowest pair.

    `sizes` weights each starting point as a cluster of that many points
    (default 1 each). Returns (centroids, sizes, assignment, history); cluster
    identifiers are the lowest original point index in each cluster, output
    clusters ordered by ascending identifier.
    """
    points = np.asarray(points, dtype=float)
    sizes = np.ones(len(points)) if sizes is None else np.asarray(sizes, dtype=float)
    clusters = {i: ([i], points[i].copy(), float(sizes[i])) for i in range(len(points))}
    history = []
    while len(clusters) > n_clusters:
        best = None
        ids = sorted(clusters)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                _, ca, na = clusters[a]
                _, cb, nb = clusters[b]
                diff = ca - cb
                cost = na * nb / (na + nb) * float(np.dot(diff, diff))
                key = (cost, a, b)
                if best is None or key < best:
                    best = key
        cost, a, b = best
        ma, ca, na = clusters[a]
        mb, cb, nb = clusters[b]
        # the mean of equal vectors is that vector; the weighted-mean formula
        # can round away from it, and identical points must stay zero-cost merges.
        # This rule mirrors the implementation's exact-point start, so on inputs
        # with repeated rows the independent check is the scipy Ward-linkage test
        # in tests/test_vq.py, which shares no code with either.
        centroid = ca if np.array_equal(ca, cb) else (na * ca + nb * cb) / (na + nb)
        clusters[a] = (ma + mb, centroid, na + nb)
        del clusters[b]
        history.append((a, b, cost))
    ids = sorted(clusters)
    centroids = np.array([clusters[i][1] for i in ids])
    sizes = np.array([clusters[i][2] for i in ids])
    assignment = np.empty(len(points), dtype=int)
    for k, i in enumerate(ids):
        assignment[clusters[i][0]] = k
    return centroids, sizes, assignment, history


def coalesce_rounds_oracle(points, stop_at, candidates=12, sizes=None):
    """Mutual-nearest-neighbor coalescing of distinct points by brute force.

    Each round, every live cluster scans the distance to every other live
    cluster, takes its `candidates` nearest, and picks the cheapest merge
    among them, ties to the lowest cluster id. Every mutual pair then merges;
    if that would leave fewer than `stop_at` clusters, only the cheapest pairs
    merge. With no mutual pair, the round's cheapest pick merges alone.
    Cluster ids are the lowest point index in each cluster. `sizes` weights
    each starting point as a cluster of that many points (default 1 each).
    Returns the merge history as (kept id, merged id, cost) triples.
    """
    centroid = np.array(points, dtype=float)
    size = np.ones(len(centroid)) if sizes is None else np.array(sizes, dtype=float)
    ids = np.arange(len(centroid))
    history = []
    while len(ids) > stop_at:
        partner = {}
        cost = {}
        for start in range(0, len(ids), 256):
            rows = ids[start:start + 256]
            d2 = ((centroid[rows, None, :] - centroid[None, ids, :]) ** 2).sum(axis=2)
            d2[np.arange(len(rows)), np.arange(start, start + len(rows))] = np.inf
            k = min(candidates, len(ids) - 1)
            near = np.argpartition(d2, k - 1, axis=1)[:, :k]
            cand = ids[near]
            s = size[rows, None]
            c = s * size[cand] / (s + size[cand]) * np.take_along_axis(d2, near, axis=1)
            low = c.min(axis=1)
            cost.update(zip(rows.tolist(), low.tolist()))
            partner.update(zip(rows.tolist(), np.where(c == low[:, None], cand, len(size)).min(axis=1).tolist()))
        pairs = [(a, b, cost[a]) for a, b in partner.items() if a < b and partner[b] == a]
        if not pairs:
            a = min(cost, key=lambda i: (cost[i], i))
            pairs = [(min(a, partner[a]), max(a, partner[a]), cost[a])]
        room = len(ids) - stop_at
        if len(pairs) > room:
            pairs = sorted(pairs, key=lambda p: p[2])[:room]
        for a, b, c in pairs:
            total = size[a] + size[b]
            centroid[a] = (size[a] * centroid[a] + size[b] * centroid[b]) / total
            size[a] = total
            history.append((a, b, c))
        ids = np.setdiff1d(ids, [b for _, b, _ in pairs])
    return history


def lattice_file_bytes(values, real):
    """A lattice file written one value at a time: the header, then one line
    per node of M floats with 17 significant digits (real) or one line per
    last-axis row of integers (u8)."""
    lengths = values.shape[:-1] if real else values.shape
    dtype = f"f64x{values.shape[-1]}" if real else "u8"
    lines = [f"LVLM-LATTICE {len(lengths)} {' '.join(str(n) for n in lengths)} {dtype}"]
    for row in values.reshape(-1, values.shape[-1]):
        lines.append(" ".join(f"{float(x):.17g}" if real else str(int(x)) for x in row))
    return ("\n".join(lines) + "\n").encode()


def _per_value_floats(a):
    return " ".join(f"{float(x):.17g}" for x in np.asarray(a, dtype=np.float64).ravel())


def model_file_bytes(model):
    """A model file written one value at a time: key=value lines, integers by
    str() and floats one by one with 17 significant digits."""
    arrays = ("A", "B") if model.kind == "discrete" else ("A", "mu", "sigma")
    pairs = ([("variant", model.kind)] + [(k, str(getattr(model, k))) for k in ("N", "M", "d", "w", "w_e", "w_l")]
             + [(k, _per_value_floats(getattr(model, k))) for k in ("alpha",) + arrays])
    return "".join(f"{k}={v}\n" for k, v in pairs).encode()


def codebook_file_bytes(codebook):
    """A codebook file written one value at a time, as `model_file_bytes`;
    sizes as str(int(s))."""
    pairs = [("variant", "codebook"), ("N", str(codebook.N)), ("M", str(codebook.M)),
             ("centroids", _per_value_floats(codebook.centroids)),
             ("sizes", " ".join(str(int(s)) for s in codebook.sizes))]
    return "".join(f"{k}={v}\n" for k, v in pairs).encode()


def token_values(body, real):
    """The values of a lattice body or P2 raster parsed token by token: the
    text split at whitespace, each token converted by numpy (float64 if
    `real`, else int64). Raises ValueError or OverflowError on a token that
    does not convert."""
    return np.array(body.split(), dtype=np.float64 if real else np.int64)


def gibbs_joint(lengths, potentials):
    """Exact distribution of the pairwise field prod phi(q_i, q_j) over the
    axis-adjacent node pairs of a tiny lattice, by enumeration.

    Each pair is oriented along its axis: i is the node and j the next node
    along the axis, so phi need not be symmetric. Returns an array over
    configurations, indexed by the row-major node states read as a base-N
    number: configuration `c` has states `np.unravel_index(c, (N,) * node_count)`.
    """
    phi = np.asarray(potentials, dtype=float)
    N = len(phi)
    nodes = list(np.ndindex(*lengths))
    index = {t: i for i, t in enumerate(nodes)}
    pairs = []
    for t in nodes:
        for axis in range(len(lengths)):
            r = t[:axis] + (t[axis] + 1,) + t[axis + 1:]
            if r in index:
                pairs.append((index[t], index[r]))
    weights = []
    for q in itertools.product(range(N), repeat=len(nodes)):
        w = 1.0
        for i, j in pairs:
            w *= phi[q[i], q[j]]
        weights.append(w)
    weights = np.array(weights)
    return weights / weights.sum()


def straightline_gibbs(config):
    """Checkerboard Gibbs sampling of `config` one node at a time.

    Same random stream as `lvlm.synth.gibbs_sample`: uniform integer init,
    then per half-sweep (colour 0, the even coordinate sums, first) one
    `rng.random(count)` for that colour's nodes in row-major order. Each node
    sums log phi(q_l, s) then log phi(s, q_r) axis by axis over the neighbours
    that exist, and draws the number of tail masses above u times the total.
    """
    rng = np.random.default_rng(config.seed)
    lengths = config.shape.lengths
    N = config.N
    q = rng.integers(0, N, size=lengths, dtype=np.int64)
    if N == 1:
        return np.zeros(lengths, dtype=np.int64)
    with np.errstate(divide="ignore"):
        logphi = np.log(config.potentials)
    nodes = list(np.ndindex(*lengths))
    for _ in range(config.sweeps):
        for colour in (0, 1):
            mine = [t for t in nodes if sum(t) % 2 == colour]
            for t, u in zip(mine, rng.random(len(mine))):
                loglik = np.zeros(N)
                for axis in range(len(lengths)):
                    if t[axis] > 0:
                        loglik += logphi[q[t[:axis] + (t[axis] - 1,) + t[axis + 1:]], :]
                    if t[axis] < lengths[axis] - 1:
                        loglik += logphi[:, q[t[:axis] + (t[axis] + 1,) + t[axis + 1:]]]
                top = loglik.max()
                p = np.exp(loglik - (0.0 if top == -np.inf else top))
                for s in range(N - 2, -1, -1):  # p[s] becomes the tail mass p[s] + ... + p[N-1]
                    p[s] += p[s + 1]
                q[t] = (p[1:] > u * p[0]).sum()
    return q


def gibbs_chain(lengths, potentials, sweeps):
    """Exact distribution of the checkerboard sampler's state after `sweeps`
    sweeps from the uniform start, indexed as in `gibbs_joint`.

    Mirrors the sampler's conditionals: when every state of a node has
    potential 0 given its neighbours, the node draws state 0.
    """
    phi = np.asarray(potentials, dtype=float)
    N = len(phi)
    nodes = list(np.ndindex(*lengths))
    index = {t: i for i, t in enumerate(nodes)}
    configs = list(itertools.product(range(N), repeat=len(nodes)))
    code = {c: i for i, c in enumerate(configs)}

    def kernel(i):
        t = nodes[i]
        K = np.zeros((len(configs), len(configs)))
        for a, c in enumerate(configs):
            w = np.ones(N)
            for axis in range(len(lengths)):
                prev = t[:axis] + (t[axis] - 1,) + t[axis + 1:]
                nxt = t[:axis] + (t[axis] + 1,) + t[axis + 1:]
                if prev in index:
                    w *= phi[c[index[prev]], :]
                if nxt in index:
                    w *= phi[:, c[index[nxt]]]
            if w.sum() == 0:
                w = np.eye(N)[0]
            for s in range(N):
                K[a, code[c[:i] + (s,) + c[i + 1:]]] += w[s] / w.sum()
        return K

    sweep = np.eye(len(configs))
    for colour in (0, 1):
        for i, t in enumerate(nodes):
            if sum(t) % 2 == colour:
                sweep = sweep @ kernel(i)
    dist = np.full(len(configs), 1.0 / len(configs))
    for _ in range(sweeps):
        dist = dist @ sweep
    return dist


def total_distortion(points, assignment):
    """Sum of squared distances to each cluster's mean of member points."""
    points = np.asarray(points, dtype=float)
    total = 0.0
    for j in np.unique(assignment):
        members = points[assignment == j]
        total += ((members - members.mean(axis=0)) ** 2).sum()
    return total


def straightline_evaluate_discrete(model, values):
    """Direct per-node recomputation of the discrete log-score."""
    x = naive_signatures(values, model.M, model.w_e, "discrete")
    shape = LatticeShape(values.shape)
    q = {}
    for t in np.ndindex(*values.shape):
        dists = [math.dist(x[t], model.B[j]) for j in range(model.N)]
        q[t] = dists.index(min(dists))
    return _straightline_pairs(model, shape, q, lambda t: math.log(model.B[q[t], values[t]])
                               if model.B[q[t], values[t]] > 0 else -math.inf)


def straightline_evaluate_real(model, values):
    """Direct per-node recomputation of the real log-score (explicit inverse)."""
    M = model.M
    x = naive_signatures(values, M, model.w_e, "real")
    shape = LatticeShape(values.shape[:-1])
    q = {}
    for t in np.ndindex(*shape.lengths):
        dists = [math.dist(x[t], model.mu[j]) for j in range(model.N)]
        q[t] = dists.index(min(dists))

    def emission(t):
        j = q[t]
        diff = values[t] - model.mu[j]
        inv = np.linalg.inv(model.sigma[j])
        det = np.linalg.det(model.sigma[j])
        return float(-0.5 * (M * math.log(2 * math.pi) + math.log(det) + diff @ inv @ diff))

    return _straightline_pairs(model, shape, q, emission)


def _straightline_pairs(model, shape, q, emission):
    from lvlm.lattice import neighbors

    total = 0.0
    for t in np.ndindex(*shape.lengths):
        total += emission(t)
        nbrs = neighbors(shape, t)
        if not nbrs:
            continue
        k = sum(model.A[q[t], q[r]] for r in nbrs)
        if k <= 0:
            return -math.inf
        for r in nbrs:
            a = model.A[q[t], q[r]]
            if a <= 0:
                return -math.inf
            total += 0.5 * (math.log(model.alpha) + math.log(a) - math.log(k))
    return total


def straightline_learn_discrete(lattices, M, w_l, centroids):
    """Learned (A, B) recomputed node by node from a PNN codebook, or None
    when some state gets no node. B is the codebook clipped at 0 and
    renormalized onto the simplex; states are the nearest B rows to each
    node's window signature; A row-normalizes the neighbor-pair counts."""
    B = []
    for row in centroids:
        clipped = [max(0.0, float(c)) for c in row]
        total = sum(clipped)
        B.append([c / total for c in clipped])
    B = np.array(B)
    A = _straightline_adjacency(_straightline_states(lattices, M, w_l, B, "discrete"), len(B))
    return None if A is None else (A, B)


def straightline_learn_real(lattices, w_l, centroids, ridge_scale=1e-6, ridge_floor=1e-12):
    """Learned (A, mu, sigma) recomputed node by node from a PNN codebook, or
    None when some state gets no node. mu is the codebook; states are the
    nearest means to each node's window mean; sigma(j) is the mean outer
    product of the raw-observation residuals of state j plus a ridge of
    max(ridge_floor, ridge_scale * trace / M) on the diagonal."""
    mu = np.array(centroids, dtype=float)
    N, M = mu.shape
    labelled = _straightline_states(lattices, M, w_l, mu, "real")
    A = _straightline_adjacency(labelled, N)
    if A is None:
        return None
    sigma = np.zeros((N, M, M))
    for j in range(N):
        scatter = [[0.0] * M for _ in range(M)]
        count = 0
        for values, _, q in labelled:
            for t, state in q.items():
                if state != j:
                    continue
                resid = [float(values[t][a]) - mu[j][a] for a in range(M)]
                for a in range(M):
                    for b in range(M):
                        scatter[a][b] += resid[a] * resid[b]
                count += 1
        S = [[scatter[a][b] / count for b in range(M)] for a in range(M)]
        ridge = max(ridge_floor, ridge_scale * sum(S[a][a] for a in range(M)) / M)
        for a in range(M):
            for b in range(M):
                sigma[j][a][b] = S[a][b] + (ridge if a == b else 0.0)
    return A, mu, sigma


def nearest_row(rows, x):
    """Index of the row of `rows` L2-closest to the vector x, ties to the lowest
    index: the scalar assignment's arithmetic, d² summed by numpy per row."""
    return int(np.argmin(((x - rows) ** 2).sum(axis=1)))


def _straightline_states(lattices, M, w, rows, kind):
    """[(values, shape, {node: nearest row to its naive window signature})].
    Squared distances use the scalar assignment's arithmetic, so that rows
    equidistant in exact arithmetic break the tie as the learner does."""
    out = []
    for values in lattices:
        x = naive_signatures(values, M, w, kind)
        shape = LatticeShape(values.shape if kind == "discrete" else values.shape[:-1])
        q = {t: nearest_row(rows, x[t]) for t in np.ndindex(*shape.lengths)}
        out.append((values, shape, q))
    return out


def _straightline_adjacency(labelled, N):
    """Row-normalized neighbor-pair counts (uniform rows for states with no
    neighbors), or None when some state labels no node."""
    from lvlm.lattice import neighbors

    counts = [[0.0] * N for _ in range(N)]
    seen = set()
    for _, shape, q in labelled:
        for t, state in q.items():
            seen.add(state)
            for r in neighbors(shape, t):
                counts[state][q[r]] += 1.0
    if len(seen) < N:
        return None
    A = np.empty((N, N))
    for j in range(N):
        total = sum(counts[j])
        for k in range(N):
            A[j][k] = counts[j][k] / total if total > 0 else 1.0 / N
    return A
