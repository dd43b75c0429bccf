"""Affinity construction, IPD post-processing, and spectral clustering."""

from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh

from .datasets import check_int
from .errors import ParameterError

DEGREE_FLOOR = 1e-12  # degree assigned to isolated vertices
_EPS = np.finfo(np.float64).eps
KMEANS_RESTARTS = 20
KMEANS_MAX_ITER = 300


@dataclass(frozen=True)
class Partition:
    """Cluster assignment as a label vector over {0..C-1}."""

    labels: np.ndarray
    C: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.min() < 0 or labels.max() >= self.C:
            raise ParameterError("labels out of range for C clusters")
        object.__setattr__(self, "labels", labels)

    def members(self, c):
        return np.flatnonzero(self.labels == c)


def affinity_from_representation(Z):
    """W = (|Z| + |Z|^T) / 2 with a zeroed diagonal."""
    Z = np.asarray(Z, dtype=np.float64)
    if not np.all(np.isfinite(Z)):
        raise ParameterError("representation matrix must be finite")
    W = (np.abs(Z) + np.abs(Z).T) / 2.0
    np.fill_diagonal(W, 0.0)
    return W


def ipd_threshold(Z, d):
    """Keep the d largest-magnitude entries per column, zero the rest; of
    each member of a B x N x N stack Z, as one call.

    Ties are broken toward smaller row indices (``_smallest`` on -|Z|).
    Idempotent, and the kept entries are preserved exactly.
    """
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[-2]
    if not 1 <= d <= n:
        raise ParameterError(f"d must lie in [1, {n}]")
    if d >= n:
        return Z.copy()
    out = np.zeros_like(Z)
    np.copyto(out, Z, where=_smallest(-np.abs(Z), d, axis=-2))
    return out


def _smallest(a, q, axis):
    """Boolean mask of the q smallest entries of ``a`` (no NaN) along
    ``axis``, ties toward the lower index: the first q of a stable argsort.

    One ``np.partition`` finds the q-th smallest value v; the entries below
    v are kept, and the rest of the q are the entries equal to v, lowest
    index first, counted with a ``cumsum`` of the tie mask.
    """
    v = np.take(np.partition(a, q - 1, axis=axis), [q - 1], axis=axis)
    keep = a < v
    ties = a == v
    ties &= np.cumsum(ties, axis=axis) <= q - keep.sum(axis=axis, keepdims=True)
    keep |= ties
    return keep


def _check_affinity(W):
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ParameterError("affinity must be square")
    if np.abs(W - W.T).max(initial=0.0) > 1e-12:
        raise ParameterError("affinity must be symmetric within 1e-12")
    if W.min(initial=0.0) < 0:
        raise ParameterError("affinity must be nonnegative")
    return (W + W.T) / 2.0


def spectral_clustering(W, C, seed=0):
    """Normalized spectral clustering (symmetric Laplacian + k-means).

    Embeds points with the eigenvectors of the C smallest eigenvalues of
    L = I - D^{-1/2} W D^{-1/2} (isolated vertices get a tiny degree
    floor; the first C columns of numpy's full ``eigh``), row-normalizes,
    and runs seeded k-means++ with 20 restarts; the restart with the best
    inertia wins. Deterministic given seed.
    """
    check_int(seed, "seed")
    W = _check_affinity(W)
    n = W.shape[0]
    if C < 2:
        raise ParameterError("C must be >= 2")
    if C > n:
        raise ParameterError(f"C = {C} exceeds N = {n}")
    deg = np.maximum(W.sum(axis=1), DEGREE_FLOOR)
    inv_sqrt = 1.0 / np.sqrt(deg)
    L = -W * np.outer(inv_sqrt, inv_sqrt)
    L[np.diag_indices(n)] += 1.0
    vecs = eigh(L)[1][:, :C]
    norms = np.linalg.norm(vecs, axis=1)
    emb = vecs / np.where(norms > 0, norms, 1.0)[:, None]
    labels = kmeans(emb, C, seed)
    return Partition(labels=labels, C=C)


def kmeans(points, k, seed, restarts=KMEANS_RESTARTS, max_iter=KMEANS_MAX_ITER):
    """Seeded k-means with k-means++ initialization and best-inertia restarts.

    The restarts are seeded together, restart r from its own generator
    ``np.random.default_rng(seed + r)``. All restarts then run their
    Lloyd steps in one lockstep group (see ``_lloyd_group``): each step
    ranks the centres of every restart with one GEMM and re-ranks the near
    ties with the exact distances, so each restart gets the labels and the
    inertia the exact broadcast formula gives it alone, at any BLAS thread
    count. The restart with the smallest inertia wins, the earliest on
    ties. The points are taken in column-major order, so the labels do not
    depend on their memory layout.
    """
    points = np.asfortranarray(points)
    centers = _plusplus_seeds(points, k, seed, restarts)
    best_labels, best_inertia = None, np.inf
    for labels, inertia in zip(*_lloyd_group(points, centers, max_iter)):
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def _plusplus_seeds(points, k, seed, restarts):
    """The (R, k, m) k-means++ centers ``_plusplus_exact`` draws for each
    restart r from ``default_rng(seed + r)``, bit for bit.

    Generator r gives ``integers(n)``, then its k-1 uniforms u in one
    ``random(k - 1)``. A step measures every restart's points against its
    newest centre with one GEMM, ||x||^2 + ||c||^2 - 2 c.x clamped at 0,
    min-accumulates these into weights w' and draws the count of entries
    <= u of F' = cumsum(w') / T', T' = sum w'. As in ``_nearest``, w' is
    within 2 gamma_(m+2) M^2 of the exact weights w, M = 2 max ||x||, and
    beta = 4 (m+3) eps M^2 also covers the rounding of M and beta. The cdf
    of ``choice``, cumsum(w / sum w) over its last entry, and F' are within
    gamma_(4n+1) and gamma_(2n+1) of the real cdfs of w and w', which differ
    by at most 2 n beta / sum w <= 4 n beta / T' if T' > 4 n beta. So a u
    farther than delta = 4 (n+1) eps + 4 n beta / T' from every entry of F'
    (which needs T' > 4 n beta, and then sum w > 0) is drawn as ``choice``
    draws it. A restart with any other draw is seeded again alone by
    ``_plusplus_exact``, so the centres do not depend on the BLAS thread
    count (barring underflow and overflow).
    """
    n, m = points.shape
    sq = np.einsum("ij,ij->i", points, points)
    beta = 16 * (m + 3) * _EPS * sq.max()  # 4 (m+3) eps (2 max ||x||)^2
    rngs = [np.random.default_rng(seed + r) for r in range(restarts)]
    idx = np.array([rng.integers(n) for rng in rngs], dtype=np.int64)
    u = np.array([rng.random(k - 1) for rng in rngs])
    centers, settled, d2 = np.empty((restarts, k, m)), np.ones(restarts, dtype=bool), np.inf
    for c in range(k):
        centers[:, c] = points[idx]
        if c + 1 < k:
            col = sq + sq[idx, None] - 2.0 * (centers[:, c] @ points.T)
            d2 = np.minimum(d2, np.maximum(col, 0.0))
            cdf = d2.cumsum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):  # rows without mass
                delta = 4 * (n + 1) * _EPS + 4 * n * beta / cdf[:, -1:]
                cdf /= cdf[:, -1:]
            settled &= (np.abs(cdf - u[:, c, None]) > delta).all(axis=1)
            idx = (cdf <= u[:, c, None]).sum(axis=1)
    for r in np.flatnonzero(~settled):
        centers[r] = _plusplus_exact(points, k, np.random.default_rng(seed + r))
    return centers


def _plusplus_exact(points, k, rng):
    """One restart's k-means++ centers drawn one at a time from ``rng``:
    ``choice`` on the exact D^2 weights, ``integers(n)`` if they are 0."""
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    for c in range(1, k):
        col = ((points - centers[c - 1]) ** 2).sum(axis=1)
        d2 = col if c == 1 else np.minimum(d2, col)
        total = d2.sum()
        centers[c] = points[rng.choice(n, p=d2 / total) if total > 0 else rng.integers(n)]
    return centers


def _lloyd_group(points, centers, max_iter):
    """Lloyd iterations of g restarts in lockstep on the column-major (n, m)
    ``points`` from their seeded (g, k, m) ``centers``.

    Every step ranks the centres of all restarts still running with one
    GEMM (``_nearest``). A restart whose labels stop changing leaves
    the group with the labels and the centres it reaches alone. The
    inertias are the exact squared distances of the points to their own
    centres (``_exact``), n*m work per restart, as are the distances an
    empty-cluster repair reads. Returns the (g, n) labels and the (g,)
    inertias.
    """
    (g, k, _), n = centers.shape, len(points)
    labels = np.full((g, n), -1, dtype=np.int64)
    out_labels, out_centers = np.empty((g, n), dtype=np.int64), np.empty_like(centers)
    members, rows = np.arange(g), np.arange(n)
    offsets = k * members[:, None]  # row r of the group counts in bins r*k..r*k+k-1
    weights = np.repeat(points[None], g, axis=0)  # each row's own row-major points
    xmax = np.sqrt(np.einsum("ij,ij->i", points, points).max())

    def own(centers, labels):  # (f, n) exact distances to the own centres
        flat = labels + k * np.arange(len(labels))[:, None]
        return _exact(points, centers, rows[None], flat)

    for _ in range(max_iter):
        new_labels = _nearest(points, centers, xmax)
        counts = np.bincount((new_labels + offsets[:len(members)]).ravel(),
                             minlength=len(members) * k).reshape(-1, k)
        if not counts.all():
            for r in np.flatnonzero(~counts.all(axis=1)):
                _repair_empty(new_labels[r], counts[r],
                              own(centers[r:r + 1], new_labels[r:r + 1])[0])
        done = (new_labels == labels).all(axis=1)  # never on the first step
        if done.any():
            out_labels[members[done]] = new_labels[done]
            out_centers[members[done]] = centers[done]
            if done.all():
                break
            keep = ~done
            members, new_labels, counts, centers = (
                members[keep], new_labels[keep], counts[keep], centers[keep])
        labels = new_labels
        _update_centers(weights[:len(members)], labels, counts, centers)
    else:  # out of iterations: the inertia is taken at the moved centers
        out_labels[members], out_centers[members] = labels, centers
    return out_labels, own(out_centers, out_labels).sum(axis=1)


def _nearest(points, centers, xmax):
    """(g, n) index of the nearest of each restart's k ``centers`` to each
    of the n ``points``, as the argmin of the exact distances gives it.

    One GEMM ranks all g restarts: s = ||c||^2 - 2 c.x, the (k, g, n) array
    ``(-2 centers) @ points.T + ||c||^2`` (scaling by -2 is exact), orders
    the centres of a point as ||x - c||^2 = ||x||^2 + s does. Exactness:
    with u = eps/2 the unit roundoff, gamma_j = j u / (1 - j u) and
    M = ``xmax`` + max ||c|| over all g restarts, the computed s is
    within gamma_(m+1) (2 ||x|| ||c|| + ||c||^2) <= gamma_(m+1) M^2 of its
    true value in any summation order (a dot product of m terms, a sum of m
    squares, one addition), and the exact formula, a sum of m rounded
    squares of rounded differences, is within gamma_(m+2) M^2 of the true
    distance (barring underflow and overflow). So when every other
    centre's s exceeds the smallest by more than
    2 (gamma_(m+1) + gamma_(m+2)) M^2 <= 2 (m+3) eps M^2, the exact
    distances put that centre strictly first too. A row whose runner-up
    lies within B = 4 (m+3) eps M^2 of its best (twice that, which also
    covers the rounding of M, of B and of the comparison), or that holds
    a NaN (the centre of no points), is ranked again with the exact
    distances (``_rerank``); any other row has exactly one centre within B
    of its best, and it is the nearest. The labels thus do not depend on
    the BLAS thread count or on the GEMM's summation order.
    """
    g, k, m = centers.shape
    norms = np.einsum("gkm,gkm->kg", centers, centers)
    s = (centers * -2.0).transpose(1, 0, 2).reshape(k * g, m) @ points.T
    s += norms.reshape(-1, 1)
    s = s.reshape(k, g, -1)
    bound = 4 * (m + 3) * _EPS * (xmax + np.sqrt(norms.max())) ** 2
    cut = s.min(axis=0)
    cut += bound
    # one-hot over the centres where exactly one lies within B of the best
    close = (s <= cut).view(np.uint8)
    small = np.min_scalar_type(k)  # holds the count of close centres
    near = close.sum(axis=0, dtype=small) != 1
    labels = np.einsum("k,kgn->gn", np.arange(k, dtype=small), close)
    if near.any():
        r, i = np.nonzero(near)
        labels[r, i] = _rerank(points, centers, r, i)
    return labels


def _rerank(points, centers, r, i):
    """Nearest centre of restart ``r[j]`` to point ``i[j]`` for each j, by
    the exact distances, the first on ties."""
    k = centers.shape[1]
    flat = k * r[:, None] + np.arange(k)
    return _exact(points, centers, i[:, None], flat).argmin(axis=1)


def _exact(points, centers, p, c):
    """Squared distances of the points ``points[p]`` to the centres
    ``centers.reshape(-1, m)[c]``, ``p`` and ``c`` broadcasting index
    arrays, the coordinates added one after another, as the broadcast
    formula adds them on the column-major points ``kmeans`` passes.

    ``np.take`` gathers into fresh row-major arrays with the coordinates
    outermost, so numpy's sum adds them in that order whatever the layout
    of the inputs.
    """
    flat = centers.reshape(-1, centers.shape[2])
    x, d = np.take(points.T, p, axis=1), np.take(flat.T, c, axis=1)
    np.subtract(x, d, out=d)
    d *= d
    return d.sum(axis=0)


def _repair_empty(labels, counts, dist):
    """Give each empty cluster, in index order, the point farthest from its
    centroid, ``dist`` holding each point's squared distance to its own
    centre. Updates ``labels`` and ``counts`` in place and leaves ``dist``
    alone; ``counts`` stay live, so a cluster emptied by an earlier
    donation is repaired only if its index comes later."""
    dist = dist.copy()
    for c in range(counts.size):
        if counts[c]:
            continue
        donor = int(np.argmax(dist))
        counts[labels[donor]] -= 1
        counts[c] += 1
        labels[donor] = c
        dist[donor] = 0.0


def _update_centers(weights, labels, counts, centers):
    """Member means of each restart, in place, from ``weights``, the (g, n, m)
    row-major copies of the points, one per restart; an empty cluster gets
    NaN, as the mean of no points does. One ``bincount`` over (restart,
    cluster, coordinate) bins adds the members in index order, which is the
    order ``points[labels == c].mean(axis=0)`` uses for points with two or
    more coordinates, so the centers match it bit for bit but for the sign
    of a zero sum, which no distance sees (numpy sums a single coordinate
    pairwise, so 1-D points may differ in the last bit).
    """
    g, k, m = centers.shape
    bins = (labels + k * np.arange(g)[:, None])[:, :, None] * m + np.arange(m)
    sums = np.bincount(bins.ravel(), weights=weights.ravel(), minlength=g * k * m)
    with np.errstate(invalid="ignore"):
        np.divide(sums.reshape(g, k, m), counts[:, :, None], out=centers)
