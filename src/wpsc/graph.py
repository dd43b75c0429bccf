"""Affinity construction, IPD post-processing, and spectral clustering."""

from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh

from .errors import ParameterError
from .subspace import _BLOCK_ELEMENTS

DEGREE_FLOOR = 1e-12  # degree assigned to isolated vertices
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
    """Keep the d largest-magnitude entries per column, zero the rest.

    Ties are broken toward smaller row indices. Idempotent, and the kept
    entries are preserved exactly.
    """
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    if not 1 <= d <= n:
        raise ParameterError(f"d must lie in [1, {n}]")
    if d >= n:
        return Z.copy()
    # stable sort on -|z|: descending magnitude, ties by row index
    order = np.argsort(-np.abs(Z), axis=0, kind="stable")
    out = np.zeros_like(Z)
    cols = np.arange(Z.shape[1])
    keep = order[:d, :]
    out[keep, cols] = Z[keep, cols]
    return out


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
    ``np.random.default_rng(seed + r)``, and each restart's first Lloyd step
    reuses the distances its seeding computed. The Lloyd steps run in
    lockstep groups of g restarts, g the largest count (at most
    ``restarts``, at least 1) whose (g, n, k, m) distance temporary holds
    at most 2**16 elements; each restart does the arithmetic it would do
    alone and stops at the same step, so the grouping does not change a
    bit. The restart with the smallest inertia wins, the earliest on ties.
    The points are taken in column-major order, so the labels do not
    depend on their memory layout.
    """
    points = np.asfortranarray(points)
    centers, dists = _plusplus_seeds(points, k, seed, restarts)
    n, m = points.shape
    g = max(1, min(restarts, _BLOCK_ELEMENTS // max(1, n * k * m)))
    best_labels, best_inertia = None, np.inf
    for start in range(0, restarts, g):
        group = slice(start, start + g)
        for labels, inertia in zip(*_lloyd_group(points, centers[group], dists[group],
                                                  max_iter)):
            if inertia < best_inertia:
                best_labels, best_inertia = labels, inertia
    return best_labels


def _plusplus_seeds(points, k, seed, restarts):
    """k-means++ centers of all restarts, drawn in one batched pass.

    Restart r's generator sees the calls one-at-a-time seeding makes:
    ``integers(n)`` for the first center, then one ``random()`` per further
    center (``integers(n)`` again once all mass sits on chosen centers).
    Returns the (R, k, m) centers and the (R, n, k) squared distances of
    every point to every center.
    """
    n, m = points.shape
    rngs = [np.random.default_rng(seed + r) for r in range(restarts)]
    centers = np.empty((restarts, k, m))
    dists = np.empty((restarts, n, k))
    idx = np.array([rng.integers(n) for rng in rngs], dtype=np.int64)
    for c in range(k):
        centers[:, c] = points[idx]
        col = ((points[None, :, :] - centers[:, c, None, :]) ** 2).sum(axis=2)
        dists[:, :, c] = col
        d2 = col if c == 0 else np.minimum(d2, col)
        if c + 1 < k:
            idx = _draw(d2, rngs)
    return centers, dists


def _draw(d2, rngs):
    """Row r's next center, as ``rngs[r].choice(n, p=d2[r] / total)`` draws
    it: ``choice`` maps one ``random()`` through the normalized cdf with
    ``searchsorted(side="right")``, which on a nondecreasing cdf is the count
    of entries <= u."""
    n = d2.shape[1]
    total = d2.sum(axis=1)
    live = total > 0
    u = np.zeros(len(rngs))
    idx = np.empty(len(rngs), dtype=np.int64)
    for r, rng in enumerate(rngs):
        if live[r]:
            u[r] = rng.random()
        else:  # all remaining mass sits on chosen centers
            idx[r] = rng.integers(n)
    with np.errstate(invalid="ignore"):  # 0/0 on the rows without mass
        cdf = (d2 / total[:, None]).cumsum(axis=1)
        cdf /= cdf[:, -1:]
    return np.where(live, (cdf <= u[:, None]).sum(axis=1), idx)


def _distances(points, centers):
    """(g, n, k) squared distances of the n points to each restart's k
    centers; each restart's slice equals the one-restart
    ``((points[:, None, :] - centers[r][None, :, :]) ** 2).sum(axis=2)``
    bit for bit."""
    return ((points[None, :, None, :] - centers[:, None, :, :]) ** 2).sum(axis=3)


def _lloyd_group(points, centers, d2, max_iter):
    """Lloyd iterations of g restarts in lockstep from their seeded
    (g, k, m) ``centers`` and their (g, n, k) squared distances ``d2``.

    Each step assigns every restart of the group with one distance
    broadcast and one argmin; a restart whose labels stop changing leaves
    the group with the labels and inertia it reaches alone. Returns the
    (g, n) labels and the (g,) inertias.
    """
    g, n, k = d2.shape
    labels = np.full((g, n), -1, dtype=np.int64)
    out_labels, out_inertia = np.empty((g, n), dtype=np.int64), np.empty(g)
    members, rows = np.arange(g), np.arange(n)
    offsets = k * members[:, None]  # row r of the group counts in bins r*k..r*k+k-1
    weights = np.repeat(points[None], g, axis=0)  # each row's own row-major points

    def leave(done, d2, labels):
        gone, labels = members[done], labels[done]
        out_labels[gone] = labels
        out_inertia[gone] = d2[done][np.arange(len(gone))[:, None], rows, labels].sum(axis=1)

    for it in range(max_iter):
        if it:
            d2 = _distances(points, centers)
        new_labels = d2.argmin(axis=2)
        counts = np.bincount((new_labels + offsets[:len(members)]).ravel(),
                             minlength=len(members) * k).reshape(-1, k)
        if not counts.all():
            for r in np.flatnonzero(~counts.all(axis=1)):
                _repair_empty(new_labels[r], counts[r], d2[r])
        done = (new_labels == labels).all(axis=1)
        if done.any():
            leave(done, d2, new_labels)
            if done.all():
                return out_labels, out_inertia
            keep = ~done
            members, new_labels, counts, centers = (
                members[keep], new_labels[keep], counts[keep], centers[keep])
        labels = new_labels
        _update_centers(weights[:len(members)], labels, counts, centers)
    # out of iterations: the centers moved after d2 was computed
    leave(np.ones(len(members), dtype=bool), _distances(points, centers), labels)
    return out_labels, out_inertia


def _repair_empty(labels, counts, d2):
    """Give each empty cluster, in index order, the point farthest from its
    centroid. Updates ``labels`` and ``counts`` in place and leaves ``d2``
    alone; ``counts`` stay live, so a cluster emptied by an earlier
    donation is repaired only if its index comes later."""
    d2 = d2.copy()
    rows = np.arange(labels.size)
    for c in range(counts.size):
        if counts[c]:
            continue
        donor = int(np.argmax(d2[rows, labels]))
        counts[labels[donor]] -= 1
        counts[c] += 1
        labels[donor] = c
        d2[donor, :] = np.inf
        d2[donor, c] = 0.0


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
