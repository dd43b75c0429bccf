"""Affinity construction, IPD post-processing, and spectral clustering."""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .errors import ParameterError

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
    floor), row-normalizes, and runs seeded k-means++ with 20 restarts;
    the restart with the best inertia wins. Deterministic given seed.
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
    _, vecs = eigh(L, subset_by_index=[0, C - 1])
    norms = np.linalg.norm(vecs, axis=1)
    emb = vecs / np.where(norms > 0, norms, 1.0)[:, None]
    labels = kmeans(emb, C, seed)
    return Partition(labels=labels, C=C)


def kmeans(points, k, seed, restarts=KMEANS_RESTARTS, max_iter=KMEANS_MAX_ITER):
    """Seeded k-means with k-means++ initialization and best-inertia restarts.

    Restart r uses RNG seed ``seed + r`` so parallel execution can
    reproduce the sequential result.
    """
    best_labels, best_inertia = None, np.inf
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        labels, inertia = _kmeans_once(points, k, rng, max_iter)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def _plusplus_init(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:  # all remaining mass sits on chosen centers
            idx = rng.integers(n)
        centers[c] = points[idx]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def _kmeans_once(points, k, rng, max_iter):
    n = points.shape[0]
    centers = _plusplus_init(points, k, rng)
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        counts = np.bincount(new_labels, minlength=k)
        if not counts.all():
            _repair_empty(new_labels, counts, d2)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        _update_centers(points, labels, counts, centers)
    else:  # out of iterations: the centers moved after d2 was computed
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    inertia = float(d2[np.arange(n), labels].sum())
    return labels, inertia


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


def _update_centers(points, labels, counts, centers):
    """Member means, in place; an empty cluster gets NaN, as the mean of no
    points does. ``np.add.at`` adds the members in index order, which is the
    order ``points[labels == c].mean(axis=0)`` uses for points with two or
    more coordinates, so the centers match it bit for bit (numpy sums a
    single coordinate pairwise, so 1-D points may differ in the last bit).
    """
    sums = np.full(centers.shape, -0.0)  # -0.0 + x == x for every x
    np.add.at(sums, labels, points)
    with np.errstate(invalid="ignore"):
        np.divide(sums, counts[:, None], out=centers)
