"""Cluster-basis estimation, out-of-sample assignment, and subspace geometry."""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConsistencyError, ParameterError

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class ClusterModel:
    """Per-cluster mean and orthonormal basis for point-to-subspace tests.

    ``bases[c]`` is D x d_c with orthonormal columns; ``dims[c]`` may be
    smaller than the requested ``d`` when cluster c had too few points.
    """

    means: np.ndarray          # (C, D)
    bases: list                # C arrays of shape (D, d_c)
    d: int

    @property
    def C(self):
        return len(self.bases)

    @property
    def dims(self):
        return [b.shape[1] for b in self.bases]

    @cached_property
    def _ranking(self):
        """The constants of :func:`assign_multiview_batch`'s ranking, made at
        the first assignment and kept with the model, whose bases must not
        change after it: [-2 m_1; ...; -2 m_C; U_1^T; ...; U_C^T] with each
        basis padded by zero columns to the widest, the (C, w) U_c^T m_c,
        ||m_c||^2, max ||m_c|| and the defect max |U_c^T U_c - I|."""
        (C, D), w, means = self.means.shape, max(self.dims, default=0), self.means
        operator = np.zeros((C + C * w, D))
        operator[:C] = -2.0 * means
        padded = operator[C:].reshape(C, w, D)
        for c, U in enumerate(self.bases):
            padded[c, :U.shape[1]] = U.T
        norms = np.einsum("cd,cd->c", means, means)
        defect = max((np.abs(U.T @ U - np.eye(U.shape[1])).max(initial=0.0)
                      for U in self.bases), default=0.0)
        return (operator, np.einsum("cwd,cd->cw", padded, means), norms,
                np.sqrt(norms.max(initial=0.0)), defect)


def estimate_bases(X, part, d):
    """Fit a ClusterModel: center each cluster, keep d left singular vectors.

    A cluster with fewer than d members gets its dimension reduced to
    (size - 1) with a warning; everything else fails loudly.
    """
    X = np.asarray(X, dtype=np.float64)
    if d < 1:
        raise ParameterError("d must be >= 1")
    if part.C < 2:
        raise ParameterError("need at least 2 clusters")
    means = np.zeros((part.C, X.shape[0]))
    bases = []
    for c in range(part.C):
        members = part.members(c)
        if members.size == 0:
            raise ParameterError(f"cluster {c} is empty")
        block = X[:, members]
        means[c] = block.mean(axis=1)
        centered = block - means[c][:, None]
        d_c = d
        if members.size < d:
            d_c = min(members.size - 1, X.shape[0])
            warnings.warn(
                f"cluster {c} has {members.size} < d={d} points; "
                f"basis dimension reduced to {d_c}",
                stacklevel=2,
            )
        U, _, _ = np.linalg.svd(centered, full_matrices=False)
        bases.append(U[:, :d_c].copy())  # a view would keep all of U alive
    return ClusterModel(means=means, bases=bases, d=d)


# columns per block of held-out points: about 2**16 doubles (512 KiB) per
# D x block temporary, so the residual of one block stays in cache
_BLOCK_ELEMENTS = 2 ** 16


def block_width(D):
    """Columns per block of held-out points in D dimensions."""
    return max(1, _BLOCK_ELEMENTS // D)


def _checked(X, model):
    X = np.asarray(X, dtype=np.float64)
    D = model.means.shape[1]
    if X.ndim != 2 or X.shape[0] != D:
        raise ConsistencyError(f"data of shape {X.shape} do not match the cluster model's D = {D}")
    return X


def subspace_distances(X, model):
    """(C, n) distances from the columns of the D x n matrix X to each
    cluster's affine subspace: the exact path of
    :func:`assign_multiview_batch`, which it takes for a block with a near
    tie.

    The residual R - U (U^T R) is formed explicitly rather than as
    ||r||^2 - ||U^T r||^2, so clusters with equal subspaces get exactly
    equal distances. X is measured as one block: the bits of a column
    depend on how many columns share its BLAS products, so callers that
    stream points cut them at the multiples of :func:`block_width`, and a
    block that falls back gets the labels of one pass over all points.
    """
    X = _checked(X, model)
    # row-major blocks keep the BLAS products on their fast path;
    # bundles load column-major, where they run several times slower
    X = np.ascontiguousarray(X)
    dist = np.empty((model.C, X.shape[1]))
    for c, (mean, U) in enumerate(zip(model.means, model.bases)):
        resid = X - mean[:, None]
        resid -= U @ (U.T @ resid)
        dist[c] = np.sqrt(np.einsum("ij,ij->j", resid, resid))
    return dist


def _scores(X, model):
    """(C, n) s_c(x) = ||x||^2 - 2 m_c.x + ||m_c||^2 - ||U_c^T x - U_c^T m_c||^2
    of the columns x of X from one GEMM, and the rounding bound B of
    :func:`assign_multiview_batch`."""
    operator, proj_means, norms, mean_max, defect = model._ranking
    (C, w), (D, n) = proj_means.shape, X.shape
    G = operator @ X
    xx = np.einsum("ij,ij->j", X, X)
    P = G[C:].reshape(C, w, n)
    P -= proj_means[:, :, None]
    s = G[:C] + xx + norms[:, None] - np.einsum("cwn,cwn->cn", P, P)
    M = np.sqrt(xx.max(initial=0.0)) + mean_max
    kappa = 1.0 + w * defect
    return s, (12 * (D + w + 3) * (w + 1) * _EPS + 4 * w * defect) * kappa ** 2 * M ** 2


def assign_multiview_batch(view_matrices, models):
    """Out-of-sample labels for column-aligned view matrices, one model per
    view; a single-view assignment is ``assign_multiview_batch([X], [model])``.

    Each column takes the cluster at the smallest distance over all views,
    ties going to the earlier view, then the smaller cluster: the argmin
    over the (view, cluster) rows of the concatenated
    :func:`subspace_distances`, bit for bit. One GEMM per view ranks the
    rows (``_scores``). Exactness: with u = eps/2, gamma_j = j u / (1 - j u),
    r = x - m_c, M = max ||x|| + max ||m_c||, w the widest basis,
    eta = max |U^T U - I| and k = 1 + w eta, in any summation order and
    barring underflow and overflow, the computed s_c is within
    gamma_(2D+w+5) (w+1) k M^2 of ||r||^2 - ||U^T r||^2 (products of D
    terms, a sum of w squares, four additions); the exact path's sum of
    squares, before its square root, is within gamma_(3D+2w+7) (w+1) k^2 M^2
    of ||r - U U^T r||^2 (products of D and of w terms, a sum of D squares,
    two subtractions); the two true values differ by
    (U^T r)^T (U^T U - I) (U^T r), at most w eta k M^2; and the rounded
    square roots of t_b < t_c stay strictly ordered when
    t_c - t_b > 5 u t_b, t_b <= 1.2 k^2 M^2. So a row whose s lies below
    every other by more than ((5D + 3w + 16)(w+1) 1.01 eps + 2 w eta) k^2 M^2
    is strictly first by the exact distances too. A block in which some
    column's runner-up lies within twice that,
    B = (12 (D+w+3)(w+1) eps + 4 w eta) k^2 M^2 (which also covers the
    rounding of M, of B and of the comparison, and the rows of other views:
    B is the largest over the views), or which holds a NaN, is measured
    again by the exact path in every view. So the labels do not depend on
    the BLAS thread count or the GEMM's summation order, and equal
    subspaces keep their exact ties.
    """
    if len(view_matrices) != len(models):
        raise ParameterError(f"{len(view_matrices)} views but {len(models)} models")
    if not models:
        raise ParameterError("need at least one view")
    views = [_checked(Xv, m) for Xv, m in zip(view_matrices, models)]
    if any(X.shape[1] != views[0].shape[1] for X in views):
        raise ParameterError("views must share the number of columns")
    scores, bounds = zip(*(_scores(X, m) for X, m in zip(views, models)))
    s = np.concatenate(scores)
    close = np.count_nonzero(s <= s.min(axis=0) + max(bounds), axis=0)
    if (close != 1).any():  # a near tie or a NaN
        s = np.concatenate([subspace_distances(X, m) for X, m in zip(views, models)])
    # rows are (view, cluster) in order, so argmin's first-minimum rule
    # gives the earlier view, then the smaller cluster
    clusters = np.concatenate([np.arange(m.C, dtype=np.int64) for m in models])
    return clusters[s.argmin(axis=0)]


def _check_orthonormal(U, tag):
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2:
        raise ParameterError(f"{tag} must be a D x d matrix")
    if not np.all(np.abs(U.T @ U - np.eye(U.shape[1])) <= 1e-8):  # true when d = 0
        raise ParameterError(f"{tag} does not have orthonormal columns")
    return U


def _affinity(U1, U2):
    d = min(U1.shape[1], U2.shape[1])
    if d == 0:
        return 0.0
    s = np.linalg.svd(U1.T @ U2, compute_uv=False)
    return float(np.clip(np.sqrt(np.sum(s ** 2) / d), 0.0, 1.0))


def average_affinity(model):
    """Mean pairwise subspace affinity over all C(C-1)/2 cluster pairs, each
    basis checked once. The affinity of two spans is the RMS cosine of their
    principal angles, sqrt(sum_i cos^2(phi_i) / min(d1, d2)): 1 for
    identical spans, 0 for orthogonal ones. A D x 0 basis, which
    :func:`estimate_bases` gives a one-member cluster, spans no direction,
    so every pair that includes it counts as affinity 0."""
    C = model.C
    if C < 2:
        raise ParameterError("need at least 2 clusters")
    bases = [_check_orthonormal(U, f"basis {c}") for c, U in enumerate(model.bases)]
    if len({U.shape[0] for U in bases}) > 1:
        raise ParameterError("bases live in different ambient dimensions")
    total = 0.0
    for i in range(C - 1):
        for j in range(i + 1, C):
            total += _affinity(bases[i], bases[j])
    return 2.0 * total / (C * (C - 1))


def mean_principal_angle(affinity):
    """Convert an affinity in [0, 1] to a mean principal angle in degrees.

    Values outside [0, 1] by at most 1e-9 are clamped with a warning;
    anything farther out is an error.
    """
    if affinity < -1e-9 or affinity > 1.0 + 1e-9:
        raise ParameterError(f"affinity {affinity} outside [0, 1]")
    if affinity < 0.0 or affinity > 1.0:
        warnings.warn(f"clamping affinity {affinity} into [0, 1]", stacklevel=2)
        affinity = min(max(affinity, 0.0), 1.0)
    return float(np.degrees(np.arccos(affinity)))
