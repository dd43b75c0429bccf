"""Cluster-basis estimation, out-of-sample assignment, and subspace geometry."""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, ParameterError

# common subspace dimensions for the benchmark image families: handwritten
# digits sit in roughly 12 dimensions, faces and small objects in 9
DIGIT_SUBSPACE_DIM = 12
FACE_OBJECT_SUBSPACE_DIM = 9


@dataclass(frozen=True)
class ClusterModel:
    """Per-cluster mean and orthonormal basis for point-to-subspace tests.

    ``bases[c]`` is D x d_c with orthonormal columns; ``dims[c]`` may be
    smaller than the requested ``d`` when cluster c had too few points
    (the reduction is recorded in ``reduced``).
    """

    means: np.ndarray          # (C, D)
    bases: list                # C arrays of shape (D, d_c)
    d: int
    reduced: dict = field(default_factory=dict)

    @property
    def C(self):
        return len(self.bases)

    @property
    def dims(self):
        return [b.shape[1] for b in self.bases]


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
    bases, reduced = [], {}
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
            reduced[c] = d_c
            warnings.warn(
                f"cluster {c} has {members.size} < d={d} points; "
                f"basis dimension reduced to {d_c}",
                stacklevel=2,
            )
        if d_c == 0:
            bases.append(np.zeros((X.shape[0], 0)))
            continue
        U, _, _ = np.linalg.svd(centered, full_matrices=False)
        bases.append(U[:, :d_c])
    return ClusterModel(means=means, bases=bases, d=d, reduced=reduced)


# columns per block of the distance kernel: about 2**16 doubles (512 KiB)
# per D x block temporary, so the residual of one block stays in cache
_BLOCK_ELEMENTS = 2 ** 16


def subspace_distances(X, model):
    """(C, n) distances from the columns of the D x n matrix X to each
    cluster's affine subspace.

    The residual R - U (U^T R) is formed explicitly rather than as
    ||r||^2 - ||U^T r||^2, so clusters with equal subspaces get exactly
    equal distances. Columns are processed in blocks of about 2**16 / D.
    """
    X = np.asarray(X, dtype=np.float64)
    D = model.means.shape[1]
    if X.ndim != 2 or X.shape[0] != D:
        raise ConsistencyError(
            f"data of shape {X.shape} do not match the cluster model's D = {D}"
        )
    n = X.shape[1]
    dist = np.empty((model.C, n))
    step = max(1, _BLOCK_ELEMENTS // D)
    for start in range(0, n, step):
        # row-major blocks keep the BLAS products on their fast path;
        # bundles load column-major, where they run several times slower
        block = np.ascontiguousarray(X[:, start:start + step])
        for c, (mean, U) in enumerate(zip(model.means, model.bases)):
            resid = block - mean[:, None]
            if U.shape[1]:
                resid -= U @ (U.T @ resid)
            dist[c, start:start + step] = np.sqrt(
                np.einsum("ij,ij->j", resid, resid))
    return dist


def assign_oos(x, model):
    """Label of the subspace closest to x (ties go to the smallest index)."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    return int(subspace_distances(x, model)[:, 0].argmin())


def assign_oos_batch(X, model):
    """Vector of closest-subspace labels for the columns of X (ties go to
    the smallest index)."""
    return subspace_distances(X, model).argmin(axis=0).astype(np.int64, copy=False)


def assign_multiview_batch(view_matrices, models):
    """Multi-view OOS labels for column-aligned view matrices.

    Each column takes the cluster at the smallest distance over all views,
    with ties broken toward the earlier view, then the smaller cluster.
    """
    if len(view_matrices) != len(models):
        raise ParameterError(
            f"{len(view_matrices)} views but {len(models)} models"
        )
    if not models:
        raise ParameterError("need at least one view")
    dists = [subspace_distances(Xv, m) for Xv, m in zip(view_matrices, models)]
    if any(dist.shape[1] != dists[0].shape[1] for dist in dists):
        raise ParameterError("views must share the number of columns")
    # rows are (view, cluster) in order, so argmin's first-minimum rule
    # gives the earlier view, then the smaller cluster
    clusters = np.concatenate([np.arange(m.C, dtype=np.int64) for m in models])
    return clusters[np.concatenate(dists).argmin(axis=0)]


def assign_oos_multiview(x_views, models):
    """Label from the view whose best subspace is globally closest (ties
    go to the earlier view, then the smaller cluster)."""
    columns = [np.asarray(x, dtype=np.float64).reshape(-1, 1) for x in x_views]
    return int(assign_multiview_batch(columns, models)[0])


def _check_orthonormal(U, tag):
    U = np.asarray(U, dtype=np.float64)
    if U.ndim != 2 or U.shape[1] < 1:
        raise ParameterError(f"{tag} must be a D x d matrix with d >= 1")
    gram = U.T @ U
    if np.abs(gram - np.eye(U.shape[1])).max() > 1e-8:
        raise ParameterError(f"{tag} does not have orthonormal columns")
    return U


def subspace_affinity(U1, U2):
    """Affinity between two spans: RMS cosine of the principal angles.

    sqrt(sum_i cos^2(phi_i) / min(d1, d2)); 1 for identical spans, 0 for
    orthogonal ones.
    """
    U1 = _check_orthonormal(U1, "U1")
    U2 = _check_orthonormal(U2, "U2")
    if U1.shape[0] != U2.shape[0]:
        raise ParameterError("bases live in different ambient dimensions")
    s = np.linalg.svd(U1.T @ U2, compute_uv=False)
    val = np.sqrt(np.sum(s ** 2) / min(U1.shape[1], U2.shape[1]))
    return float(np.clip(val, 0.0, 1.0))


def average_affinity(model):
    """Mean pairwise subspace affinity over all C(C-1)/2 cluster pairs."""
    C = model.C
    if C < 2:
        raise ParameterError("need at least 2 clusters")
    total = 0.0
    for i in range(C - 1):
        for j in range(i + 1, C):
            total += subspace_affinity(model.bases[i], model.bases[j])
    return 2.0 * total / (C * (C - 1))


def save_cluster_model(model, path):
    """Serialize means and bases as one matrix bundle for later OOS reuse.

    Column layout: for each cluster in order, the mean followed by its
    basis columns; the bundle's label vector stores the owning cluster.
    """
    from .bundle import save_bundle
    from .datasets import Dataset

    cols, owners = [], []
    for c in range(model.C):
        cols.append(model.means[c][:, None])
        cols.append(model.bases[c])
        owners += [c] * (1 + model.bases[c].shape[1])
    data = np.concatenate(cols, axis=1)
    ds = Dataset(data=data, img_h=1, img_w=data.shape[0],
                 labels=np.asarray(owners), name="cluster-model")
    save_bundle(ds, path)


def load_cluster_model(path):
    """Inverse of :func:`save_cluster_model`."""
    from .bundle import load_bundle

    ds = load_bundle(path)
    if ds.labels is None:
        raise ConsistencyError(f"{path}: bundle has no cluster ownership labels")
    means, bases = [], []
    for c in range(ds.C):
        cols = ds.data[:, ds.labels == c]
        if cols.shape[1] < 1:
            raise ConsistencyError(f"{path}: cluster {c} has no columns")
        means.append(cols[:, 0])
        bases.append(cols[:, 1:])
    d = max((b.shape[1] for b in bases), default=0)
    return ClusterModel(means=np.stack(means), bases=bases, d=d)


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
