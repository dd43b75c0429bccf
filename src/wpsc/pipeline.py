"""Shared pipeline plumbing: solver -> (IPD) -> affinity -> spectral, and
the five-view MERA flow. Used by subband selection, the CLI, and demos."""

from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .errors import DegenerateColumnError, ParameterError
from .graph import affinity_from_representation, ipd_threshold, spectral_clustering
from .mera import mera_mvsc, unify_views
from .solvers import SolverSpec
# assign_multiview_batch lives in subspace; the CLI and the demos import it here
from .subspace import assign_multiview_batch, assign_oos_batch, estimate_bases  # noqa: F401
from .wavelet import haar_analysis_2d


def unit_columns(X):
    """Column-normalize a raw matrix; zero columns are an error."""
    X = np.asarray(X, dtype=np.float64)
    norms = np.linalg.norm(X, axis=0)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateColumnError(f"zero column(s) at indices {zero[:8].tolist()}")
    return X / norms


@dataclass(frozen=True)
class SingleViewPipeline:
    """Solver plus graph post-processing; ``ipd_d`` of None disables IPD."""

    solver: SolverSpec
    ipd_d: int | None = None

    def run(self, X, C, seed=0):
        """Cluster the columns of X into C groups; returns a label vector."""
        M = self.solver.solve(unit_columns(X))
        if self.ipd_d is not None:
            M = ipd_threshold(M, self.ipd_d)
        W = affinity_from_representation(M)
        return spectral_clustering(W, C, seed).labels


@dataclass(frozen=True)
class WpMeraPipeline:
    """Five-view MERA clustering wrapped in the pipeline interface.

    Carries the image geometry so it can rebuild views from a raw matrix
    (e.g. a validation subset or a subband node)."""

    img_h: int
    img_w: int
    lam: float
    R: int
    tol: float = 1e-6
    max_iter: int = 200
    sweeps: int = 2

    def run(self, X, C, seed=0):
        carrier = Dataset(data=X, img_h=self.img_h, img_w=self.img_w)
        part, _, _ = run_wp_mera(carrier, C, lam=self.lam, R=self.R, seed=seed,
                                 tol=self.tol, max_iter=self.max_iter,
                                 sweeps=self.sweeps)
        return part.labels


def five_views(ds):
    """Original data plus the four level-1 subbands, column-normalized.

    Returns a list of five D x N matrices in the fixed order O, A, H, V, D.
    """
    subs = haar_analysis_2d(ds.images(), level=1)
    views = [ds.data]
    views += [cube.reshape(ds.N, ds.D).T for cube in subs]
    return [unit_columns(Xv) for Xv in views]


def run_wp_mera(ds, C, lam, R, seed=0, tol=1e-6, max_iter=200, sweeps=2,
                trace=None):
    """Five-view MERA clustering of a dataset.

    Builds the (O, A, H, V, D) views, runs the multi-view MERA solver,
    averages the views, symmetrizes into an affinity, and spectrally
    clusters. Returns (partition, self-representation tensor, views).
    """
    if C is None or C < 2:
        raise ParameterError("need C >= 2")
    views = five_views(ds)
    tensor = mera_mvsc(views, lam=lam, R=R, tol=tol, max_iter=max_iter,
                       sweeps=sweeps, trace=trace)
    W = affinity_from_representation(unify_views(tensor))
    part = spectral_clustering(W, C, seed)
    return part, tensor, views


def multiview_models(views, part, d):
    """One ClusterModel per view, estimated from a shared partition."""
    return [estimate_bases(Xv, part, d) for Xv in views]


def oos_single_view(in_X, part, d, out_X):
    """Estimate bases on in-sample columns and assign out-of-sample ones."""
    model = estimate_bases(in_X, part, d)
    return assign_oos_batch(out_X, model), model
