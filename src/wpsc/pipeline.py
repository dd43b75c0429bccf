"""Shared pipeline plumbing: solver -> (IPD) -> affinity -> spectral, and
the five-view MERA flow. Used by subband selection, the CLI, and demos."""

from dataclasses import dataclass

from .datasets import Dataset, unit_columns
from .errors import ParameterError
from .graph import affinity_from_representation, ipd_threshold, spectral_clustering
from .mera import mera_mvsc, unify_views
from .solvers import SolverSpec
# assign_multiview_batch lives in subspace; the benchmark's span tracer
# (bench/spans.py) looks it up here to time out-of-sample assignment
from .subspace import assign_multiview_batch  # noqa: F401
from .wavelet import haar_analysis_2d


@dataclass(frozen=True)
class SingleViewPipeline:
    """Solver plus graph post-processing; ``ipd_d`` of None disables IPD."""

    solver: SolverSpec
    ipd_d: int | None = None

    def representation(self, X):
        """Self-representation of the unit-norm columns of X, IPD-thresholded
        when ``ipd_d`` is set."""
        M = self.solver.solve(unit_columns(X))
        if self.ipd_d is not None:
            M = ipd_threshold(M, self.ipd_d)
        return M

    def run(self, X, C, seed=0):
        """Cluster the columns of X into C groups; returns a label vector."""
        W = affinity_from_representation(self.representation(X))
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

    def fit(self, ds, C, seed=0, trace=None):
        """:func:`run_wp_mera` of a dataset with these parameters; returns
        (partition, self-representation tensor, views)."""
        return run_wp_mera(ds, C, lam=self.lam, R=self.R, seed=seed, tol=self.tol,
                           max_iter=self.max_iter, sweeps=self.sweeps, trace=trace)

    def run(self, X, C, seed=0):
        carrier = Dataset(data=X, img_h=self.img_h, img_w=self.img_w)
        return self.fit(carrier, C, seed)[0].labels


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
