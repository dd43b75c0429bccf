"""Shared pipeline plumbing: solver -> (IPD) -> affinity -> spectral, the
subband descent and the five-view MERA flow, each fitted into one
:class:`Fit`. Used by subband selection, the CLI, and demos."""

from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset, _seal, check_int, check_real, unit_columns
from .errors import DegenerateColumnError, ParameterError
from .graph import Partition, affinity_from_representation, ipd_threshold, spectral_clustering
from .mera import mera_mvsc, unify_views
from .selection import select_subband
from .solvers import SolverSpec
from .subspace import assign_multiview_batch, block_width, estimate_bases
from .wavelet import ALPHABET, node_matrix

FIVE_VIEW_ORDER = ("O", "A", "H", "V", "D")
_FIVE_VIEWS = "+".join(FIVE_VIEW_ORDER)
# the columns of the Fit.trace rows of the MERA and of the descent
MERA_TRACE_HEADER = ["iteration", *(f"res_{n}" for n in FIVE_VIEW_ORDER), "fit_error", "mu"]
SELECTION_HEADER = ["order", "subband", "ce"]


@dataclass(frozen=True)
class Fit:
    """A pipeline's partition of the in-sample points and what it came from.

    ``views`` are the column-normalized in-sample views it clustered, and
    ``subband`` names them: '' for the data, the chosen packet path, or
    'O+A+H+V+D' for the five MERA views. ``record`` holds the report keys
    the fit adds: the descent's ``selection``, the MERA ``convergence``.
    ``trace`` holds its rows under SELECTION_HEADER or MERA_TRACE_HEADER,
    and ``tensor`` the MERA N x N x V tensor (None without one).
    """

    part: Partition
    views: list
    subband: str = ""
    record: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)
    tensor: np.ndarray | None = None

    @property
    def labels(self):
        return self.part.labels

    def models(self, d):
        """One d-dimensional subspace model per view, fitted to the partition."""
        return [estimate_bases(Xv, self.part, d) for Xv in self.views]

    def assign(self, ds, models, columns=None):
        """Labels of the points of ``ds``, or of its ``columns`` (an index
        array) in their order: the nearest subspace over views built the
        way the in-sample views were, one model per view.

        The points stream through in column-major blocks of
        :func:`block_width` columns taken from ``ds.data``: each block's
        views are built, normalized and measured, and only its labels are
        kept. The labels equal those of one pass over the column-major
        points, whatever the layout of ``ds.data``. A zero column is named
        by its index in ``ds``.
        """
        n = ds.N if columns is None else len(columns)
        step, labels = block_width(ds.D), []
        for start in range(0, max(n, 1), step):  # no points are one block
            cols = slice(start, start + step) if columns is None else columns[start:start + step]
            # numpy sums the norm of a lone row-major column in another order
            # than the columns of a wider block; column-major blocks agree
            block = _seal(np.asfortranarray(ds.data[:, cols]))
            try:  # one block's views are alive at a time
                labels.append(assign_multiview_batch(
                    _views(Dataset(data=block, img_h=ds.img_h, img_w=ds.img_w), self.subband),
                    models))
            except DegenerateColumnError as exc:
                zero = np.arange(ds.N)[cols][exc.columns].tolist()
                raise DegenerateColumnError(f"zero column(s) at indices {zero}", zero) from None
        return np.concatenate(labels)


@dataclass(frozen=True)
class SingleViewPipeline:
    """Solver plus graph post-processing; ``ipd_d`` of None disables IPD.

    With ``levels`` set, :meth:`fit` clusters the subband that the greedy
    descent to that depth chooses instead of the data."""

    solver: SolverSpec
    ipd_d: int | None = None
    levels: int | None = None

    def __post_init__(self):
        for key in ("ipd_d", "levels"):
            if getattr(self, key) is not None:
                check_int(getattr(self, key), key, 1)

    def representation(self, X):
        """Self-representation of the unit-norm columns of X, IPD-thresholded
        when ``ipd_d`` is set; of each member of a B x D x N stack X, as a
        B x N x N stack solved in one solver call."""
        return self._represent(unit_columns(X))

    def run(self, X, C, seed=0):
        """Cluster the columns of X into C groups; returns a label vector, or
        for a B x D x N stack X one label vector per member, in a list."""
        part = _partition(self.representation(X), C, seed)
        return [p.labels for p in part] if isinstance(part, list) else part.labels

    def _represent(self, U):
        M = self.solver.solve(U)
        return M if self.ipd_d is None else ipd_threshold(M, self.ipd_d)

    def fit(self, ds, C, seed=0):
        """:class:`Fit` of the dataset's data, or of the chosen subband with
        the labels the descent gave it."""
        if self.levels is None:
            return Fit(_partition(self._represent(ds.unit), C, seed), [ds.unit])
        if ds.labels is not None and ds.C != C:
            raise ParameterError(f"the descent clusters into {ds.C} groups, not C = {C}")
        sel = select_subband(ds, self.levels, self, seed)
        evaluated = [[p, ce] for p, ce in sel.evaluated]
        return Fit(Partition(labels=sel.labels, C=C), _views(ds, sel.chosen), sel.chosen,
                   {"selection": {"evaluated": evaluated, "stopped_reason": sel.stopped_reason}},
                   [[i, *row] for i, row in enumerate(evaluated)])


@dataclass(frozen=True)
class WpMeraPipeline:
    """Five-view MERA clustering wrapped in the pipeline interface; its
    settings are checked on construction and named by their ``mera``
    config keys."""

    lam: float
    R: int
    tol: float = 1e-6
    max_iter: int = 200
    sweeps: int = 2

    def __post_init__(self):
        check_real(self.lam, "mera.lambda")
        check_real(self.tol, "mera.tol")
        for key in ("R", "max_iter", "sweeps"):
            check_int(getattr(self, key), f"mera.{key}", 1)

    def fit(self, ds, C, seed=0):
        """Builds the (O, A, H, V, D) views, runs the multi-view MERA solver,
        averages the views, symmetrizes into an affinity, and spectrally
        clusters into a :class:`Fit`."""
        if C is None or C < 2:
            raise ParameterError("need C >= 2")
        views, its = five_views(ds), []
        tensor = mera_mvsc(views, lam=self.lam, R=self.R, tol=self.tol,
                           max_iter=self.max_iter, sweeps=self.sweeps, trace=its)
        part = _partition(unify_views(tensor), C, seed)
        record = {"convergence": {"iterations": len(its),
                                  "final_residual": max(its[-1]["view_residuals"]),
                                  "final_fit_error": its[-1]["fit_error"],
                                  "lambda": self.lam, "R": self.R}}
        trace = [[t["iteration"], *t["view_residuals"], t["fit_error"], t["mu"]] for t in its]
        return Fit(part, views, _FIVE_VIEWS, record, trace, tensor)


def _partition(M, C, seed):
    """Spectral partition of a representation, or a list of them for a stack."""
    parts = [spectral_clustering(affinity_from_representation(m), C, seed)
             for m in (M if M.ndim == 3 else [M])]
    return parts if M.ndim == 3 else parts[0]


def _views(ds, subband):
    """The column-normalized views of ``ds`` that ``subband`` names: the
    five MERA views, or the one packet node ('' for the data)."""
    return (five_views(ds) if subband == _FIVE_VIEWS
            else [unit_columns(node_matrix(ds, subband))])


def five_views(ds):
    """Original data plus the four level-1 subbands, column-normalized.

    Returns a list of five read-only, row-major D x N matrices in the fixed
    order O, A, H, V, D: the layout :func:`mera_mvsc` computes in, so the
    solver and the :class:`Fit` share one copy of each view.
    """
    return [_seal(np.ascontiguousarray(unit_columns(node_matrix(ds, p))))
            for p in ("", *ALPHABET)]
