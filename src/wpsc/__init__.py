"""Wavelet-packet-domain subspace clustering.

Transform vectorized image datasets into non-decimated Haar subbands,
cluster them with self-expressive solvers (SSC, LRR, NSN, RTSC) or the
five-view low-rank MERA tensor solver, select the best subband by
validation clustering error, and classify out-of-sample points by
point-to-subspace distance.
"""

from . import errors
from .bundle import load_bundle, save_bundle
from .datasets import (
    Dataset,
    SplitSpec,
    UosSpec,
    column_normalize,
    generate_uos,
    load_idx,
    load_pgm_dir,
    split,
    unit_columns,
)
from .graph import Partition, affinity_from_representation, ipd_threshold, spectral_clustering
from .mera import (
    MeraFactors,
    choose_grid,
    mera_contract,
    mera_fit,
    mera_mvsc,
    reshape_from_5d,
    reshape_to_5d,
    unify_views,
)
from .metrics import MetricsReport, evaluate, wilcoxon_signed_rank
from .pipeline import Fit, SingleViewPipeline, WpMeraPipeline, five_views
from .selection import Grid, SelectionTrace, grid_search, select_subband
from .solvers import SolverSpec, solve_lrr, solve_nsn, solve_rtsc, solve_ssc
from .subspace import (
    ClusterModel,
    assign_multiview_batch,
    average_affinity,
    estimate_bases,
    mean_principal_angle,
)
from .wavelet import haar_analysis_2d, haar_synthesis_2d, node_matrix, wp_decompose

__version__ = "0.1.0"
