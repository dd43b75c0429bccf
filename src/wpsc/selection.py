"""Best-subband selection with the self-stopping rule, and validation-subset
hyperparameter grid search."""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .datasets import _take, check_int
from .errors import ParameterError, SplitError
from .metrics import evaluate
from .wavelet import ALPHABET, _check_size, node_matrix


@dataclass(frozen=True)
class SelectionTrace:
    """Evaluation log of the greedy subband descent.

    ``evaluated`` lists (path, CE) in evaluation order; ``stopped_reason``
    is 'parent-better' when the parent beat its best child,
    'child-ties-parent' when the best child only tied its parent at a
    level j < J and was accepted without further descent, and 'max-depth'
    when a child was accepted at level J. ``labels`` is the partition the
    pipeline gave the chosen node during the search.
    """

    evaluated: tuple
    chosen: str
    stopped_reason: str
    labels: np.ndarray = field(compare=False)


@dataclass(frozen=True)
class Grid:
    """Hyperparameter grid evaluated on stratified validation subsets."""

    values: dict
    n_val_subsets: int = 10
    val_size_per_cluster: int = 50
    seed: int = 0

    def __post_init__(self):
        if not self.values or any(len(v) == 0 for v in self.values.values()):
            raise ParameterError("grid needs at least one value per parameter")
        check_int(self.n_val_subsets, "n_val_subsets", 1)
        check_int(self.val_size_per_cluster, "val_size_per_cluster", 1)
        check_int(self.seed, "seed")

    def points(self):
        """Grid points as dicts, in row-major order over the value lists."""
        keys = list(self.values.keys())
        for combo in itertools.product(*(self.values[k] for k in keys)):
            yield dict(zip(keys, combo))


def _scan(ds, groups, pipeline, seed):
    """{path: (CE, predicted labels)} of the nodes of ``groups``, in group
    order; each group is one B x D x N stack clustered by one pipeline run
    with C = max label + 1. ``np.stack`` keeps the memory layout the nodes
    share, in which a BLAS product rounds as it does on a lone node."""
    C, runs = int(ds.labels.max()) + 1, {}
    for paths in groups:
        preds = pipeline.run(np.stack([node_matrix(ds, p) for p in paths]), C, seed)
        runs.update((p, (1.0 - evaluate(ds.labels, pred).acc, pred))
                    for p, pred in zip(paths, preds))
    return runs


def select_subband(ds, J, pipeline, seed=0):
    """Greedy minimum-CE subband descent with the self-stopping rule.

    Evaluates CE on the original data, then on the four children of the
    current best node (ties in the child argmin go to the fixed order A,
    H, V, D). If the parent's CE is strictly smaller than the best
    child's, the parent wins and the search stops. Otherwise the best
    child is accepted; at a level j < J the search descends into it if it
    is strictly better than its parent and stops there if it only ties.
    At most 1 + 4*J evaluations, in a deterministic order.

    The pipeline's ``run`` takes a B x D x N stack and returns one label
    vector per member: the original data goes in as a stack of one, and
    each level's four children as one stack.
    """
    if ds.labels is None:
        raise ParameterError("subband selection needs a labeled validation set")
    _check_size(ds.img_h, ds.img_w, J)  # before the first solve
    runs = _scan(ds, [[""]], pipeline, seed)

    def stop(chosen, reason):
        return SelectionTrace(tuple((p, ce) for p, (ce, _) in runs.items()),
                              chosen, reason, runs[chosen][1])

    parent = ""
    for j in range(1, J + 1):
        children = [parent + ch for ch in ALPHABET]
        runs.update(_scan(ds, [children], pipeline, seed))
        # min keeps the first of equal CEs: the fixed order A, H, V, D
        best_child = min(children, key=lambda p: runs[p][0])
        parent_ce, best_ce = runs[parent][0], runs[best_child][0]
        if parent_ce < best_ce:
            return stop(parent, "parent-better")
        if j == J:
            return stop(best_child, "max-depth")
        if best_ce == parent_ce:
            return stop(best_child, "child-ties-parent")
        parent = best_child


def scan_all_subbands(ds, J, pipeline, seed=0):
    """Diagnostic exhaustive scan: CE on the original and every tree node.

    Much costlier than :func:`select_subband` (1 + sum_j 4**j evaluations
    instead of at most 1 + 4*J); returns a SelectionTrace whose ``chosen``
    is the global argmin (ties to the earlier path in scan order). The
    four children of each parent go through the pipeline as one stack, as
    in the descent, so the scan holds no more nodes at once than it does.
    """
    if ds.labels is None:
        raise ParameterError("subband scanning needs a labeled validation set")
    _check_size(ds.img_h, ds.img_w, J)  # before the first solve
    groups = [[""]]
    for j in range(1, J + 1):
        groups += [["".join(p) + ch for ch in ALPHABET]
                   for p in itertools.product(ALPHABET, repeat=j - 1)]
    runs = _scan(ds, groups, pipeline, seed)
    evaluated = [(p, ce) for p, (ce, _) in runs.items()]
    chosen = min(evaluated, key=lambda pair: pair[1])[0]
    return SelectionTrace(tuple(evaluated), chosen, "exhaustive", runs[chosen][1])


def stratified_subsets(labels, n_subsets, size_per_cluster, seed):
    """Seeded stratified index subsets (without replacement per cluster)."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    C = int(labels.max()) + 1
    members = [np.flatnonzero(labels == c) for c in range(C)]
    short = [c for c in range(C) if members[c].size < size_per_cluster]
    if short:
        raise SplitError(
            f"cluster(s) {short[:8]} smaller than val_size_per_cluster="
            f"{size_per_cluster}"
        )
    subsets = []
    for _ in range(n_subsets):
        picks = [rng.choice(m, size=size_per_cluster, replace=False)
                 for m in members]
        subsets.append(np.sort(np.concatenate(picks)))
    return subsets

def grid_search(ds, grid, make_pipeline):
    """Pick the grid point with the best mean validation accuracy.

    Every grid point is scored on the same seeded stratified subsets; the
    argmax of mean ACC wins, ties going to the earlier point in grid
    order; every point's pipeline is fitted to each subset, a labeled
    Dataset. Returns (best_params, table) where the table holds one row per
    grid point with its subset accuracies.
    """
    if ds.labels is None:
        raise ParameterError("grid search needs labels")
    subsets = stratified_subsets(ds.labels, grid.n_val_subsets,
                                 grid.val_size_per_cluster, grid.seed)
    C, points = ds.C, list(grid.points())
    pipelines = [make_pipeline(params) for params in points]
    accs = [[] for _ in points]
    for s, idx in enumerate(subsets):  # taken once; ``Dataset.unit`` normalizes it once
        sub = _take(ds, idx, f"val{s}")
        for pipeline, point_accs in zip(pipelines, accs):
            point_accs.append(evaluate(sub.labels, pipeline.fit(sub, C, grid.seed + s).labels).acc)
    table = [{"params": dict(params), "mean_acc": float(np.mean(point_accs)),
              "accs": point_accs} for params, point_accs in zip(points, accs)]
    best = max(table, key=lambda row: row["mean_acc"])  # the first of equal means
    return dict(best["params"]), table
