from types import SimpleNamespace

import numpy as np
import pytest

import wpsc
from conftest import checkerboard_noise_uos, make_uos
from wpsc.errors import ParameterError, SizeError, SplitError
from wpsc.metrics import evaluate
from wpsc.selection import (
    Grid,
    _scan,
    scan_all_subbands,
    grid_search,
    select_subband,
    stratified_subsets,
)
from wpsc.wavelet import node_matrix


class PlantedCePipeline:
    """Fake pipeline returning labels with a prescribed error rate per node.

    Identifies which subband node it received by matching the matrix
    against the validation set's precomputed nodes, then flips a fixed
    number of labels to hit the planted CE exactly. A B x D x N stack gets
    one label vector per member, and ``stacks`` logs the paths of each
    stack it received.
    """

    def __init__(self, ds, ce_by_path, levels=2):
        self.labels = ds.labels
        self.ce_by_path = ce_by_path
        self.nodes = {"": ds.data}
        self.stacks = []
        paths = list(ce_by_path)
        for path in paths:
            if path:
                self.nodes[path] = node_matrix(ds, path)

    def run(self, X, C, seed=0):
        if X.ndim == 3:
            self.stacks.append([])
            return [self._run_one(x, C, self.stacks[-1]) for x in X]
        return self._run_one(X, C, [])

    def _run_one(self, X, C, seen):
        for path, M in self.nodes.items():
            if M.shape == X.shape and np.allclose(M, X, atol=1e-12):
                break
        else:
            raise AssertionError("pipeline got a matrix it cannot identify")
        seen.append(path)
        ce = self.ce_by_path[path]
        pred = self.labels.copy()
        n_flip = round(ce * len(pred))
        pred[:n_flip] = (pred[:n_flip] + 1) % C
        return pred


def planted_ds():
    return make_uos(C=2, d=2, D=16, n=20, seed=0)


class TestClusteringError:
    def test_perfect_pipeline_gives_zero(self):
        ds = planted_ds()
        pipe = PlantedCePipeline(ds, {"": 0.0})
        assert _scan(ds, [[""]], pipe, 0)[""][0] == 0.0

    def test_random_shuffle_is_half_in_expectation(self):
        # Monte Carlo: CE of shuffled balanced 2-cluster labels ~ 0.5
        rng = np.random.default_rng(0)
        truth = np.repeat([0, 1], 200)
        ces = []
        for _ in range(1000):
            pred = rng.permutation(truth)
            ces.append(1.0 - evaluate(truth, pred).acc)
        assert abs(np.mean(ces) - 0.5) <= 0.03

    def test_bounds(self):
        ds = planted_ds()
        for ce in (0.0, 0.25, 0.5):
            pipe = PlantedCePipeline(ds, {"": ce})
            got, _ = _scan(ds, [[""]], pipe, 0)[""]
            assert 0.0 <= got <= 1.0


class TestSelectSubband:
    def test_parent_strictly_best_stops_after_five(self):
        ds = planted_ds()
        ce = {"": 0.05, "A": 0.2, "H": 0.3, "V": 0.3, "D": 0.4}
        trace = select_subband(ds, 2, PlantedCePipeline(ds, ce))
        assert trace.chosen == ""
        assert trace.stopped_reason == "parent-better"
        assert len(trace.evaluated) == 5
        assert [p for p, _ in trace.evaluated] == ["", "A", "H", "V", "D"]

    def test_full_descent_evaluates_nine(self):
        ds = planted_ds()
        ce = {"": 0.5, "A": 0.4, "H": 0.45, "V": 0.5, "D": 0.5,
              "AA": 0.2, "AH": 0.3, "AV": 0.35, "AD": 0.5}
        pipe = PlantedCePipeline(ds, ce)
        trace = select_subband(ds, 2, pipe)
        assert trace.chosen == "AA"
        assert trace.stopped_reason == "max-depth"
        assert len(trace.evaluated) == 9
        # the root alone, then each level's four children as one stack
        assert pipe.stacks == [[""], ["A", "H", "V", "D"], ["AA", "AH", "AV", "AD"]]

    def test_descends_into_best_child_not_first(self):
        ds = planted_ds()
        ce = {"": 0.5, "A": 0.45, "H": 0.2, "V": 0.4, "D": 0.4,
              "HA": 0.1, "HH": 0.25, "HV": 0.3, "HD": 0.3}
        trace = select_subband(ds, 2, PlantedCePipeline(ds, ce))
        assert trace.chosen == "HA"

    def test_child_tie_break_follows_fixed_order(self):
        ds = planted_ds()
        ce = {"": 0.5, "A": 0.3, "H": 0.3, "V": 0.3, "D": 0.3,
              "AA": 0.3, "AH": 0.3, "AV": 0.3, "AD": 0.3}
        trace = select_subband(ds, 2, PlantedCePipeline(ds, ce))
        # equal children: A wins the argmin; equal to parent: accept child
        assert trace.chosen in ("A", "AA")
        assert trace.evaluated[1][0] == "A"
        # a child that only ties its parent at a level j < J is accepted
        # without further descent, and the trace says why
        tie = select_subband(ds, 2, PlantedCePipeline(ds, {**ce, "": 0.3}))
        assert tie.chosen == "A"
        assert tie.stopped_reason == "child-ties-parent"
        assert len(tie.evaluated) == 5

    def test_j1_stops_at_level_one(self):
        ds = planted_ds()
        ce = {"": 0.5, "A": 0.1, "H": 0.3, "V": 0.3, "D": 0.3}
        trace = select_subband(ds, 1, PlantedCePipeline(ds, ce, levels=1))
        assert trace.chosen == "A"
        assert len(trace.evaluated) == 5
        assert trace.stopped_reason == "max-depth"

    def test_never_more_than_one_plus_4j(self):
        ds = planted_ds()
        ce = {"": 1.0, "A": 0.5, "H": 0.9, "V": 0.9, "D": 0.9,
              "AA": 0.25, "AH": 0.6, "AV": 0.6, "AD": 0.6}
        trace = select_subband(ds, 2, PlantedCePipeline(ds, ce))
        assert len(trace.evaluated) <= 1 + 4 * 2

    def test_chosen_ce_consistent_with_rule(self):
        ds = planted_ds()
        ce = {"": 0.5, "A": 0.2, "H": 0.4, "V": 0.4, "D": 0.4,
              "AA": 0.35, "AH": 0.5, "AV": 0.5, "AD": 0.5}
        trace = select_subband(ds, 2, PlantedCePipeline(ds, ce))
        ces = dict(trace.evaluated)
        # descent happened into A, then the parent A beat its children
        assert trace.chosen == "A"
        assert trace.stopped_reason == "parent-better"
        assert ces["A"] <= ces[""]
        children = [ces[p] for p in ("AA", "AH", "AV", "AD")]
        assert ces["A"] < min(children)

    def test_requires_labels(self):
        ds = planted_ds()
        unlabeled = wpsc.Dataset(data=ds.data, img_h=ds.img_h, img_w=ds.img_w)
        with pytest.raises(ParameterError):
            select_subband(unlabeled, 2, PlantedCePipeline(ds, {"": 0.0}))

    @pytest.mark.parametrize("chooser", [select_subband, scan_all_subbands])
    def test_depth_checked_against_image_size_before_any_solve(self, chooser):
        # a descent that stopped early once returned for a J too deep for its images
        ds = planted_ds()  # 4 x 4 images take two levels
        pipe = PlantedCePipeline(ds, {"": 0.0, **{ch: 0.5 for ch in "AHVD"}})
        with pytest.raises(SizeError, match="level 3"):
            chooser(ds, 3, pipe)
        assert pipe.stacks == []

    @pytest.mark.parametrize("ce,chosen", [
        ({"": 0.05, "A": 0.2, "H": 0.3, "V": 0.3, "D": 0.4}, ""),
        ({"": 0.5, "A": 0.4, "H": 0.45, "V": 0.5, "D": 0.5,
          "AA": 0.2, "AH": 0.3, "AV": 0.35, "AD": 0.5}, "AA"),
    ])
    def test_keeps_labels_of_chosen_node(self, ce, chosen):
        ds = planted_ds()
        pipe = PlantedCePipeline(ds, ce)
        trace = select_subband(ds, 2, pipe)
        assert trace.chosen == chosen
        assert np.array_equal(trace.labels, pipe.run(node_matrix(ds, chosen), 2))

    def test_kept_labels_equal_a_rerun_of_the_real_pipeline(self):
        ds = wpsc.column_normalize(checkerboard_noise_uos(seed=0))
        pipe = wpsc.SingleViewPipeline(wpsc.SolverSpec("SSC", {"alpha": 10}))
        trace = select_subband(ds, 2, pipe, seed=3)
        rerun = pipe.run(node_matrix(ds, trace.chosen), ds.C, 3)
        assert np.array_equal(trace.labels, rerun)

    def test_checkerboard_noise_prefers_lowpass(self):
        # real pipeline sanity check on one seed (the statistical 8/10
        # version runs in the acceptance suite)
        ds = wpsc.column_normalize(checkerboard_noise_uos(seed=0))
        pipe = wpsc.SingleViewPipeline(wpsc.SolverSpec("SSC", {"alpha": 10}))
        trace = select_subband(ds, 2, pipe, seed=0)
        assert trace.chosen in ("A", "AA")


class TestGridSearch:
    @pytest.mark.parametrize("seed", [-5, 0.5, None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            Grid(values={"ce": [0.25]}, seed=seed)

    def test_single_point_grid(self):
        ds = planted_ds()
        grid = Grid(values={"ce": [0.25]}, n_val_subsets=2,
                    val_size_per_cluster=10, seed=0)
        make = lambda params: PlantedCePipeline(ds, {"": params["ce"]})
        # planted pipeline only recognizes full-data matrices; use subsets
        # of the full columns via a wrapper that ignores the subset
        best, table = grid_search(ds, grid, _SubsetTolerantFactory(ds))
        assert best == {"ce": 0.25} or best is not None
        assert len(table) == 1

    def test_dominant_point_wins(self):
        ds = planted_ds()
        grid = Grid(values={"ce": [0.4, 0.0]}, n_val_subsets=3,
                    val_size_per_cluster=10, seed=1)
        best, table = grid_search(ds, grid, _SubsetTolerantFactory(ds))
        assert best == {"ce": 0.0}
        means = {row["params"]["ce"]: row["mean_acc"] for row in table}
        assert means[0.0] > means[0.4]

    def test_tie_goes_to_first_grid_point(self):
        ds = planted_ds()
        grid = Grid(values={"ce": [0.2, 0.2]}, n_val_subsets=2,
                    val_size_per_cluster=8, seed=2)
        best, _ = grid_search(ds, grid, _SubsetTolerantFactory(ds))
        assert best == {"ce": 0.2}

    def test_table_has_one_row_per_point(self):
        ds = planted_ds()
        grid = Grid(values={"ce": [0.0, 0.1, 0.2], "unused": [1, 2]},
                    n_val_subsets=2, val_size_per_cluster=6, seed=3)
        _, table = grid_search(ds, grid, _SubsetTolerantFactory(ds))
        assert len(table) == 6

    def test_each_subset_is_normalized_once(self, monkeypatch):
        # 3 grid points x 4 subsets: the points' fits share their subset's
        # normalized columns, so 4 normalizations in all
        ds = make_uos(C=2, d=2, D=16, n=20, seed=1)
        calls = []
        real = wpsc.datasets.unit_columns

        def counting(X):
            calls.append(X.shape)
            return real(X)

        monkeypatch.setattr(wpsc.datasets, "unit_columns", counting)
        monkeypatch.setattr(wpsc.pipeline, "unit_columns", counting)
        grid = Grid(values={"q": [3, 4, 5]}, n_val_subsets=4,
                    val_size_per_cluster=8, seed=0)
        _, table = grid_search(
            ds, grid, lambda p: wpsc.SingleViewPipeline(wpsc.SolverSpec("RTSC", p)))
        assert calls == [(16, 16)] * 4
        assert len(table) == 3 and all(len(row["accs"]) == 4 for row in table)


class _SubsetTolerantFactory:
    """make_pipeline for grid tests: plants labels regardless of the subset."""

    def __init__(self, ds):
        self.ds = ds

    def __call__(self, params):
        ce = params["ce"]
        labels = self.ds.labels

        class _P:
            def fit(_self, sub, C, seed=0):
                # recover subset identity by matching columns
                idx = []
                for col in sub.data.T:
                    hit = np.flatnonzero(np.all(np.isclose(
                        self.ds.data, col[:, None], atol=1e-12), axis=0))[0]
                    idx.append(hit)
                pred = labels[np.asarray(idx)].copy()
                n_flip = round(ce * len(pred))
                pred[:n_flip] = (pred[:n_flip] + 1) % C
                return SimpleNamespace(labels=pred)

        return _P()


@pytest.mark.parametrize("order", "CF")
def test_stacked_nodes_keep_their_layout(order):
    # a BLAS product can round differently on another memory layout, so each
    # node reaches the pipeline laid out as node_matrix lays it out alone
    ds = planted_ds()
    ds = wpsc.Dataset(data=np.asarray(ds.data, order=order), img_h=ds.img_h,
                      img_w=ds.img_w, labels=ds.labels)
    seen = []

    class Recorder:
        def run(self, X, C, seed=0):
            seen.extend(X)
            return [ds.labels] * len(X)

    select_subband(ds, 1, Recorder())
    for path, member in zip(["", "A", "H", "V", "D"], seen, strict=True):
        alone = node_matrix(ds, path)
        assert np.array_equal(member, alone)
        assert member.strides == alone.strides, (order, path)


class TestExhaustiveScan:
    def test_scans_every_node(self):
        ds = planted_ds()
        ce = {"": 0.3}
        for j1 in "AHVD":
            ce[j1] = 0.3
            for j2 in "AHVD":
                ce[j1 + j2] = 0.3
        ce["DH"] = 0.05  # off the greedy path: only the scan can find it
        pipe = PlantedCePipeline(ds, ce)
        trace = scan_all_subbands(ds, 2, pipe)
        assert len(trace.evaluated) == 21
        assert trace.chosen == "DH"
        assert trace.stopped_reason == "exhaustive"
        assert np.array_equal(trace.labels,
                              PlantedCePipeline(ds, ce).run(node_matrix(ds, "DH"), 2))
        # each parent's four children go through the pipeline as one stack,
        # and the trace is the one of one-at-a-time runs in scan order
        assert pipe.stacks[:3] == [[""], ["A", "H", "V", "D"], ["AA", "AH", "AV", "AD"]]
        assert [len(paths) for paths in pipe.stacks] == [1] + [4] * 5
        one_at_a_time = []
        for paths in pipe.stacks:
            for path in paths:
                pred = PlantedCePipeline(ds, ce).run(node_matrix(ds, path), 2)
                one_at_a_time.append((path, 1.0 - evaluate(ds.labels, pred).acc))
        assert trace.evaluated == tuple(one_at_a_time)
        assert [p for p, _ in trace.evaluated] == ["", *"AHVD", *(
            a + b for a in "AHVD" for b in "AHVD")]

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_stacked_levels_match_one_at_a_time(self, exhaustive):
        # the real SSC pipeline: each node of a stack gets the CE and the
        # labels it gets when it runs alone
        ds = wpsc.column_normalize(checkerboard_noise_uos(seed=1))
        pipe = wpsc.SingleViewPipeline(wpsc.SolverSpec("SSC", {"alpha": 10}))
        chooser = scan_all_subbands if exhaustive else select_subband
        trace = chooser(ds, 2, pipe, seed=2)
        for path, ce in trace.evaluated:
            alone = pipe.run(node_matrix(ds, path), ds.C, 2)
            assert ce == 1.0 - evaluate(ds.labels, alone).acc, path
            if path == trace.chosen:
                assert np.array_equal(trace.labels, alone)


class TestStratifiedSubsets:
    def test_deterministic_and_stratified(self):
        labels = np.repeat([0, 1, 2], 20)
        a = stratified_subsets(labels, 3, 5, seed=7)
        b = stratified_subsets(labels, 3, 5, seed=7)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa, sb)
            assert np.bincount(labels[sa]).tolist() == [5, 5, 5]

    def test_cluster_too_small(self):
        labels = np.array([0, 0, 1])
        with pytest.raises(SplitError):
            stratified_subsets(labels, 2, 2, seed=0)
