import numpy as np
import pytest

import wpsc
from conftest import make_uos, smooth_uos_with_hf_noise
from wpsc.datasets import SplitSpec, split
from wpsc.errors import ConsistencyError, ParameterError
from wpsc.graph import Partition
from wpsc.pipeline import unit_columns
from wpsc.subspace import (
    assign_multiview_batch,
    assign_oos,
    assign_oos_batch,
    assign_oos_multiview,
    average_affinity,
    estimate_bases,
    mean_principal_angle,
    subspace_affinity,
    subspace_distances,
)
from wpsc.wavelet import node_matrix


def orth(rng, D, d):
    q, _ = np.linalg.qr(rng.standard_normal((D, D)))
    return q[:, :d]


# Per-column reference implementation of point-to-subspace assignment.
def reference_distances(x, model):
    x = np.asarray(x, dtype=np.float64).ravel()
    dist = np.empty(model.C)
    for c, (mean, U) in enumerate(zip(model.means, model.bases)):
        resid = x - mean
        if U.shape[1]:
            resid = resid - U @ (U.T @ resid)
        dist[c] = np.linalg.norm(resid)
    return dist


def reference_labels(X, model):
    return np.array([int(np.argmin(reference_distances(X[:, i], model)))
                     for i in range(X.shape[1])], dtype=np.int64)


def reference_multiview_labels(view_matrices, models):
    labels = []
    for i in range(view_matrices[0].shape[1]):
        best_c, best_dist = None, np.inf
        for Xv, model in zip(view_matrices, models):
            dist = reference_distances(Xv[:, i], model)
            c = int(np.argmin(dist))
            if dist[c] < best_dist:
                best_c, best_dist = c, dist[c]
        labels.append(best_c)
    return np.array(labels, dtype=np.int64)


def random_model(rng, D, C, dims):
    """ClusterModel with random means and orthonormal bases of the given
    widths (a width of 0 is a point cluster)."""
    bases = [orth(rng, D, d) if d else np.zeros((D, 0)) for d in dims[:C]]
    return wpsc.ClusterModel(means=rng.standard_normal((C, D)), bases=bases,
                             d=max(dims[:C]))


class TestEstimateBases:
    def test_plane_with_offset_recovered(self):
        rng = np.random.default_rng(0)
        U = orth(rng, 8, 2)
        mean = rng.standard_normal(8)
        pts = mean[:, None] + U @ rng.standard_normal((2, 12))
        other = rng.standard_normal((8, 5))
        X = np.concatenate([pts, other], axis=1)
        part = Partition(labels=np.array([0] * 12 + [1] * 5), C=2)
        model = estimate_bases(X, part, 2)
        for i in range(12):
            resid = pts[:, i] - model.means[0]
            resid = resid - model.bases[0] @ (model.bases[0].T @ resid)
            assert np.linalg.norm(resid) <= 1e-10

    def test_repeated_point_cluster_degrades(self):
        X = np.concatenate([np.ones((4, 3)), np.eye(4)[:, :3]], axis=1)
        part = Partition(labels=np.array([0, 0, 0, 1, 1, 1]), C=2)
        with pytest.warns(UserWarning, match="reduced"):
            model = estimate_bases(X, part, 5)
        assert model.dims[0] == 2  # 3 points -> at most size-1 dimensions
        assert 0 in model.reduced

    def test_true_partition_residuals(self):
        ds = make_uos(C=4, d=3, D=40, n=12, seed=1)
        part = Partition(labels=ds.labels, C=4)
        model = estimate_bases(ds.data, part, 3)
        for c in range(4):
            block = ds.data[:, ds.labels == c]
            cent = block - model.means[c][:, None]
            resid = cent - model.bases[c] @ (model.bases[c].T @ cent)
            assert np.abs(np.linalg.norm(resid, axis=0)).max() < 1e-8

    def test_orthonormal_basis_invariant(self):
        ds = make_uos(C=3, d=2, D=25, n=10, seed=2)
        model = estimate_bases(ds.data, Partition(labels=ds.labels, C=3), 2)
        for U in model.bases:
            assert np.abs(U.T @ U - np.eye(U.shape[1])).max() <= 1e-10


class TestAssignOos:
    def test_exact_member_zero_distance(self):
        rng = np.random.default_rng(3)
        ds = make_uos(C=3, d=2, D=30, n=10, seed=3)
        part = Partition(labels=ds.labels, C=3)
        model = estimate_bases(ds.data, part, 2)
        x = model.means[1] + model.bases[1] @ rng.standard_normal(2)
        assert assign_oos(x, model) == 1

    def test_tie_goes_to_smallest_index(self):
        # two identical subspaces: distances tie exactly
        U = np.eye(4)[:, :1]
        model = wpsc.ClusterModel(means=np.zeros((2, 4)), bases=[U, U.copy()], d=1)
        assert assign_oos(np.array([0.0, 1.0, 1.0, 0.0]), model) == 0
        X = np.random.default_rng(13).standard_normal((4, 300))
        assert np.array_equal(assign_oos_batch(X, model), np.zeros(300))

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_matches_per_column_reference(self, seed):
        # D = 300 makes blocks of 218 columns, so 500 columns span 3 blocks
        rng = np.random.default_rng(seed)
        D, C = (300, 6) if seed % 2 else (17, 4)
        model = random_model(rng, D, C, [3, 0, 5, 1, 2, 4])
        X = model.means[rng.integers(C, size=500)].T + rng.standard_normal((D, 500))
        expect = reference_labels(X, model)
        assert np.array_equal(assign_oos_batch(X, model), expect)
        assert np.array_equal(assign_oos_batch(np.asfortranarray(X), model), expect)
        assert [assign_oos(X[:, i], model) for i in range(5)] == expect[:5].tolist()
        dist = subspace_distances(X, model)
        ref = np.stack([reference_distances(X[:, i], model) for i in range(500)], 1)
        assert dist.shape == (C, 500)
        assert np.abs(dist - ref).max() <= 1e-12 * ref.max()

    def test_zero_columns(self):
        model = random_model(np.random.default_rng(14), 6, 3, [2, 0, 1])
        labels = assign_oos_batch(np.empty((6, 0)), model)
        assert labels.dtype == np.int64 and labels.shape == (0,)

    def test_dimension_mismatch_is_consistency_error(self):
        model = random_model(np.random.default_rng(15), 6, 2, [2, 1])
        with pytest.raises(ConsistencyError, match="D = 6"):
            assign_oos_batch(np.ones((5, 3)), model)
        with pytest.raises(ConsistencyError):
            assign_oos(np.ones(7), model)

    def test_noiseless_split_oos_perfect(self):
        ds = make_uos(C=4, d=3, D=50, n=20, seed=4)
        ins, outs = split(ds, SplitSpec(0.8, 0))
        model = estimate_bases(ins.data, Partition(labels=ins.labels, C=4), 3)
        pred = wpsc.assign_oos_batch(outs.data, model)
        assert wpsc.evaluate(outs.labels, pred).acc == 1.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        ds = make_uos(C=3, d=2, D=20, n=8, seed=5)
        part = Partition(labels=ds.labels, C=3)
        model = estimate_bases(ds.data, part, 2)
        rotated = wpsc.ClusterModel(
            means=model.means,
            bases=[U @ np.linalg.qr(rng.standard_normal((2, 2)))[0]
                   for U in model.bases],
            d=2)
        x = rng.standard_normal(20)
        assert assign_oos(x, model) == assign_oos(x, rotated)


class TestAssignOosMultiview:
    def _model(self, U, mean=None):
        D = U.shape[0]
        means = np.zeros((2, D)) if mean is None else mean
        other = np.linalg.qr(np.arange(D * D, dtype=float).reshape(D, D) + np.eye(D))[0][:, -1:]
        return wpsc.ClusterModel(means=means, bases=[U, other], d=U.shape[1])

    def test_all_views_agree(self):
        rng = np.random.default_rng(6)
        ds = make_uos(C=3, d=2, D=30, n=10, seed=6)
        part = Partition(labels=ds.labels, C=3)
        models = [estimate_bases(ds.data, part, 2)] * 5
        x = ds.data[:, 0]
        label = assign_oos_multiview([x] * 5, models)
        assert label == assign_oos(x, models[0])

    def test_view_with_smaller_distance_wins(self):
        # view 0 prefers cluster 0 at distance ~0.1; view 1 hits cluster 1 exactly
        e = np.eye(3)
        m0 = wpsc.ClusterModel(means=np.zeros((2, 3)),
                               bases=[e[:, :1], e[:, 1:2]], d=1)
        m1 = wpsc.ClusterModel(means=np.zeros((2, 3)),
                               bases=[e[:, 2:3], e[:, 1:2]], d=1)
        x0 = np.array([1.0, 0.0, 0.1])   # distance 0.1 to cluster 0
        x1 = np.array([0.0, 1.0, 0.0])   # distance 0 to cluster 1 in view 1
        assert assign_oos_multiview([x0, x1], [m0, m1]) == 1

    def test_view_count_mismatch(self):
        ds = make_uos(C=2, d=1, D=9, n=4, seed=7)
        model = estimate_bases(ds.data, Partition(labels=ds.labels, C=2), 1)
        with pytest.raises(ParameterError):
            assign_oos_multiview([ds.data[:, 0]], [model, model])
        with pytest.raises(ParameterError):
            assign_multiview_batch([ds.data], [model, model])
        with pytest.raises(ParameterError):
            assign_multiview_batch([ds.data, ds.data[:, :2]], [model, model])

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_matches_per_column_reference(self, seed):
        rng = np.random.default_rng(20 + seed)
        D, C, n = 40, 5, 400
        models = [random_model(rng, D, C, [2, 0, 3, 1, 2]) for _ in range(4)]
        truth = rng.integers(C, size=n)
        views = [m.means[truth].T + 2.0 * rng.standard_normal((D, n))
                 for m in models]
        expect = reference_multiview_labels(views, models)
        assert np.array_equal(assign_multiview_batch(views, models), expect)
        assert assign_oos_multiview([Xv[:, 0] for Xv in views], models) == expect[0]

    def test_zero_columns(self):
        rng = np.random.default_rng(23)
        models = [random_model(rng, 8, 3, [1, 2, 0]) for _ in range(2)]
        labels = assign_multiview_batch([np.empty((8, 0))] * 2, models)
        assert labels.dtype == np.int64 and labels.shape == (0,)


class TestSubspaceAffinity:
    def test_identical_spans(self):
        rng = np.random.default_rng(8)
        U = orth(rng, 6, 2)
        assert subspace_affinity(U, U) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_spans(self):
        e = np.eye(6)
        assert subspace_affinity(e[:, :2], e[:, 2:4]) == pytest.approx(0.0,
                                                                       abs=1e-12)

    def test_hand_computed_case(self):
        # span{e1,e2} vs span{e1,(e2+e3)/sqrt2}: angles 0 and 45 degrees
        e = np.eye(3)
        U1 = e[:, :2]
        U2 = np.column_stack([e[:, 0], (e[:, 1] + e[:, 2]) / np.sqrt(2)])
        expect = np.sqrt((1.0 + 0.5) / 2.0)  # 0.8660254037844386
        assert subspace_affinity(U1, U2) == pytest.approx(expect, abs=1e-12)

    def test_symmetry_and_rotation_invariance(self):
        rng = np.random.default_rng(9)
        U1, U2 = orth(rng, 8, 3), orth(rng, 8, 2)
        a = subspace_affinity(U1, U2)
        assert subspace_affinity(U2, U1) == pytest.approx(a, abs=1e-12)
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        assert subspace_affinity(U1 @ Q, U2) == pytest.approx(a, abs=1e-10)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ParameterError):
            subspace_affinity(np.ones((4, 2)), np.eye(4)[:, :2])


class TestAverageAffinity:
    def test_two_clusters_single_pair(self):
        rng = np.random.default_rng(10)
        U1, U2 = orth(rng, 7, 2), orth(rng, 7, 2)
        model = wpsc.ClusterModel(means=np.zeros((2, 7)), bases=[U1, U2], d=2)
        assert average_affinity(model) == pytest.approx(
            subspace_affinity(U1, U2), abs=1e-14)

    def test_identical_bases(self):
        U = np.eye(5)[:, :2]
        model = wpsc.ClusterModel(means=np.zeros((3, 5)),
                                  bases=[U, U.copy(), U.copy()], d=2)
        assert average_affinity(model) == pytest.approx(1.0, abs=1e-12)

    def test_mutually_orthogonal(self):
        e = np.eye(6)
        model = wpsc.ClusterModel(means=np.zeros((3, 6)),
                                  bases=[e[:, :2], e[:, 2:4], e[:, 4:6]], d=2)
        assert average_affinity(model) == pytest.approx(0.0, abs=1e-12)


class TestMeanPrincipalAngle:
    def test_endpoints(self):
        assert mean_principal_angle(1.0) == pytest.approx(0.0, abs=1e-12)
        assert mean_principal_angle(0.0) == pytest.approx(90.0, abs=1e-12)

    def test_paper_style_round_trip(self):
        assert mean_principal_angle(np.cos(np.radians(49.0))) == pytest.approx(
            49.0, abs=1e-9)

    def test_clamp_with_warning(self):
        with pytest.warns(UserWarning):
            assert mean_principal_angle(1.0 + 5e-10) == 0.0

    def test_out_of_range_error(self):
        with pytest.raises(ParameterError):
            mean_principal_angle(1.1)


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        ds = make_uos(C=3, d=2, D=30, n=10, seed=11)
        part = Partition(labels=ds.labels, C=3)
        model = estimate_bases(ds.data, part, 2)
        path = tmp_path / "model.wpsc"
        wpsc.save_cluster_model(model, path)
        back = wpsc.load_cluster_model(path)
        assert back.C == model.C
        assert np.array_equal(back.means, model.means)
        for a, b in zip(back.bases, model.bases):
            assert np.array_equal(a, b)

    def test_reloaded_model_assigns_identically(self, tmp_path):
        rng = np.random.default_rng(12)
        ds = make_uos(C=3, d=2, D=30, n=10, seed=12)
        model = estimate_bases(ds.data, Partition(labels=ds.labels, C=3), 2)
        path = tmp_path / "model.wpsc"
        wpsc.save_cluster_model(model, path)
        back = wpsc.load_cluster_model(path)
        for _ in range(10):
            x = rng.standard_normal(30)
            assert assign_oos(x, model) == assign_oos(x, back)


class TestMultiviewTieRules:
    def test_equal_distances_earlier_view_wins(self):
        e = np.eye(3)
        # view 0: best cluster is 1; view 1: best cluster is 0, same distance
        m0 = wpsc.ClusterModel(means=np.zeros((2, 3)),
                               bases=[e[:, 2:3], e[:, 0:1]], d=1)
        m1 = wpsc.ClusterModel(means=np.zeros((2, 3)),
                               bases=[e[:, 0:1], e[:, 2:3]], d=1)
        x = np.array([1.0, 0.0, 0.0])
        assert assign_oos_multiview([x, x], [m0, m1]) == 1
        X = np.column_stack([x, 2 * x, [0.0, 0.0, 1.0]])
        assert assign_multiview_batch([X, X], [m0, m1]).tolist() == [1, 1, 0]


class TestLowpassAffinityDirection:
    def test_approximation_band_restores_closeness(self):
        # high-frequency noise drives ambient subspace estimates apart; the
        # A subband filters it out, so affinity(A) > affinity(ambient)
        wins = 0
        for seed in range(10):
            ds = wpsc.column_normalize(smooth_uos_with_hf_noise(seed=seed))
            part = Partition(labels=ds.labels, C=ds.C)
            ambient = estimate_bases(unit_columns(ds.data), part, 3)
            approx = estimate_bases(unit_columns(node_matrix(ds, "A")), part, 3)
            wins += average_affinity(approx) > average_affinity(ambient)
        assert wins >= 8
