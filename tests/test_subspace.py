import gc
import weakref

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
    average_affinity,
    estimate_bases,
    mean_principal_angle,
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
        assert model.dims[0] == 2 < model.d  # 3 points -> at most size-1 dimensions

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

    def test_model_does_not_depend_on_layout(self):
        # the in-sample views of a MERA fit are row-major, bundles column-major
        ds = make_uos(C=3, d=2, D=40, n=15, sigma=0.1, seed=6)
        part = Partition(labels=ds.labels, C=3)
        models = [estimate_bases(np.asarray(ds.data, order=o), part, 2) for o in "CF"]
        assert np.array_equal(models[0].means, models[1].means)
        for a, b in zip(models[0].bases, models[1].bases):
            assert np.array_equal(a, b)

    def test_bases_own_only_their_columns(self):
        # each basis once viewed the thin U of its cluster, 64 x 20 here
        ds = make_uos(C=2, d=3, D=64, n=20, sigma=0.1, seed=4)
        part = Partition(labels=ds.labels, C=2)
        model = estimate_bases(ds.data, part, 3)
        views = []
        for c, U in enumerate(model.bases):
            assert U.flags.owndata and U.size == 64 * 3
            block = ds.data[:, part.members(c)]
            thin = np.linalg.svd(block - block.mean(axis=1)[:, None], full_matrices=False)[0]
            assert np.array_equal(U, thin[:, :3])
            views.append(thin[:, :3])
        X = make_uos(C=2, d=3, D=64, n=50, sigma=0.3, seed=5).data
        as_views = wpsc.ClusterModel(means=model.means, bases=views, d=3)
        assert np.array_equal(assign_multiview_batch([X], [model]),
                              assign_multiview_batch([X], [as_views]))


class TestAssignOos:
    def test_exact_member_zero_distance(self):
        rng = np.random.default_rng(3)
        ds = make_uos(C=3, d=2, D=30, n=10, seed=3)
        part = Partition(labels=ds.labels, C=3)
        model = estimate_bases(ds.data, part, 2)
        x = model.means[1] + model.bases[1] @ rng.standard_normal(2)
        assert assign_multiview_batch([x[:, None]], [model])[0] == 1

    def test_tie_goes_to_smallest_index(self):
        # two identical subspaces: distances tie exactly
        U = np.eye(4)[:, :1]
        model = wpsc.ClusterModel(means=np.zeros((2, 4)), bases=[U, U.copy()], d=1)
        assert assign_multiview_batch([np.array([[0.0], [1.0], [1.0], [0.0]])], [model])[0] == 0
        X = np.random.default_rng(13).standard_normal((4, 300))
        assert np.array_equal(assign_multiview_batch([X], [model]), np.zeros(300))

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_matches_per_column_reference(self, seed):
        rng = np.random.default_rng(seed)
        D, C = (300, 6) if seed % 2 else (17, 4)
        model = random_model(rng, D, C, [3, 0, 5, 1, 2, 4])
        X = model.means[rng.integers(C, size=500)].T + rng.standard_normal((D, 500))
        expect = reference_labels(X, model)
        assert np.array_equal(assign_multiview_batch([X], [model]), expect)
        assert np.array_equal(assign_multiview_batch([np.asfortranarray(X)], [model]), expect)
        assert [assign_multiview_batch([X[:, i:i + 1]], [model])[0]
                for i in range(5)] == expect[:5].tolist()
        dist = subspace_distances(X, model)
        ref = np.stack([reference_distances(X[:, i], model) for i in range(500)], 1)
        assert dist.shape == (C, 500)
        assert np.abs(dist - ref).max() <= 1e-12 * ref.max()

    def test_zero_columns(self):
        model = random_model(np.random.default_rng(14), 6, 3, [2, 0, 1])
        labels = assign_multiview_batch([np.empty((6, 0))], [model])
        assert labels.dtype == np.int64 and labels.shape == (0,)

    def test_dimension_mismatch_is_consistency_error(self):
        model = random_model(np.random.default_rng(15), 6, 2, [2, 1])
        with pytest.raises(ConsistencyError, match="D = 6"):
            assign_multiview_batch([np.ones((5, 3))], [model])
        with pytest.raises(ConsistencyError):
            assign_multiview_batch([np.ones((7, 1))], [model])

    def test_noiseless_split_oos_perfect(self):
        ds = make_uos(C=4, d=3, D=50, n=20, seed=4)
        ins, outs = split(ds, SplitSpec(0.8, 0))
        model = estimate_bases(ins.data, Partition(labels=ins.labels, C=4), 3)
        pred = wpsc.assign_multiview_batch([outs.data], [model])
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
        assert (assign_multiview_batch([x[:, None]], [model])[0]
                == assign_multiview_batch([x[:, None]], [rotated])[0])


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
        label = assign_multiview_batch([x[:, None]] * 5, models)[0]
        assert label == assign_multiview_batch([x[:, None]], models[:1])[0]

    def test_view_with_smaller_distance_wins(self):
        # view 0 prefers cluster 0 at distance ~0.1; view 1 hits cluster 1 exactly
        e = np.eye(3)
        m0 = wpsc.ClusterModel(means=np.zeros((2, 3)),
                               bases=[e[:, :1], e[:, 1:2]], d=1)
        m1 = wpsc.ClusterModel(means=np.zeros((2, 3)),
                               bases=[e[:, 2:3], e[:, 1:2]], d=1)
        x0 = np.array([1.0, 0.0, 0.1])   # distance 0.1 to cluster 0
        x1 = np.array([0.0, 1.0, 0.0])   # distance 0 to cluster 1 in view 1
        assert assign_multiview_batch([x0[:, None], x1[:, None]], [m0, m1])[0] == 1

    def test_view_count_mismatch(self):
        ds = make_uos(C=2, d=1, D=9, n=4, seed=7)
        model = estimate_bases(ds.data, Partition(labels=ds.labels, C=2), 1)
        with pytest.raises(ParameterError):
            assign_multiview_batch([ds.data[:, :1]], [model, model])
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
        assert assign_multiview_batch([Xv[:, :1] for Xv in views], models)[0] == expect[0]

    def test_zero_columns(self):
        rng = np.random.default_rng(23)
        models = [random_model(rng, 8, 3, [1, 2, 0]) for _ in range(2)]
        labels = assign_multiview_batch([np.empty((8, 0))] * 2, models)
        assert labels.dtype == np.int64 and labels.shape == (0,)


def exact_labels(views, models):
    """The exact path: argmin over the concatenated subspace_distances."""
    clusters = np.concatenate([np.arange(m.C) for m in models])
    dist = np.concatenate([subspace_distances(X, m) for X, m in zip(views, models)])
    return clusters[dist.argmin(axis=0)]


class TestGemmRanking:
    def _models(self, rng, zero_at):
        """Three views of different D, each with a D x 0 basis at ``zero_at``
        (first, middle or last); in the first, cluster 4 duplicates cluster 1
        and cluster 5 has cluster 2's span with another mean."""
        models = []
        for D, C in ((12, 7), (7, 3), (30, 4)):
            bases = [orth(rng, D, int(k)) for k in rng.integers(1, 4, size=C)]
            means = rng.standard_normal((C, D))
            bases[{"first": 0, "middle": C // 2, "last": C - 1}[zero_at]] = np.zeros((D, 0))
            if C == 7:
                bases[4], means[4] = bases[1].copy(), means[1]
                bases[5] = bases[2].copy()
            models.append(wpsc.ClusterModel(means=means, bases=bases, d=3))
        return models

    @pytest.mark.parametrize("zero_at", ["first", "middle", "last"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_exact_argmin(self, seed, order, zero_at):
        rng = np.random.default_rng(40 + seed)
        models = self._models(rng, zero_at)
        n = 200
        truth = rng.integers(3, size=n)
        views = [m.means[truth].T
                 + rng.uniform(0.0, 3.0, n) * rng.standard_normal((m.means.shape[1], n))
                 for m in models]
        first = models[0]
        views[0][:, :10] = first.means[1][:, None]  # on the duplicate pair
        # columns 10:40 lie as far from cluster 2 as from cluster 5, which
        # share a span: the rounding alone orders the two, and the other
        # views are far away
        U, (m2, m5) = first.bases[2], first.means[[2, 5]]
        Q = np.linalg.qr(np.column_stack([U, m2 - m5 - U @ (U.T @ (m2 - m5))]))[0]
        v = 0.1 * rng.standard_normal((12, 30))
        views[0][:, 10:40] = ((m2 + m5)[:, None] / 2 + U @ rng.standard_normal((U.shape[1], 30))
                              + v - Q @ (Q.T @ v))
        for X in views[1:]:
            X[:, 10:40] *= 100.0
        views = [np.asarray(X, order=order) for X in views]
        want = exact_labels(views, models)
        assert np.isin(want[10:40], [2, 5]).all()
        assert np.array_equal(assign_multiview_batch(views, models), want)
        for start in range(0, n, 10):  # one block at a time, each its own fallback
            block = [X[:, start:start + 10] for X in views]
            assert np.array_equal(assign_multiview_batch(block, models),
                                  exact_labels(block, models))

    def _counted(self, monkeypatch):
        import wpsc.subspace as subspace_mod
        calls, real = [], subspace_mod.subspace_distances
        monkeypatch.setattr(subspace_mod, "subspace_distances",
                            lambda X, m: calls.append(X.shape) or real(X, m))
        return calls

    def test_separated_block_takes_no_exact_path(self, monkeypatch):
        rng = np.random.default_rng(50)
        model = random_model(rng, 40, 4, [3, 0, 2, 1])
        truth = rng.integers(4, size=300)
        X = model.means[truth].T + 0.05 * rng.standard_normal((40, 300))
        calls = self._counted(monkeypatch)
        assert np.array_equal(assign_multiview_batch([X], [model]), truth)
        assert calls == []

    def test_exact_tie_takes_exact_path(self, monkeypatch):
        U = np.eye(4)[:, :1]  # test_tie_goes_to_smallest_index's model
        model = wpsc.ClusterModel(means=np.zeros((2, 4)), bases=[U, U.copy()], d=1)
        X = np.random.default_rng(13).standard_normal((4, 300))
        calls = self._counted(monkeypatch)
        assert np.array_equal(assign_multiview_batch([X, X], [model, model]), np.zeros(300))
        assert calls == [(4, 300), (4, 300)]  # the whole block, in every view

    def test_constants_live_with_the_model(self):
        rng = np.random.default_rng(51)
        model = random_model(rng, 9, 3, [2, 1, 0])
        X = rng.standard_normal((9, 20))
        assign_multiview_batch([X], [model])
        ranking = model._ranking
        assign_multiview_batch([X[:, :5]], [model])
        assert model._ranking is ranking and "_ranking" in vars(model)
        gone = weakref.ref(ranking[0])
        del model, ranking
        gc.collect()
        assert gone() is None


def pair_affinity(U1, U2):
    """The affinity of two spans: ``average_affinity`` of a two-basis model."""
    model = wpsc.ClusterModel(means=np.zeros((2, U1.shape[0])), bases=[U1, U2],
                              d=U1.shape[1])
    return average_affinity(model)


class TestSubspaceAffinity:
    def test_identical_spans(self):
        rng = np.random.default_rng(8)
        U = orth(rng, 6, 2)
        assert pair_affinity(U, U) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_spans(self):
        e = np.eye(6)
        assert pair_affinity(e[:, :2], e[:, 2:4]) == pytest.approx(0.0,
                                                                       abs=1e-12)

    def test_hand_computed_case(self):
        # span{e1,e2} vs span{e1,(e2+e3)/sqrt2}: angles 0 and 45 degrees
        e = np.eye(3)
        U1 = e[:, :2]
        U2 = np.column_stack([e[:, 0], (e[:, 1] + e[:, 2]) / np.sqrt(2)])
        expect = np.sqrt((1.0 + 0.5) / 2.0)  # 0.8660254037844386
        assert pair_affinity(U1, U2) == pytest.approx(expect, abs=1e-12)

    def test_symmetry_and_rotation_invariance(self):
        rng = np.random.default_rng(9)
        U1, U2 = orth(rng, 8, 3), orth(rng, 8, 2)
        a = pair_affinity(U1, U2)
        assert pair_affinity(U2, U1) == pytest.approx(a, abs=1e-12)
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        assert pair_affinity(U1 @ Q, U2) == pytest.approx(a, abs=1e-10)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ParameterError):
            pair_affinity(np.ones((4, 2)), np.eye(4)[:, :2])


class TestAverageAffinity:
    def test_two_clusters_single_pair(self):
        rng = np.random.default_rng(10)
        U1, U2 = orth(rng, 7, 2), orth(rng, 7, 2)
        model = wpsc.ClusterModel(means=np.zeros((2, 7)), bases=[U1, U2], d=2)
        cosines = np.linalg.svd(U1.T @ U2, compute_uv=False)
        assert average_affinity(model) == pytest.approx(
            np.sqrt(np.sum(cosines ** 2) / 2), abs=1e-14)

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

    def test_empty_basis_has_affinity_zero(self):
        # estimate_bases gives a one-member cluster a D x 0 basis
        U = np.eye(5)[:, :2]
        model = wpsc.ClusterModel(means=np.zeros((3, 5)),
                                  bases=[U, np.zeros((5, 0)), U.copy()], d=2)
        assert average_affinity(model) == pytest.approx(1.0 / 3, abs=1e-15)

    def test_checks_each_basis_once(self, monkeypatch):
        import wpsc.subspace as subspace_mod
        rng = np.random.default_rng(11)
        bases = [orth(rng, 8, 2) for _ in range(5)]
        model = wpsc.ClusterModel(means=np.zeros((5, 8)), bases=bases, d=2)
        pairs = [pair_affinity(bases[i], bases[j])
                 for i in range(4) for j in range(i + 1, 5)]
        checked = []
        real = subspace_mod._check_orthonormal
        monkeypatch.setattr(subspace_mod, "_check_orthonormal",
                            lambda U, tag: checked.append(tag) or real(U, tag))
        total = 0.0
        for a in pairs:  # the pair order and the sum of the pairwise version
            total += a
        assert average_affinity(model) == 2.0 * total / 20
        assert len(checked) == 5
        model.bases[3] = np.ones((8, 2))
        with pytest.raises(ParameterError):
            average_affinity(model)


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


class TestMultiviewTieRules:
    def test_equal_distances_earlier_view_wins(self):
        e = np.eye(3)
        # view 0: best cluster is 1; view 1: best cluster is 0, same distance
        m0 = wpsc.ClusterModel(means=np.zeros((2, 3)),
                               bases=[e[:, 2:3], e[:, 0:1]], d=1)
        m1 = wpsc.ClusterModel(means=np.zeros((2, 3)),
                               bases=[e[:, 0:1], e[:, 2:3]], d=1)
        x = np.array([1.0, 0.0, 0.0])
        assert assign_multiview_batch([x[:, None], x[:, None]], [m0, m1])[0] == 1
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
