import warnings

import numpy as np
import pytest

import wpsc.graph as graph_mod
from wpsc.errors import ParameterError
from wpsc.graph import (
    Partition,
    _plusplus_init,
    affinity_from_representation,
    ipd_threshold,
    kmeans,
    spectral_clustering,
)
from wpsc.metrics import evaluate


def planted_two_block(seed=0, sizes=(20, 20)):
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    W = 0.05 + 0.02 * rng.standard_normal((n, n))
    W[: sizes[0], : sizes[0]] = 0.9 + 0.05 * rng.standard_normal((sizes[0],) * 2)
    W[sizes[0]:, sizes[0]:] = 0.9 + 0.05 * rng.standard_normal((sizes[1],) * 2)
    W = np.clip((W + W.T) / 2, 0.0, None)
    np.fill_diagonal(W, 0.0)
    labels = np.array([0] * sizes[0] + [1] * sizes[1])
    return W, labels


class TestAffinity:
    def test_example(self):
        Z = np.array([[0.0, 2.0], [-4.0, 0.0]])
        W = affinity_from_representation(Z)
        assert np.array_equal(W, [[0.0, 3.0], [3.0, 0.0]])

    def test_fixed_point(self):
        W0 = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 2.0], [0.5, 2.0, 0.0]])
        assert np.array_equal(affinity_from_representation(W0), W0)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((15, 15))
        W = affinity_from_representation(Z)
        assert np.array_equal(W, W.T)
        assert np.all(np.diag(W) == 0.0)


class TestIpdThreshold:
    def test_example(self):
        Z = np.array([[3.0], [-1.0], [0.5], [2.0]])
        assert ipd_threshold(Z, 2).ravel().tolist() == [3.0, 0.0, 0.0, 2.0]

    def test_d_exceeding_nonzeros_keeps_column(self):
        Z = np.array([[1.0], [0.0], [2.0], [0.0]])
        assert np.array_equal(ipd_threshold(Z, 3), Z)

    def test_tie_break_by_row_index(self):
        Z = np.ones((3, 1))
        assert ipd_threshold(Z, 2).ravel().tolist() == [1.0, 1.0, 0.0]

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((10, 7))
        once = ipd_threshold(Z, 3)
        assert np.array_equal(ipd_threshold(once, 3), once)

    def test_l1_never_increases_and_kept_exact(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((12, 9))
        out = ipd_threshold(Z, 4)
        assert np.all(np.abs(out).sum(0) <= np.abs(Z).sum(0) + 1e-15)
        nz = out != 0
        assert np.array_equal(out[nz], Z[nz])


class TestSpectralClustering:
    def test_disconnected_blocks(self):
        W = np.zeros((7, 7))
        W[:3, :3] = 1.0
        W[3:, 3:] = 1.0
        np.fill_diagonal(W, 0.0)
        part = spectral_clustering(W, 2, seed=0)
        truth = np.array([0, 0, 0, 1, 1, 1, 1])
        assert evaluate(truth, part.labels).acc == 1.0

    def test_permutation_equivariance(self):
        # permuted input clusters the permuted points identically (up to names)
        W, _ = planted_two_block(seed=4)
        rng = np.random.default_rng(5)
        perm = rng.permutation(W.shape[0])
        part_a = spectral_clustering(W, 2, seed=1)
        part_b = spectral_clustering(W[np.ix_(perm, perm)], 2, seed=1)
        unpermuted = np.empty_like(part_b.labels)
        unpermuted[perm] = part_b.labels
        assert evaluate(part_a.labels, unpermuted).acc == 1.0

    def test_planted_partition_recovered(self):
        W, labels = planted_two_block(seed=6)
        part = spectral_clustering(W, 2, seed=2)
        assert evaluate(labels, part.labels).acc == 1.0

    def test_scale_invariance(self):
        W, _ = planted_two_block(seed=7)
        a = spectral_clustering(W, 2, seed=3)
        b = spectral_clustering(7.3 * W, 2, seed=3)
        assert evaluate(a.labels, b.labels).acc == 1.0

    def test_laplacian_eigenvalue_range(self):
        from scipy.linalg import eigh
        W, _ = planted_two_block(seed=8)
        deg = np.maximum(W.sum(axis=1), 1e-12)
        inv = 1.0 / np.sqrt(deg)
        L = np.eye(W.shape[0]) - W * np.outer(inv, inv)
        vals = eigh(L, eigvals_only=True)
        assert vals.min() >= -1e-9 and vals.max() <= 2.0 + 1e-9

    def test_c_exceeds_n(self):
        with pytest.raises(ParameterError):
            spectral_clustering(np.zeros((3, 3)), 4, seed=0)

    def test_deterministic(self):
        W, _ = planted_two_block(seed=9)
        a = spectral_clustering(W, 2, seed=5)
        b = spectral_clustering(W, 2, seed=5)
        assert np.array_equal(a.labels, b.labels)


class TestPartition:
    def test_members(self):
        p = Partition(labels=np.array([0, 1, 0, 2]), C=3)
        assert p.members(0).tolist() == [0, 2]

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            Partition(labels=np.array([0, 3]), C=2)


# Reference k-means with per-cluster loops for the count check and the
# center update; the library's vectorized bookkeeping must match it bit for bit.
def reference_kmeans_once(points, k, rng, max_iter):
    n = points.shape[0]
    centers = _plusplus_init(points, k, rng)
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        # empty-cluster repair: donate the point farthest from its centroid
        for c in range(k):
            if not np.any(new_labels == c):
                nearest = d2[np.arange(n), new_labels]
                donor = int(np.argmax(nearest))
                new_labels[donor] = c
                d2[donor, :] = np.inf
                d2[donor, c] = 0.0
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    inertia = float(d2[np.arange(n), labels].sum())
    return labels, inertia


def reference_kmeans(points, k, seed, restarts=20, max_iter=300):
    best_labels, best_inertia = None, np.inf
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        labels, inertia = reference_kmeans_once(points, k, rng, max_iter)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def blobs(seed, k, dim, n_per, spread):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, dim))
    pts = np.repeat(centers, n_per, axis=0)
    pts += spread * rng.standard_normal(pts.shape)
    return pts[rng.permutation(len(pts))]


class TestKmeans:
    @pytest.mark.parametrize("seed,k,dim,spread", [
        (0, 3, 2, 0.1), (1, 5, 4, 0.5), (2, 20, 20, 0.3), (3, 4, 3, 2.0),
    ])
    def test_matches_loop_reference(self, seed, k, dim, spread):
        pts = blobs(seed, k, dim, 15, spread)
        for r in range(3):
            got = graph_mod._kmeans_once(pts, k, np.random.default_rng(r), 300)
            want = reference_kmeans_once(pts, k, np.random.default_rng(r), 300)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        assert np.array_equal(kmeans(pts, k, seed), reference_kmeans(pts, k, seed))
        # stopped by max_iter rather than by converged labels
        got = graph_mod._kmeans_once(pts, k, np.random.default_rng(9), 1)
        want = reference_kmeans_once(pts, k, np.random.default_rng(9), 1)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_empty_cluster_repair_matches_loop_reference(self, monkeypatch):
        # 4 distinct points repeated 6 times each, k = 6: k-means++ picks
        # duplicate centers and the ties leave clusters empty
        rng = np.random.default_rng(7)
        pts = np.repeat(rng.standard_normal((4, 3)), 6, axis=0)
        repairs = []
        real = graph_mod._repair_empty

        def spy(*args):
            repairs.append(1)
            return real(*args)

        monkeypatch.setattr(graph_mod, "_repair_empty", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for r in range(5):
                got = graph_mod._kmeans_once(pts, 6, np.random.default_rng(r), 300)
                want = reference_kmeans_once(pts, 6, np.random.default_rng(r), 300)
                assert np.array_equal(got[0], want[0])
                assert got[1] == want[1] or (np.isnan(got[1]) and np.isnan(want[1]))
            assert np.array_equal(kmeans(pts, 6, 0), reference_kmeans(pts, 6, 0))
        assert repairs
