import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wpsc.graph as graph_mod
from wpsc.errors import ParameterError
from wpsc.graph import (
    Partition,
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

    @pytest.mark.parametrize("seed", [-1, 1.5, None, "0"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # np.random.default_rng would raise a ValueError, or draw fresh entropy
        W, _ = planted_two_block(seed=9)
        with pytest.raises(ParameterError, match="seed"):
            spectral_clustering(W, 2, seed=seed)

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


# Reference k-means++ seeding, one restart at a time through rng.choice; the
# library's batched seeding must draw the same centers from the same streams.
def _plusplus_init(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:  # all remaining mass sits on chosen centers
            idx = rng.integers(n)
        centers[c] = points[idx]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


# Reference k-means with per-cluster loops for the count check and the
# center update; the library's vectorized bookkeeping must match it bit for bit.
def reference_kmeans_once(points, k, rng, max_iter):
    return reference_lloyd(points, _plusplus_init(points, k, rng), max_iter)


def reference_lloyd(points, centers, max_iter, stopped=None):
    """Lloyd's loop from ``centers``; appends to the list ``stopped`` whether
    the labels stopped changing before max_iter ran out."""
    n, k = points.shape[0], centers.shape[0]
    centers = centers.copy()
    labels = np.full(n, -1, dtype=np.int64)
    converged = False
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
            converged = True
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    if stopped is not None:
        stopped.append(converged)
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


def library_restart(points, k, seed, r, max_iter):
    """Restart r of ``kmeans(points, k, seed)`` on column-major ``points``:
    the batched seeding of restarts 0..r, then restart r's Lloyd loop as a
    group of one."""
    assert points.flags.f_contiguous  # the layout kmeans passes
    centers = graph_mod._plusplus_seeds(points, k, seed, r + 1)
    labels, inertia = graph_mod._lloyd_group(points, centers[r:], max_iter)
    return labels[0], inertia[0]


def same_inertia(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


class TestKmeans:
    @pytest.mark.parametrize("seed,k,dim,spread", [
        (0, 3, 2, 0.1), (1, 5, 4, 0.5), (2, 20, 20, 0.3), (3, 4, 3, 2.0),
    ])
    def test_matches_loop_reference(self, seed, k, dim, spread):
        pts = np.asfortranarray(blobs(seed, k, dim, 15, spread))
        for r in range(3):
            got = library_restart(pts, k, 0, r, 300)
            want = reference_kmeans_once(pts, k, np.random.default_rng(r), 300)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        assert np.array_equal(kmeans(pts, k, seed), reference_kmeans(pts, k, seed))
        # stopped by max_iter rather than by converged labels
        got = library_restart(pts, k, 9, 0, 1)
        want = reference_kmeans_once(pts, k, np.random.default_rng(9), 1)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_empty_cluster_repair_matches_loop_reference(self, monkeypatch):
        # 4 distinct points repeated 6 times each, k = 6: k-means++ picks
        # duplicate centers and the ties leave clusters empty
        rng = np.random.default_rng(7)
        pts = np.asfortranarray(np.repeat(rng.standard_normal((4, 3)), 6, axis=0))
        repairs = []
        real = graph_mod._repair_empty

        def spy(*args):
            repairs.append(1)
            return real(*args)

        monkeypatch.setattr(graph_mod, "_repair_empty", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for r in range(5):
                got = library_restart(pts, 6, 0, r, 300)
                want = reference_kmeans_once(pts, 6, np.random.default_rng(r), 300)
                assert np.array_equal(got[0], want[0])
                assert same_inertia(got[1], want[1])
            assert np.array_equal(kmeans(pts, 6, 0), reference_kmeans(pts, 6, 0))
        assert repairs

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 40), k=st.integers(1, 8), dim=st.integers(2, 12),
           seed=st.integers(0, 2**32), restarts=st.integers(1, 4),
           distinct=st.integers(0, 5), max_iter=st.sampled_from([1, 300]),
           order=st.sampled_from("CF"))
    def test_matches_reference_property(self, n, k, dim, seed, restarts,
                                        distinct, max_iter, order):
        # distinct > 0 draws the points from that many rows, so the seeding
        # runs out of mass and takes its integers(n) branch; the Lloyd loop
        # takes column-major points, as kmeans passes them
        k = min(k, n)
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((n, dim))
        if distinct:
            pts = pts[rng.integers(distinct, size=n) % n]
        pts, cols = np.asarray(pts, order=order), np.asfortranarray(pts)
        centers = graph_mod._plusplus_seeds(cols, k, seed, restarts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            # all restarts in one lockstep group
            labels, inertias = graph_mod._lloyd_group(cols, centers, max_iter)
            for r in range(restarts):
                want = reference_kmeans_once(
                    cols, k, np.random.default_rng(seed + r), max_iter)
                assert np.array_equal(labels[r], want[0])
                assert same_inertia(inertias[r], want[1])
            assert np.array_equal(
                kmeans(pts, k, seed, restarts=restarts, max_iter=max_iter),
                reference_kmeans(pts, k, seed, restarts=restarts, max_iter=max_iter))

    @pytest.mark.parametrize("k,dim", [(3, 2), (5, 9), (20, 20)])
    def test_labels_independent_of_layout(self, k, dim, monkeypatch):
        # from 8 coordinates on, row-major points make the (n, k, m) distance
        # sums reduce in another order, so k-means takes every input in
        # column-major order
        layouts = []
        real = graph_mod._lloyd_group

        def spy(points, *args):
            layouts.append(points.flags.f_contiguous)
            return real(points, *args)

        monkeypatch.setattr(graph_mod, "_lloyd_group", spy)
        for seed in range(4):
            pts = blobs(seed, k, dim, 15, 0.4)
            c_order, f_order = np.ascontiguousarray(pts), np.asfortranarray(pts)
            assert c_order.flags.c_contiguous and f_order.flags.f_contiguous
            assert np.array_equal(kmeans(c_order, k, seed), kmeans(f_order, k, seed))
        assert layouts and all(layouts)

    @pytest.mark.parametrize("k", [2, 5, 20])
    def test_uniform_block_matches_sequential_draws(self, k):
        # the seeding takes each restart's k - 1 uniforms in one random(k - 1)
        # call, in place of the one random() per draw that choice makes
        for s in range(50):
            block, one = np.random.default_rng(s), np.random.default_rng(s)
            assert block.integers(100) == one.integers(100)
            assert np.array_equal(block.random(k - 1),
                                  [one.random() for _ in range(k - 1)]), s
            assert block.bit_generator.state == one.bit_generator.state, s

    @pytest.mark.parametrize("n,k,m", [(64, 4, 4), (60, 5, 5), (200, 20, 20), (37, 9, 3)])
    def test_exact_fallback_matches_fast_path(self, n, k, m, monkeypatch):
        # row-normalized points, as spectral clustering embeds them; the
        # fast path settles every draw here, and a bound scaled up by 2**52
        # leaves none settled, so every restart is seeded again alone
        pts = blobs(4, k, m, n // k + 1, 0.3)[:n]
        pts = np.asfortranarray(pts / np.linalg.norm(pts, axis=1, keepdims=True))
        restarts = graph_mod.KMEANS_RESTARTS
        exact = []
        real = graph_mod._plusplus_exact
        monkeypatch.setattr(graph_mod, "_plusplus_exact",
                            lambda *args: exact.append(1) or real(*args))
        fast = graph_mod._plusplus_seeds(pts, k, 2, restarts)
        assert not exact
        monkeypatch.setattr(graph_mod, "_EPS", 1.0)
        slow = graph_mod._plusplus_seeds(pts, k, 2, restarts)
        assert len(exact) == restarts
        assert np.array_equal(fast, slow)

    def test_group_mixes_repair_early_stop_and_max_iter(self, monkeypatch):
        # one lockstep group whose restarts end differently: a duplicated
        # start center leaves a cluster empty in the first step (repair), the
        # blob means stop on unchanged labels, and a start inside one blob
        # runs out of iterations; each must end with the labels and inertia
        # it has alone
        pts = np.asfortranarray(blobs(11, 4, 2, 10, 0.6))
        final, _ = reference_lloyd(pts, pts[:4], 300)
        means = np.stack([pts[final == c].mean(axis=0) for c in range(4)])
        starts = np.stack([pts[[0, 0, 17, 33]], means, pts[:4]])
        max_iter = 3
        repaired = []
        real = graph_mod._repair_empty
        monkeypatch.setattr(graph_mod, "_repair_empty",
                            lambda labels, *args: repaired.append(1) or real(labels, *args))
        labels, inertias = graph_mod._lloyd_group(pts, starts.copy(), max_iter)
        stopped = []
        for r in range(len(starts)):
            want = reference_lloyd(pts, starts[r], max_iter, stopped)
            assert np.array_equal(labels[r], want[0]) and inertias[r] == want[1], r
        assert repaired
        assert stopped[1] and not stopped[2], stopped

    @pytest.mark.parametrize("n,k,m", [(64, 4, 4), (60, 5, 5), (200, 20, 20),
                                       (100, 20, 20), (30, 8, 8)])
    def test_all_restarts_run_as_one_group(self, n, k, m, monkeypatch):
        sizes = []
        real = graph_mod._lloyd_group
        monkeypatch.setattr(graph_mod, "_lloyd_group",
                            lambda pts, centers, *args: sizes.append(len(centers))
                            or real(pts, centers, *args))
        pts = blobs(0, k, m, n // k + 1, 0.3)[:n]
        kmeans(pts, k, 0)
        assert sizes == [graph_mod.KMEANS_RESTARTS]

    @pytest.mark.parametrize("n,k,m", [(64, 4, 4), (200, 20, 20), (30, 8, 8)])
    def test_group_member_equals_group_of_one(self, n, k, m):
        # the restarts leave the group at different steps; each must end
        # with the labels and inertia it reaches in a group of its own
        pts = np.asfortranarray(blobs(1, k, m, n // k + 1, 0.5)[:n])
        restarts = graph_mod.KMEANS_RESTARTS
        centers = graph_mod._plusplus_seeds(pts, k, 3, restarts)
        labels, inertias = graph_mod._lloyd_group(pts, centers.copy(), 300)
        for r in range(restarts):
            one = graph_mod._lloyd_group(pts, centers[r:r + 1].copy(), 300)
            assert np.array_equal(labels[r], one[0][0]) and inertias[r] == one[1][0], r

    @pytest.mark.parametrize("order", "CF")
    def test_near_ties_are_ranked_exactly(self, order, monkeypatch):
        # six points 1e-15 apart on a line, each the start center of its own
        # cluster: a point's squared distances to the six centers differ by
        # less than 1e-28 and one of them is 0 (the center it coincides
        # with), far below the rounding of the GEMM ranking, so only the
        # exact re-rank finds its own center; three blobs besides make
        # ordinary clusters whose rows need no re-rank. The exact distances
        # add the coordinates in the same order whatever the layout of the
        # points, so both layouts reach the column-major reference.
        rng = np.random.default_rng(5)
        base = np.array([0.6, 0.8, 0.0, 0.0])
        dups = base + 1e-15 * np.arange(6)[:, None] * np.array([0.0, 0.0, 1.0, -1.0])
        cols = np.asfortranarray(np.vstack([blobs(2, 3, 4, 8, 0.05) + 3.0, dups]))
        pts = np.asarray(cols, order=order)
        n = len(pts)
        starts = np.stack([pts[np.r_[[0, 1, 2], n - 6 + rng.permutation(6)]]
                           for _ in range(4)])
        starts[0, :3] = pts[[3, 9, 15]]
        reranked = []
        real = graph_mod._rerank
        monkeypatch.setattr(graph_mod, "_rerank",
                            lambda points, centers, r, *args: reranked.append(len(r))
                            or real(points, centers, r, *args))
        labels, inertias = graph_mod._lloyd_group(pts, starts.copy(), 300)
        for r in range(len(starts)):
            want = reference_lloyd(cols, starts[r], 300)
            assert np.array_equal(labels[r], want[0]) and inertias[r] == want[1], r
        assert sum(reranked) >= 6 * len(starts)
        assert sum(reranked) < n * len(starts)  # the blob rows are not re-ranked


class TestSmallest:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(rows=st.integers(1, 12), cols=st.integers(1, 12), levels=st.integers(1, 4),
           seed=st.integers(0, 2**32), axis=st.sampled_from([0, 1]), data=st.data())
    def test_first_q_of_stable_argsort(self, rows, cols, levels, seed, axis, data):
        # few distinct values: most entries tie with the q-th smallest
        a = np.random.default_rng(seed).integers(levels, size=(rows, cols)).astype(float)
        q = data.draw(st.integers(1, a.shape[axis]))
        order = np.argsort(a, axis=axis, kind="stable")
        want = np.zeros(a.shape, dtype=bool)
        np.put_along_axis(want, np.take(order, np.arange(q), axis=axis), True, axis=axis)
        assert np.array_equal(graph_mod._smallest(a, q, axis), want)

    @pytest.mark.parametrize("values", ["gauss", "sign", "halves"])
    def test_ipd_matches_stable_argsort(self, values):
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((30, 25))
        if values == "sign":
            Z = np.sign(Z)
        elif values == "halves":
            Z = np.round(2 * Z) / 2
        for d in (1, 2, 5, 29):
            order = np.argsort(-np.abs(Z), axis=0, kind="stable")[:d]
            want = np.zeros_like(Z)
            cols = np.arange(Z.shape[1])
            want[order, cols] = Z[order, cols]
            assert np.array_equal(ipd_threshold(Z, d), want)
