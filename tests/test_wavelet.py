import numpy as np
import pytest

from wpsc.bundle import load_bundle, save_bundle
from wpsc.datasets import Dataset, UosSpec, generate_uos
from wpsc.errors import SizeError
from wpsc.wavelet import (
    haar_analysis_2d,
    haar_synthesis_2d,
    node_matrix,
    wp_decompose,
)

SQ2 = np.sqrt(2.0)
LO = np.array([1.0, 1.0]) / SQ2
HI = np.array([1.0, -1.0]) / SQ2


def circ_corr2(img, f_row, f_col, step):
    """Brute-force separable 2D circular correlation with holes-upsampled taps."""
    h, w = img.shape
    out = np.zeros_like(img, dtype=float)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for a, fa in enumerate(f_row):
                for b, fb in enumerate(f_col):
                    acc += fa * fb * img[(i + a * step) % h, (j + b * step) % w]
            out[i, j] = acc
    return out


def six_pass_analysis(img, level=1):
    """The six-pass analysis that shares one row pass between two subbands,
    kept as a reference for the per-subband step the library runs."""

    def _pass(x, step, axis, sign):
        return (x + sign * np.roll(x, -step, axis=axis)) / np.sqrt(2.0)

    img = np.asarray(img, dtype=np.float64)
    step = 2 ** (level - 1)
    lo_r = _pass(img, step, -2, +1.0)
    hi_r = _pass(img, step, -2, -1.0)
    a = _pass(lo_r, step, -1, +1.0)
    h = _pass(lo_r, step, -1, -1.0)
    v = _pass(hi_r, step, -1, +1.0)
    d = _pass(hi_r, step, -1, -1.0)
    return a, h, v, d


class TestHaarAnalysis:
    @pytest.mark.parametrize("order", "CF")
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_matches_six_pass_reference(self, level, order):
        stack = np.asarray(np.random.default_rng(level).standard_normal((5, 8, 12)),
                           order=order)
        for got, want in zip(haar_analysis_2d(stack, level),
                             six_pass_analysis(stack, level), strict=True):
            assert np.array_equal(got, want)
            assert got.strides == want.strides

    def test_constant_image(self):
        c = 3.5
        a, h, v, d = haar_analysis_2d(np.full((6, 6), c), 1)
        assert np.allclose(a, 2 * c, atol=1e-14)
        for s in (h, v, d):
            assert np.abs(s).max() <= 1e-14

    def test_impulse_response(self):
        img = np.zeros((4, 4))
        img[0, 0] = 1.0
        subs = haar_analysis_2d(img, 1)
        expect_pos = {(0, 0), (0, 3), (3, 0), (3, 3)}
        for s in subs:
            nz = {tuple(idx) for idx in np.argwhere(np.abs(s) > 1e-12)}
            assert nz == expect_pos
            rows, cols = zip(*sorted(nz))
            assert np.allclose(np.abs(s[rows, cols]), 0.5)

    @pytest.mark.parametrize("level", [1, 2])
    def test_matches_brute_force_oracle(self, level):
        rng = np.random.default_rng(level)
        img = rng.standard_normal((8, 12))
        step = 2 ** (level - 1)
        got = haar_analysis_2d(img, level)
        pairs = [(LO, LO), (LO, HI), (HI, LO), (HI, HI)]
        for s, (fr, fc) in zip(got, pairs):
            assert np.abs(s - circ_corr2(img, fr, fc, step)).max() <= 1e-12

    def test_tight_frame_energy(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            img = rng.standard_normal((8, 8))
            subs = haar_analysis_2d(img, 1)
            total = sum(np.sum(s ** 2) for s in subs)
            assert abs(total - 4 * np.sum(img ** 2)) <= 1e-10 * 4 * np.sum(img ** 2)

    def test_too_small_image(self):
        with pytest.raises(SizeError):
            haar_analysis_2d(np.ones((2, 2)), 2)


class TestHaarSynthesis:
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_perfect_reconstruction(self, level):
        rng = np.random.default_rng(level + 10)
        img = rng.standard_normal((8, 8))
        rec = haar_synthesis_2d(*haar_analysis_2d(img, level), level)
        assert np.abs(rec - img).max() <= 1e-10

    def test_zero_subbands(self):
        z = np.zeros((4, 4))
        assert np.abs(haar_synthesis_2d(z, z, z, z, 1)).max() == 0.0

    def test_constant_approximation_inverts(self):
        c = 1.25
        z = np.zeros((4, 4))
        rec = haar_synthesis_2d(np.full((4, 4), 2 * c), z, z, z, 1)
        assert np.allclose(rec, c, atol=1e-14)


class TestWpDecompose:
    def test_node_count_j2(self):
        ds = generate_uos(UosSpec(C=2, d=1, D=64, n_per_cluster=3, seed=0))
        wp = wp_decompose(ds, 2)
        assert len(wp) == 20
        assert sorted(wp) == list(wp)  # lexicographic order

    def test_constant_images(self):
        data = np.ones((16, 5)) * 2.0
        ds = Dataset(data=data, img_h=4, img_w=4)
        wp = wp_decompose(ds, 1)
        assert np.allclose(wp["A"], 2 * ds.data)
        for p in ("H", "V", "D"):
            assert np.abs(wp[p]).max() <= 1e-14

    def test_subband_rank_bounded_by_input_rank(self):
        ds = generate_uos(UosSpec(C=3, d=2, D=64, n_per_cluster=10, seed=1))
        rank = np.linalg.matrix_rank(ds.data, tol=1e-8)
        wp = wp_decompose(ds, 2)
        for path in wp:
            node_rank = np.linalg.matrix_rank(wp[path], tol=1e-8)
            assert node_rank <= rank

    def test_shape_preserved(self):
        ds = generate_uos(UosSpec(C=2, d=2, D=36, n_per_cluster=4, seed=2))
        wp = wp_decompose(ds, 2)
        for path in wp:
            assert wp[path].shape == ds.data.shape

    def test_linearity(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((16, 6))
        Y = rng.standard_normal((16, 6))
        a, b = 1.7, -0.3
        dX = Dataset(data=X, img_h=4, img_w=4)
        dY = Dataset(data=Y, img_h=4, img_w=4)
        dXY = Dataset(data=a * X + b * Y, img_h=4, img_w=4)
        wx, wy, wxy = (wp_decompose(d, 2) for d in (dX, dY, dXY))
        for path in wxy:
            combo = a * wx[path] + b * wy[path]
            assert np.abs(wxy[path] - combo).max() <= 1e-12

    def test_node_matrix_agrees_with_decompose(self):
        # path-only filtering runs the decomposition's passes in its order
        ds = generate_uos(UosSpec(C=2, d=2, D=64, n_per_cluster=4, seed=4))
        wp = wp_decompose(ds, 3)
        assert len(wp) == 4 + 16 + 64
        for path in wp:
            assert np.array_equal(node_matrix(ds, path), wp[path]), path
        assert np.array_equal(node_matrix(ds, ""), ds.data)

    def test_root_node_is_the_loaded_data(self, tmp_path):
        # bundles load column-major; the root node keeps that layout, since
        # the single-view pipeline's diagnostics depend on it to the last bit
        ds = generate_uos(UosSpec(C=2, d=2, D=64, n_per_cluster=4, seed=4))
        save_bundle(ds, tmp_path / "ds.wpsc")
        loaded = load_bundle(tmp_path / "ds.wpsc")
        X = node_matrix(loaded, "")
        assert np.array_equal(X, ds.data)
        assert X is loaded.data
        assert X.flags.f_contiguous and not X.flags.c_contiguous
        assert not X.flags.writeable

    def test_column_wise_consistency(self):
        # decomposing the matrix equals decomposing each image separately
        ds = generate_uos(UosSpec(C=2, d=1, D=16, n_per_cluster=3, seed=5))
        wp = wp_decompose(ds, 1)
        for n in range(ds.N):
            img = ds.data[:, n].reshape(4, 4)
            a, h, v, d = haar_analysis_2d(img, 1)
            assert np.allclose(wp["A"][:, n], a.reshape(-1), atol=1e-14)
            assert np.allclose(wp["D"][:, n], d.reshape(-1), atol=1e-14)
