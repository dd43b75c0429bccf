import contextlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wpsc
from conftest import make_uos
from wpsc.bundle import load_bundle, save_bundle
from wpsc.datasets import (
    Dataset,
    SplitSpec,
    UosSpec,
    column_normalize,
    generate_uos,
    load_idx,
    load_pgm_dir,
    most_square_shape,
    split,
    split_in_sample,
    unit_columns,
)
from wpsc.errors import (
    ConsistencyError,
    DegenerateColumnError,
    EmptyInputError,
    FormatError,
    InfeasibleSpecError,
    LabelingError,
    ParameterError,
)


def svd_rank(M, rtol=1e-8):
    s = np.linalg.svd(M, compute_uv=False)
    return int((s > rtol * s[0]).sum())


class TestGenerateUos:
    def test_noiseless_one_dim_clusters(self):
        ds = generate_uos(UosSpec(C=2, d=1, D=4, n_per_cluster=3, seed=1))
        for c in range(2):
            block = ds.data[:, ds.labels == c]
            assert svd_rank(block) == 1
            # every column lies in the span of the cluster's SVD basis
            U, _, _ = np.linalg.svd(block, full_matrices=False)
            u = U[:, :1]
            resid = block - u @ (u.T @ block)
            assert np.abs(resid).max() <= 1e-10

    def test_rank_matches_c_times_d(self):
        ds = generate_uos(UosSpec(C=5, d=5, D=100, n_per_cluster=50, seed=3))
        assert svd_rank(ds.data) == 25

    def test_deterministic(self):
        spec = UosSpec(C=3, d=2, D=30, n_per_cluster=4, noise_sigma=0.1, seed=9)
        a, b = generate_uos(spec), generate_uos(spec)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.labels, b.labels)

    def test_infeasible_spec(self):
        with pytest.raises(InfeasibleSpecError):
            UosSpec(C=5, d=3, D=10, n_per_cluster=2)

    @pytest.mark.parametrize("seed", [-4, 0.5, None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            UosSpec(C=2, d=1, D=4, n_per_cluster=3, seed=seed)

    def test_noiseless_points_sit_in_svd_span(self):
        # sigma=0 invariant: ||x - U_c U_c' x|| <= 1e-10 per cluster
        ds = generate_uos(UosSpec(C=4, d=3, D=36, n_per_cluster=10, seed=5))
        for c in range(4):
            block = ds.data[:, ds.labels == c]
            U, _, _ = np.linalg.svd(block, full_matrices=False)
            u = U[:, :3]
            assert np.abs(block - u @ (u.T @ block)).max() <= 1e-10

    def test_image_shape_most_square(self):
        assert most_square_shape(100) == (10, 10)
        assert most_square_shape(72) == (8, 9)
        assert most_square_shape(64) == (8, 8)
        ds = generate_uos(UosSpec(C=2, d=1, D=100, n_per_cluster=2, seed=0))
        assert (ds.img_h, ds.img_w) == (10, 10)


class TestColumnNormalize:
    def test_example_column(self):
        data = np.zeros((4, 1))
        data[0, 0], data[1, 0] = 3.0, 4.0
        ds = Dataset(data=data, img_h=2, img_w=2)
        out = column_normalize(ds)
        assert np.allclose(out.data[:, 0], [0.6, 0.8, 0.0, 0.0], atol=1e-15)

    def test_idempotent(self):
        ds = generate_uos(UosSpec(C=2, d=2, D=16, n_per_cluster=5, seed=2))
        once = column_normalize(ds)
        twice = column_normalize(once)
        assert np.abs(once.data - twice.data).max() <= 1e-12

    def test_unit_norm_postcondition(self):
        ds = generate_uos(UosSpec(C=3, d=2, D=25, n_per_cluster=7, seed=4))
        out = column_normalize(ds)
        assert np.abs(np.linalg.norm(out.data, axis=0) - 1.0).max() <= 1e-12
        assert np.array_equal(out.labels, ds.labels)

    def test_zero_column_is_error(self):
        data = np.ones((4, 2))
        data[:, 1] = 0.0
        ds = Dataset(data=data, img_h=2, img_w=2, name="z")
        with pytest.raises(DegenerateColumnError, match=r"^z: .*\[1\]"):
            column_normalize(ds)

    def test_no_points(self):
        # a D x 0 matrix once failed in unit_columns with a raw ValueError
        assert unit_columns(np.empty((4, 0))).shape == (4, 0)
        assert unit_columns(np.empty((2, 4, 0))).shape == (2, 4, 0)
        ds = Dataset(data=np.empty((4, 0)), img_h=2, img_w=2, labels=[])
        assert column_normalize(ds).N == 0


class TestSplit:
    def test_split_in_sample_is_the_in_half_of_split(self):
        ds = generate_uos(UosSpec(C=3, d=2, D=16, n_per_cluster=9, seed=0))
        spec = SplitSpec(0.4, 7)
        in_ds, out_idx = split_in_sample(ds, spec)
        ins, outs = split(ds, spec)
        in_idx = np.setdiff1d(np.arange(ds.N), out_idx)
        assert in_ds.name == ins.name and np.array_equal(in_ds.labels, ins.labels)
        assert np.array_equal(in_ds.data, ins.data)
        assert np.array_equal(in_ds.data, ds.data[:, in_idx])
        assert np.array_equal(out_idx, np.sort(out_idx))
        assert np.array_equal(outs.data, ds.data[:, out_idx])
        assert np.array_equal(outs.labels, ds.labels[out_idx])

    def test_balanced_80_20(self):
        ds = generate_uos(UosSpec(C=2, d=2, D=16, n_per_cluster=50, seed=0))
        ins, outs = split(ds, SplitSpec(0.8, 1))
        assert ins.N == 80 and outs.N == 20
        assert np.bincount(ins.labels).tolist() == [40, 40]
        assert np.bincount(outs.labels).tolist() == [10, 10]

    def test_full_fraction_empty_out(self):
        ds = generate_uos(UosSpec(C=2, d=1, D=4, n_per_cluster=3, seed=0))
        ins, outs = split(ds, SplitSpec(1.0, 0))
        assert ins.N == 6 and outs.N == 0

    def test_deterministic_partition(self):
        ds = generate_uos(UosSpec(C=3, d=2, D=16, n_per_cluster=9, seed=0))
        a = split(ds, SplitSpec(0.7, 42))
        b = split(ds, SplitSpec(0.7, 42))
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)

    def test_partition_property(self):
        # in/out index sets partition the columns; counts follow ceil rule
        ds = generate_uos(UosSpec(C=3, d=2, D=16, n_per_cluster=7, seed=1))
        ins, outs = split(ds, SplitSpec(0.6, 5))
        assert ins.N + outs.N == ds.N
        merged = np.concatenate([ins.data, outs.data], axis=1)
        orig = np.sort([tuple(col) for col in ds.data.T], axis=0)
        got = np.sort([tuple(col) for col in merged.T], axis=0)
        assert np.array_equal(orig, got)
        for c in range(3):
            assert (ins.labels == c).sum() == int(np.ceil(0.6 * 7))


class TestIdxLoader:
    def _write_idx_images(self, path, images):
        n, h, w = images.shape
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, n, h, w))
            fh.write(images.astype(np.uint8).tobytes())

    def _write_idx_labels(self, path, labels):
        with open(path, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, len(labels)))
            fh.write(np.asarray(labels, dtype=np.uint8).tobytes())

    def test_mnist_shape(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(5, 28, 28))
        labels = [0, 1, 0, 2, 1]
        self._write_idx_images(tmp_path / "imgs", images)
        self._write_idx_labels(tmp_path / "labels", labels)
        ds = load_idx(tmp_path / "imgs", tmp_path / "labels")
        assert ds.D == 784 and ds.img_h == ds.img_w == 28
        assert ds.data.min() >= 0.0 and ds.data.max() <= 1.0
        # row-major vectorization: pixel (r, c) of image i at row r*28+c
        assert ds.data[1 * 28 + 2, 3] == images[3, 1, 2] / 255.0
        assert ds.labels.tolist() == labels

    def test_label_magic_as_images_is_format_error(self, tmp_path):
        self._write_idx_labels(tmp_path / "bad", [1, 2, 3])
        with pytest.raises(FormatError):
            load_idx(tmp_path / "bad")

    def test_relabel_matches_lookup_reference(self):
        # class ids map to their rank among the distinct ids, in input order
        from wpsc.datasets import _relabel
        rng = np.random.default_rng(2)
        for n, hi in ((1, 5), (50, 3), (200, 10**9)):
            raw = rng.integers(-hi, hi, size=n)
            lookup = {int(v): i for i, v in enumerate(np.unique(raw))}
            got = _relabel(raw, "ids")
            assert got.dtype == np.int64
            assert got.tolist() == [lookup[int(v)] for v in raw]
        with pytest.raises(LabelingError, match="no class ids"):
            _relabel(np.array([], dtype=np.int64), "ids")

    def test_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(1)
        self._write_idx_images(tmp_path / "imgs", rng.integers(0, 255, (3, 4, 4)))
        self._write_idx_labels(tmp_path / "labels", [0, 1, 0, 1])
        with pytest.raises(ConsistencyError):
            load_idx(tmp_path / "imgs", tmp_path / "labels")


def _write_pgm(path, img, maxval=255):
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode())
        fh.write(img.astype(np.uint8).tobytes())


class TestPgmLoader:
    def test_directory_of_classes(self, tmp_path):
        rng = np.random.default_rng(0)
        for cls in (1, 2, 5):
            for i in range(4):
                _write_pgm(tmp_path / f"obj{cls}__{i}.pgm",
                           rng.integers(0, 256, (8, 8)))
        ds = load_pgm_dir(tmp_path, r"obj(\d+)__")
        assert ds.D == 64 and ds.N == 12 and ds.C == 3
        assert ds.data.max() <= 1.0
        assert np.bincount(ds.labels).tolist() == [4, 4, 4]

    def test_empty_dir(self, tmp_path):
        with pytest.raises(EmptyInputError):
            load_pgm_dir(tmp_path, r"(\d+)")

    def test_mixed_dimensions(self, tmp_path):
        rng = np.random.default_rng(0)
        _write_pgm(tmp_path / "a1.pgm", rng.integers(0, 255, (8, 8)))
        _write_pgm(tmp_path / "b1.pgm", rng.integers(0, 255, (4, 4)))
        with pytest.raises(ConsistencyError):
            load_pgm_dir(tmp_path, r"(\d+)")

    def test_unmatched_filename(self, tmp_path):
        _write_pgm(tmp_path / "noclass.pgm", np.zeros((4, 4)))
        with pytest.raises(LabelingError):
            load_pgm_dir(tmp_path, r"obj(\d+)")

    @pytest.mark.parametrize("regex", [r"(obj)", r"o(x)?", r"obj"])
    def test_regex_without_integer_group(self, tmp_path, regex):
        _write_pgm(tmp_path / "obj1.pgm", np.zeros((4, 4)))
        with pytest.raises(LabelingError):
            load_pgm_dir(tmp_path, regex)

    def test_invalid_regex_is_parameter_error(self, tmp_path):
        _write_pgm(tmp_path / "obj1.pgm", np.zeros((4, 4)))
        with pytest.raises(ParameterError):
            load_pgm_dir(tmp_path, r"obj(\d+")

    def test_nonpositive_size_is_format_error(self, tmp_path):
        (tmp_path / "c1.pgm").write_bytes(b"P5\n-2 2\n255\n" + bytes(4))
        with pytest.raises(FormatError):
            load_pgm_dir(tmp_path, r"c(\d+)")

    def test_maxval_scaling(self, tmp_path):
        img = np.full((4, 4), 100)
        _write_pgm(tmp_path / "c1.pgm", img, maxval=100)
        ds = load_pgm_dir(tmp_path, r"c(\d+)")
        assert np.allclose(ds.data, 1.0)


class TestBundle:
    def test_round_trip_bit_identical(self, tmp_path):
        ds = generate_uos(UosSpec(C=3, d=2, D=24, n_per_cluster=5,
                                  noise_sigma=0.2, seed=11))
        path = tmp_path / "b.wpsc"
        save_bundle(ds, path)
        back = load_bundle(path)
        assert np.array_equal(back.data, ds.data)
        assert np.array_equal(back.labels, ds.labels)
        assert (back.img_h, back.img_w) == (ds.img_h, ds.img_w)

    def test_unlabeled_round_trip(self, tmp_path):
        ds = Dataset(data=np.arange(12.0).reshape(4, 3), img_h=2, img_w=2)
        path = tmp_path / "u.wpsc"
        save_bundle(ds, path)
        back = load_bundle(path)
        assert back.labels is None
        assert np.array_equal(back.data, ds.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOTME\n" + b"\x00" * 40)
        with pytest.raises(FormatError):
            load_bundle(path)


class TestDatasetInvariants:
    def test_shape_mismatch(self):
        with pytest.raises(ConsistencyError):
            Dataset(data=np.zeros((5, 2)), img_h=2, img_w=2)

    def test_nan_rejected(self):
        data = np.zeros((4, 2))
        data[0, 0] = np.nan
        with pytest.raises(ConsistencyError):
            Dataset(data=data, img_h=2, img_w=2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf], ids=["inf", "-inf"])
    def test_inf_rejected(self, bad):
        data = np.zeros((4, 2))
        data[3, 1] = bad
        with pytest.raises(ConsistencyError, match="NaN or Inf"):
            Dataset(data=data, img_h=2, img_w=2)

    def test_finiteness_check_makes_no_mask(self):
        # a D x N bool mask would take D * N bytes on every construction
        data = np.ones((1024, 200))
        data.setflags(write=False)
        tracemalloc.start()
        try:
            Dataset(data=data, img_h=32, img_w=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.size // 8

    def test_label_gap_rejected(self):
        with pytest.raises(ConsistencyError):
            Dataset(data=np.ones((4, 3)), img_h=2, img_w=2,
                    labels=np.array([0, 2, 2]))
        # a corrupt bundle label word must be rejected before np.bincount,
        # which would allocate one counter per value up to 2**32
        with pytest.raises(ConsistencyError):
            Dataset(data=np.ones((4, 3)), img_h=2, img_w=2,
                    labels=np.array([0, 1, 2 ** 32 - 16]))

    def test_data_read_only(self):
        ds = Dataset(data=np.ones((4, 2)), img_h=2, img_w=2)
        with pytest.raises(ValueError):
            ds.data[0, 0] = 5.0


def _read_only(a):
    a.setflags(write=False)
    return a


class TestDatasetSharing:
    """A Dataset keeps an array only when no one can write it."""

    def test_writable_array_is_copied(self):
        a = np.ones((4, 3))
        ds = Dataset(data=a, img_h=2, img_w=2)
        a[0, 0] = 5.0
        assert ds.data[0, 0] == 1.0
        assert not np.shares_memory(ds.data, a)
        assert a.flags.writeable and not ds.data.flags.writeable

    @pytest.mark.parametrize("make", [
        lambda: _read_only(np.ones((4, 3)).view()),  # of a writable base
        lambda: _read_only(np.frombuffer(bytearray(96))).reshape(4, 3),
        lambda: _read_only(np.ones((4, 3), dtype=np.float32)),
        lambda: _read_only(np.ones((4, 6)))[:, ::2],  # not contiguous
    ], ids=["writable-base", "bytearray", "float32", "strided"])
    def test_read_only_array_others_can_write_is_copied(self, make):
        a = make()
        ds = Dataset(data=a, img_h=2, img_w=2)
        assert not np.shares_memory(ds.data, a)
        assert not a.flags.writeable  # the caller's flags are untouched
        assert ds.data.flags.c_contiguous or ds.data.flags.f_contiguous

    @pytest.mark.parametrize("order", "CF")
    def test_sealed_array_is_kept(self, order):
        a = _read_only(np.array(np.arange(12.0).reshape(4, 3), order=order))
        ds = Dataset(data=a, img_h=2, img_w=2)
        assert ds.data is a
        assert ds.with_data(ds.data, name="x").data is a

    def test_load_bundle_keeps_an_aligned_read_only_matrix(self, tmp_path):
        # the payload starts 23 bytes into the file; the matrix is read into
        # an array of its own, 8-byte aligned, which Dataset keeps as it is
        ds = make_uos(C=2, d=2, D=16, n=5, seed=1)
        save_bundle(ds, tmp_path / "b.wpsc")
        data = load_bundle(tmp_path / "b.wpsc").data
        assert np.array_equal(data, ds.data)
        assert data.flags.aligned and data.flags.f_contiguous
        assert not data.flags.writeable and not data.base.flags.writeable
        assert data.base.base is None  # owns its memory: no view of the file
        assert Dataset(data=data, img_h=4, img_w=4).data is data

    def test_normalize_and_split_keep_what_they_made(self, monkeypatch):
        made = []

        def record(fn):
            def wrapper(*args):
                out = fn(*args)
                made.append(out)
                return out
            return wrapper

        monkeypatch.setattr(wpsc.datasets, "unit_columns",
                            record(wpsc.datasets.unit_columns))
        monkeypatch.setattr(wpsc.datasets, "_seal", record(wpsc.datasets._seal))
        ds = generate_uos(UosSpec(C=3, d=2, D=16, n_per_cluster=8, seed=2))
        made.clear()
        normalized = column_normalize(ds)
        assert any(m is normalized.data for m in made)
        made.clear()
        halves = split(normalized, SplitSpec(in_fraction=0.5, seed=0))
        for half in halves:
            assert any(np.shares_memory(half.data, m) for m in made)
            assert not np.shares_memory(half.data, normalized.data)


_BUNDLE = (b"WPSC1\n" + struct.pack("<IIIIB", 4, 6, 2, 2, 1)
           + np.arange(1.0, 25.0).tobytes()
           + np.array([0, 1, 2, 0, 1, 2], dtype="<u4").tobytes())
_IDX_IMAGES = struct.pack(">IIII", 0x00000803, 3, 2, 2) + bytes(range(1, 13))
_IDX_LABELS = struct.pack(">II", 0x00000801, 3) + bytes([0, 1, 0])
_PGM = b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4])


def _overwrite(raw, edits):
    buf = bytearray(raw)
    for i, value in edits:
        buf[i] = value
    return bytes(buf)


def corrupted(raw):
    """``raw`` cut short, or with one to four of its bytes overwritten
    (often by a sign, a zero or a separator, which text headers parse)."""
    cut = st.integers(0, len(raw) - 1).map(lambda n: raw[:n])
    byte = st.integers(0, 255) | st.sampled_from(b"-0 \n")
    edits = st.lists(st.tuples(st.integers(0, len(raw) - 1), byte),
                     min_size=1, max_size=4)
    return cut | edits.map(lambda e: _overwrite(raw, e))


fuzz = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestCorruptInputs:
    """Truncated or overwritten input bytes raise only wpsc.errors types."""

    @fuzz
    @given(raw=corrupted(_BUNDLE))
    def test_bundle(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "fuzz.wpsc"
        path.write_bytes(raw)
        with contextlib.suppress(wpsc.errors.Error):
            load_bundle(path)

    @fuzz
    @given(pair=st.tuples(corrupted(_IDX_IMAGES), st.just(_IDX_LABELS))
           | st.tuples(st.just(_IDX_IMAGES), corrupted(_IDX_LABELS)))
    def test_idx(self, tmp_path_factory, pair):
        base = tmp_path_factory.getbasetemp()
        (base / "fuzz-images").write_bytes(pair[0])
        (base / "fuzz-labels").write_bytes(pair[1])
        with contextlib.suppress(wpsc.errors.Error):
            load_idx(base / "fuzz-images", base / "fuzz-labels")

    @fuzz
    @given(raw=corrupted(_PGM))
    def test_pgm(self, tmp_path_factory, raw):
        directory = tmp_path_factory.getbasetemp() / "fuzz-pgm"
        directory.mkdir(exist_ok=True)
        (directory / "c1.pgm").write_bytes(raw)
        (directory / "c2.pgm").write_bytes(_PGM)
        with contextlib.suppress(wpsc.errors.Error):
            load_pgm_dir(directory, r"c(\d)")
