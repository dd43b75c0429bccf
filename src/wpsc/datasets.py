"""Dataset representation, ingestion, synthetic generation, and splitting.

A dataset is a D x N matrix whose columns are row-major vectorized images,
plus image geometry and optional integer cluster labels.
"""

import math
import numbers
import re
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateColumnError,
    EmptyInputError,
    FormatError,
    InfeasibleSpecError,
    LabelingError,
    ParameterError,
    SplitError,
)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Column matrix of vectorized images with geometry and optional labels.

    Invariants enforced on construction: D == img_h * img_w, finite
    entries, and (if present) labels in {0..C-1} with every cluster
    nonempty. Instances are immutable; the underlying arrays are marked
    read-only so they can be shared across threads. A contiguous float64
    matrix that no one can write (see :func:`_sealed`) is kept as it is;
    any other ``data`` is copied, and the caller's array is left untouched.
    """

    data: np.ndarray
    img_h: int
    img_w: int
    labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        data = self.data
        if not _sealed(data):
            data = np.array(data, dtype=np.float64)
            data.setflags(write=False)
        if data.ndim != 2:
            raise ConsistencyError("data must be a 2-D (D x N) matrix")
        if self.img_h <= 0 or self.img_w <= 0:
            raise ConsistencyError("image dimensions must be positive")
        if self.img_h * self.img_w != data.shape[0]:
            raise ConsistencyError(
                f"img_h*img_w = {self.img_h * self.img_w} != D = {data.shape[0]}"
            )
        # NaN propagates through min and max; no D x N mask is made
        if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
            raise ConsistencyError("data contains NaN or Inf entries")
        object.__setattr__(self, "data", data)
        if self.labels is not None:
            labels = np.array(self.labels, dtype=np.int64)
            if labels.shape != (data.shape[1],):
                raise ConsistencyError("labels length must equal N")
            if labels.size:
                if labels.min() < 0:
                    raise ConsistencyError("labels must be nonnegative")
                # C <= N when every cluster is nonempty; checked first so a
                # corrupt label word cannot make bincount allocate gigabytes
                if labels.max() >= labels.size or np.any(np.bincount(labels) == 0):
                    raise ConsistencyError("every cluster in {0..C-1} must be nonempty")
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)

    @property
    def D(self):
        return self.data.shape[0]

    @property
    def N(self):
        return self.data.shape[1]

    @property
    def C(self):
        if self.labels is None:
            return None
        return int(self.labels.max()) + 1 if self.labels.size else 0

    @cached_property
    def unit(self):
        """``unit_columns(data)``, kept from the first use on."""
        return unit_columns(self.data)

    def images(self):
        """View of the data as an (N, img_h, img_w) stack."""
        return self.data.T.reshape(self.N, self.img_h, self.img_w)

    def with_data(self, data, name=None):
        """Copy of this dataset with the matrix replaced, metadata kept."""
        return Dataset(data=data, img_h=self.img_h, img_w=self.img_w,
                       labels=self.labels, name=self.name if name is None else name)


def _sealed(a):
    """Whether ``a`` is a C- or F-contiguous float64 ndarray that no one
    can write: it and every array it views are read-only, and the chain of
    views ends in memory it owns."""
    if not (type(a) is np.ndarray and a.dtype == np.float64
            and (a.flags.c_contiguous or a.flags.f_contiguous)):
        return False
    while isinstance(a, np.ndarray) and not a.flags.writeable:
        if a.base is None:
            return True
        a = a.base
    return False


def _seal(a):
    """Mark a freshly made array, and every array it views, read-only."""
    view = a
    while isinstance(view, np.ndarray):
        view.setflags(write=False)
        view = view.base
    return a


def check_int(value, name, minimum=0):
    """Raise ParameterError naming ``name`` unless ``value`` is an integer,
    not a bool, of at least ``minimum``: the one check of every integer
    setting, seeds included (``np.random.default_rng`` takes nonnegative
    integers only)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(value, name, maximum=math.inf, zero=False):
    """Raise ParameterError naming ``name`` unless ``value`` is a finite real
    number, not a bool, above 0 (or 0 itself when ``zero``), at most ``maximum``."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool) or not math.isfinite(value)
            or not (0 <= value if zero else 0 < value) or value > maximum):
        bound = "" if maximum == math.inf else f" <= {maximum:g}"
        raise ParameterError(f"{name} must be a {'nonnegative' if zero else 'positive'} "
                             f"finite number{bound}, got {value!r}")


@dataclass(frozen=True)
class SplitSpec:
    """Stratified in-/out-of-sample split: each cluster contributes
    ceil(in_fraction * N_c) in-sample points."""

    in_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_real(self.in_fraction, "in_fraction", maximum=1.0)
        check_int(self.seed, "seed")


@dataclass(frozen=True)
class UosSpec:
    """Synthetic union-of-subspaces generator spec.

    ``noise_sigma`` is the additive Gaussian noise level expressed as the
    expected noise-to-signal column-norm ratio (0 means exact subspaces).
    """

    C: int
    d: int
    D: int
    n_per_cluster: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for key in ("C", "d", "D", "n_per_cluster"):
            check_int(getattr(self, key), key, 1)
        if self.d >= self.D:
            raise InfeasibleSpecError(f"need d < D, got d={self.d}, D={self.D}")
        if self.C * self.d > self.D:
            raise InfeasibleSpecError(
                f"C*d = {self.C * self.d} exceeds ambient dimension D = {self.D}"
            )
        check_real(self.noise_sigma, "noise_sigma", zero=True)
        check_int(self.seed, "seed")


def most_square_shape(D):
    """(h, w) with h*w = D, h <= w, minimizing w - h."""
    h = 1
    for a in range(1, int(math.isqrt(D)) + 1):
        if D % a == 0:
            h = a
    return h, D // h


def generate_uos(spec):
    """Draw a union-of-subspaces dataset X = [A_1 Z_1 ... A_C Z_C] + sigma*E.

    Each cluster basis is the Q factor of a seeded D x d Gaussian matrix and
    coefficients are standard normal, so signal columns have expected norm
    sqrt(d). Noise entries are scaled by sqrt(d/D), making ``noise_sigma``
    the expected noise-to-signal column-norm ratio. Columns are labeled by
    cluster in block order; deterministic given spec.seed.
    """
    rng = np.random.default_rng(spec.seed)
    noise_scale = spec.noise_sigma * math.sqrt(spec.d / spec.D)
    blocks = []
    for _ in range(spec.C):
        basis, _ = np.linalg.qr(rng.standard_normal((spec.D, spec.d)))
        coeffs = rng.standard_normal((spec.d, spec.n_per_cluster))
        block = basis @ coeffs
        if spec.noise_sigma > 0:
            block = block + noise_scale * rng.standard_normal(block.shape)
        blocks.append(block)
    data = _seal(np.hstack(blocks))
    labels = np.repeat(np.arange(spec.C), spec.n_per_cluster)
    img_h, img_w = most_square_shape(spec.D)
    name = f"uos_C{spec.C}_d{spec.d}_D{spec.D}_s{spec.seed}"
    return Dataset(data=data, img_h=img_h, img_w=img_w, labels=labels, name=name)


def _read_idx(path, expected_magic, ndim):
    raw = Path(path).read_bytes()
    header = 4 * (1 + ndim)
    if len(raw) < header:
        raise FormatError(f"{path}: truncated IDX header")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != expected_magic:
        raise FormatError(
            f"{path}: magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count = math.prod(dims)
    if len(raw) - header != count:
        raise ConsistencyError(
            f"{path}: payload is {len(raw) - header} bytes, dims {dims} imply {count}"
        )
    return dims, np.frombuffer(raw, dtype=np.uint8, offset=header)


def load_idx(images_path, labels_path=None, name=None):
    """Load an IDX (MNIST-distribution format) image file, optionally with labels.

    Pixels are mapped to [0, 1] by dividing by 255; each image becomes one
    column via row-major vectorization.
    """
    (n_images, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    data = _seal(pixels.reshape(n_images, rows * cols).T.astype(np.float64) / 255.0)
    labels = None
    if labels_path is not None:
        (n_labels,), raw_labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
        if n_labels != n_images:
            raise ConsistencyError(f"{n_images} images but {n_labels} labels")
        labels = _relabel(raw_labels.astype(np.int64), labels_path)
    if name is None:
        name = Path(images_path).stem
    return Dataset(data=data, img_h=rows, img_w=cols, labels=labels, name=name)


def _relabel(raw, origin):
    """Map arbitrary integer class ids onto contiguous {0..C-1}."""
    if raw.size == 0:
        raise LabelingError(f"{origin}: no class ids found")
    return np.unique(raw, return_inverse=True)[1].astype(np.int64)


def _read_pgm(path):
    raw = Path(path).read_bytes()
    if raw[:2] != b"P5":
        raise FormatError(f"{path}: not a binary (P5) PGM file")
    # header tokens may be separated by whitespace and '#' comments
    pos, tokens = 2, []
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PGM header")
        tokens.append(raw[start:pos])
    pos += 1  # single whitespace byte after maxval
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise FormatError(f"{path}: non-numeric PGM header fields") from None
    if not (0 < maxval <= 255):
        raise FormatError(f"{path}: maxval {maxval} outside (0, 255]")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: image size {width}x{height} is not positive")
    count = width * height
    if len(raw) - pos < count:
        raise ConsistencyError(f"{path}: PGM payload shorter than {count} bytes")
    img = np.frombuffer(raw, dtype=np.uint8, count=count, offset=pos)
    return img.reshape(height, width).astype(np.float64) / maxval


def load_pgm_dir(directory, class_from, name=None):
    """Load every binary PGM in ``directory``; class ids come from a regex.

    Files are processed in sorted filename order, must share identical
    dimensions, and pixels are scaled to [0, 1]. ``class_from`` is a regex
    whose first group captures an integer class id from the file name.
    """
    directory = Path(directory)
    paths = sorted(p for p in directory.iterdir() if p.suffix.lower() == ".pgm")
    if not paths:
        raise EmptyInputError(f"{directory}: no .pgm files found")
    try:
        pattern = re.compile(class_from)
    except re.error as exc:
        raise ParameterError(f"bad class regex {class_from!r}: {exc}") from None
    images, raw_labels = [], []
    shape = None
    for p in paths:
        img = _read_pgm(p)
        if shape is None:
            shape = img.shape
        elif img.shape != shape:
            raise ConsistencyError(
                f"{p.name}: image is {img.shape}, others are {shape}"
            )
        try:  # no match, no group 1, or a group 1 that is not an integer
            raw_labels.append(int(pattern.search(p.name)[1]))
        except (IndexError, TypeError, ValueError):
            raise LabelingError(
                f"{p.name}: file name does not match class regex {class_from!r}"
            ) from None
        images.append(img.reshape(-1))
    data = _seal(np.stack(images, axis=1))
    labels = _relabel(np.asarray(raw_labels, dtype=np.int64), directory)
    if name is None:
        name = directory.name
    return Dataset(data=data, img_h=shape[0], img_w=shape[1], labels=labels, name=name)


def unit_columns(X):
    """Column-normalize a raw matrix, or each member of a B x D x N stack;
    zero columns are an error. The result is read-only."""
    X = np.asarray(X, dtype=np.float64)
    return _seal(X / _column_norms(X))


def _column_norms(X, name=None):
    """The column norms ``unit_columns`` divides by; a zero column is a
    DegenerateColumnError naming up to eight of them (after ``name``)."""
    norms = np.linalg.norm(X, axis=-2, keepdims=True)
    zero = np.flatnonzero((norms == 0.0).any(axis=tuple(range(X.ndim - 1))))[:8].tolist()
    if zero:
        where = "" if name is None else f"{name or 'dataset'}: "
        raise DegenerateColumnError(f"{where}zero column(s) at indices {zero}", zero)
    return norms


def column_normalize(ds):
    """Rescale every column to unit Euclidean norm; metadata is preserved.

    A zero column is an error: downstream solvers divide by column norms.
    """
    return ds.with_data(_seal(ds.data / _column_norms(ds.data, ds.name)))


def split_in_sample(ds, spec):
    """The in-sample half of :func:`split` and the sorted column indices of
    its held-out half, whose columns are not copied."""
    if ds.labels is None:
        raise SplitError("split requires labels for stratification")
    rng = np.random.default_rng(spec.seed)
    in_idx, out_idx = [], []
    for c in range(ds.C):
        members = np.flatnonzero(ds.labels == c)
        n_in = math.ceil(spec.in_fraction * members.size)
        if n_in < 1:
            raise SplitError(f"cluster {c} would have no in-sample points")
        perm = rng.permutation(members.size)
        in_idx.append(members[perm[:n_in]])
        out_idx.append(members[perm[n_in:]])
    return _take(ds, np.sort(np.concatenate(in_idx)), "in"), np.sort(np.concatenate(out_idx))


def split(ds, spec):
    """Stratified split into (in_sample, out_sample) datasets.

    Each cluster contributes ceil(in_fraction * N_c) in-sample points,
    selected by a seeded permutation; both halves keep the original column
    order. Requires labels.
    """
    in_ds, out_idx = split_in_sample(ds, spec)
    return in_ds, _take(ds, out_idx, "out")


def _take(ds, idx, tag):
    labels = None if ds.labels is None else ds.labels[idx]
    name = f"{ds.name}[{tag}]" if ds.name else tag
    return Dataset(data=_seal(ds.data[:, idx]), img_h=ds.img_h, img_w=ds.img_w,
                   labels=labels, name=name)
