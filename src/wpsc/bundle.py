"""Native matrix-bundle serialization.

Layout: ASCII magic ``WPSC1\\n``, little-endian u32 D, u32 N, u32 img_h,
u32 img_w, u8 has_labels, D*N float64 values in column-major order, then
(if labeled) N u32 labels.
"""

import struct
from pathlib import Path

import numpy as np

from .errors import ConsistencyError, FormatError

MAGIC = b"WPSC1\n"
_HEADER = struct.Struct("<IIIIB")


def save_bundle(ds, path):
    """Write a Dataset to ``path`` in the matrix-bundle format."""
    path = Path(path)
    D, N = ds.data.shape
    has_labels = ds.labels is not None
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(D, N, ds.img_h, ds.img_w, int(has_labels)))
        fh.write(np.asarray(ds.data, dtype="<f8").tobytes(order="F"))
        if has_labels:
            fh.write(np.asarray(ds.labels, dtype="<u4").tobytes())


def save_matrix(M, path):
    """Export a bare matrix (e.g. a representation or affinity) for
    inspection, using the bundle layout with 1 x rows geometry; read it
    back with ``load_bundle(path).data``."""
    from .datasets import Dataset

    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ConsistencyError("save_matrix expects a 2-D matrix")
    save_bundle(Dataset(data=M, img_h=1, img_w=M.shape[0]), path)


def load_bundle(path, name=None):
    """Read a Dataset back from a matrix-bundle file.

    The dataset name defaults to the file stem; matrices and labels
    round-trip bit-identically.
    """
    from .datasets import Dataset  # deferred to avoid an import cycle

    path = Path(path)
    raw = path.read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad magic, not a WPSC1 bundle")
    off = len(MAGIC)
    if len(raw) < off + _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    D, N, img_h, img_w, has_labels = _HEADER.unpack_from(raw, off)
    off += _HEADER.size
    want = D * N * 8 + (N * 4 if has_labels else 0)
    if len(raw) - off != want:
        raise ConsistencyError(
            f"{path}: payload is {len(raw) - off} bytes, header implies {want}"
        )
    data = np.frombuffer(raw, dtype="<f8", count=D * N, offset=off)
    data = data.reshape((D, N), order="F")
    off += D * N * 8
    labels = None
    if has_labels:
        labels = np.frombuffer(raw, dtype="<u4", count=N, offset=off).astype(np.int64)
    return Dataset(data=data, img_h=img_h, img_w=img_w, labels=labels,
                   name=name if name is not None else path.stem)
