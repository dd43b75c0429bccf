"""Native matrix-bundle serialization.

Layout: ASCII magic ``WPSC1\\n``, little-endian u32 D, u32 N, u32 img_h,
u32 img_w, u8 has_labels, D*N float64 values in column-major order, then
(if labeled) N u32 labels.
"""

import os
import struct
from pathlib import Path

import numpy as np

from .datasets import Dataset, _seal
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
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ConsistencyError("save_matrix expects a 2-D matrix")
    save_bundle(Dataset(data=M, img_h=1, img_w=M.shape[0]), path)


def load_bundle(path, name=None):
    """Read a Dataset back from a matrix-bundle file.

    The dataset name defaults to the file stem; matrices and labels
    round-trip bit-identically. The matrix is read into a fresh, aligned,
    read-only array, which the Dataset keeps without copying it.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC) + _HEADER.size)
        if head[: len(MAGIC)] != MAGIC:
            raise FormatError(f"{path}: bad magic, not a WPSC1 bundle")
        if len(head) < len(MAGIC) + _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        D, N, img_h, img_w, has_labels = _HEADER.unpack_from(head, len(MAGIC))
        size = os.fstat(fh.fileno()).st_size - len(head)
        want = D * N * 8 + (N * 4 if has_labels else 0)
        if size != want:
            raise ConsistencyError(f"{path}: payload is {size} bytes, header implies {want}")
        data = _seal(np.fromfile(fh, dtype="<f8", count=D * N).reshape((D, N), order="F"))
        labels = np.fromfile(fh, dtype="<u4", count=N).astype(np.int64) if has_labels else None
    return Dataset(data=data, img_h=img_h, img_w=img_w, labels=labels,
                   name=name if name is not None else path.stem)
