"""Non-decimated 2D Haar wavelet-packet transform.

Filtering is separable with the orthonormal Haar pair lo = (1, 1)/sqrt(2),
hi = (1, -1)/sqrt(2), holes-upsampled by 2**(j-1) - 1 zeros at level j,
periodic extension, no downsampling. Subbands therefore keep the input
shape, the four level-1 energies sum to four times the input energy, and
the dual (time-reversed, quarter-scaled) bank reconstructs exactly.

Subband letters: A = lo.lo, H = lo.hi, V = hi.lo, D = hi.hi, where the
first letter filters along image rows (height) and the second along
columns (width).
"""

import numpy as np

from .datasets import check_int
from .errors import ParameterError, SizeError

ALPHABET = "AHVD"
_SQRT2 = np.sqrt(2.0)


def subband_level(path):
    """Resolution level of a subband path; '' is the original data."""
    if any(ch not in ALPHABET for ch in path):
        raise ParameterError(f"invalid subband path {path!r}")
    return len(path)


def _pass(x, step, axis, sign):
    # y[n] = (x[n] + sign * x[n + step mod L]) / sqrt(2)
    return (x + sign * np.roll(x, -step, axis=axis)) / _SQRT2


def _pass_adjoint(y, step, axis, sign):
    # z[n] = (y[n] + sign * y[n - step mod L]) / sqrt(2)
    return (y + sign * np.roll(y, step, axis=axis)) / _SQRT2


def _check_size(h, w, level):
    """Raise unless ``level`` is an integer >= 1 and h x w images are large
    enough for it: both sides at least 2**level."""
    check_int(level, "level", 1)
    if min(h, w) >> level == 0:  # shifted, as a huge level would make 2**level huge
        raise SizeError(f"image {h}x{w} too small for level {level} "
                        f"(needs sides >= 2**{level})")


def _step(cube, level, ch):
    """Subband ``ch`` of an (..., h, w) stack at ``level``: the row pass of
    its first letter, then the column pass of its second."""
    step = 2 ** (level - 1)
    cube = _pass(cube, step, -2, +1.0 if ch in "AH" else -1.0)
    return _pass(cube, step, -1, +1.0 if ch in "AV" else -1.0)


def haar_analysis_2d(img, level=1):
    """Split an image into (A, H, V, D) subbands at the given level.

    ``img`` may be a single h x w image or an (..., h, w) stack; the last
    two axes are filtered. Returns four arrays of the input shape.
    """
    img = np.asarray(img, dtype=np.float64)
    _check_size(img.shape[-2], img.shape[-1], level)
    return tuple(_step(img, level, ch) for ch in ALPHABET)


def haar_synthesis_2d(a, h, v, d, level=1):
    """Invert :func:`haar_analysis_2d`: dual filters, quarter-scaled."""
    a, h, v, d = (np.asarray(s, dtype=np.float64) for s in (a, h, v, d))
    if not (a.shape == h.shape == v.shape == d.shape):
        raise ParameterError("subband shapes must match")
    _check_size(a.shape[-2], a.shape[-1], level)
    step = 2 ** (level - 1)
    lo_r = _pass_adjoint(a, step, -1, +1.0) + _pass_adjoint(h, step, -1, -1.0)
    hi_r = _pass_adjoint(v, step, -1, +1.0) + _pass_adjoint(d, step, -1, -1.0)
    out = _pass_adjoint(lo_r, step, -2, +1.0) + _pass_adjoint(hi_r, step, -2, -1.0)
    return out / 4.0


def wp_decompose(ds, J):
    """Full wavelet-packet decomposition of a dataset down to level J.

    Each column is reshaped to img_h x img_w, recursively filtered (node p
    at level j spawns p+A/H/V/D via level j+1 filters), and re-vectorized
    into D x N node matrices: a dict from each path (level = length) to its
    matrix, over the sum_{j=1..J} 4**j nodes in lexicographic path order.
    """
    _check_size(ds.img_h, ds.img_w, J)
    cubes = {"": ds.images()}  # (N, h, w) stacks, filtered along axes 1, 2
    for j in range(1, J + 1):
        for path in [p for p in cubes if len(p) == j - 1]:
            cubes.update((path + ch, _step(cubes[path], j, ch)) for ch in ALPHABET)
    return {path: cube.reshape(ds.N, ds.D).T for path, cube in sorted(cubes.items()) if path}


def node_matrix(ds, path):
    """D x N coefficient matrix of a single subband of ``ds``.

    Filters only along ``path``, one level's step of
    :func:`haar_analysis_2d` at a time. Path '' returns the read-only data
    itself, in its own memory layout.
    """
    level = subband_level(path)
    if level == 0:
        return ds.data
    _check_size(ds.img_h, ds.img_w, level)
    cube = ds.images()
    for j, ch in enumerate(path, start=1):
        cube = _step(cube, j, ch)
    return cube.reshape(ds.N, ds.D).T
