"""Small numeric kernels shared across the package.

The one rule for freezing an array, vector angles, the principal-axis
statistics and the Spearman rank correlation behind the
trajectory-linearity metric, the one reader of input files and the LTN1
tensor format of checkpoints and latent videos, and the pin to one BLAS
thread that keeps every result independent of the core count.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import struct
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LTN1_MAGIC = b"LTN1"


def _as_finite_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def read_only(x) -> np.ndarray:
    """``x`` itself if it is a read-only float64 array owning its memory,
    otherwise a read-only copy.  An adopted array is handed over: its owner
    could turn writing back on and reach the holder, so it must not."""
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64 and x.flags.owndata and not x.flags.writeable):
        x = np.array(x, dtype=np.float64)
        x.flags.writeable = False
    return x


def angle_between(a, b) -> float:
    """Angle in radians between two tensors viewed as flat vectors.

    The cosine is clamped to [-1, 1] before acos so nearly (anti)parallel
    inputs cannot produce NaN.  Raises on zero-norm operands, where the
    angle is undefined.
    """
    a = _as_finite_array(a, "a")
    b = _as_finite_array(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a.ravel())
    nb = np.linalg.norm(b.ravel())
    if na == 0.0 or nb == 0.0:
        raise ValueError("angle undefined for zero-norm operand")
    cosine = np.dot(a.ravel(), b.ravel()) / (na * nb)
    return float(np.arccos(np.clip(cosine, -1.0, 1.0)))


def principal_axis_stats(points) -> tuple[float, np.ndarray]:
    """Dominant-axis statistics of a point cloud.

    Args:
        points: (N, d) array, one point per row, N >= 2.

    Returns:
        (variance_ratio, projections) where ``variance_ratio`` is the share
        of total variance captured by the leading principal axis and
        ``projections`` are the centered points projected onto that axis.
        A degenerate cloud (all points identical) yields ``(0.0, zeros(N))``.
    """
    pts = _as_finite_array(points, "points")
    if pts.ndim != 2:
        raise ValueError(f"points must be 2-d, got shape {pts.shape}")
    n = pts.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points")
    centered = pts - pts.mean(axis=0)
    total = float((centered**2).sum())
    # Identical points can leave a ~1e-30 residue because the mean itself
    # rounds; treat anything at round-off scale as degenerate.
    if total <= 1e-24 * max(1.0, float((pts**2).sum())):
        return 0.0, np.zeros(n)
    # Singular values of the centered cloud give the PCA spectrum directly.
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    ratio = float(s[0] ** 2 / (s**2).sum())
    projections = centered @ vt[0]
    return ratio, projections


def _average_ranks(values: np.ndarray) -> tuple[np.ndarray, int]:
    """1-based ranks, ties sharing their average rank, and the number of
    distinct values."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2)[inverse], counts.size


def spearman_rho(x, y) -> float:
    """Spearman rank correlation of two equal-length 1-d samples.

    Ties get average ranks and the ranks are correlated with
    ``np.corrcoef``, in the same arithmetic as
    ``scipy.stats.spearmanr(x, y).statistic``, so the result matches it
    bit for bit.  Like scipy, returns NaN when either input is constant,
    where the correlation is undefined.
    """
    x = _as_finite_array(x, "x")
    y = _as_finite_array(y, "y")
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"need two 1-d samples of equal length, got shapes {x.shape} and {y.shape}")
    rx, distinct_x = _average_ranks(x)
    ry, distinct_y = _average_ranks(y)
    if distinct_x < 2 or distinct_y < 2:
        return float("nan")
    return float(np.corrcoef(np.column_stack((rx, ry)), rowvar=False)[1, 0])


def write_ltn1(path, array) -> None:
    """Write a float64 tensor in the LTN1 container.

    Layout: ``b"LTN1"``, uint32 little-endian rank, rank uint32 dims,
    then the row-major float64 payload.
    """
    arr = np.asarray(array, dtype="<f8", order="C")  # ascontiguousarray would make a 0-d array 1-d
    if not np.isfinite(arr).all():
        raise ValueError("refusing to write non-finite values to an LTN1 file")
    with open(path, "wb") as fh:
        fh.write(LTN1_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes())


def read_input(path, what: str) -> bytes:
    """The bytes of the input file at ``path``, refused by name (``what``)
    unless it is a regular file: the one place that reads an input file."""
    path = Path(path)
    if not path.is_file():
        if not path.exists():
            raise FileNotFoundError(f"{what} not found: {path}")
        raise ValueError(f"{what} is not a regular file: {path}")
    return path.read_bytes()


def parse_ltn1(raw: bytes, path) -> np.ndarray:
    """The tensor in ``raw``, the LTN1 file at ``path``: magic, dims, size and finiteness checked."""
    if raw[:4] != LTN1_MAGIC:
        raise ValueError(f"not an LTN1 file (bad magic): {path}")
    if len(raw) < 8:
        raise ValueError(f"truncated LTN1 header: {path}")
    (rank,) = struct.unpack_from("<I", raw, 4)
    header_end = 8 + 4 * rank
    if len(raw) < header_end:
        raise ValueError(f"truncated LTN1 dims: {path}")
    shape = struct.unpack_from(f"<{rank}I", raw, 8)
    count = int(np.prod(shape, dtype=np.int64)) if rank else 1
    payload = raw[header_end:]
    if len(payload) != 8 * count:
        raise ValueError(
            f"LTN1 payload size mismatch in {path}: "
            f"expected {8 * count} bytes for shape {shape}, got {len(payload)}"
        )
    arr = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"non-finite values in LTN1 payload: {path}")
    return arr


def read_ltn1(path, what: str = "LTN1 file") -> np.ndarray:
    """Read the LTN1 tensor at ``path``; ``what`` names the file if it is refused."""
    return parse_ltn1(read_input(path, what), path)


# OpenBLAS's thread-count functions as numpy's wheels (scipy-openblas, ILP64),
# older wheels and system builds name them; "{}" is "get" or "set".
_OPENBLAS_THREAD_FUNCTIONS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _openblas_paths() -> list[str]:
    """The OpenBLAS libraries this process has loaded, or numpy's bundled
    ones where the platform does not list them."""
    if sys.platform.startswith("linux"):
        with open("/proc/self/maps") as fh:
            return list(dict.fromkeys(line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line.lower()))
    root = Path(np.__file__).parent
    bundled = (root / ".dylibs", root.parent / "numpy.libs")
    return [str(p) for d in bundled if d.is_dir() for p in sorted(d.glob("*openblas*"))]


@functools.cache
def _blas_thread_control():
    """The loaded OpenBLAS's (get, set) thread-count functions, or None for
    other BLAS builds (MKL, Accelerate, BLIS), which are not controlled."""
    for name, path in itertools.product(_OPENBLAS_THREAD_FUNCTIONS, _openblas_paths()):
        try:
            get, set_ = (getattr(ctypes.CDLL(path), name.format(op)) for op in ("get", "set"))
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def blas_threads() -> int | None:
    """OpenBLAS's thread count now, or None where it is not controlled."""
    control = _blas_thread_control()
    return control[0]() if control else None


# The count is process-wide, so the pins share it: the first to enter sets
# one thread, and the last to leave restores what the first found.
_pin_lock = threading.Lock()
_pins = 0
_restore = None


@contextmanager
def one_blas_thread():
    """Run the block with BLAS on one thread, then restore the caller's count.

    Multi-threaded OpenBLAS kernels round differently, so without this the
    bytes of a result would depend on the machine's core count.  Entries
    nested in one, or made from other threads while one is active, change
    nothing.  A no-op where the BLAS is not OpenBLAS.  As a decorator,
    ``@one_blas_thread()``, it pins each call of the function.
    """
    global _pins, _restore
    with _pin_lock:
        if _pins == 0:
            control = _blas_thread_control()
            found = control[0]() if control else 1
            _restore = None
            if found != 1:
                control[1](1)
                _restore = functools.partial(control[1], found)
        _pins += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins -= 1
            if _pins == 0 and _restore:
                _restore()
