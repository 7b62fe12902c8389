"""Vector dataset handling: fvecs/ivecs IO, nearest centers, exact ground
truth, recall.

This is the oracle layer: everything else in the package is validated against
the brute-force results computed here. Vectors are stored single-precision;
distance sums accumulate in double precision.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError

CHUNK_ENTRIES = 1 << 17  # entries in an n×c-shaped step's largest temporary: 1 MB of float64


class NonFiniteError(ValueError):
    """A vector holds a NaN or infinite element; `row` is the first such vector."""

    def __init__(self, row: int) -> None:
        super().__init__(f"non-finite element in vector {row}")
        self.row = row


@dataclass
class VectorDataset:
    """A collection of finite float32 vectors with implicit node ids 0..n-1;
    a NaN or infinite element raises NonFiniteError.

    Immutable by convention after construction; safe to share across
    concurrent query workers.
    """

    vectors: np.ndarray  # (n, dim) float32, C-contiguous

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.vectors, dtype=np.float32)
        if arr.ndim != 2:
            raise ValueError(f"vectors must be a 2-d array, got ndim={arr.ndim}")
        if arr.shape[0] < 1:
            raise ValueError("dataset must contain at least one vector")
        if arr.shape[1] < 1:
            raise ValueError("vector dimensionality must be positive")
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
        if bad.size:
            raise NonFiniteError(int(bad[0]))
        self.vectors = arr

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


_ELEM = {"fvecs": "<f4", "ivecs": "<i4"}  # element type after each int32 length


def _read_vecs(path: str | Path, kind: str) -> np.ndarray:
    """Read an fvecs or ivecs file into an (n, dim) array: per record a
    little-endian int32 dim then dim elements.

    Raises FormatError naming the byte offset for truncated records and naming
    both dimensions for inconsistent records; an empty file is an error.
    """
    path = Path(path)
    raw = path.read_bytes()
    if not raw:
        raise FormatError(f"{path}: empty {kind} file (no records)")
    dim = struct.unpack_from("<i", raw, 0)[0] if len(raw) >= 4 else 0
    # Fast path: uniform records decode in one shot. Fall back to a scan only
    # to locate the precise offending offset.
    if dim > 0 and len(raw) % (4 + 4 * dim) == 0:
        arr = np.frombuffer(raw, dtype=np.dtype([("d", "<i4"), ("v", _ELEM[kind], (dim,))]))
        if bool(np.all(arr["d"] == dim)):
            return arr["v"].copy()
    _scan_for_error(path, raw, dim)
    raise FormatError(f"{path}: malformed {kind} file")  # pragma: no cover


def _scan_for_error(path: Path, raw: bytes, dim: int) -> None:
    """Walk records one by one and raise a FormatError at the first defect."""
    off = 0
    while off < len(raw):
        if off + 4 > len(raw):
            raise FormatError(f"{path}: truncated record header at byte offset {off}")
        d = struct.unpack_from("<i", raw, off)[0]
        if d <= 0:
            raise FormatError(f"{path}: invalid dimension {d} at byte offset {off}")
        if d != dim:
            raise FormatError(
                f"{path}: inconsistent dimensions at byte offset {off}: "
                f"record declares {d}, expected {dim}"
            )
        if off + 4 + 4 * d > len(raw):
            raise FormatError(f"{path}: truncated record at byte offset {off}")
        off += 4 + 4 * d


def _write_vecs(path: str | Path, rows: np.ndarray, kind: str) -> None:
    """Write an (n, dim) array as fvecs or ivecs records, little-endian throughout."""
    arr = np.asarray(rows, dtype=_ELEM[kind])
    if arr.ndim != 2:
        raise ValueError(f"{kind} rows must be a 2-d array")
    n, dim = arr.shape
    out = np.empty(n, dtype=np.dtype([("d", "<i4"), ("v", _ELEM[kind], (dim,))]))
    out["d"] = dim
    out["v"] = arr
    Path(path).write_bytes(out.tobytes())


def load_fvecs(path: str | Path) -> VectorDataset:
    """Read an fvecs file (float32 elements) as a dataset; a NaN or infinite
    element is a FormatError naming the first record that holds one."""
    vectors = _read_vecs(path, "fvecs")
    try:
        return VectorDataset(vectors)
    except NonFiniteError as exc:
        offset = exc.row * (4 + 4 * vectors.shape[1])
        raise FormatError(
            f"{path}: non-finite element in record {exc.row} at byte offset {offset}"
        ) from None


def write_fvecs(path: str | Path, vectors: np.ndarray) -> None:
    """Write vectors (n, dim) as an fvecs file."""
    _write_vecs(path, vectors, "fvecs")


def load_ivecs(path: str | Path) -> np.ndarray:
    """Read an ivecs file into an (n, k) int32 array."""
    return _read_vecs(path, "ivecs")


def write_ivecs(path: str | Path, ids: np.ndarray) -> None:
    """Write an (n, k) integer array as an ivecs file."""
    _write_vecs(path, ids, "ivecs")


def nearest_center(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest center, ties to the lowest index, and its squared
    distance: (n,) int64 ids and (n,) float64.

    A squared distance is ‖p‖² − 2·p·cᵀ + ‖c‖² in float64, computed as
    p·(−2·cᵀ) + ‖p‖² + ‖c‖² in place; scaling by −2 is exact, so the sums are
    those of the written order bit for bit. The points are cast and scored in
    row chunks whose temporaries hold at most CHUNK_ENTRIES entries, so memory
    does not grow with n·c.
    """
    cents = np.asarray(centers, dtype=np.float64)
    cents_sq = np.einsum("ij,ij->i", cents, cents)
    scaled_t = -2.0 * cents.T
    n = points.shape[0]
    ids = np.empty(n, dtype=np.int64)
    d2 = np.empty(n, dtype=np.float64)
    step = max(1, CHUNK_ENTRIES // max(cents.shape))
    for lo in range(0, n, step):
        p = np.asarray(points[lo:lo + step], dtype=np.float64)
        d = p @ scaled_t
        d += np.einsum("ij,ij->i", p, p)[:, None]
        d += cents_sq
        best = np.argmin(d, axis=1)
        ids[lo:lo + step], d2[lo:lo + step] = best, d[np.arange(best.size), best]
    return ids, d2


def ground_truth_batch(dataset: VectorDataset, queries: np.ndarray, k: int) -> np.ndarray:
    """Exact top-k for a (Q, dim) query array: (Q, k) int64 ids, ascending by
    L2 distance, ties to the lower id.

    This is the brute-force oracle: every vector is scanned. The base is cast
    to float64 once per call, and each query's squared distances sum the
    float64 differences.
    """
    qs = np.asarray(queries, dtype=np.float64)
    if qs.ndim != 2:
        raise ValueError("queries must be a 2-d array")
    if qs.shape[1] != dataset.dim:
        raise ValueError(f"dimension mismatch: query {qs.shape[1]} vs dataset {dataset.dim}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > dataset.n:
        raise ValueError(f"k={k} exceeds dataset size n={dataset.n}")
    base = dataset.vectors.astype(np.float64)
    diff = np.empty_like(base)
    out = np.empty((qs.shape[0], k), dtype=np.int64)
    for i, q in enumerate(qs):
        np.subtract(base, q, out=diff)
        d2 = np.einsum("ij,ij->i", diff, diff)
        # every id within the k-th smallest distance, ascending, so a stable
        # sort of their distances breaks ties by id
        near = np.flatnonzero(d2 <= np.partition(d2, k - 1)[k - 1])
        out[i] = near[np.argsort(d2[near], kind="stable")[:k]]
    return out


def recall_at_k(result: np.ndarray, truth: np.ndarray) -> float:
    """|result ∩ truth| / k for two id lists of equal length k."""
    result = np.asarray(result).ravel()
    truth = np.asarray(truth).ravel()
    if result.shape[0] != truth.shape[0]:
        raise ValueError(
            f"result and truth must have equal length, got {result.shape[0]} vs {truth.shape[0]}"
        )
    k = truth.shape[0]
    return len(set(result.tolist()) & set(truth.tolist())) / k
