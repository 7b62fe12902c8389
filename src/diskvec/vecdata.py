"""Vector dataset handling: fvecs/ivecs IO, exact distances, ground truth, recall.

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


@dataclass
class VectorDataset:
    """A collection of float32 vectors with implicit node ids 0..n-1.

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
    """Read an fvecs file (float32 elements) as a dataset."""
    return VectorDataset(_read_vecs(path, "fvecs"))


def write_fvecs(path: str | Path, vectors: np.ndarray) -> None:
    """Write vectors (n, dim) as an fvecs file."""
    _write_vecs(path, vectors, "fvecs")


def load_ivecs(path: str | Path) -> np.ndarray:
    """Read an ivecs file into an (n, k) int32 array."""
    return _read_vecs(path, "ivecs")


def write_ivecs(path: str | Path, ids: np.ndarray) -> None:
    """Write an (n, k) integer array as an ivecs file."""
    _write_vecs(path, ids, "ivecs")


def l2_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance with double-precision accumulation."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    d = a - b
    return float(np.sqrt(np.dot(d, d)))


def squared_distances_to(dataset: VectorDataset, q: np.ndarray) -> np.ndarray:
    """Squared L2 distance from q to every dataset vector, float64, shape (n,)."""
    q = np.asarray(q, dtype=np.float64).ravel()
    if q.shape[0] != dataset.dim:
        raise ValueError(f"dimension mismatch: query {q.shape[0]} vs dataset {dataset.dim}")
    diff = dataset.vectors.astype(np.float64) - q
    return np.einsum("ij,ij->i", diff, diff)


def ground_truth_topk(dataset: VectorDataset, q: np.ndarray, k: int) -> np.ndarray:
    """Exact k nearest node ids by L2 distance, ascending; ties break by lower id.

    This is the brute-force oracle: every vector is scanned.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > dataset.n:
        raise ValueError(f"k={k} exceeds dataset size n={dataset.n}")
    d2 = squared_distances_to(dataset, q)
    ids = np.arange(dataset.n)
    order = np.lexsort((ids, d2))
    return order[:k].astype(np.int64)


def ground_truth_batch(dataset: VectorDataset, queries: np.ndarray, k: int) -> np.ndarray:
    """Exact top-k for a (Q, dim) query array; returns (Q, k) int64 ids."""
    queries = np.asarray(queries, dtype=np.float32)
    if queries.ndim != 2:
        raise ValueError("queries must be a 2-d array")
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for i in range(queries.shape[0]):
        out[i] = ground_truth_topk(dataset, queries[i], k)
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
