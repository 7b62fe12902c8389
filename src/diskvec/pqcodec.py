"""Product quantization: codebook training, encoding, and asymmetric distance
tables. PQ distances order the search candidate queue; exact distances are
only computed for expanded nodes.

Codes for every node stay memory-resident so neighbors can be queued before
their pages are ever read.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError
from .layout import lloyd_cluster
from .vecdata import VectorDataset

PQ_MAGIC = b"GOVP1"
_PQ_HEADER = struct.Struct("<5sIIIIQ")  # magic, m, c, sub_dim, trained_dim, n_codes


@dataclass
class PQCodebook:
    """Per-subspace centroid tables; immutable after training."""

    centroids: np.ndarray  # (m, c, sub_dim) float32

    @property
    def m(self) -> int:
        return self.centroids.shape[0]

    @property
    def c(self) -> int:
        return self.centroids.shape[1]

    @property
    def sub_dim(self) -> int:
        return self.centroids.shape[2]

    @property
    def trained_dim(self) -> int:
        return self.m * self.sub_dim


def default_subspace_count(dim: int) -> int:
    """Largest divisor of dim not exceeding dim/8 (at least 1)."""
    target = max(1, dim // 8)
    for m in range(target, 0, -1):
        if dim % m == 0:
            return m
    return 1


def train(
    dataset: VectorDataset, m: int, c: int, seed: int = 0, iters: int = 25
) -> PQCodebook:
    """Train per-subspace codebooks with the shared Lloyd's implementation.

    Deterministic for a fixed seed (subspace j uses seed + j).
    """
    if m < 1 or dataset.dim % m != 0:
        raise ValueError(f"m={m} must divide the dataset dimension {dataset.dim}")
    if c < 1 or c > 256:
        raise ValueError(f"c must be in [1, 256], got {c}")
    if c > dataset.n:
        raise ValueError(f"c={c} exceeds dataset size n={dataset.n}")
    sub = dataset.dim // m
    centroids = np.empty((m, c, sub), dtype=np.float32)
    for j in range(m):
        block = dataset.vectors[:, j * sub : (j + 1) * sub]
        centers, _, _ = lloyd_cluster(block, c, max_iters=iters, seed=seed + j)
        centroids[j] = centers.astype(np.float32)
    return PQCodebook(centroids=centroids)


def encode(vector: np.ndarray, codebook: PQCodebook) -> np.ndarray:
    """Quantize one vector to m byte codes (nearest centroid per subspace,
    ties to the lowest index)."""
    v = np.asarray(vector, dtype=np.float32).ravel()
    if v.shape[0] != codebook.trained_dim:
        raise ValueError(
            f"vector length {v.shape[0]} != trained dimension {codebook.trained_dim}"
        )
    return encode_batch(v[None, :], codebook)[0]


def encode_batch(vectors: np.ndarray, codebook: PQCodebook) -> np.ndarray:
    """Quantize (n, dim) vectors to (n, m) uint8 codes."""
    arr = np.asarray(vectors, dtype=np.float32)
    if arr.ndim != 2 or arr.shape[1] != codebook.trained_dim:
        raise ValueError(
            f"vectors must be (n, {codebook.trained_dim}), got {arr.shape}"
        )
    m, sub = codebook.m, codebook.sub_dim
    codes = np.empty((arr.shape[0], m), dtype=np.uint8)
    for j in range(m):
        block = arr[:, j * sub : (j + 1) * sub].astype(np.float64)
        cents = codebook.centroids[j].astype(np.float64)
        d2 = (
            np.einsum("ij,ij->i", block, block)[:, None]
            - 2.0 * block @ cents.T
            + np.einsum("ij,ij->i", cents, cents)
        )
        codes[:, j] = np.argmin(d2, axis=1).astype(np.uint8)
    return codes


def encode_dataset(dataset: VectorDataset, codebook: PQCodebook) -> np.ndarray:
    return encode_batch(dataset.vectors, codebook)


def decode(code: np.ndarray, codebook: PQCodebook) -> np.ndarray:
    """Reconstruct the centroid concatenation for one code."""
    code = np.asarray(code).ravel()
    if code.shape[0] != codebook.m:
        raise ValueError(f"code length {code.shape[0]} != m={codebook.m}")
    return np.concatenate(
        [codebook.centroids[j, int(code[j])] for j in range(codebook.m)]
    )


def build_distance_table(q: np.ndarray, codebook: PQCodebook) -> np.ndarray:
    """(m, c) table of squared sub-distances from the query's sub-vectors to
    every centroid."""
    qv = np.asarray(q, dtype=np.float64).ravel()
    if qv.shape[0] != codebook.trained_dim:
        raise ValueError(
            f"query length {qv.shape[0]} != trained dimension {codebook.trained_dim}"
        )
    m, sub = codebook.m, codebook.sub_dim
    table = np.empty((m, codebook.c), dtype=np.float64)
    for j in range(m):
        diff = codebook.centroids[j].astype(np.float64) - qv[j * sub : (j + 1) * sub]
        table[j] = np.einsum("ij,ij->i", diff, diff)
    return table


def pq_distance(table: np.ndarray, code: np.ndarray) -> float:
    """Asymmetric PQ distance: sqrt of the summed table entries for one code."""
    code = np.asarray(code).ravel()
    return float(np.sqrt(table[np.arange(table.shape[0]), code].sum()))


def pq_distance_batch(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Asymmetric PQ distance for (B, m) codes; returns (B,) float64."""
    codes = np.asarray(codes)
    vals = table[np.arange(table.shape[0])[None, :], codes]
    return np.sqrt(vals.sum(axis=1))


def save_pq(path: str | Path, codebook: PQCodebook, codes: np.ndarray) -> None:
    """Persist codebook + per-node codes as one sidecar file."""
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    header = _PQ_HEADER.pack(
        PQ_MAGIC,
        codebook.m,
        codebook.c,
        codebook.sub_dim,
        codebook.trained_dim,
        codes.shape[0],
    )
    body = codebook.centroids.astype("<f4").tobytes() + codes.tobytes()
    Path(path).write_bytes(header + body)


def load_pq(path: str | Path) -> tuple[PQCodebook, np.ndarray]:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _PQ_HEADER.size:
        raise FormatError(f"{path}: PQ sidecar shorter than header")
    magic, m, c, sub_dim, trained_dim, n_codes = _PQ_HEADER.unpack_from(raw, 0)
    if magic != PQ_MAGIC:
        raise FormatError(f"{path}: bad PQ magic {magic!r}")
    if trained_dim != m * sub_dim:
        raise FormatError(f"{path}: inconsistent PQ header dims")
    off = _PQ_HEADER.size
    cent_bytes = 4 * m * c * sub_dim
    expected = off + cent_bytes + n_codes * m
    if len(raw) != expected:
        raise FormatError(f"{path}: PQ sidecar size {len(raw)} != expected {expected}")
    centroids = (
        np.frombuffer(raw, dtype="<f4", count=m * c * sub_dim, offset=off)
        .reshape(m, c, sub_dim)
        .copy()
    )
    codes = (
        np.frombuffer(raw, dtype=np.uint8, count=n_codes * m, offset=off + cent_bytes)
        .reshape(n_codes, m)
        .copy()
    )
    if int(codes.max(initial=0)) >= c:
        raise FormatError(f"{path}: a PQ code is outside the codebook's [0, {c})")
    return PQCodebook(centroids=centroids), codes
