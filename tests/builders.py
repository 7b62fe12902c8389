"""Builders for test inputs: blob point clouds and handcrafted mini-indices.

A plain module rather than part of conftest.py, so that test files can import
it while another directory's conftest is loaded in the same session.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable

import numpy as np
from hypothesis import strategies as st

from diskvec import diskstore, graphbuild, layout as layoutmod, pqcodec, vecdata


def make_blobs(
    n: int, dim: int, blobs: int, seed: int, spread: float = 1.0, center_spread: float = 10.0
) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, center_spread, size=(blobs, dim))
    membership = rng.integers(0, blobs, size=n)
    return (centers[membership] + rng.normal(0.0, spread, size=(n, dim))).astype(np.float32)


def l2_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance with double-precision accumulation: the oracle that
    PQ and ground-truth distances are checked against."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    d = a - b
    return float(np.sqrt(np.dot(d, d)))


def decode(code: np.ndarray, codebook: pqcodec.PQCodebook) -> np.ndarray:
    """Reconstruct the centroid concatenation for one code: the oracle that PQ
    distances are checked against."""
    code = np.asarray(code).ravel()
    if code.shape[0] != codebook.m:
        raise ValueError(f"code length {code.shape[0]} != m={codebook.m}")
    return np.concatenate(
        [codebook.centroids[j, int(code[j])] for j in range(codebook.m)]
    )


def ground_truth_topk(dataset: vecdata.VectorDataset, q: np.ndarray, k: int) -> np.ndarray:
    """Exact k nearest node ids of one float64 query; see
    vecdata.ground_truth_batch."""
    queries = np.asarray(q, dtype=np.float64).reshape(1, -1)
    return vecdata.ground_truth_batch(dataset, queries, k)[0]


def write_custom_index(
    tmp_path: Path,
    vectors: np.ndarray,
    adjacency: list[list[int]],
    entry: int,
    R: int,
    page_size: int = 256,
):
    """Assemble an index from explicit vectors/edges (insertion layout)."""
    ds = vecdata.VectorDataset(np.asarray(vectors, dtype=np.float32))
    graph = graphbuild.GraphIndex(
        adjacency=[np.array(a, dtype=np.int64) for a in adjacency], entry_id=entry, R=R
    )
    cap = diskstore.page_capacity_for(page_size, ds.dim, R)
    lm = layoutmod.build_insertion_layout(ds, cap)
    path = tmp_path / "custom_index.bin"
    diskstore.write_index(ds, graph, lm, path, page_size=page_size, layout_kind="insertion-order")
    codebook = pqcodec.train(ds, m=1, c=ds.n, seed=0)
    codes = pqcodec.encode_dataset(ds, codebook)
    return ds, graph, lm, path, codebook, codes


def edit_index_header(path: Path, edit: Callable[[dict], None]) -> None:
    """Rewrite the header of the index.bin at path through edit, which changes
    a dict of its stored fields: the magic, then IndexHeader's stored fields,
    in the order they are packed."""
    names = ["magic"] + [f.name for f in dataclasses.fields(diskstore.IndexHeader) if f.init]
    raw = bytearray(path.read_bytes())
    fields = dict(zip(names, diskstore._INDEX_HEADER.unpack_from(raw), strict=True))
    edit(fields)
    diskstore._INDEX_HEADER.pack_into(raw, 0, *(fields[name] for name in names))
    path.write_bytes(raw)


def mutate(data: st.DataObject, raw: bytearray, header_size: int) -> bytearray:
    """Truncate raw, flip one of its bits or overwrite a few of its bytes, as
    drawn from data; half the mutations start inside its first header_size
    bytes."""
    end = header_size if data.draw(st.booleans(), label="in header") else len(raw)
    pos = data.draw(st.integers(0, end - 1), label="position")
    how = data.draw(st.sampled_from(["truncate", "flip", "overwrite"]), label="corruption")
    if how == "truncate":
        del raw[pos:]
    elif how == "flip":
        raw[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    else:
        chunk = data.draw(st.binary(min_size=1, max_size=16), label="bytes")
        raw[pos : pos + len(chunk)] = chunk[: len(raw) - pos]
    return raw
