"""Shared fixtures: a 500-point blob corpus with graph, PQ, layouts, and index
files built once per session, plus helpers for handcrafted mini-indices."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from diskvec import diskstore, graphbuild, layout as layoutmod, pqcodec, vecdata
from diskvec.cache import CacheConfig, HybridCache


def make_blobs(
    n: int, dim: int, blobs: int, seed: int, spread: float = 1.0, center_spread: float = 10.0
) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, center_spread, size=(blobs, dim))
    membership = rng.integers(0, blobs, size=n)
    return (centers[membership] + rng.normal(0.0, spread, size=(n, dim))).astype(np.float32)


@dataclass
class SmokeAssets:
    dataset: vecdata.VectorDataset
    graph: graphbuild.GraphIndex
    codebook: pqcodec.PQCodebook
    codes: np.ndarray
    layout_sim: layoutmod.LayoutMap
    layout_ins: layoutmod.LayoutMap
    index_sim: Path
    index_ins: Path
    queries: np.ndarray
    gt10: np.ndarray
    page_size: int

    def reader(self, kind: str = "sim") -> diskstore.IndexReader:
        return diskstore.IndexReader(self.index_sim if kind == "sim" else self.index_ins)

    def layout_for(self, kind: str = "sim") -> layoutmod.LayoutMap:
        return self.layout_sim if kind == "sim" else self.layout_ins

    def cache(
        self,
        reader: diskstore.IndexReader,
        kind: str = "sim",
        budget: int = 0,
        static_frac: float = 0.2,
        policy: str = "LFU",
        seed: int = 0,
    ) -> HybridCache:
        cfg = CacheConfig(budget, static_frac, policy, seed)
        return HybridCache.from_config(cfg, self.graph, reader, self.layout_for(kind))


@pytest.fixture(scope="session")
def smoke(tmp_path_factory) -> SmokeAssets:
    root = tmp_path_factory.mktemp("smoke")
    pts = make_blobs(500, 8, 4, seed=101)
    ds = vecdata.VectorDataset(pts)
    graph = graphbuild.build_graph(ds, R=16, L_build=32, alpha=1.2, seed=5)
    codebook = pqcodec.train(ds, m=2, c=64, seed=6)
    codes = pqcodec.encode_dataset(ds, codebook)
    page_size = 512
    cap = diskstore.page_capacity_for(page_size, ds.dim, graph.R)
    lm_sim = layoutmod.build_similarity_layout(ds, cap, seed=7)
    lm_ins = layoutmod.build_insertion_layout(ds, cap)
    index_sim = root / "index_sim.bin"
    index_ins = root / "index_ins.bin"
    diskstore.write_index(ds, graph, lm_sim, index_sim, page_size=page_size, layout_kind="similarity")
    diskstore.write_index(ds, graph, lm_ins, index_ins, page_size=page_size, layout_kind="insertion-order")
    queries = make_blobs(50, 8, 4, seed=202)
    gt10 = vecdata.ground_truth_batch(ds, queries, 10)
    return SmokeAssets(
        dataset=ds,
        graph=graph,
        codebook=codebook,
        codes=codes,
        layout_sim=lm_sim,
        layout_ins=lm_ins,
        index_sim=index_sim,
        index_ins=index_ins,
        queries=queries,
        gt10=gt10,
        page_size=page_size,
    )


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
