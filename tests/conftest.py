"""Shared fixtures: a 500-point blob corpus with graph, PQ, layouts, and index
files built once per session."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from diskvec import diskstore, graphbuild, layout as layoutmod, pqcodec, vecdata
from diskvec.cache import CacheConfig, HybridCache

from builders import make_blobs

# `pytest --hypothesis-profile=fuzz -k corrupt` runs the file fuzzers at length
settings.register_profile("fuzz", max_examples=2000, deadline=None)


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

    def index(self, kind: str = "sim") -> diskstore.Index:
        """The index of one layout kind over the shared PQ, with a fresh
        reader."""
        sim = kind == "sim"
        reader = diskstore.IndexReader(self.index_sim if sim else self.index_ins)
        lm = self.layout_sim if sim else self.layout_ins
        return diskstore.Index(reader, lm, self.codebook, self.codes)

    @staticmethod
    def cache(
        index: diskstore.Index, budget: int = 0, static_frac: float = 0.2, policy: str = "LFU"
    ) -> HybridCache:
        return HybridCache.from_config(CacheConfig(budget, static_frac, policy), index)


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
