"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The shared 10k-point blob corpus and its artifacts are built once per
session through the CLI.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from diskvec import layout as layoutmod, pqcodec, vecdata
from diskvec.cache import CacheConfig, DynamicCache, HybridCache, auto_budget_nodes
from diskvec.cli import is_timing_key, main, parse_report
from diskvec.diskstore import GRAPH_FILE, PQ_FILE, DiskPage, Index
from diskvec.graphbuild import load_graph
from diskvec.layout import compute_read_interval, mean_intra_page_distance, pack_pages
from diskvec.search import SearchParams, run_workload

K = 10
L = 100
SEED = 42


def _ok(num: int, message: str) -> None:
    print(f"[acceptance] criterion {num:2d} PASS: {message}")


@dataclass
class Corpus:
    root: Path
    base: Path
    queries: Path
    gt: Path
    index_dirs: dict[str, Path]  # by layout kind, "sim" or "ins"
    dataset: vecdata.VectorDataset
    query_vecs: np.ndarray
    gt_ids: np.ndarray
    theta: float
    build_seconds: float
    auto_budget: int


@pytest.fixture(scope="session")
def corpus(tmp_path_factory) -> Corpus:
    root = tmp_path_factory.mktemp("accept")
    base = root / "base.fvecs"
    queries = root / "queries.fvecs"
    gt = root / "gt.ivecs"
    idx_sim = root / "idx_sim"
    idx_ins = root / "idx_ins"

    started = time.perf_counter()
    assert main([
        "synth", "--out", str(base), "--n", "10000", "--dim", "16", "--blobs", "8",
        "--seed", str(SEED), "--queries", "200", "--queries-out", str(queries),
    ]) == 0
    # pq-m 8 keeps quantization error well under the intra-blob neighbor
    # distances at dim=16; the dim/8 default is tuned for 128-dim corpora
    assert main([
        "build", "--dataset", str(base), "--out-dir", str(idx_sim),
        "--r", "32", "--l-build", "64", "--alpha", "1.2", "--seed", "7",
        "--pq-m", "8",
    ]) == 0
    idx_ins.mkdir()
    shutil.copy(idx_sim / GRAPH_FILE, idx_ins / GRAPH_FILE)
    shutil.copy(idx_sim / PQ_FILE, idx_ins / PQ_FILE)
    assert main([
        "layout", "--index-dir", str(idx_sim), "--dataset", str(base),
        "--kind", "similarity", "--page-size", "4096", "--seed", "13",
    ]) == 0
    assert main([
        "layout", "--index-dir", str(idx_ins), "--dataset", str(base),
        "--kind", "insertion", "--page-size", "4096", "--seed", "13",
    ]) == 0
    assert main([
        "gt", "--dataset", str(base), "--queries", str(queries), "--k", str(K),
        "--out", str(gt),
    ]) == 0
    assert main([
        "calibrate", "--index-dir", str(idx_sim), "--dataset", str(base),
        "--k", str(K), "--l", str(L), "--fraction", "0.01", "--seed", "21",
    ]) == 0
    build_seconds = time.perf_counter() - started

    dataset = vecdata.load_fvecs(base)
    query_vecs = vecdata.load_fvecs(queries).vectors
    gt_ids = vecdata.load_ivecs(gt).astype(np.int64)
    theta = float(parse_report(idx_sim / "theta.txt")["theta"])
    with Index.open(idx_sim) as index:
        auto_budget = auto_budget_nodes(index.reader)
    return Corpus(
        root=root, base=base, queries=queries, gt=gt, index_dirs={"sim": idx_sim, "ins": idx_ins},
        dataset=dataset, query_vecs=query_vecs, gt_ids=gt_ids, theta=theta,
        build_seconds=build_seconds, auto_budget=auto_budget,
    )


def _workload(corpus: Corpus, kind: str, budget: int, static_frac: float,
              queries: np.ndarray, gt: np.ndarray | None, theta: float | None = None,
              policy: str = "LFU"):
    with Index.open(corpus.index_dirs[kind]) as index:
        cache = HybridCache.from_config(CacheConfig(budget, static_frac, policy), index)
        params = SearchParams(
            k=K, l=L, beam_width=4,
            theta=theta if theta is not None else corpus.theta, window_pages=2,
        )
        return run_workload(queries, params, index, cache, gt=gt)


def test_auto_budget_floor_leaves_the_corpus_budget(corpus):
    # the 1% budget already holds a window of dynamic pages here, so the
    # budgets of criteria 01, 02 and 08 are the plain 1% of index.bin
    with Index.open(corpus.index_dirs["sim"]) as index:
        assert auto_budget_nodes(index.reader, 0.2, 2) == corpus.auto_budget


def test_criterion_01_oracle_recall_floor(corpus):
    started = time.perf_counter()
    report = _workload(
        corpus, "sim", corpus.auto_budget, 0.2, corpus.query_vecs, corpus.gt_ids
    )
    elapsed = time.perf_counter() - started
    total = corpus.build_seconds + elapsed
    assert report.recall_at_k is not None
    assert report.recall_at_k >= 0.95, f"mean recall@10 {report.recall_at_k:.4f} < 0.95"
    assert total < 120.0, f"pipeline + workload took {total:.1f}s (budget 120s)"
    _ok(1, f"mean recall@10 = {report.recall_at_k:.4f} over 200 queries "
           f"(pipeline {corpus.build_seconds:.1f}s + workload {elapsed:.1f}s)")


def test_criterion_02_cache_transparency(corpus):
    queries = corpus.query_vecs[:100]
    budget = corpus.auto_budget
    none = _workload(corpus, "sim", 0, 0.0, queries, None)
    static_only = _workload(corpus, "sim", budget, 1.0, queries, None)
    hybrid = _workload(corpus, "sim", budget, 0.2, queries, None)
    assert none.results == static_only.results == hybrid.results
    _ok(2, "identical id lists for 100 queries under none / static-only / hybrid caches")


# budget for the layout/cache comparison: 5% of the nodes. At this desk scale
# the 1%-of-file default degenerates to a 6-page dynamic cache, below even one
# beam iteration's admissions; 5% (about 33 pages, 4% of the file's pages)
# restores a cache that can hold one query's refinement-phase footprint while
# staying far below the index size. FIFO keeps batch-read pages alive for the
# rest of the query instead of letting earlier queries' counts squat.
COMPARE_BUDGET = 500
COMPARE_POLICY = "FIFO"


def test_criterion_03_io_reduction(corpus):
    started = time.perf_counter()
    optimized = _workload(
        corpus, "sim", COMPARE_BUDGET, 0.2, corpus.query_vecs, corpus.gt_ids,
        policy=COMPARE_POLICY,
    )
    baseline = _workload(
        corpus, "ins", COMPARE_BUDGET, 1.0, corpus.query_vecs, corpus.gt_ids,
        policy=COMPARE_POLICY,
    )
    elapsed = time.perf_counter() - started
    assert optimized.recall_at_k is not None and optimized.recall_at_k >= 0.90
    assert baseline.recall_at_k is not None and baseline.recall_at_k >= 0.90
    reduction = 1.0 - optimized.mean_io_ops / baseline.mean_io_ops
    assert reduction >= 0.25, (
        f"I/O reduction {reduction:.1%} < 25% "
        f"(optimized {optimized.mean_io_ops:.1f} vs baseline {baseline.mean_io_ops:.1f})"
    )
    assert elapsed < 300.0, f"criterion took {elapsed:.1f}s (budget 300s)"
    _ok(3, f"mean io_ops {optimized.mean_io_ops:.1f} vs {baseline.mean_io_ops:.1f} "
           f"(reduction {reduction:.1%} at recall "
           f"{optimized.recall_at_k:.3f}/{baseline.recall_at_k:.3f})")


def test_criterion_04_phase2_hit_rate_separation(corpus):
    hybrid = _workload(
        corpus, "sim", COMPARE_BUDGET, 0.2, corpus.query_vecs, None,
        policy=COMPARE_POLICY,
    )
    static_only = _workload(
        corpus, "ins", COMPARE_BUDGET, 1.0, corpus.query_vecs, None,
        policy=COMPARE_POLICY,
    )
    assert hybrid.hit_rate_phase2 > static_only.hit_rate_phase2
    _ok(4, f"phase-2 hit rate hybrid {hybrid.hit_rate_phase2:.3f} > "
           f"static-only {static_only.hit_rate_phase2:.3f}")


def test_criterion_05_read_interval_cases(corpus):
    def fig_layout(orders, capacity=3):
        arrays = [np.array(o, dtype=np.int64) for o in orders]
        return pack_pages(np.arange(len(arrays)), arrays, capacity)

    # case 1: the target's cluster spans the window; stay inside it
    lm = fig_layout([[0, 1, 3], [2, 5, 9, 4], [6, 7, 8]])
    iv = compute_read_interval(5, 2, lm)
    assert (iv.start_page, iv.page_count) == (1, 2)
    window_nodes = set(lm.nodes_on_page(1).tolist()) | set(lm.nodes_on_page(2).tolist())
    assert {2, 5, 9, 4} <= window_nodes
    c = lm.cluster_of(5)
    assert iv.start_page >= lm.cluster_first_page[c]
    assert iv.end_page <= lm.cluster_first_page[c] + lm.cluster_page_count[c] - 1

    # case 2: a small cluster spills into the adjacent cluster's page
    lm = fig_layout([[0, 1, 3], [6, 7, 4], [5, 9], [8, 2]])
    iv = compute_read_interval(5, 2, lm)
    assert (iv.start_page, iv.page_count) == (1, 2)
    assert lm.page_of(4) in iv.pages()

    # case 3: the window clamps at the file start, size preserved
    lm = fig_layout([[5, 9], [0, 1, 3], [6, 7, 4], [8, 2]])
    iv = compute_read_interval(5, 2, lm)
    assert (iv.start_page, iv.page_count) == (0, 2)
    _ok(5, "read-interval cases: in-cluster window, adjacent-cluster spill, boundary clamp")


def test_criterion_06_packing_defers_peripheral_member(corpus):
    coords = np.zeros((10, 2), dtype=np.float32)
    coords[2] = (0.0, 0.1)
    coords[5] = (0.1, 0.0)
    coords[9] = (-0.1, 0.0)
    coords[4] = (3.0, 3.0)
    ds = vecdata.VectorDataset(coords)
    members = np.array([2, 4, 5, 9])
    centroid = coords[members].mean(axis=0)
    order = layoutmod.order_within_cluster(members, centroid, ds)
    assert order[-1] == 4  # the centroid-farthest member comes last
    rest = np.array([i for i in range(10) if i not in members.tolist()], dtype=np.int64)
    lm = pack_pages(np.array([0, 1]), [order, rest], 3)
    assert set(lm.nodes_on_page(0).tolist()) == {2, 5, 9}
    assert lm.nodes_on_page(1)[0] == 4
    _ok(6, "cluster {2,4,5,9} at capacity 3 defers the centroid-farthest member (4)")


def test_criterion_07_replacement_policy_semantics(corpus):
    def page(pid: int) -> DiskPage:
        return DiskPage(page_id=pid, slots=np.empty(0))

    # FIFO: oldest out, re-admission ignored
    dc = DynamicCache(2, policy="FIFO")
    dc.admit(page(1)); dc.admit(page(2)); dc.admit(page(1))
    assert dc.admit(page(3)) == [1]

    # LFU: min count wins, insertion age breaks ties
    dc = DynamicCache(2, policy="LFU")
    dc.admit(page(1)); dc.admit(page(2))
    dc.touch(1); dc.touch(1); dc.touch(1)
    assert dc.admit(page(3)) == [2]
    dc = DynamicCache(3, policy="LFU")
    dc.admit(page(1)); dc.admit(page(2)); dc.admit(page(3))
    dc.touch(1)
    assert dc.evict_candidate() == 2  # counts {1:1, 2:0, 3:0}; 2 is older

    # RANDOM: seeded and reproducible
    def random_run():
        dc = DynamicCache(2, policy="RANDOM", seed=123)
        out = []
        for pid in range(10):
            out.extend(dc.admit(page(pid)))
        return out
    assert random_run() == random_run()

    # 1000 random traces: capacity bound + LFU minimality at eviction time
    rng = np.random.default_rng(7)
    for trial in range(1000):
        cap = int(rng.integers(1, 6))
        dc = DynamicCache(cap, policy="LFU", seed=trial)
        counts: dict[int, int] = {}
        for _ in range(25):
            if dc.pages and rng.random() < 0.4:
                resident = sorted(dc.pages)
                pid = int(resident[rng.integers(0, len(resident))])
                dc.touch(pid)
                counts[pid] += 1
            else:
                pid = int(rng.integers(0, 12))
                before = dict(counts)
                counts[pid] = counts[pid] + 1 if pid in dc.pages else 0
                for ev in dc.admit(page(pid)):
                    ref = before if ev != pid else counts
                    assert all(ref.get(ev, 0) <= counts[p] for p in dc.pages)
                    del counts[ev]
            assert len(dc.pages) <= cap
    _ok(7, "LFU / FIFO / seeded-RANDOM semantics plus 1000-trace capacity and "
           "LFU-minimality invariants")


def test_criterion_08_theta_rule_dominance(corpus):
    report = _workload(
        corpus, "sim", corpus.auto_budget, 0.2, corpus.query_vecs, corpus.gt_ids
    )
    for qi, st in enumerate(report.stats):
        assert st.transition_iter_theta <= st.transition_iter_panns, f"query {qi}"
    assert report.mean_transition_iter_theta < report.mean_transition_iter_panns, (
        f"calibrated theta={corpus.theta:.3f} gave mean transition "
        f"{report.mean_transition_iter_theta:.2f} !< {report.mean_transition_iter_panns:.2f}"
    )
    _ok(8, f"theta rule (theta={corpus.theta:.3f}) fires at mean iteration "
           f"{report.mean_transition_iter_theta:.2f} vs baseline "
           f"{report.mean_transition_iter_panns:.2f}, "
           f"never later on any query")


def test_criterion_09_pq_saturation_oracle(corpus):
    rng = np.random.default_rng(77)
    pts = rng.normal(size=(256, 16)).astype(np.float32)
    ds = vecdata.VectorDataset(pts)
    cb = pqcodec.train(ds, m=1, c=256, seed=5)
    codes = pqcodec.encode_dataset(ds, cb)
    worst = 0.0
    for qi in range(256):
        table = pqcodec.build_distance_table(pts[qi], cb)
        approx = pqcodec.pq_distance_batch(table, codes)
        exact = np.sqrt(
            ((pts.astype(np.float64) - pts[qi].astype(np.float64)) ** 2).sum(axis=1)
        )
        worst = max(worst, float(np.abs(approx - exact).max()))
    assert worst <= 1e-4, f"saturated PQ error {worst:.2e} > 1e-4"
    _ok(9, f"saturated m=1,c=256 codebook: max |pq - l2| = {worst:.2e} over all pairs")


def test_criterion_10_layout_locality(corpus):
    with Index.open(corpus.index_dirs["sim"]) as sim, Index.open(corpus.index_dirs["ins"]) as ins:
        lm_sim, lm_ins = sim.layout, ins.layout
    sim_val = mean_intra_page_distance(corpus.dataset, lm_sim)
    ins_val = mean_intra_page_distance(corpus.dataset, lm_ins)
    assert lm_sim.k_clusters > 1
    assert sim_val < ins_val, f"{sim_val:.4f} !< {ins_val:.4f}"
    _ok(10, f"mean intra-page distance {sim_val:.3f} (similarity) < {ins_val:.3f} (insertion)")


def test_criterion_11_round_trip_integrity(corpus):
    for kind in ("sim", "ins"):
        graph = load_graph(corpus.index_dirs[kind] / GRAPH_FILE)
        with Index.open(corpus.index_dirs[kind]) as index:
            for node in range(corpus.dataset.n):
                vec, adj = index.reader.read_node(node, index.layout)
                assert vec.tobytes() == corpus.dataset.vectors[node].tobytes()
                assert np.array_equal(adj, graph.adjacency[node])
    _ok(11, "bit-exact vector and adjacency round trip under both layout kinds")


def test_criterion_12_pipeline_determinism(corpus, tmp_path):
    artifacts = [
        "base.fvecs", "queries.fvecs", "gt.ivecs",
        "idx/graph.bin", "idx/pq.bin", "idx/index.bin", "idx/layout.bin",
        "idx/theta.txt", "idx/build_meta.txt", "report.txt", "results.txt",
    ]

    def pipeline(run_dir: Path) -> None:
        run_dir.mkdir()
        cwd = os.getcwd()
        os.chdir(run_dir)  # relative paths keep the reports byte-comparable
        try:
            assert main(["synth", "--out", "base.fvecs", "--n", "2000", "--dim", "16",
                         "--blobs", "8", "--seed", "42", "--queries", "50",
                         "--queries-out", "queries.fvecs"]) == 0
            assert main(["build", "--dataset", "base.fvecs", "--out-dir", "idx",
                         "--r", "32", "--l-build", "64", "--seed", "7"]) == 0
            assert main(["layout", "--index-dir", "idx", "--dataset", "base.fvecs",
                         "--kind", "similarity", "--seed", "13"]) == 0
            assert main(["gt", "--dataset", "base.fvecs", "--queries", "queries.fvecs",
                         "--k", "10", "--out", "gt.ivecs"]) == 0
            assert main(["calibrate", "--index-dir", "idx", "--dataset", "base.fvecs",
                         "--k", "10", "--l", "100", "--fraction", "0.01",
                         "--seed", "21"]) == 0
            assert main(["bench", "--index-dir", "idx", "--queries", "queries.fvecs",
                         "--gt", "gt.ivecs", "--k", "10", "--l", "100",
                         "--workers", "1", "--out", "report.txt",
                         "--results-out", "results.txt"]) == 0
        finally:
            os.chdir(cwd)

    pipeline(tmp_path / "run1")
    pipeline(tmp_path / "run2")
    for rel in artifacts:
        if rel == "report.txt":
            continue
        a = (tmp_path / "run1" / rel).read_bytes()
        b = (tmp_path / "run2" / rel).read_bytes()
        assert a == b, f"artifact {rel} differs between identically-seeded runs"
    ra = parse_report(tmp_path / "run1" / "report.txt")
    rb = parse_report(tmp_path / "run2" / "report.txt")
    assert set(ra) == set(rb)
    for key in ra:
        if is_timing_key(key):
            continue
        assert ra[key] == rb[key], f"report field {key} differs: {ra[key]} vs {rb[key]}"
    _ok(12, "byte-identical artifacts and non-timing report fields across two seeded runs")
