"""Workloads of the diskvec benchmark.

Each workload generates its Gaussian-blob inputs from the workload seed, as
`diskvec synth` does, hands the library only arrays, and drives it through
its public functions with one closed-loop client. WORKLOADS.md gives the
reason for each workload and the metric each layer should move.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from diskvec import cache as cachemod
from diskvec import diskstore, graphbuild, pqcodec, search, vecdata
from diskvec import layout as layoutmod
from tracer import BEAM_SEARCH, Tracer

ROOT = Path(__file__).resolve().parents[1]
QPS_BATCH = 50  # queries per throughput sample
MIN_PASSES = 3  # measured passes over the pool at least: each query's best of 3+


@dataclass(frozen=True)
class Workload:
    name: str
    budget_nodes: int  # HybridCache budget in node records, 20% static
    n: int = 4_000
    pool: int = 500  # distinct measured queries, cycled in order; p98 has 10 beyond
    warmup: int = 200  # warm-up queries, a separate sample drawn after the pool
    dim: int = 16
    blobs: int = 8
    R: int = 32
    L_build: int = 64
    alpha: float = 1.2
    pq_c: int = 256
    page_size: int = diskstore.DEFAULT_PAGE_SIZE
    k: int = 10
    l: int = 100
    beam_width: int = 4
    window_pages: int = 2
    calib_fraction: float = 0.01


WORKLOADS = {
    w.name: w
    for w in (
        Workload("query-small-cache", budget_nodes=400),  # 80 static, 26 dynamic pages
        Workload("query-warm-cache", budget_nodes=8_000),  # 1,600 static, 533 pages
    )
}


@dataclass
class Outcome:
    qi: int
    ids: list[int]
    dists: np.ndarray
    counts: dict[str, int] | None  # from SearchStats; see query_counts
    latency_s: float
    done_at: float  # perf_counter when the query returned
    error: str | None = None


@dataclass
class Index:
    reader: diskstore.IndexReader
    graph: graphbuild.GraphIndex
    layout: layoutmod.LayoutMap
    codebook: pqcodec.PQCodebook
    codes: np.ndarray
    path: Path
    stage_s: dict[str, float]


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    record: dict
    tracer: Tracer | None  # the traced run's spans, for the benchmark's tests

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def generate(w: Workload, seed: int) -> tuple[vecdata.VectorDataset, np.ndarray, np.ndarray]:
    """Base vectors, the query pool and the warm-up sample, all drawn around
    the same blob centres as `diskvec synth` draws them."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 10.0, size=(w.blobs, w.dim))

    def sample(count: int) -> np.ndarray:
        members = rng.integers(0, w.blobs, size=count)
        return (centers[members] + rng.normal(0.0, 1.0, size=(count, w.dim))).astype(np.float32)

    base = sample(w.n)
    return vecdata.VectorDataset(base), sample(w.pool), sample(w.warmup)


def _timed(stages: dict[str, float], name: str, fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    stages[name] = time.perf_counter() - start
    return out


def build_index(w: Workload, ds: vecdata.VectorDataset, seed: int, out_dir: Path) -> Index:
    """The `diskvec build` + `diskvec layout` pipeline, with sidecar saves."""
    stages: dict[str, float] = {}
    graph = _timed(stages, "graphbuild.build_graph_s", graphbuild.build_graph,
                   ds, R=w.R, L_build=w.L_build, alpha=w.alpha, seed=seed)
    codebook = _timed(stages, "pqcodec.train_s", pqcodec.train, ds,
                      m=pqcodec.default_subspace_count(ds.dim), c=min(w.pq_c, ds.n), seed=seed)
    codes = _timed(stages, "pqcodec.encode_s", pqcodec.encode_dataset, ds, codebook)
    cap = diskstore.page_capacity_for(w.page_size, ds.dim, w.R)
    layout = _timed(stages, "layout.similarity_layout_s", layoutmod.build_similarity_layout,
                    ds, cap, seed=seed)
    path = out_dir / "index.bin"
    _timed(stages, "diskstore.write_index_s", diskstore.write_index,
           ds, graph, layout, path, page_size=w.page_size, layout_kind="similarity")
    graphbuild.save_graph(out_dir / "graph.bin", graph)
    pqcodec.save_pq(out_dir / "pq.bin", codebook, codes)
    layoutmod.save_layout(out_dir / "layout.bin", layout)
    return Index(diskstore.IndexReader(path), graph, layout, codebook, codes, path, stages)


def index_problems(w: Workload, ds: vecdata.VectorDataset, idx: Index) -> list[str]:
    """Structural checks of a fresh build against the generated dataset."""
    problems = []
    try:
        graphbuild.validate_graph(idx.graph, ds.n)
    except Exception as exc:  # any failure here is a wrong build, reported
        problems.append(f"validate_graph: {exc}")
    h = idx.reader.header
    expected = {
        "n": ds.n,
        "dim": ds.dim,
        "R": w.R,
        "page_size": w.page_size,
        "page_capacity": idx.layout.page_capacity,
        "total_pages": idx.layout.total_pages,
        "entry_id": idx.graph.entry_id,
        "layout_kind": "similarity",
    }
    for key, want in expected.items():
        if getattr(h, key) != want:
            problems.append(f"header {key}={getattr(h, key)!r}, expected {want!r}")
    size = idx.path.stat().st_size
    if size != (h.total_pages + 1) * h.page_size:
        problems.append(f"index.bin is {size} bytes for {h.total_pages} pages")
    return problems


def _search_one(queries, qi, params, idx, hc) -> Outcome:
    start = time.perf_counter()
    try:
        res, st = search.beam_search(
            queries[qi], params, idx.reader, idx.layout, hc, idx.codebook, idx.codes
        )
    except Exception:  # a failed query is counted, and the run goes on
        now = time.perf_counter()
        return Outcome(qi, [], np.empty(0), None, now - start, now, traceback.format_exc())
    now = time.perf_counter()
    return Outcome(qi, [nid for nid, _ in res], np.array([d for _, d in res]),
                   query_counts(st), now - start, now)


def query_counts(st: search.SearchStats) -> dict[str, int]:
    """The per-query record's counts. Outcomes keep these plain numbers, not
    the SearchStats with its per-expansion trace: holding thousands of those
    makes the collector's full passes long enough to show in the tail."""
    counts = {
        "iterations": st.iterations,
        "transition_iter": st.transition_iter_theta,
        "io_ops": st.io_ops,
        "pages_read": st.pages_read,
    }
    for phase in (1, 2):
        hits = st.hits.for_phase(phase)
        counts[f"phase{phase}_static_hits"] = hits.static_hits
        counts[f"phase{phase}_dynamic_hits"] = hits.dynamic_hits
        counts[f"phase{phase}_misses"] = hits.misses
    return counts


def _pass(queries, params, idx, hc) -> list[Outcome]:
    return [_search_one(queries, qi, params, idx, hc) for qi in range(len(queries))]


def check(outcomes: list[Outcome], ds, queries, refs: dict[int, list[int]], k: int) -> int:
    """Number of outcomes that raised, did not return k distinct ids, returned
    a distance other than the exact one, or differ from the uncached search."""
    failed = 0
    for o in outcomes:
        if o.error is not None:
            failed += 1
            continue
        ok = len(o.ids) == k and len(set(o.ids)) == k and o.ids == refs[o.qi]
        if ok:
            diff = ds.vectors[o.ids].astype(np.float64) - queries[o.qi].astype(np.float64)
            exact = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            ok = bool(np.allclose(o.dists, exact, rtol=1e-9, atol=0.0))
        failed += not ok
    return failed


def reference_ids(queries, qids, params, idx) -> dict[int, list[int]]:
    """Uncached searches: by cache transparency, every cached search of the
    same query must return these ids."""
    blank = cachemod.HybridCache({}, 0, idx.layout)
    refs = {}
    for qi in sorted(qids):
        res, _ = search.beam_search(
            queries[qi], params, idx.reader, idx.layout, blank, idx.codebook, idx.codes
        )
        refs[qi] = [nid for nid, _ in res]
    return refs


def git_sha() -> str | None:
    """HEAD of the repository around the benchmark, read from its .git
    directory rather than by running git, which would search parent
    directories; None in a checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(w: Workload, seed: int, seconds: float, trace: bool,
        records: Path | None = None) -> Result:
    """Run one workload; with trace, report the per-layer metrics instead of
    the end-to-end ones."""
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        return _run(w, seed, seconds, trace, records, Path(tmp))


def _run(w, seed, seconds, trace, records, tmp) -> Result:
    # Set up once: the index build dominates set-up and is too long to repeat
    # within the benchmark's time budget.
    layer: dict[str, float] = {}
    start = time.perf_counter()
    ds, pool, warm = generate(w, seed)
    gt = _timed(layer, "vecdata.ground_truth_s", vecdata.ground_truth_batch, ds, pool, w.k)
    idx = build_index(w, ds, seed, tmp)
    cal = _timed(layer, "search.calibrate_s", search.calibrate_theta,
                 ds, idx.reader, idx.layout, idx.codebook, idx.codes, k=w.k, l=w.l,
                 sample_fraction=w.calib_fraction, seed=seed,
                 beam_width=w.beam_width, window_pages=w.window_pages)
    params = search.SearchParams(k=w.k, l=w.l, beam_width=w.beam_width, theta=cal.theta,
                                 window_pages=w.window_pages)
    cfg = cachemod.CacheConfig(w.budget_nodes)
    io_base = idx.reader.stats.snapshot()
    static = _timed(layer, "cache.preload_static_s", cachemod.preload_static,
                    idx.graph, idx.reader, idx.layout, cfg.static_capacity_nodes)
    hc = cachemod.HybridCache(static, cfg.dynamic_capacity_pages(idx.layout.page_capacity),
                              idx.layout, policy=cfg.policy, seed=cfg.seed)
    _pass(warm, params, idx, hc)
    setup_s = time.perf_counter() - start

    problems = index_problems(w, ds, idx)
    timings = None
    try:
        if trace:
            outcomes, first, metrics, tracer = _traced(params, idx, hc, pool, warm)
            metrics.update(_layer_setup_metrics(ds, idx, layer, cal.theta))
        else:
            outcomes, first, metrics, timings = _measured(w, seconds, params, idx, hc, pool,
                                                          warm, io_base)
            tracer = None
            metrics.update({
                "setup_s": (setup_s, "s"),
                "recall_at_10": (_recall(first, gt, w.k), "ratio"),
                "index_bytes_per_vector_byte": (
                    idx.path.stat().st_size / (ds.n * ds.dim * 4), "ratio"),
            })
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            metrics = {name: metrics[name] for name in END_TO_END}
        refs = reference_ids(pool, {o.qi for o in outcomes}, params, idx)
        failed = check(outcomes, ds, pool, refs, w.k)
        if records is not None:
            write_records(records, first)
    finally:
        idx.reader.close()

    errors = [o.error for o in outcomes if o.error is not None]
    for msg in problems + errors[:1]:
        print(msg, file=sys.stderr)
    record = {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "os_page_cache": "warm (no --os-bypass; index written in set-up)",
        "latency_samples": {"queries": w.pool, "runs": len(outcomes)},
        "timings": timings,
        "failed_query_share": failed / len(outcomes),
        "theta": cal.theta,
    }
    return Result(
        correct=failed == 0 and not problems,
        attempted=len(outcomes),
        failed=failed,
        metrics=metrics,
        record=record,
        tracer=tracer,
    )


END_TO_END = (
    "setup_s",
    "recall_at_10",
    "io_ops_per_query",
    "bytes_read_per_query",
    "index_bytes_per_vector_byte",
    "peak_rss_mb",
)


def _recall(first: list[Outcome], gt: np.ndarray, k: int) -> float:
    return float(np.mean([
        vecdata.recall_at_k(np.array(o.ids), gt[o.qi, :k]) if o.error is None else 0.0
        for o in first
    ]))


def _measured(w, seconds, params, idx, hc, pool, warm, io_base):
    """The timed closed loop: passes over the pool, each from the state
    set-up left, until `seconds` have passed and at least MIN_PASSES passes
    ran. Every pass does the same work, so its timings differ only by what
    the host does; without the reset, the dynamic cache would differ from pass
    to pass, and a slow run, making fewer passes, would also see other cache
    states.

    The timings go to the run record, not the metrics: on a shared host,
    other tenants slow the program for tens of seconds at a time, and over
    ten seeds they spread by up to half of their median, more than any
    metric's bound. Interference only ever adds time, so, as timeit takes
    the best of its repeats, they keep what the code takes when the host
    leaves it alone: qps is the 90th percentile of the throughput of
    50-query batches, and a query's latency is its fastest of three or more
    runs. p50 and p98 are over the pool's 500 queries; p98 is the highest
    percentile with 10 queries beyond it.

    Counts come from the first pass. I/O counts every read since the cache
    was created, static preload included, over the warm-up and first-pass
    queries: with the whole index resident, the first pass alone reads
    nothing.
    """
    outcomes: list[Outcome] = []
    batch_qps: list[float] = []
    size = min(QPS_BATCH, w.pool)
    io_first = None
    start = time.perf_counter()
    while len(outcomes) < MIN_PASSES * w.pool or time.perf_counter() - start < seconds:
        if outcomes:
            _reset(params, idx, hc, warm)
        pass_start = time.perf_counter()
        done = _pass(pool, params, idx, hc)
        if io_first is None:
            io_first = idx.reader.stats.snapshot()
        ends = [pass_start] + [o.done_at for o in done]
        batch_qps += [size / (ends[i + size] - ends[i]) for i in range(0, w.pool - size + 1, size)]
        outcomes += done
    best_ms = np.full(w.pool, np.inf)
    np.minimum.at(best_ms, [o.qi for o in outcomes], [o.latency_s * 1e3 for o in outcomes])
    lifetime = w.warmup + w.pool
    ops = io_first[0] - io_base[0]
    nbytes = io_first[2] - io_base[2]
    metrics = {
        "io_ops_per_query": (ops / lifetime, "count"),
        "bytes_read_per_query": (nbytes / lifetime, "B"),
    }
    timings = {
        "qps": float(np.percentile(batch_qps, 90)),
        "latency_p50_ms": float(np.percentile(best_ms, 50)),
        "latency_p98_ms": float(np.percentile(best_ms, 98)),
    }
    return outcomes, outcomes[: w.pool], metrics, timings


def _reset(params, idx, hc, warm) -> None:
    """Bring the cache back to the state set-up left (LFU state depends only
    on the admissions and hits replayed here)."""
    hc.reset_dynamic()
    _pass(warm, params, idx, hc)


def _traced(params, idx, hc, pool, warm):
    """One untraced and one traced pass over the pool, each from the state
    set-up left; per-layer figures come from the traced pass."""
    start = time.perf_counter()
    plain = _pass(pool, params, idx, hc)
    plain_s = time.perf_counter() - start
    _reset(params, idx, hc, warm)
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.installed():
        traced = _pass(pool, params, idx, hc)
    traced_s = time.perf_counter() - start
    return plain + traced, traced, _layer_metrics(tracer, traced, traced_s / plain_s), tracer


def _layer_metrics(t: Tracer, traced: list[Outcome], overhead: float) -> dict:
    q = len(traced)
    c = t.counts

    def us(*names: str) -> float:
        return sum(t.total_ns[n] for n in names) / q / 1e3

    def per_q(value: float) -> float:
        return value / q

    def share(a: float, b: float) -> float:
        return a / b if b else 0.0

    hits = {phase: sum(c[f"phase{phase}.{k}"] for k in ("static", "dynamic")) for phase in (1, 2)}
    lookups = {phase: hits[phase] + c[f"phase{phase}.miss"] for phase in (1, 2)}
    records = [o.counts for o in traced if o.counts is not None]
    read_ns = t.total_ns["diskstore.read_page"] + t.total_ns["diskstore.read_page_range"]
    return {
        "pqcodec.table_us": (us("pqcodec.build_distance_table"), "us/query"),
        "pqcodec.distance_us": (us("pqcodec.pq_distance", "pqcodec.pq_distance_batch"), "us/query"),
        "pqcodec.codes_scored": (per_q(c["codes_scored"]), "count/query"),
        "layout.read_interval_us": (us("layout.compute_read_interval"), "us/query"),
        "diskstore.read_us": (us("diskstore.read_page", "diskstore.read_page_range"), "us/query"),
        "diskstore.us_per_page": (share(read_ns / 1e3, c["pages_read"]), "us"),
        "diskstore.single_reads": (per_q(c["single_reads"]), "count/query"),
        "diskstore.range_reads": (per_q(c["range_reads"]), "count/query"),
        "diskstore.pages_per_range_read": (share(c["range_pages"], c["range_reads"]), "count"),
        "cache.lookup_us": (us("cache.lookup"), "us/query"),
        "cache.lookups": (per_q(lookups[1] + lookups[2]), "count/query"),
        "cache.static_hits": (per_q(c["phase1.static"] + c["phase2.static"]), "count/query"),
        "cache.dynamic_hits": (per_q(c["phase1.dynamic"] + c["phase2.dynamic"]), "count/query"),
        "cache.misses": (per_q(c["phase1.miss"] + c["phase2.miss"]), "count/query"),
        "cache.hit_rate_phase1": (share(hits[1], lookups[1]), "ratio"),
        "cache.hit_rate_phase2": (share(hits[2], lookups[2]), "ratio"),
        "cache.admit_us": (us("cache.admit_pages"), "us/query"),
        "cache.pages_admitted": (per_q(c["pages_admitted"]), "count/query"),
        "cache.evictions": (per_q(c["evictions"]), "count/query"),
        "cache.prefetch_useful_ratio": (share(t.useful_residencies, c["residencies"]), "ratio"),
        "search.self_us": (t.self_ns[BEAM_SEARCH] / q / 1e3, "us/query"),
        "search.iterations": (float(np.mean([r["iterations"] for r in records])), "count/query"),
        "search.expansions": (per_q(lookups[1] + lookups[2]), "count/query"),
        "search.transition_iter": (
            float(np.mean([r["transition_iter"] for r in records])), "count/query"),
        "search.phase2_expansion_share": (share(lookups[2], lookups[1] + lookups[2]), "ratio"),
        "bench.trace_overhead_ratio": (overhead, "ratio"),
    }


def _layer_setup_metrics(ds, idx, layer, theta) -> dict:
    degrees = np.array([a.size for a in idx.graph.adjacency])
    metrics = {name: (value, "s") for name, value in idx.stage_s.items()}
    metrics.update({name: (value, "s") for name, value in layer.items()})
    metrics.update({
        "graphbuild.mean_degree": (float(degrees.mean()), "count"),
        "graphbuild.max_degree": (float(degrees.max()), "count"),
        "layout.mean_intra_page_distance": (
            layoutmod.mean_intra_page_distance(ds, idx.layout), "l2"),
        "search.theta": (float(theta), "ratio"),
    })
    return metrics


def write_records(path: Path, outcomes: list[Outcome]) -> None:
    """One JSON line per query of the first measured pass."""
    with open(path, "w") as f:
        for o in outcomes:
            rec = {"qid": o.qi, "latency_ms": o.latency_s * 1e3, "error": o.error is not None}
            rec.update(o.counts or {})
            f.write(json.dumps(rec) + "\n")
