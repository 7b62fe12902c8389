"""Beam search over the disk index with two-phase transition detection,
similarity-aware batch loading on misses, and per-query statistics.

When the dynamic cache has pages, a miss in either phase reads more than its
own page, and the cache admits every page read: `cache.plan_reads` states
the read rule. Without dynamic pages a miss reads only its own page. A map
from page to the queue position of its first candidate after the beam drives
the plan; the same map over the queue the iteration leaves, which holds the
beam's fresh neighbours, drives eviction. The phase labels statistics only;
it does not change what is read.

The candidate queue is ordered by compressed (PQ) distance; exact distances
are computed only for expanded nodes and used only for the final ranking.
Caching can change I/O counts but never the returned ids.
"""

from __future__ import annotations

import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cache import READ_AHEAD_BEAMS, HitStats, HybridCache, plan_reads
from .diskstore import DiskPage, Index, IndexReader
from .errors import InvariantError
from .layout import LayoutMap, compute_read_interval
from .pqcodec import PQCodebook, build_distance_table, pq_distance, pq_distance_batch
from .vecdata import VectorDataset, recall_at_k


@dataclass
class SearchParams:
    """Per-query knobs; k results out of a queue of length l >= k."""

    k: int = 10
    l: int = 100
    beam_width: int = 4
    theta: float = 0.5
    window_pages: int = 2

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.l < self.k:
            raise ValueError(f"l={self.l} must be >= k={self.k}")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {self.theta}")
        if self.window_pages < 1:
            raise ValueError("window_pages must be >= 1")


@dataclass
class TraceRecord:
    iteration: int
    node_id: int
    exact_dist: float
    phase: int
    hit_kind: str  # static | dynamic | miss


@dataclass
class SearchStats:
    """One query's counters. io_ops counts read requests, one per run of
    consecutive pages an iteration planned, so it is at most the misses: the
    nodes whose page no cache held at their iteration's look-up. When the
    dynamic cache has pages it admits every page read, so pages_read also
    counts the admissions; evictions counts the pages that left it on those
    admissions, an admitted page that passed straight through included. trace
    is filled only when beam_search is asked for it."""

    iterations: int = 0
    transition_iter_theta: int = 0
    transition_iter_panns: int = 0
    trace: list[TraceRecord] = field(default_factory=list)
    io_ops: int = 0
    pages_read: int = 0
    evictions: int = 0
    hits: HitStats = field(default_factory=HitStats)
    latency_s: float = 0.0


def detect_transition(
    queue_ids: list[int], visited: set[int] | dict, k: int, theta: float
) -> bool:
    """True iff the first ceil(theta * k) queue candidates are all visited.

    theta = 1 is the baseline rule (all top-k visited); a queue shorter than
    the prefix is insufficient evidence and returns False.
    """
    need = math.ceil(theta * k)
    if len(queue_ids) < need:
        return False
    return all(nid in visited for nid in queue_ids[:need])


def _first_positions(pages: list[int]) -> dict[int, int]:
    """page -> its first position in pages."""
    # written last to first, so each page keeps its first position
    return dict(zip(reversed(pages), range(len(pages) - 1, -1, -1)))


def beam_search(
    query: np.ndarray,
    params: SearchParams,
    reader: IndexReader,
    layout: LayoutMap,
    cache: HybridCache,
    codebook: PQCodebook,
    codes: np.ndarray,
    *,
    trace: bool = False,
) -> tuple[list[tuple[int, float]], SearchStats]:
    """Search the disk index; returns (top-k (id, exact distance), stats).

    The loop seeds the queue with the entry node, expands up to beam_width
    unvisited candidates per iteration in PQ-distance order, fetches their
    pages through the cache, scores the beam's fresh neighbours in one PQ
    call, and stops once the whole queue prefix has been expanded. Each
    iteration looks up its whole beam. One with a miss maps its unexpanded
    candidates to their pages, once: they place each miss on its page and
    give `wanted`, page id -> queue position of the first unexpanded
    candidate after the beam on that page. Without dynamic pages it reads
    each miss's own page; with them, the pages `cache.plan_reads` plans from
    each missed page's window, one `HybridCache.residency` snapshot and a
    horizon of READ_AHEAD_BEAMS beams. It reads each planned page once, one
    request per run of consecutive pages. The dynamic cache, when it has
    pages, admits them after the queue update, ranking victims by the queue
    the iteration leaves (page -> position of its first unexpanded
    candidate, 0 being the next beam; see HybridCache), and the next
    iteration plans from the same pages of that queue. With trace,
    stats.trace records every expansion.
    """
    header = reader.header
    q64 = np.asarray(query, dtype=np.float64).ravel()
    if q64.shape[0] != header.dim:
        raise ValueError(f"query dimension {q64.shape[0]} != index dimension {header.dim}")
    table = build_distance_table(q64, codebook)

    stats = SearchStats()
    phase = 1  # 1 = convergence toward the query, 2 = top-k refinement
    entry = header.entry_id
    queue: list[tuple[float, int]] = [(pq_distance(table, codes[entry]), entry)]
    seen = {entry}
    visited: dict[int, float] = {}
    t_theta: int | None = None
    t_panns: int | None = None
    admit = cache.dynamic_capacity_pages > 0
    cap = layout.page_capacity
    started = time.perf_counter()

    unexpanded = [entry]
    queue_pages: list[int] | None = None  # the pages of unexpanded, once needed
    while True:
        batch = unexpanded[: params.beam_width]
        if not batch:
            break
        stats.iterations += 1
        if stats.iterations > header.n:
            raise InvariantError("beam search exceeded the iteration bound n")
        # look up the whole beam, plan the missed pages, then read the plan in
        # runs
        fetched = [cache.lookup(nid, phase, hits=stats.hits) for nid in batch]
        missed = [i for i, hit in enumerate(fetched) if hit is None]
        pages: dict[int, DiskPage] = {}
        if missed:
            if queue_pages is None:
                queue_pages = (layout.node_rank[unexpanded] // cap).tolist()
            if admit:
                windows: dict[int, range] = {}
                for i in missed:
                    if queue_pages[i] not in windows:
                        interval = compute_read_interval(batch[i], params.window_pages, layout)
                        windows[queue_pages[i]] = interval.pages()
                wanted = _first_positions(queue_pages[len(batch) :])
                resident, room = cache.residency()
                horizon = READ_AHEAD_BEAMS * params.beam_width
                planned = plan_reads(windows, wanted, resident, room, horizon)
            else:
                planned = {queue_pages[i] for i in missed}
            for run in reader.read_pages(planned):
                stats.io_ops += 1
                stats.pages_read += len(run)
                pages.update((page.page_id, page) for page in run)
            for i in missed:
                page = pages[queue_pages[i]]
                fetched[i] = ("miss", *page.slot(layout.slot_of(batch[i]), expect_node=batch[i]))

        fresh: list[int] = []
        for nid, (kind, vec, adj) in zip(batch, fetched):
            diff = q64 - vec
            exact = float(np.sqrt(diff @ diff))
            visited[nid] = exact
            if trace:
                stats.trace.append(TraceRecord(stats.iterations, nid, exact, phase, kind))
            for j in adj.tolist():
                if j not in seen:
                    seen.add(j)
                    fresh.append(j)
        if fresh:
            queue.extend(zip(pq_distance_batch(table, codes[fresh]).tolist(), fresh))

        queue.sort()
        del queue[params.l :]
        unexpanded = [nid for _, nid in queue if nid not in visited]
        queue_pages = None
        if pages and admit:
            # rank victims by the queue this iteration leaves: position 0 is
            # the next beam
            queue_pages = (layout.node_rank[unexpanded] // cap).tolist()
            wanted = _first_positions(queue_pages)
            stats.evictions += len(cache.admit_pages(list(pages.values()), wanted=wanted))
        ids = [nid for _, nid in queue[: params.k]]
        if t_panns is None and detect_transition(ids, visited, params.k, 1.0):
            t_panns = stats.iterations
        if phase == 1 and detect_transition(ids, visited, params.k, params.theta):
            phase = 2
            t_theta = stats.iterations

    stats.latency_s = time.perf_counter() - started
    stats.transition_iter_theta = t_theta if t_theta is not None else stats.iterations
    stats.transition_iter_panns = t_panns if t_panns is not None else stats.iterations

    ranked = sorted(visited.items(), key=lambda kv: (kv[1], kv[0]))
    return [(nid, dist) for nid, dist in ranked[: params.k]], stats


def aggregate_transition_ratios(pairs: list[tuple[int, int]]) -> float:
    """Median of per-query true-vs-baseline round ratios, clamped into (0, 1);
    0.5 when no query transitioned earlier than the baseline rule."""
    if not pairs:
        return 0.5
    if not any(t < tp for t, tp in pairs):
        return 0.5
    ratios = [min(max(t / tp, 0.01), 0.99) for t, tp in pairs]
    return float(statistics.median(ratios))


@dataclass
class ThetaCalibration:
    theta: float
    sample_count: int
    usable_count: int  # samples whose search expanded a node at distance 0
    early_count: int  # samples where the true round beat the baseline rule


def calibrate_theta(
    dataset: VectorDataset,
    reader: IndexReader,
    layout: LayoutMap,
    codebook: PQCodebook,
    codes: np.ndarray,
    k: int,
    l: int,
    sample_fraction: float = 0.01,
    seed: int = 0,
    beam_width: int = SearchParams.beam_width,
    window_pages: int = SearchParams.window_pages,
) -> ThetaCalibration:
    """Estimate theta from a seeded sample of dataset vectors used as queries.

    A sampled row is its own nearest neighbor, so per sample t is the
    iteration of the first expansion at distance 0 (the row's node or an exact
    copy of it) and t' the first iteration the baseline all-top-k rule fires;
    theta aggregates t/t' per aggregate_transition_ratios. Runs uncached and
    single-threaded, so it reads no window: window_pages has no effect. The
    dataset must be the index's: one of another size, or a sampled row that
    is not its node's stored vector, is a ValueError.
    """
    if dataset.n != reader.header.n:
        raise ValueError(
            f"dataset has {dataset.n} vectors but the index has {reader.header.n} nodes"
        )
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError("sample_fraction must be in (0, 1]")
    count = int(round(sample_fraction * dataset.n))
    if count < 1:
        raise ValueError(
            f"calibration sample is empty (fraction {sample_fraction} of n={dataset.n})"
        )
    rng = np.random.default_rng(seed)
    sample_ids = np.sort(rng.choice(dataset.n, size=count, replace=False))
    runs = reader.read_pages((layout.node_rank[sample_ids] // layout.page_capacity).tolist())
    pages = {page.page_id: page for run in runs for page in run}
    for i in sample_ids.tolist():
        stored, _ = pages[layout.page_of(i)].slot(layout.slot_of(i), expect_node=i)
        if not np.array_equal(stored, dataset.vectors[i]):
            raise ValueError(f"dataset vector {i} is not node {i} of the index")
    blank = HybridCache({}, 0, layout)
    params = SearchParams(k=k, l=l, beam_width=beam_width, theta=0.5)
    pairs: list[tuple[int, int]] = []
    for q in dataset.vectors[sample_ids]:
        _, st = beam_search(q, params, reader, layout, blank, codebook, codes, trace=True)
        t = next((rec.iteration for rec in st.trace if rec.exact_dist == 0.0), None)
        if t is not None:
            pairs.append((t, st.transition_iter_panns))
    theta = aggregate_transition_ratios(pairs)
    return ThetaCalibration(
        theta=theta,
        sample_count=count,
        usable_count=len(pairs),
        early_count=sum(1 for t, tp in pairs if t < tp),
    )


@dataclass
class WorkloadReport:
    """Timing, I/O, eviction and hit aggregates over the workload's queries,
    with each query's results and stats in query order."""

    query_count: int
    wall_time_s: float
    qps: float
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    recall_at_k: float | None
    mean_io_ops: float
    mean_pages_read: float
    mean_bytes_read: float
    mean_evictions: float
    hit_rate_phase1: float
    hit_rate_phase2: float
    hits_total: HitStats
    mean_transition_iter_theta: float
    mean_transition_iter_panns: float
    mean_iterations: float
    results: list[list[int]]  # per query
    stats: list[SearchStats]  # query order


def run_workload(
    queries: np.ndarray,
    params: SearchParams,
    index: Index,
    cache: HybridCache,
    *,
    gt: np.ndarray | None = None,
    workers: int = 1,
    reset_per_query: bool = False,
    trace: bool = False,
) -> WorkloadReport:
    """Execute the query set once on a pool of workers threads that share the
    cache, starting from the cache as it is.

    Result id lists are deterministic regardless of worker count (caching is
    transparent to results); only timing and cache/I/O counters depend on
    interleaving. With reset_per_query the dynamic cache is emptied before
    every query; workers sharing the cache would empty it under one another's
    queries, so reset_per_query with workers > 1 is a ValueError.
    Missing ground truth leaves recall unreported; trace fills each query's
    stats.trace.
    """
    queries = np.asarray(queries, dtype=np.float32)
    if queries.ndim != 2:
        raise ValueError("queries must be a 2-d array")
    Q = queries.shape[0]
    if Q < 1:
        raise ValueError("workload needs at least one query")
    if gt is not None and gt.shape[0] != Q:
        raise ValueError(f"ground truth has {gt.shape[0]} rows for {Q} queries")
    if gt is not None and gt.shape[1] < params.k:
        raise ValueError(f"ground truth holds {gt.shape[1]} ids per query, need k={params.k}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if reset_per_query and workers > 1:
        raise ValueError(
            "reset_per_query needs workers=1: workers share one cache and would empty it "
            f"under one another's queries (got workers={workers})"
        )

    def one(qi: int) -> tuple[list[tuple[int, float]], SearchStats]:
        if reset_per_query:
            cache.reset_dynamic()
        return beam_search(
            queries[qi], params, index.reader, index.layout, cache, index.codebook, index.codes,
            trace=trace,
        )

    started = time.perf_counter()
    # a pool of one worker runs the queries in submission order
    with ThreadPoolExecutor(max_workers=workers) as pool:
        outs = list(pool.map(one, range(Q)))
    wall = time.perf_counter() - started
    results = [[nid for nid, _ in res] for res, _ in outs]
    stats = [st for _, st in outs]

    mean_recall: float | None = None
    if gt is not None:
        recalls = [
            recall_at_k(np.array(ids), gt[qi, : params.k])
            for qi, ids in enumerate(results)
        ]
        mean_recall = float(np.mean(recalls))

    lat = np.array([st.latency_s for st in stats]) * 1e3
    page_size = index.reader.header.page_size
    hits_total = sum((st.hits for st in stats), HitStats())

    return WorkloadReport(
        query_count=Q,
        wall_time_s=wall,
        qps=Q / wall if wall > 0 else float("inf"),
        latency_mean_ms=float(lat.mean()),
        latency_p50_ms=float(np.percentile(lat, 50)),
        latency_p95_ms=float(np.percentile(lat, 95)),
        latency_p99_ms=float(np.percentile(lat, 99)),
        recall_at_k=mean_recall,
        mean_io_ops=float(np.mean([st.io_ops for st in stats])),
        mean_pages_read=float(np.mean([st.pages_read for st in stats])),
        mean_bytes_read=float(np.mean([st.pages_read * page_size for st in stats])),
        mean_evictions=float(np.mean([st.evictions for st in stats])),
        hit_rate_phase1=hits_total.phase1.hit_rate,
        hit_rate_phase2=hits_total.phase2.hit_rate,
        hits_total=hits_total,
        mean_transition_iter_theta=float(np.mean([st.transition_iter_theta for st in stats])),
        mean_transition_iter_panns=float(np.mean([st.transition_iter_panns for st in stats])),
        mean_iterations=float(np.mean([st.iterations for st in stats])),
        results=results,
        stats=stats,
    )
