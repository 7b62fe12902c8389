"""Beam search behavior: correctness against the brute-force oracle, phase
transition rules, cache transparency, calibration, and the workload harness."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from diskvec.diskstore import IndexReader
from diskvec.search import (
    SearchParams,
    aggregate_transition_ratios,
    beam_search,
    calibrate_theta,
    detect_transition,
    run_workload,
)
from diskvec.vecdata import recall_at_k

from builders import write_custom_index


# -------------------------------------------------------- transition rule


def test_detect_transition_prefix_rule():
    queue = list(range(20))
    visited = set(range(5))
    assert detect_transition(queue, visited, k=10, theta=0.5) is True
    assert detect_transition(queue, visited, k=10, theta=0.6) is False


def test_detect_transition_short_queue_is_false():
    assert detect_transition([1, 2], {1, 2}, k=10, theta=0.5) is False


def test_detect_transition_theta_one_is_baseline_rule():
    queue = list(range(10))
    assert detect_transition(queue, set(range(9)), k=10, theta=1.0) is False
    assert detect_transition(queue, set(range(10)), k=10, theta=1.0) is True


def test_detect_transition_monotone_in_theta():
    rng = np.random.default_rng(90)
    for _ in range(300):
        size = int(rng.integers(0, 15))
        queue = rng.permutation(30)[:size].tolist()
        visited = set(int(x) for x in rng.permutation(30)[: rng.integers(0, 20)])
        k = int(rng.integers(1, 12))
        thetas = sorted(rng.uniform(0.05, 1.0, size=3))
        fired = [detect_transition(queue, visited, k, t) for t in thetas]
        # truth at a larger theta implies truth at every smaller theta
        for lo in range(3):
            for hi in range(lo + 1, 3):
                if fired[hi]:
                    assert fired[lo]


# ------------------------------------------------- handcrafted walkthrough


def test_walkthrough_expansion_order(tmp_path):
    # entry 0 with neighbors ordered 1, 3, 2 by distance; expanding 1 exposes
    # 4, which becomes the closest candidate and is expanded next
    vecs = np.array(
        [[5.0, 0.0], [2.0, 0.0], [4.0, 0.0], [3.0, 0.0], [0.5, 0.0]], dtype=np.float32
    )
    adjacency = [[1, 3, 2], [3, 4, 0], [0], [1, 0], [1]]
    _, _, lm, path, codebook, codes = write_custom_index(
        tmp_path, vecs, adjacency, entry=0, R=3
    )
    from diskvec.cache import HybridCache

    with IndexReader(path) as r:
        cache = HybridCache({}, 0, lm)
        params = SearchParams(k=1, l=4, beam_width=1, theta=0.5, window_pages=1)
        results, stats = beam_search(
            np.array([0.0, 0.0]), params, r, lm, cache, codebook, codes, trace=True
        )
    expanded = [rec.node_id for rec in stats.trace]
    assert expanded[:3] == [0, 1, 4]
    assert results[0][0] == 4
    assert results[0][1] == pytest.approx(0.5, abs=1e-6)


def test_beam_reads_each_missed_page_once_in_runs(tmp_path):
    # six nodes per page; the entry's neighbours 6 and 7 share page 1 and 12
    # sits on page 2, so the second iteration's beam misses pages 1 and 2
    vecs = np.zeros((18, 2), dtype=np.float32)
    vecs[:, 0] = np.arange(18)
    adjacency = [[6, 7, 12]] + [[0]] * 17
    _, _, lm, path, codebook, codes = write_custom_index(
        tmp_path, vecs, adjacency, entry=0, R=3
    )
    assert [lm.page_of(node) for node in (0, 6, 7, 12)] == [0, 1, 1, 2]
    from diskvec.cache import HybridCache

    with IndexReader(path) as r:
        params = SearchParams(k=1, l=4, beam_width=4, theta=0.5, window_pages=1)
        _, st = beam_search(
            np.array([7.0, 0.0]), params, r, lm, HybridCache({}, 0, lm), codebook, codes,
            trace=True,
        )
        reader_ops, reader_pages, _ = r.stats.snapshot()
    assert [(rec.iteration, rec.node_id) for rec in st.trace] == [(1, 0), (2, 7), (2, 6), (2, 12)]
    # one request for page 0, one for the run of pages 1-2
    assert (st.io_ops, st.pages_read) == (reader_ops, reader_pages) == (2, 3)


def _digest(smoke, budget: int) -> str:
    """sha256 over the ids, exact distances and traces of 20 queries under
    FIFO, distances as exact float hex."""
    params = SearchParams(k=10, l=40, theta=0.5)
    h = hashlib.sha256()
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=budget, policy="FIFO")
        for q in smoke.queries[:20]:
            results, st = beam_search(
                q, params, index.reader, index.layout, cache, index.codebook, index.codes,
                trace=True,
            )
            for nid, dist in results:
                h.update(f"r {nid} {dist.hex()}\n".encode())
            for rec in st.trace:
                h.update(f"t {rec.iteration} {rec.node_id} {rec.exact_dist.hex()} "
                         f"{rec.phase} {rec.hit_kind}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("budget, want", [
    (0, "8eb8af524589e0d315546a064eb7c9fffb1aeb6b0567f66829cb1b55d9d14872"),
    (80, "68d0589bd03b5875a94f8be171fcf726b206c41149aed752ccb9aedbd52436a1"),
])
def test_results_and_traces_match_pinned_digest(smoke, budget, want):
    # pinned from the search that read one page per miss and scored each
    # expansion's neighbours separately; planning reads and batching the PQ
    # scoring must change neither results nor the expansion trace
    assert _digest(smoke, budget) == want


def test_trace_is_opt_in(smoke):
    params = SearchParams(k=10, l=40, theta=0.5)
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=80)
        args = (params, index.reader, index.layout, cache, index.codebook, index.codes)
        plain, st = beam_search(smoke.queries[0], *args)
        traced, st_traced = beam_search(smoke.queries[0], *args, trace=True)
    assert st.trace == [] and len(st_traced.trace) > 0
    assert plain == traced


# ----------------------------------------------------- oracle-backed smoke


def test_query_of_dataset_vector_returns_itself(smoke):
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=0)
        params = SearchParams(k=10, l=20, theta=0.5)
        for node in (3, 250, 499):
            res, _ = beam_search(
                smoke.dataset.vectors[node], params, index.reader, index.layout,
                cache, index.codebook, index.codes,
            )
            assert res[0][0] == node
            assert res[0][1] == pytest.approx(0.0, abs=1e-6)


def test_exhaustive_queue_reaches_full_recall(smoke):
    n = smoke.dataset.n
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=200)
        params = SearchParams(k=10, l=n, theta=0.5)
        for qi in range(0, 50, 10):
            res, _ = beam_search(
                smoke.queries[qi], params, index.reader, index.layout,
                cache, index.codebook, index.codes,
            )
            ids = np.array([nid for nid, _ in res])
            assert recall_at_k(ids, smoke.gt10[qi]) == 1.0


def test_graph_quality_floor_exact_nn_at_full_queue(smoke):
    # searching with l = n must land every query's exact nearest neighbor
    n = smoke.dataset.n
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=200)
        params = SearchParams(k=1, l=n, theta=0.5)
        for qi in range(50):
            res, _ = beam_search(
                smoke.queries[qi], params, index.reader, index.layout,
                cache, index.codebook, index.codes,
            )
            assert res[0][0] == int(smoke.gt10[qi][0])


def test_smoke_recall_floor(smoke):
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=100)
        params = SearchParams(k=10, l=100, theta=0.5)
        report = run_workload(smoke.queries, params, index, cache, gt=smoke.gt10)
    assert report.recall_at_k is not None and report.recall_at_k >= 0.95


# ------------------------------------------------------- cache transparency


def _run_config(smoke, kind: str, budget: int, static_frac: float, params: SearchParams):
    with smoke.index(kind) as index:
        cache = smoke.cache(index, budget=budget, static_frac=static_frac)
        report = run_workload(smoke.queries, params, index, cache, gt=smoke.gt10)
    return report


def test_results_identical_across_cache_configs(smoke):
    params = SearchParams(k=10, l=60, theta=0.5)
    none = _run_config(smoke, "sim", budget=0, static_frac=0.0, params=params)
    static_only = _run_config(smoke, "sim", budget=60, static_frac=1.0, params=params)
    hybrid = _run_config(smoke, "sim", budget=60, static_frac=0.2, params=params)
    assert none.results == static_only.results == hybrid.results
    assert none.hit_rate_phase1 == 0.0 and none.hit_rate_phase2 == 0.0


def test_range_reads_skip_resident_pages(smoke, monkeypatch):
    params = SearchParams(k=10, l=60, theta=0.5, window_pages=3)
    reads = []  # (first page, last page, dynamic pages resident at the read)
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=60, policy="FIFO")
        read_page_range = IndexReader.read_page_range

        def recording(reader, interval):
            reads.append((interval.start_page, interval.end_page, set(cache.dynamic.pages)))
            return read_page_range(reader, interval)

        monkeypatch.setattr(IndexReader, "read_page_range", recording)
        cached = run_workload(smoke.queries, params, index, cache, trace=True)
        monkeypatch.undo()
        uncached = run_workload(
            smoke.queries, params, index, smoke.cache(index, budget=0), trace=True
        )
    assert cache.dynamic_capacity_pages > 0 and len(reads) > len(smoke.queries)
    # a range read serves a miss, so its target page is never resident either
    assert all(not {first, last} & resident for first, last, resident in reads)
    assert cached.results == uncached.results
    for got, want in zip(cached.stats, uncached.stats):
        assert [(r.node_id, r.exact_dist) for r in got.trace] == [
            (r.node_id, r.exact_dist) for r in want.trace
        ]


def test_phase_monotone_and_termination(smoke):
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=80)
        params = SearchParams(k=10, l=40, theta=0.5)
        for qi in range(10):
            _, st = beam_search(
                smoke.queries[qi], params, index.reader, index.layout,
                cache, index.codebook, index.codes, trace=True,
            )
            assert st.iterations <= smoke.dataset.n
            phases = [rec.phase for rec in st.trace]
            assert all(p2 >= p1 for p1, p2 in zip(phases, phases[1:]))
            assert st.transition_iter_theta <= st.transition_iter_panns <= st.iterations


def test_distance_trace_minimum_at_truth_transition(smoke):
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=0)
        params = SearchParams(k=10, l=60, theta=0.5)
        reached_count = 0
        for qi in range(8):
            true_nn = int(smoke.gt10[qi][0])
            _, st = beam_search(
                smoke.queries[qi], params, index.reader, index.layout,
                cache, index.codebook, index.codes, trace=True,
            )
            # each node is expanded once, so the truth transition is the one
            # trace record of the true nearest neighbor; the trace minimum is
            # the distance to it
            assert len({rec.node_id for rec in st.trace}) == len(st.trace)
            reached = [rec for rec in st.trace if rec.node_id == true_nn]
            if not reached:
                continue
            reached_count += 1
            assert min(rec.exact_dist for rec in st.trace) == pytest.approx(
                reached[0].exact_dist
            )
        assert reached_count > 0


# ----------------------------------------------------------- theta handling


def test_theta_rule_fires_no_later_than_baseline(smoke):
    params = SearchParams(k=10, l=40, theta=0.3)
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=80)
        for qi in range(20):
            _, st = beam_search(
                smoke.queries[qi], params, index.reader, index.layout,
                cache, index.codebook, index.codes,
            )
            assert st.transition_iter_theta <= st.transition_iter_panns


def test_aggregate_transition_ratios_paper_style_lag():
    # a query transitioning at round 16 that the baseline flags at round 27
    assert aggregate_transition_ratios([(16, 27)]) == pytest.approx(16 / 27, abs=1e-9)
    got = aggregate_transition_ratios([(16, 27), (8, 16)])
    assert got == pytest.approx(np.median([16 / 27, 0.5]), abs=1e-9)


def test_aggregate_transition_ratios_clamps_and_falls_back():
    assert aggregate_transition_ratios([]) == 0.5
    assert aggregate_transition_ratios([(9, 9), (12, 10)]) == 0.5  # nothing early
    # one early sample keeps the median of the clamped ratios
    assert 0.0 < aggregate_transition_ratios([(1, 200), (5, 10)]) < 1.0


def test_calibrate_theta_on_smoke(smoke):
    with smoke.index("sim") as index:
        cal = calibrate_theta(
            smoke.dataset, index.reader, index.layout, index.codebook, index.codes,
            k=10, l=40, sample_fraction=0.05, seed=3,
        )
    assert 0.0 < cal.theta < 1.0
    assert cal.sample_count == 25
    assert cal.usable_count <= cal.sample_count


def test_calibrate_theta_determinism(smoke):
    with smoke.index("sim") as index:
        a = calibrate_theta(
            smoke.dataset, index.reader, index.layout, index.codebook, index.codes,
            k=10, l=40, sample_fraction=0.02, seed=4,
        )
        b = calibrate_theta(
            smoke.dataset, index.reader, index.layout, index.codebook, index.codes,
            k=10, l=40, sample_fraction=0.02, seed=4,
        )
    assert a == b


def test_calibrate_theta_empty_sample_is_an_error(smoke):
    with smoke.index("sim") as index:
        with pytest.raises(ValueError):
            calibrate_theta(
                smoke.dataset, index.reader, index.layout, index.codebook, index.codes,
                k=10, l=40, sample_fraction=0.0001, seed=5,
            )


def test_entry_point_query_transitions_at_iteration_one(smoke):
    # the entry node is expanded first; when it is its own nearest neighbor
    # the truth transition, its first trace record, lands on iteration 1
    entry = smoke.graph.entry_id
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=0)
        _, st = beam_search(
            smoke.dataset.vectors[entry], SearchParams(k=10, l=40, theta=0.5),
            index.reader, index.layout, cache, index.codebook, index.codes, trace=True,
        )
    assert (st.trace[0].node_id, st.trace[0].iteration) == (entry, 1)


def test_search_params_validation():
    with pytest.raises(ValueError):
        SearchParams(k=10, l=5)
    with pytest.raises(ValueError):
        SearchParams(theta=0.0)
    with pytest.raises(ValueError):
        SearchParams(theta=1.0)
    with pytest.raises(ValueError):
        SearchParams(beam_width=0)
    with pytest.raises(ValueError):
        SearchParams(window_pages=0)


# ------------------------------------------------------------- the workload


def test_workload_single_query_qps_sanity(smoke):
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=0)
        report = run_workload(smoke.queries[:1], SearchParams(k=5, l=20, theta=0.5), index, cache)
    assert report.query_count == 1
    assert report.qps > 0
    assert report.qps * report.wall_time_s == pytest.approx(1.0, rel=1e-6)


def test_workload_workers_do_not_change_results(smoke):
    params = SearchParams(k=10, l=40, theta=0.5)
    outs = []
    for workers in (1, 4):
        with smoke.index("sim") as index:
            cache = smoke.cache(index, budget=80)
            outs.append(
                run_workload(smoke.queries, params, index, cache, workers=workers).results
            )
    assert outs[0] == outs[1]


def test_workload_mean_recall_matches_independent_mean(smoke):
    params = SearchParams(k=10, l=100, theta=0.5)
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=80)
        report = run_workload(smoke.queries, params, index, cache, gt=smoke.gt10)
    manual = float(
        np.mean(
            [recall_at_k(np.array(ids), smoke.gt10[qi]) for qi, ids in enumerate(report.results)]
        )
    )
    assert report.recall_at_k == pytest.approx(manual, abs=1e-12)


def test_workload_without_gt_reports_no_recall(smoke):
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=0)
        report = run_workload(smoke.queries[:5], SearchParams(k=5, l=20, theta=0.5), index, cache)
    assert report.recall_at_k is None


def test_workload_repetitions_reset_dynamic_cache(smoke):
    params = SearchParams(k=10, l=40, theta=0.5)
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=80)
        once = run_workload(smoke.queries[:10], params, index, cache)
        cache.reset_dynamic()
        twice = run_workload(smoke.queries[:10], params, index, cache, repetitions=2)
    # a reset between repetitions makes each pass identical to a single run
    assert twice.mean_io_ops == pytest.approx(once.mean_io_ops, abs=1e-9)
    assert twice.results == once.results


def test_workload_reset_per_query_mode(smoke):
    params = SearchParams(k=10, l=40, theta=0.5)
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=120)
        persist = run_workload(smoke.queries[:20], params, index, cache)
        cache.reset_dynamic()
        isolated = run_workload(smoke.queries[:20], params, index, cache, reset_per_query=True)
    assert persist.results == isolated.results  # transparency again


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("budget", [0, 80, 200])
@pytest.mark.parametrize("policy", ["LFU", "FIFO", "RANDOM"])
def test_workload_counters_reconcile(smoke, workers, budget, policy):
    params = SearchParams(k=10, l=40, theta=0.5)
    reps = 2
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=budget, policy=policy)
        report = run_workload(
            smoke.queries, params, index, cache, workers=workers, repetitions=reps, trace=True,
        )
        io_ops, pages_read, _ = index.reader.stats.snapshot()
    executed = report.query_count * reps
    assert report.mean_io_ops * executed == pytest.approx(io_ops, abs=1e-6)
    assert report.mean_pages_read * executed == pytest.approx(pages_read, abs=1e-6)
    for st in report.stats:
        misses = st.hits.phase1.misses + st.hits.phase2.misses
        assert st.hits.phase1.lookups + st.hits.phase2.lookups == len(st.trace)
        assert st.io_ops <= misses
