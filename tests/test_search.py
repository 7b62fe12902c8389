"""Beam search behavior: correctness against the brute-force oracle, phase
transition rules, cache transparency, calibration, and the workload harness."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from diskvec import search
from diskvec.cache import (
    POLICIES,
    PRELOAD_GAP_PAGES,
    READ_AHEAD_BEAMS,
    HitStats,
    HybridCache,
    preload_static,
)
from diskvec.diskstore import IndexReader, _slot_dtype
from diskvec.errors import FormatError
from diskvec.search import (
    SearchParams,
    SearchStats,
    ThetaCalibration,
    TraceRecord,
    aggregate_transition_ratios,
    beam_search,
    calibrate_theta,
    detect_transition,
    run_workload,
)
from diskvec.vecdata import ground_truth_batch, recall_at_k

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
        tmp_path, vecs, adjacency, entry=0, R=3, page_size=160  # six 26-byte slots
    )
    assert [lm.page_of(node) for node in (0, 6, 7, 12)] == [0, 1, 1, 2]
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


def _line_index(tmp_path, adjacency: list[list[int]], entry: int = 0):
    """Node i at (i, 0), six nodes to a page in id order."""
    vecs = np.zeros((len(adjacency), 2), dtype=np.float32)
    vecs[:, 0] = np.arange(len(adjacency))
    _, _, lm, path, codebook, codes = write_custom_index(
        tmp_path, vecs, adjacency, entry=entry, R=3, page_size=160
    )
    return lm, path, codebook, codes


def _recorded_plans(monkeypatch) -> list[list[int]]:
    """Record the sorted page ids of every read plan from now on."""
    planned = []
    read_pages = IndexReader.read_pages

    def recording(reader, page_ids):
        planned.append(sorted(page_ids))
        return read_pages(reader, page_ids)

    monkeypatch.setattr(IndexReader, "read_pages", recording)
    return planned


def test_pages_read_by_phase1_misses_are_admitted(tmp_path):
    # the index of the test above; with k=1 the query's nearest node stays
    # unexpanded until the last iteration, so every read is a phase-1 read
    lm, path, codebook, codes = _line_index(tmp_path, [[6, 7, 12]] + [[0]] * 17)
    cache = HybridCache({}, 4, lm)
    with IndexReader(path) as r:
        params = SearchParams(k=1, l=4, beam_width=4, theta=0.5, window_pages=2)
        _, st = beam_search(
            np.array([7.0, 0.0]), params, r, lm, cache, codebook, codes, trace=True
        )
    assert {rec.phase for rec in st.trace} == {1}
    assert sorted(cache.dynamic.pages) == [0, 1, 2]
    assert (st.pages_read, st.evictions) == (3, 0)
    # node 8 shares page 1 with the expanded 6 and 7, and is served from it
    hits = HitStats()
    kind, vec, _ = cache.lookup(8, 1, hits=hits)
    assert kind == "dynamic" and vec.tolist() == [8.0, 0.0]
    assert hits.phase1.dynamic_hits == 1


def test_window_reads_only_edge_pages_that_hold_queue_candidates(tmp_path, monkeypatch):
    # five pages of six nodes in id order. The query sits on the entry 0, so
    # the search is in refinement from iteration 2 on, when it misses 12 on
    # page 2. Its window spans pages 1-3: page 3 holds the unexpanded
    # candidate 18 and is read, page 1 holds no queue candidate and is not
    lm, path, codebook, codes = _line_index(tmp_path, [[12, 18]] + [[0]] * 29)
    assert [lm.page_of(node) for node in (0, 12, 18)] == [0, 2, 3]
    planned = _recorded_plans(monkeypatch)
    cache = HybridCache({}, 4, lm)
    with IndexReader(path) as r:
        params = SearchParams(k=1, l=4, beam_width=1, theta=0.5, window_pages=3)
        _, st = beam_search(
            np.array([0.0, 0.0]), params, r, lm, cache, codebook, codes, trace=True
        )
    assert [(rec.node_id, rec.phase, rec.hit_kind) for rec in st.trace] == [
        (0, 1, "miss"), (12, 2, "miss"), (18, 2, "dynamic"),
    ]
    assert planned == [[0], [2, 3]]  # 18 is then a dynamic hit, so nothing is read
    assert (st.io_ops, st.pages_read) == (2, 3)


def test_window_skips_an_edge_page_that_holds_only_a_static_hit_of_the_beam(
    tmp_path, monkeypatch
):
    # five pages of six nodes in id order. The query sits on the entry 0, so
    # iteration 2 is in refinement; its beam is 12 on page 2, a miss, and 18
    # on page 3, a static hit. The miss's window spans pages 1-3: no candidate
    # after the beam lives on page 1 or page 3, so only page 2 is read
    lm, path, codebook, codes = _line_index(tmp_path, [[12, 18]] + [[0]] * 29)
    planned = _recorded_plans(monkeypatch)
    static = {18: (np.array([18.0, 0.0], dtype=np.float32), np.array([0]))}
    cache = HybridCache(static, 4, lm)
    with IndexReader(path) as r:
        params = SearchParams(k=1, l=4, beam_width=2, theta=0.5, window_pages=3)
        _, st = beam_search(
            np.array([0.0, 0.0]), params, r, lm, cache, codebook, codes, trace=True
        )
    assert [(rec.node_id, rec.phase, rec.hit_kind) for rec in st.trace] == [
        (0, 1, "miss"), (12, 2, "miss"), (18, 2, "static"),
    ]
    assert planned == [[0], [2]]
    assert (st.io_ops, st.pages_read) == (2, 2)


def test_phase1_miss_reads_its_trimmed_window(tmp_path, monkeypatch):
    # five pages of six nodes in id order. For a query at 20.4 the search is
    # still converging in iteration 2, whose beam misses 18 on page 3. Its
    # window spans pages 2-4: page 2 holds the queued 12 and is read, page 4
    # holds no queue candidate and is not
    lm, path, codebook, codes = _line_index(tmp_path, [[12, 18]] + [[0]] * 29)
    planned = _recorded_plans(monkeypatch)
    cache = HybridCache({}, 4, lm)
    with IndexReader(path) as r:
        params = SearchParams(k=1, l=4, beam_width=1, theta=0.5, window_pages=3)
        _, st = beam_search(
            np.array([20.4, 0.0]), params, r, lm, cache, codebook, codes, trace=True
        )
    assert [(rec.node_id, rec.phase, rec.hit_kind) for rec in st.trace] == [
        (0, 1, "miss"), (18, 1, "miss"), (12, 2, "dynamic"),
    ]
    assert planned == [[0], [2, 3]]
    assert (st.io_ops, st.pages_read) == (2, 3)


def _stepped_search(
    tmp_path, monkeypatch, adjacency: list[list[int]], dynamic_pages: int, window_pages: int,
    *, beam_width: int = 1, l: int = 4, full: tuple[int, ...] = (), static_nodes: int = 0,
):
    """A search of _line_index's index from the entry 0 for a query at 11,
    with k=1. static_nodes nodes are preloaded, and the pages in full are
    admitted in order before the search. Returns the trace's (node, hit
    kind) pairs, the read plans, the stats and the pages resident after the
    search, in admission order."""
    lm, path, codebook, codes = _line_index(tmp_path, adjacency)
    with IndexReader(path) as r:
        cache = HybridCache(preload_static(None, r, lm, static_nodes), dynamic_pages, lm)
        for run in r.read_pages(full):
            cache.admit_pages(run)
        planned = _recorded_plans(monkeypatch)
        params = SearchParams(
            k=1, l=l, beam_width=beam_width, theta=0.5, window_pages=window_pages
        )
        _, st = beam_search(
            np.array([11.0, 0.0]), params, r, lm, cache, codebook, codes, trace=True
        )
    kinds = [(rec.node_id, rec.hit_kind) for rec in st.trace]
    return kinds, planned, st, list(cache.dynamic.pages)


def _next_beam_search(
    tmp_path, monkeypatch, dynamic_pages: int, window_pages: int, pages: int = 5,
    full: tuple[int, ...] = (),
):
    """pages pages of six nodes in id order; the entry 0 exposes 12, 18 and
    24, queued in that order for a query at 11 and expanded one per
    iteration. The pages in full are admitted before the search. Returns the
    trace's (node, hit kind) pairs, the read plans and the evictions."""
    adjacency = [[12, 18, 24]] + [[0]] * (6 * pages - 1)
    kinds, planned, st, _ = _stepped_search(
        tmp_path, monkeypatch, adjacency, dynamic_pages, window_pages, full=full
    )
    return kinds, planned, st.evictions


def test_a_run_grows_through_the_page_of_the_next_beam(tmp_path, monkeypatch):
    # the share starts full with pages 9-14, which the query never visits.
    # The entry 0 queues 11, 10 and 42; 11 queues 18, 24 and 30, and 10
    # queues 12 and 36. So when the one-page window of the miss of 12 (page
    # 2) is read, 18, 24, 30, 36 and 42 follow it at queue positions 0-4 on
    # pages 3-7. The horizon is READ_AHEAD_BEAMS beams of one, positions 0-3:
    # the run grows through pages 3-6 and stops at page 7, which 42 reads
    adjacency = [[11, 10, 42]] + [[0]] * 89
    adjacency[11] = [18, 24, 30]
    adjacency[10] = [12, 36, 0]
    kinds, planned, _, _ = _stepped_search(
        tmp_path, monkeypatch, adjacency, dynamic_pages=6, window_pages=1, l=10,
        full=(9, 10, 11, 12, 13, 14),
    )
    assert READ_AHEAD_BEAMS == 4
    assert kinds == [
        (0, "miss"), (11, "miss"), (10, "dynamic"), (12, "miss"), (18, "dynamic"),
        (24, "dynamic"), (30, "dynamic"), (36, "dynamic"), (42, "miss"),
    ]
    assert planned == [[0], [1], [2, 3, 4, 5, 6], [7]]


def test_a_full_share_keeps_the_page_of_a_fresh_neighbour(tmp_path, monkeypatch):
    # the entry 0 is a static hit and queues 12, 24 and 36; the share holds
    # page 6, whose 36 stays queued, and page 8, which no candidate needs.
    # The beam of 12 and 24 misses pages 2 and 4, whose read bridges page 3;
    # 12 exposes 18 there, which no queued candidate stood on before. Ranked
    # by the queue the iteration leaves, page 8 goes, then pages 2 and 4,
    # which hold no queued candidate, and page 3 stays: 18 is a dynamic hit
    adjacency = [[12, 24, 36]] + [[0]] * 53
    adjacency[12] = [18, 0]
    kinds, planned, st, resident = _stepped_search(
        tmp_path, monkeypatch, adjacency, dynamic_pages=2, window_pages=1, beam_width=2,
        l=8, full=(6, 8), static_nodes=1,
    )
    assert kinds == [
        (0, "static"), (12, "miss"), (24, "miss"), (18, "dynamic"), (36, "dynamic"),
    ]
    assert planned == [[2, 3, 4]]
    assert st.evictions == 3
    assert resident == [6, 3]


def test_free_room_takes_every_adjacent_candidate_page(tmp_path, monkeypatch):
    # the share starts empty: after page 0, the run of pages 2-3 has room for
    # one more page and takes page 4, whose 24 comes after the next beam, and
    # nothing is evicted
    kinds, planned, evictions = _next_beam_search(
        tmp_path, monkeypatch, dynamic_pages=4, window_pages=1
    )
    assert kinds == [(0, "miss"), (12, "miss"), (18, "dynamic"), (24, "dynamic")]
    assert planned == [[0], [2, 3, 4]]
    assert evictions == 0


def test_without_dynamic_pages_each_miss_reads_only_its_own_page(tmp_path, monkeypatch):
    # uncached, as calibrate_theta searches: no window is read, no run grows
    kinds, planned, _ = _next_beam_search(tmp_path, monkeypatch, dynamic_pages=0, window_pages=3)
    assert kinds == [(0, "miss"), (12, "miss"), (18, "miss"), (24, "miss")]
    assert planned == [[0], [2], [3], [4]]


def _gap_search(tmp_path, monkeypatch, far: int, full: tuple[int, ...] = ()):
    """Pages of six nodes in id order; the entry 0 exposes 12 on page 2 and
    far, which a query at 11 expands together in one beam of two. No later
    candidate is queued, so no window or growth takes a page past the
    misses'. The pages in full are admitted before the search. Returns the
    read plans, the requests and the pages resident after the search."""
    lm, path, codebook, codes = _line_index(tmp_path, [[12, far]] + [[0]] * (far + 5))
    cache = HybridCache({}, 8, lm)
    with IndexReader(path) as r:
        for run in r.read_pages(full):
            cache.admit_pages(run)
        planned = _recorded_plans(monkeypatch)
        params = SearchParams(k=1, l=4, beam_width=2, theta=0.5, window_pages=1)
        _, st = beam_search(
            np.array([11.0, 0.0]), params, r, lm, cache, codebook, codes, trace=True
        )
    assert [(rec.node_id, rec.hit_kind) for rec in st.trace] == [
        (0, "miss"), (12, "miss"), (far, "miss"),
    ]
    return planned, st.io_ops, set(cache.dynamic.pages)


@pytest.mark.parametrize("far, gap", [(24, [3]), (36, [3, 4, 5])], ids=["1", "3"])
def test_a_plan_reads_through_a_short_gap_of_pages_not_resident(
    tmp_path, monkeypatch, far, gap
):
    # the misses on page 2 and on page far // 6 take one request, not two,
    # and the pages between them are admitted with theirs
    planned, io_ops, resident = _gap_search(tmp_path, monkeypatch, far)
    assert PRELOAD_GAP_PAGES == 3
    assert planned == [[0], [2, *gap, far // 6]]
    assert io_ops == 2
    assert resident == {0, 2, *gap, far // 6}


@pytest.mark.parametrize("far, full", [(24, (3,)), (42, ())], ids=["resident", "4 pages"])
def test_a_plan_does_not_read_through_a_resident_page_or_a_long_gap(
    tmp_path, monkeypatch, far, full
):
    # page 3 is resident, or the gap is pages 3-6: the misses on page 2 and
    # on page far // 6 take a request each, after the one of page 0
    planned, io_ops, _ = _gap_search(tmp_path, monkeypatch, far, full)
    assert planned == [[0], [2, far // 6]]
    assert io_ops == 3


def test_a_bad_neighbour_id_on_a_bridged_page_is_a_format_error(tmp_path):
    # page 3 holds no candidate; it is read only because it lies between the
    # misses on pages 2 and 4, and its bad bytes are refused, naming it (the
    # CLI exits 3)
    lm, path, codebook, codes = _line_index(tmp_path, [[12, 24]] + [[0]] * 29)
    with IndexReader(path) as r:
        h = r.header
    dtype = _slot_dtype(h.dim, h.R)
    at = (3 + 1) * h.page_size + dtype.fields["neighbors"][1]
    raw = bytearray(path.read_bytes())
    raw[at : at + 4] = h.n.to_bytes(4, "little")
    path.write_bytes(raw)
    params = SearchParams(k=1, l=4, beam_width=2, theta=0.5, window_pages=1)
    query = np.array([11.0, 0.0])
    with IndexReader(path) as r:
        uncached, _ = beam_search(query, params, r, lm, HybridCache({}, 0, lm), codebook, codes)
        assert [nid for nid, _ in uncached] == [12]
        with pytest.raises(FormatError, match="page 3 holds a neighbor id"):
            beam_search(query, params, r, lm, HybridCache({}, 8, lm), codebook, codes)


def test_eviction_keeps_the_page_of_a_queued_candidate(tmp_path):
    # three pages of six nodes and one dynamic page. The entry 6 on page 1
    # exposes 12, 0 and 13, in that order for a query at 5.6; 12 and 13 share
    # page 2, and 0 sits on page 0, which no run of page 2 reaches. Reading
    # page 0 for 0 would push out page 2, which still holds the queued 13, so
    # page 0 passes through the cache instead and 13 is a dynamic hit
    vecs = np.zeros((18, 2), dtype=np.float32)
    vecs[:, 0] = 100 + np.arange(18)
    vecs[[6, 12, 0, 13], 0] = [12.0, 6.0, 5.0, 7.0]
    adjacency = [[6]] * 6 + [[12, 0, 13]] + [[6]] * 11
    _, _, lm, path, codebook, codes = write_custom_index(
        tmp_path, vecs, adjacency, entry=6, R=3, page_size=160
    )
    assert [lm.page_of(node) for node in (6, 12, 0, 13)] == [1, 2, 0, 2]
    cache = HybridCache({}, 1, lm)
    with IndexReader(path) as r:
        params = SearchParams(k=1, l=4, beam_width=1, theta=0.5, window_pages=1)
        _, st = beam_search(
            np.array([5.6, 0.0]), params, r, lm, cache, codebook, codes, trace=True
        )
    assert [(rec.node_id, rec.hit_kind) for rec in st.trace] == [
        (6, "miss"), (12, "miss"), (0, "miss"), (13, "dynamic"),
    ]
    # page 1 is pushed out by page 2, and page 0 by itself
    assert (st.io_ops, st.pages_read, st.evictions) == (3, 3, 2)
    assert list(cache.dynamic.pages) == [2]


@settings(max_examples=200, deadline=None)
@given(
    seed=strategies.integers(0, 2**32 - 1),
    n=strategies.integers(2, 48),
    static_nodes=strategies.integers(0, 6),
    dynamic_pages=strategies.integers(0, 5),
    window_pages=strategies.integers(1, 4),
    beam_width=strategies.integers(1, 4),
    policy=strategies.sampled_from(POLICIES),
)
def test_every_page_read_serves_a_miss_or_a_later_candidate(
    tmp_path_factory, seed, n, static_nodes, dynamic_pages, window_pages, beam_width, policy
):
    # each page an iteration reads is one of its misses' own pages, a page
    # that is not resident and holds a node seen but not yet expanded, which
    # the unexpanded candidates after the beam are among, or a page that is
    # not resident in a gap of at most PRELOAD_GAP_PAGES pages between two
    # such pages that holds no resident page; every such gap is read, and
    # without dynamic pages it reads exactly the misses' pages. The ids stay
    # those of the uncached search
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, 2)).astype(np.float32)
    adjacency = [rng.choice(n, size=min(3, n), replace=False).tolist() for _ in range(n)]
    _, _, lm, path, codebook, codes = write_custom_index(
        tmp_path_factory.mktemp("plan"), vecs, adjacency, entry=0, R=3, page_size=160
    )
    query = rng.normal(size=2)
    params = SearchParams(k=2, l=8, beam_width=beam_width, theta=0.5, window_pages=window_pages)
    events = []  # (looked-up node, missed) or (pages of a read, pages resident then)
    with IndexReader(path) as r:
        want, _ = beam_search(query, params, r, lm, HybridCache({}, 0, lm), codebook, codes)
        cache = HybridCache(preload_static(None, r, lm, static_nodes), dynamic_pages, lm, policy)
        lookup, read_pages = cache.lookup, r.read_pages

        def recording_lookup(node_id, phase, *, hits):
            out = lookup(node_id, phase, hits=hits)
            events.append((node_id, out is None))
            return out

        def recording_read_pages(page_ids):
            events.append((sorted(set(page_ids)), set(cache.dynamic.pages)))
            return read_pages(page_ids)

        cache.lookup, r.read_pages = recording_lookup, recording_read_pages
        got, st = beam_search(query, params, r, lm, cache, codebook, codes, trace=True)
    assert got == want
    expanded = {rec.node_id: rec.iteration for rec in st.trace}
    iteration, miss_pages = 0, set()
    for first, second in events:
        if isinstance(first, int):
            if expanded[first] != iteration:
                iteration, miss_pages = expanded[first], set()
            if second:
                miss_pages.add(lm.page_of(first))
            continue
        done = {nid for nid, it in expanded.items() if it <= iteration}
        seen = {0}.union(*(adjacency[nid] for nid, it in expanded.items() if it < iteration))
        later = {lm.page_of(nid) for nid in seen - done}
        assert miss_pages <= set(first)
        served = sorted(p for p in first if p in miss_pages or (p not in second and p in later))
        gaps = set()
        for a, b in zip(served, served[1:]):
            gap = set(range(a + 1, b))
            if len(gap) <= PRELOAD_GAP_PAGES and not gap & second:
                gaps |= gap
        if dynamic_pages == 0:
            assert set(first) == miss_pages
        else:
            assert set(first) == set(served) | gaps


@settings(max_examples=100, deadline=None)
@given(
    seed=strategies.integers(0, 2**32 - 1),
    n=strategies.integers(2, 48),
    static_nodes=strategies.integers(0, 6),
    spare_pages=strategies.integers(0, 3),
    window_pages=strategies.integers(1, 4),
    beam_width=strategies.integers(1, 4),
    policy=strategies.sampled_from(POLICIES),
)
def test_a_share_that_holds_the_index_reads_each_page_once(
    tmp_path_factory, seed, n, static_nodes, spare_pages, window_pages, beam_width, policy
):
    # with room for every page, reads only fill free pages: none evicts, so
    # no page is read twice, within a query or across queries, and the ids
    # stay those of the uncached search
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, 2)).astype(np.float32)
    adjacency = [rng.choice(n, size=min(3, n), replace=False).tolist() for _ in range(n)]
    _, _, lm, path, codebook, codes = write_custom_index(
        tmp_path_factory.mktemp("room"), vecs, adjacency, entry=0, R=3, page_size=160
    )
    params = SearchParams(k=2, l=8, beam_width=beam_width, theta=0.5, window_pages=window_pages)
    queries = rng.normal(size=(3, 2))
    with IndexReader(path) as r:
        blank = HybridCache({}, 0, lm)
        wants = [beam_search(q, params, r, lm, blank, codebook, codes)[0] for q in queries]
        share = r.header.total_pages + spare_pages
        cache = HybridCache(preload_static(None, r, lm, static_nodes), share, lm, policy)
        read_pages = r.read_pages
        every: list[int] = []  # the pages of every read of the cached searches
        r.read_pages = lambda page_ids: every.extend(page_ids) or read_pages(page_ids)
        for query, want in zip(queries, wants):
            before = len(every)
            got, st = beam_search(query, params, r, lm, cache, codebook, codes)
            assert got == want
            assert st.evictions == 0
            assert st.pages_read == len(set(every[before:]))
    assert len(every) == len(set(every))


def _digest(smoke, budget: int, hit_kinds: bool = True) -> str:
    """sha256 over the ids, exact distances and traces of 20 queries under
    FIFO, distances as exact float hex; hit_kinds adds each expansion's hit
    kind to its trace line."""
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
                line = f"t {rec.iteration} {rec.node_id} {rec.exact_dist.hex()} {rec.phase}"
                if hit_kinds:
                    line += f" {rec.hit_kind}"
                h.update(f"{line}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("budget, want", [
    (0, "5eaee220899d92dd3e9bd03a2048b5f3de72df80cab53a1cf9f2574b4e4330a3"),
    (80, "a27f667096900fe49545f7f76abb795daf25fa40181fcd95bc790239b22dac39"),
], ids=["0", "80"])
def test_results_and_traces_match_pinned_digest(smoke, budget, want):
    # pinned from the search that read one page per miss and scored each
    # expansion's neighbours separately; planning reads and batching the PQ
    # scoring must change neither results nor the expansion trace. Budget 80
    # was pinned again when refinement windows came to be planned per
    # iteration: a node on a page that an earlier window of its own iteration
    # reads is now a miss, not a dynamic hit, and the admissions that follow
    # change later cache contents, so hit kinds move (34 dynamic hits became
    # misses and 35 misses dynamic hits) while the digest without hit kinds
    # below stays as it was. Both were pinned again when the graph came to be
    # built in batches: the smoke graph changed (its own digest is pinned in
    # test_graphbuild.py), and over the graph built before that, this search
    # still hashes to the old values, 8eb8af52... at budget 0 and
    # f67350ee... at budget 80. Budget 80 was pinned again (0c71f61e... ->
    # b55a2385...) when index.bin ids became u32: the smoke index's pages
    # hold 5 slots, not 3, so the dynamic cache holds other nodes; over the
    # 836 expansions 101 misses became dynamic hits and 100 dynamic hits
    # misses, and the ids, distances and trace without hit kinds are unchanged.
    # Budget 80 was pinned again (b55a2385... -> 36674ef5...) when the pages
    # that phase-1 misses read came to be admitted and window edge pages that
    # hold no unexpanded queue candidate came to be left unread: over the same
    # 836 expansions 131 misses became dynamic hits and 76 dynamic hits misses.
    # Budget 80 was pinned again (36674ef5... -> 70a1444e...) when eviction
    # came to rank pages by the queue position of their first unexpanded
    # candidate: 77 misses became dynamic hits and 26 dynamic hits misses.
    # Budget 80 was pinned again (70a1444e... -> 5f85e1e2...) when misses of
    # either phase came to read their windows, runs came to grow through the
    # pages of the next beam's candidates and the smoke layout came to hold
    # one page per cluster (100 clusters, not 25): 119 misses became dynamic
    # hits and 61 dynamic hits misses. Budget 80 was pinned again (5f85e1e2...
    # -> 4d7642d1...) when the layout came to bisect parts of at most two
    # pages (65 clusters, not 100): 93 misses became dynamic hits and 118
    # dynamic hits misses. Budget 80 was pinned again (4d7642d1... ->
    # 50e96548...) when runs came to fill the dynamic share's free pages with
    # the adjacent pages of any later candidate, which the first queries do
    # while the share is not yet full: 3 misses became dynamic hits and 2
    # dynamic hits misses. Budget 80 was pinned again (50e96548... ->
    # 1cbe71bc...) when plans came to read through gaps of up to
    # PRELOAD_GAP_PAGES pages that hold no resident page, as the static
    # preload does: 5 misses became dynamic hits and 7 dynamic hits misses,
    # and the 20 queries made 156 requests for 260 pages, not 164 for 236.
    # Budget 80 was pinned again (1cbe71bc... -> a27f6670...) when eviction
    # came to rank pages by the queue an iteration leaves, which holds the
    # beam's fresh neighbours, and runs came to grow through the pages of the
    # next READ_AHEAD_BEAMS beams, not one: 53 misses became dynamic hits and
    # 15 dynamic hits misses, and the 20 queries made 130 requests for 246
    # pages, not 156 for 260
    assert _digest(smoke, budget) == want


@pytest.mark.parametrize("budget", [0, 80])
def test_results_and_traces_without_hit_kinds_match_pinned_digest(smoke, budget):
    # how reads are planned and cached changes hit kinds at most: the ids,
    # exact distances, iterations and phases hash the same at either budget
    # (d55b7247... over the graph built before the batched build)
    want = "9be3cd88d87fc169448b93896df10f4f90dec870f22ced1d131e15f055334189"
    assert _digest(smoke, budget, hit_kinds=False) == want


def test_reads_of_one_iteration_neither_overlap_nor_abut(smoke, monkeypatch):
    params = SearchParams(k=10, l=40, theta=0.5, window_pages=2)
    events = []  # a looked-up node id, or the (first, last) pages of a read
    lookup = HybridCache.lookup
    read_page = IndexReader.read_page
    read_page_range = IndexReader.read_page_range

    def recording_lookup(cache, node_id, phase, *, hits):
        events.append(node_id)
        return lookup(cache, node_id, phase, hits=hits)

    def recording_read_page(reader, page_id):
        events.append((page_id, page_id))
        return read_page(reader, page_id)

    def recording_read_page_range(reader, interval):
        events.append((interval.start_page, interval.end_page))
        return read_page_range(reader, interval)

    windows = {1: 0, 2: 0}  # reads of more than one page, per phase
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=80, policy="FIFO")
        assert cache.dynamic_capacity_pages > 0
        monkeypatch.setattr(HybridCache, "lookup", recording_lookup)
        monkeypatch.setattr(IndexReader, "read_page", recording_read_page)
        monkeypatch.setattr(IndexReader, "read_page_range", recording_read_page_range)
        for q in smoke.queries[:20]:
            events.clear()
            _, st = beam_search(
                q, params, index.reader, index.layout, cache, index.codebook, index.codes,
                trace=True,
            )
            # a read belongs to the iteration of the node looked up last
            expanded = {rec.node_id: (rec.iteration, rec.phase) for rec in st.trace}
            reads: dict[tuple[int, int], list[tuple[int, int]]] = {}
            at = (0, 0)
            for event in events:
                if isinstance(event, tuple):
                    reads.setdefault(at, []).append(event)
                else:
                    at = expanded[event]
            for (_, phase), spans in reads.items():
                spans.sort()
                windows[phase] += sum(last > first for first, last in spans)
                assert all(b[0] > a[1] + 1 for a, b in zip(spans, spans[1:])), spans
    assert windows[1] > 0 and windows[2] > 0


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


def test_calibrate_theta_takes_t_from_the_first_expansion_at_distance_zero(smoke, monkeypatch):
    # a copy of the sample (another node at distance 0) expanded at iteration 2,
    # before the sample's own node at iteration 6: the copy is the true nearest
    # neighbor found first, so t = 2 and every ratio is 2/10
    vectors = smoke.dataset.vectors

    def copy_first(q, *args, **kwargs):
        own = int(np.flatnonzero((vectors == q).all(axis=1))[0])
        copy = (own + 1) % len(vectors)
        trace = [TraceRecord(1, smoke.graph.entry_id, 5.0, 1, "miss"),
                 TraceRecord(2, copy, 0.0, 1, "miss"),
                 TraceRecord(6, own, 0.0, 2, "miss")]
        return [], SearchStats(trace=trace, transition_iter_panns=10)

    monkeypatch.setattr(search, "beam_search", copy_first)
    with smoke.index("sim") as index:
        cal = calibrate_theta(
            smoke.dataset, index.reader, index.layout, index.codebook, index.codes,
            k=10, l=40, sample_fraction=0.02, seed=4,
        )
    assert cal == ThetaCalibration(theta=0.2, sample_count=10, usable_count=10, early_count=10)


@pytest.mark.parametrize("fraction, seed", [(0.05, 3), (0.02, 4), (0.1, 7)])
def test_calibrate_theta_matches_the_brute_force_oracle_rule(smoke, fraction, seed):
    # the reference: t from the expansion of each sample's brute-force nearest
    # neighbor, which on this corpus (no duplicate vectors) is the sample itself
    with smoke.index("sim") as index:
        cal = calibrate_theta(
            smoke.dataset, index.reader, index.layout, index.codebook, index.codes,
            k=10, l=40, sample_fraction=fraction, seed=seed,
        )
        ids = np.sort(np.random.default_rng(seed).choice(
            smoke.dataset.n, size=int(round(fraction * smoke.dataset.n)), replace=False))
        nearest = ground_truth_batch(smoke.dataset, smoke.dataset.vectors[ids], 1)[:, 0]
        params = SearchParams(k=10, l=40, theta=0.5)
        pairs = []
        for qid, nn1 in zip(ids.tolist(), nearest.tolist()):
            _, st = beam_search(smoke.dataset.vectors[qid], params, index.reader, index.layout,
                                HybridCache({}, 0, index.layout), index.codebook,
                                index.codes, trace=True)
            t = next((rec.iteration for rec in st.trace if rec.node_id == nn1), None)
            if t is not None:
                pairs.append((t, st.transition_iter_panns))
    assert cal == ThetaCalibration(
        theta=aggregate_transition_ratios(pairs),
        sample_count=ids.size,
        usable_count=len(pairs),
        early_count=sum(1 for t, tp in pairs if t < tp),
    )
    assert cal.usable_count > 0


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
    # each admission carries its own query's wanted map, so workers sharing
    # one cache evict by one another's queues and still return the same ids
    params = SearchParams(k=10, l=40, theta=0.5)
    for policy in ("LFU", "FIFO", "RANDOM"):
        outs = []
        for workers in (1, 2, 4):
            with smoke.index("sim") as index:
                cache = smoke.cache(index, budget=80, policy=policy)
                outs.append(
                    run_workload(smoke.queries, params, index, cache, workers=workers).results
                )
        assert outs[0] == outs[1] == outs[2], policy


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
        first = run_workload(smoke.queries[:10], params, index, cache)
        cache.reset_dynamic()
        again = run_workload(smoke.queries[:10], params, index, cache)
    # emptying the dynamic cache makes the second run identical to the first
    assert again.mean_io_ops == first.mean_io_ops
    assert again.results == first.results


def test_workload_reset_per_query_mode(smoke):
    params = SearchParams(k=10, l=40, theta=0.5)
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=120)
        persist = run_workload(smoke.queries[:20], params, index, cache)
        cache.reset_dynamic()
        isolated = run_workload(smoke.queries[:20], params, index, cache, reset_per_query=True)
    assert persist.results == isolated.results  # transparency again


def test_workload_reset_per_query_refuses_more_workers(smoke):
    # workers sharing one cache would empty it under one another's queries
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=80)
        with pytest.raises(ValueError, match="reset_per_query.*workers=4"):
            run_workload(smoke.queries[:4], SearchParams(k=10, l=40, theta=0.5), index,
                         cache, workers=4, reset_per_query=True)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("budget", [0, 80, 200])
@pytest.mark.parametrize("policy", ["LFU", "FIFO", "RANDOM"])
def test_workload_counters_reconcile(smoke, workers, budget, policy):
    params = SearchParams(k=10, l=40, theta=0.5)
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=budget, policy=policy)
        ops0, pages0, _ = index.reader.stats.snapshot()  # the preload's reads
        report = run_workload(smoke.queries, params, index, cache, workers=workers, trace=True)
        ops1, pages1, _ = index.reader.stats.snapshot()
        io_ops, pages_read = ops1 - ops0, pages1 - pages0
    q = report.query_count
    assert report.mean_io_ops * q == pytest.approx(io_ops, abs=1e-6)
    assert report.mean_pages_read * q == pytest.approx(pages_read, abs=1e-6)
    for st in report.stats:
        misses = st.hits.phase1.misses + st.hits.phase2.misses
        assert st.hits.phase1.lookups + st.hits.phase2.lookups == len(st.trace)
        assert st.io_ops <= misses


@pytest.mark.parametrize("policy", ["LFU", "FIFO", "RANDOM"])
def test_workload_admissions_and_evictions_match_the_cache(smoke, monkeypatch, policy):
    params = SearchParams(k=10, l=40, theta=0.5)
    admitted = evicted = 0
    admit_pages = HybridCache.admit_pages

    def counting(cache, pages, **kwargs):
        nonlocal admitted, evicted
        out = admit_pages(cache, pages, **kwargs)
        admitted += len(pages)
        evicted += len(out)
        return out

    monkeypatch.setattr(HybridCache, "admit_pages", counting)
    with smoke.index("sim") as index:
        cache = smoke.cache(index, budget=80, policy=policy)
        report = run_workload(smoke.queries, params, index, cache, workers=1)
    q = report.query_count
    assert evicted > 0
    # with dynamic pages, every page read is admitted
    assert report.mean_pages_read * q == pytest.approx(admitted, abs=1e-6)
    assert report.mean_evictions * q == pytest.approx(evicted, abs=1e-6)
    # one worker admits only pages the dynamic cache lacks, so each adds a page
    assert len(cache.dynamic.pages) == admitted - evicted
