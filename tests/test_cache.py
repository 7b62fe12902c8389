"""Replacement policy semantics, BFS preload, and cache transparency."""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskvec import cache as cache_module
from diskvec.cache import (
    POLICIES,
    PRELOAD_GAP_PAGES,
    CacheConfig,
    DynamicCache,
    HitStats,
    HybridCache,
    auto_budget_nodes,
    bridge_gaps,
    plan_reads,
    preload_static,
)
from diskvec.diskstore import DiskPage
from diskvec.graphbuild import GraphIndex
from diskvec.layout import ReadInterval

from builders import write_custom_index


def _page(pid: int) -> DiskPage:
    return DiskPage(page_id=pid, slots=np.empty(0))


# ------------------------------------------------------------------ policies


def test_fifo_evicts_oldest():
    dc = DynamicCache(2, policy="FIFO")
    assert dc.admit(_page(10)) == []
    assert dc.admit(_page(11)) == []
    assert dc.admit(_page(12)) == [10]


def test_fifo_ignores_readmission():
    dc = DynamicCache(2, policy="FIFO")
    dc.admit(_page(10))
    dc.admit(_page(11))
    dc.admit(_page(10))  # re-admission must not refresh FIFO position
    assert dc.admit(_page(12)) == [10]


def test_default_policy_keeps_fresh_admission():
    dc = DynamicCache(3)
    for pid in (1, 2, 3):
        dc.admit(_page(pid))
    for pid in (1, 2, 3):
        dc.touch(pid)
    dc.admit(_page(4))
    assert 4 in dc


def test_lfu_scripted_trace():
    # admit A,B (counts 0); three hits on A; admitting C evicts B
    dc = DynamicCache(2, policy="LFU")
    dc.admit(_page(1))
    dc.admit(_page(2))
    for _ in range(3):
        dc.touch(1)
    assert dc.admit(_page(3)) == [2]
    assert set(dc.pages) == {1, 3}


def test_lfu_tie_breaks_by_insertion_age():
    dc = DynamicCache(3, policy="LFU")
    dc.admit(_page(1))  # A
    dc.admit(_page(2))  # B
    dc.admit(_page(3))  # C
    dc.touch(1)
    dc.touch(1)
    dc.touch(3)
    dc.touch(2)
    # counts {1:2, 2:1, 3:1}; 2 inserted before 3 -> evict 2
    assert dc.evict_candidate() == 2


def test_lfu_readmission_counts_as_touch():
    dc = DynamicCache(3, policy="LFU")
    dc.admit(_page(1))
    dc.admit(_page(2))
    dc.admit(_page(1))  # count(1) -> 1
    assert dc.evict_candidate() == 2


def test_random_policy_is_seeded_and_reproducible():
    def run():
        dc = DynamicCache(2, policy="RANDOM", seed=77)
        out = []
        for pid in range(8):
            out.extend(dc.admit(_page(pid)))
        return out

    first = run()
    assert first == run()
    assert len(first) == 6


def test_single_resident_page_is_the_victim_under_every_policy():
    for policy in ("LFU", "FIFO", "RANDOM"):
        dc = DynamicCache(4, policy=policy, seed=1)
        dc.admit(_page(9))
        assert dc.evict_candidate() == 9


def test_evict_candidate_on_empty_cache_is_an_error():
    with pytest.raises(RuntimeError):
        DynamicCache(2, policy="LFU").evict_candidate()


def test_capacity_and_lfu_minimality_random_traces():
    rng = np.random.default_rng(80)
    for trial in range(200):
        cap = int(rng.integers(1, 5))
        dc = DynamicCache(cap, policy="LFU", seed=trial)
        counts: dict[int, int] = {}
        for _ in range(30):
            if dc.pages and rng.random() < 0.4:
                resident = sorted(dc.pages)
                pid = int(resident[rng.integers(0, len(resident))])
                dc.touch(pid)
                counts[pid] += 1
            else:
                pid = int(rng.integers(0, 10))
                before = dict(counts)
                already = pid in dc.pages
                evicted = dc.admit(_page(pid))
                if already:
                    counts[pid] += 1
                else:
                    counts[pid] = 0
                for ev in evicted:
                    # LFU minimality: victim count <= every survivor's count
                    ref = before if ev != pid else counts
                    assert all(ref.get(ev, 0) <= counts[p] for p in dc.pages)
                    del counts[ev]
            assert len(dc.pages) <= cap
            assert set(counts) == set(dc.pages)


def test_fifo_keeps_an_older_wanted_page_over_a_newer_unwanted_one():
    dc = DynamicCache(2, policy="FIFO")
    dc.admit(_page(1))
    dc.admit(_page(2))
    # page 1 holds the queue's next candidate, page 2 none
    assert dc.admit(_page(3), wanted={1: 0, 3: 4}) == [2]
    assert set(dc.pages) == {1, 3}


@pytest.mark.parametrize("policy", POLICIES)
def test_wanted_page_with_the_later_position_goes_first(policy):
    dc = DynamicCache(2, policy=policy, seed=3)
    dc.admit(_page(1))
    dc.admit(_page(2))
    dc.touch(2)
    assert dc.admit(_page(3), wanted={1: 7, 2: 0, 3: 2}) == [1]
    assert set(dc.pages) == {2, 3}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("incoming", [None, 9], ids=["unwanted", "latest"])
def test_incoming_page_worse_than_every_resident_passes_through(policy, incoming):
    dc = DynamicCache(2, policy=policy, seed=3)
    dc.admit(_page(1))
    dc.admit(_page(2))
    wanted = {1: 0, 2: 1} if incoming is None else {1: 0, 2: 1, 3: incoming}
    assert dc.admit(_page(3), wanted=wanted) == [3]
    assert set(dc.pages) == {1, 2} and set(dc.freq) == {1, 2}


def test_admit_pages_passes_wanted_to_every_page_of_the_run():
    cache = HybridCache({}, 1, layout=None)
    cache.admit_pages([_page(1)])
    # pages 2 and 3 hold no wanted candidate; each passes straight through
    assert cache.admit_pages([_page(2), _page(3)], wanted={1: 0}) == [2, 3]
    assert set(cache.dynamic.pages) == {1}


class _NumberedPolicyModel:
    """Reference model of the replacement rule, numbering pages as they are
    first admitted: FIFO evicts the lowest number, LFU the lowest
    (count, number), RANDOM a seeded draw from the sorted resident ids."""

    def __init__(self, capacity: int, policy: str, seed: int):
        self.capacity, self.policy = capacity, policy
        self.freq: dict[int, int] = {}
        self.number: dict[int, int] = {}
        self.next_number = 0
        self.rng = random.Random(seed)

    def touch(self, pid: int) -> None:
        self.freq[pid] += 1

    def admit(self, pid: int, wanted: dict[int, int] | None = None) -> list[int]:
        """With wanted, a victim minimizes (wanted, -position, policy key):
        unwanted pages first, then the latest position; RANDOM draws only
        among the unwanted pages, if any."""
        if pid in self.freq:
            self.freq[pid] += 1
        else:
            self.freq[pid] = 0
            self.number[pid] = self.next_number
            self.next_number += 1
        wanted = wanted or {}

        def rank(p: int) -> tuple[bool, int]:
            return (p in wanted, -wanted.get(p, 0))

        evicted = []
        while len(self.freq) > self.capacity:
            if self.policy == "FIFO":
                victim = min(self.freq, key=lambda p: (rank(p), self.number[p]))
            elif self.policy == "LFU":
                victim = min(self.freq, key=lambda p: (rank(p), self.freq[p], self.number[p]))
            else:
                unwanted = sorted(p for p in self.freq if p not in wanted)
                if unwanted:
                    victim = unwanted[self.rng.randrange(len(unwanted))]
                else:
                    victim = min(self.freq, key=rank)
            del self.freq[victim], self.number[victim]
            evicted.append(victim)
        return evicted


@settings(max_examples=300, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    capacity=st.integers(0, 5),
    seed=st.integers(0, 2**16),
    trace=st.lists(st.tuples(st.booleans(), st.integers(0, 11)), max_size=60),
)
def test_eviction_sequence_matches_numbered_model(policy, capacity, seed, trace):
    dc = DynamicCache(capacity, policy=policy, seed=seed)
    model = _NumberedPolicyModel(capacity, policy, seed)
    for is_admit, value in trace:
        if is_admit:
            assert dc.admit(_page(value)) == model.admit(value)
        elif dc.pages:
            pid = sorted(dc.pages)[value % len(dc.pages)]
            dc.touch(pid)
            model.touch(pid)
        assert dc.freq == model.freq


@settings(max_examples=300, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    capacity=st.integers(0, 5),
    seed=st.integers(0, 2**16),
    trace=st.lists(
        st.tuples(
            st.booleans(),
            st.integers(0, 11),
            # the pages that hold queue candidates, in order of their first one
            st.one_of(st.none(), st.lists(st.integers(0, 11), unique=True, max_size=8)),
        ),
        max_size=60,
    ),
)
def test_eviction_with_wanted_maps_matches_numbered_model(policy, capacity, seed, trace):
    dc = DynamicCache(capacity, policy=policy, seed=seed)
    model = _NumberedPolicyModel(capacity, policy, seed)
    for is_admit, value, queue_pages in trace:
        if is_admit:
            wanted = None if queue_pages is None else {p: i for i, p in enumerate(queue_pages)}
            assert dc.admit(_page(value), wanted) == model.admit(value, wanted)
        elif dc.pages:
            pid = sorted(dc.pages)[value % len(dc.pages)]
            dc.touch(pid)
            model.touch(pid)
        assert dc.freq == model.freq
        assert list(dc.pages) == sorted(dc.pages, key=model.number.__getitem__)


# -------------------------------------------------------------------- config


def test_cache_config_split():
    cfg = CacheConfig(total_budget_nodes=100, static_fraction=0.2)
    assert cfg.static_capacity_nodes == 20
    assert cfg.dynamic_capacity_pages(page_capacity=4) == 20


def test_default_split_of_the_benchmark_budget():
    # the small-cache benchmark budget, in pages of 20 node records
    cfg = CacheConfig(400)
    assert cfg.static_capacity_nodes == 20
    assert cfg.dynamic_capacity_pages(page_capacity=20) == 19


@settings(max_examples=300, deadline=None)
@given(
    budget=st.integers(0, 100_000),
    fraction=st.floats(0.0, 1.0),
    cap=st.integers(1, 1_000),
)
def test_split_never_exceeds_the_budget(budget, fraction, cap):
    cfg = CacheConfig(budget, fraction)
    assert cfg.static_capacity_nodes + cfg.dynamic_capacity_pages(cap) * cap <= budget


def test_cache_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(total_budget_nodes=10, policy="LRU")
    with pytest.raises(ValueError):
        CacheConfig(total_budget_nodes=10, static_fraction=1.5)


@pytest.mark.parametrize("static_fraction", [0.0, 0.05, 0.2, 0.9, 1.0])
@pytest.mark.parametrize("window_pages", [0, 2, 5])
def test_auto_budget_is_the_smallest_that_holds_a_window(smoke, static_fraction, window_pages):
    with smoke.index("sim") as index:
        plain = auto_budget_nodes(index.reader)
        budget = auto_budget_nodes(index.reader, static_fraction, window_pages)
    cap = index.layout.page_capacity

    def pages(b: int) -> int:
        return CacheConfig(b, static_fraction).dynamic_capacity_pages(cap)

    if static_fraction == 1.0 or pages(plain) >= window_pages:
        assert budget == plain
    else:
        assert pages(budget) >= window_pages > pages(budget - 1)


# ------------------------------------------------------------------- preload


def test_preload_capacity_zero_and_one(tmp_path):
    vecs = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], dtype=np.float32)
    adjacency = [[1], [0, 2], [1]]
    _, graph, lm, path, _, _ = write_custom_index(tmp_path, vecs, adjacency, entry=1, R=2)
    from diskvec.diskstore import IndexReader

    with IndexReader(path) as r:
        assert preload_static(graph, r, lm, 0) == {}
        only = preload_static(graph, r, lm, 1)
        assert set(only) == {1}


def test_preload_star_graph_truncates_final_hop_by_id(tmp_path):
    vecs = np.zeros((6, 2), dtype=np.float32)
    vecs[:, 0] = np.arange(6)
    adjacency = [[1, 2, 3, 4, 5], [0], [0], [0], [0], [0]]
    _, graph, lm, path, _, _ = write_custom_index(tmp_path, vecs, adjacency, entry=0, R=5)
    from diskvec.diskstore import IndexReader

    with IndexReader(path) as r:
        got = preload_static(graph, r, lm, 4)
    assert set(got) == {0, 1, 2, 3}  # entry plus the three lowest-id leaves


def test_preload_walks_the_adjacency_it_reads_not_the_graph(smoke):
    hollow = GraphIndex(
        adjacency=[np.empty(0, dtype=np.int64)] * smoke.dataset.n, entry_id=0, R=smoke.graph.R
    )
    with smoke.index("sim").reader as r:
        for capacity in (1, 5, 37, 150, smoke.dataset.n):
            want = preload_static(smoke.graph, r, smoke.layout_sim, capacity)
            got = preload_static(hollow, r, smoke.layout_sim, capacity)
            assert list(got) == list(want)
            for node, (vec, adj) in want.items():
                assert got[node][0].tobytes() == vec.tobytes()
                assert got[node][1].tobytes() == adj.tobytes()


@settings(max_examples=300, deadline=None)
@given(pages=st.sets(st.integers(0, 40), max_size=12), held=st.sets(st.integers(0, 40)))
def test_bridge_gaps_adds_each_short_gap_that_holds_no_held_page(pages, held):
    out = bridge_gaps(pages, held)
    assert pages <= out
    assert not (out - pages) & held
    ids = sorted(pages)
    for a, b in zip(ids, ids[1:]):
        gap = set(range(a + 1, b))
        if len(gap) <= PRELOAD_GAP_PAGES and not gap & held:
            assert gap <= out
        else:
            assert not gap & out
    # so every added page lies in a gap of at most PRELOAD_GAP_PAGES pages
    # between two input pages
    for p in out - pages:
        below, above = max(q for q in ids if q < p), min(q for q in ids if q > p)
        assert above - below - 1 <= PRELOAD_GAP_PAGES
    assert bridge_gaps(out, held) == out


# --------------------------------------------------------------- read plans


@st.composite
def _plan_inputs(draw):
    """One plan's inputs as beam_search builds them: the missed pages in
    batch order, each with a window that covers it; wanted from the pages of
    the queue after the beam, each at its first position; the resident
    pages, the free room and the beam width."""
    windows = {}
    for page in draw(st.lists(st.integers(0, 20), min_size=1, max_size=4, unique=True)):
        width = draw(st.integers(1, 4))
        start = draw(st.integers(max(page - width + 1, 0), page))
        windows[page] = range(start, start + width)
    later = draw(st.lists(st.integers(0, 20), min_size=10, max_size=40))
    wanted = dict(zip(reversed(later), range(len(later) - 1, -1, -1)))
    resident = draw(st.sets(st.integers(0, 20), max_size=6))
    return windows, wanted, resident, draw(st.integers(0, 16)), draw(st.integers(1, 4))


def _before_gaps(*inputs) -> set[int]:
    """The plan of plan_reads before its last pass, the gap rule."""
    with mock.patch.object(cache_module, "bridge_gaps", lambda pages, held: set(pages)):
        return plan_reads(*inputs)


def test_plan_reads_grows_windows_then_next_beam_then_fill_then_gaps():
    windows = {10: range(10, 12), 17: range(17, 19)}
    wanted = {11: 9, 12: 0, 13: 7, 14: 8, 18: 5}
    # windows take 11 and 18, the next beam 12; the gap 13-16 is too long
    assert plan_reads(windows, wanted, {16}, 0, 4) == {10, 11, 12, 17, 18}
    # two free pages take 13 and 14; the gap 15-16 holds a resident page
    assert plan_reads(windows, wanted, {16}, 7, 4) == {10, 11, 12, 13, 14, 17, 18}
    assert plan_reads(windows, wanted, set(), 7, 4) == set(range(10, 19))
    # a missed page that an earlier miss's window planned grows no window
    windows = {10: range(10, 12), 11: range(11, 13)}
    assert plan_reads(windows, {11: 0, 12: 9}, set(), 0, 4) == {10, 11}


@settings(max_examples=300, deadline=None)
@given(_plan_inputs())
def test_plan_reads_takes_misses_takeable_pages_and_short_gaps_only(inputs):
    windows, wanted, resident, room, beam_width = inputs
    plan = plan_reads(*inputs)
    assert windows.keys() <= plan
    assert plan & resident <= windows.keys()
    # any other page is wanted and not resident, or lies in a short gap that
    # holds no resident page between two pages that are
    own = sorted(plan & (windows.keys() | (wanted.keys() - resident)))
    for p in plan.difference(own):
        below = max((q for q in own if q < p), default=None)
        above = min((q for q in own if q > p), default=None)
        assert below is not None and above is not None
        gap = range(below + 1, above)
        assert len(gap) <= PRELOAD_GAP_PAGES and resident.isdisjoint(gap)


@settings(max_examples=300, deadline=None)
@given(_plan_inputs())
def test_plan_reads_fills_only_free_room_and_without_room_is_window_and_next_beam(inputs):
    windows, wanted, resident, room, beam_width = inputs
    base = _before_gaps(windows, wanted, resident, 0, beam_width)
    filled = _before_gaps(*inputs)
    # the fill only adds pages, and never past the free room
    assert base <= filled
    assert filled == base if len(base) >= room else len(filled) <= room
    # without room: the window and next-beam passes, then the gap rule
    assert plan_reads(windows, wanted, resident, 0, beam_width) == bridge_gaps(base, resident)
    takeable = wanted.keys() - resident
    in_window = set().union(*windows.values())
    for p in base - windows.keys():
        assert p in takeable and (p in in_window or wanted[p] < beam_width)
    for p in base:
        for q in (p - 1, p + 1):
            if q in takeable and wanted[q] < beam_width:
                assert q in base


def _runs(pages: set[int]) -> int:
    ids = sorted(pages)
    return sum(1 for i, p in enumerate(ids) if i == 0 or p != ids[i - 1] + 1)


def _preload_reads(graph, lm, capacity: int) -> tuple[int, int, int]:
    """(requests, pages, nodes) of the preload, walked on the graph the index
    was written from: per hop, the admitted nodes' pages that no earlier hop
    read, plus each gap of up to PRELOAD_GAP_PAGES pages between two of them
    that holds no page read before, one request per run."""
    ops, read, hop, visited, admitted = 0, set(), [graph.entry_id], {graph.entry_id}, 0
    while hop and admitted < capacity:
        admit = hop[: capacity - admitted]
        admitted += len(admit)
        new = sorted({lm.page_of(node) for node in admit} - read)
        span = set(new)
        for a, b in zip(new, new[1:]):
            gap = set(range(a + 1, b))
            if len(gap) <= PRELOAD_GAP_PAGES and not gap & read:
                span |= gap
        ops += _runs(span)
        read |= span
        nxt = {j for node in hop for j in graph.adjacency[node].tolist()} - visited
        visited |= nxt
        hop = sorted(nxt)
    return ops, len(read), admitted


def test_preload_reads_each_page_once_in_runs_per_hop(smoke):
    lm, graph = smoke.layout_sim, smoke.graph
    with smoke.index("sim").reader as r:
        for capacity in (1, 5, 37, 150, smoke.dataset.n):
            ops0, pages0, _ = r.stats.snapshot()
            entries = preload_static(graph, r, lm, capacity)
            ops1, pages1, _ = r.stats.snapshot()
            pages_read = pages1 - pages0
            assert (ops1 - ops0, pages_read, len(entries)) == _preload_reads(graph, lm, capacity)
            assert pages_read >= len({lm.page_of(node) for node in entries})


def test_preload_reads_through_short_gaps_no_hop_has_read(tmp_path):
    # one node per page, so node v is on page v; the entry 3 has leaves on
    # pages 2, 4, 8 and 13. Page 3 lies between 2 and 4 but hop 0 read it, so
    # they stay apart; 5-7 lie between 4 and 8 and are read through; 9-12 are
    # one page too many
    leaves = [2, 4, 8, 13]
    vecs = np.zeros((14, 2), dtype=np.float32)
    vecs[:, 0] = np.arange(14)
    adjacency = [[3] for _ in range(14)]
    adjacency[3] = leaves
    _, graph, lm, path, _, _ = write_custom_index(
        tmp_path, vecs, adjacency, entry=3, R=4, page_size=48
    )
    from diskvec.diskstore import IndexReader

    assert PRELOAD_GAP_PAGES == 3
    assert [lm.page_of(v) for v in range(14)] == list(range(14))
    with IndexReader(path) as r:
        runs = []
        read_pages = r.read_pages

        def recording(page_ids):
            out = read_pages(page_ids)
            runs.extend([page.page_id for page in run] for run in out)
            return out

        r.read_pages = recording
        entries = preload_static(graph, r, lm, 5)
        assert r.stats.snapshot()[:2] == (4, 8)
    assert set(entries) == {3, *leaves}
    assert runs == [[3], [2], [4, 5, 6, 7, 8], [13]]


def test_from_config_adds_the_preload_to_the_reader_totals(smoke):
    # the reader's totals only grow: a read before the preload stays counted
    with smoke.index("sim") as index:
        index.reader.read_page(0)
        cache = HybridCache.from_config(CacheConfig(150, static_fraction=0.5), index)
        ops, pages, nodes = _preload_reads(smoke.graph, index.layout, 75)
        assert len(cache.static) == nodes
        assert index.reader.stats.snapshot()[:2] == (1 + ops, 1 + pages)
        HybridCache.from_config(CacheConfig(0), index)
        assert index.reader.stats.snapshot()[:2] == (1 + ops, 1 + pages)


def _recorded_preload(r, lm, capacity):
    """preload_static's entries and the ids of the pages it read, in read
    order, as the reader served them."""
    read: list[int] = []
    read_pages = r.read_pages

    def recording(page_ids):
        out = read_pages(page_ids)
        read.extend(page.page_id for run in out for page in run)
        return out

    r.read_pages = recording
    try:
        return preload_static(None, r, lm, capacity), read
    finally:
        r.read_pages = read_pages


@pytest.mark.parametrize("policy", POLICIES)
def test_preloaded_pages_seed_the_dynamic_share_in_read_order(smoke, policy):
    # the share takes the first cap pages the preload read, in that order,
    # and evicts none of them; a plain dict seeds nothing
    lm = smoke.layout_sim
    with smoke.index("sim").reader as r:
        entries, read = _recorded_preload(r, lm, 37)
        assert [page.page_id for page in entries.pages] == read
        assert len(read) > 4
        for cap in (0, 1, 4, len(read), len(read) + 3):
            cache = HybridCache(entries, cap, lm, policy=policy)
            assert list(cache.dynamic.pages) == read[:cap]
            assert all(cache.dynamic.get(page.page_id) is page for page in entries.pages[:cap])
            assert cache.static == dict(entries)
        assert not HybridCache(dict(entries), 8, lm).dynamic.pages


def test_non_static_node_on_a_preloaded_page_is_a_dynamic_hit_without_a_read(smoke):
    lm = smoke.layout_sim
    with smoke.index("sim").reader as r:
        entries = preload_static(None, r, lm, 5)
        cache = HybridCache(entries, 2, lm)
        seeded = {page.page_id for page in entries.pages[:2]}
        node = next(
            int(nid) for pid in sorted(seeded) for nid in lm.nodes_on_page(pid)
            if int(nid) not in entries
        )
        before = r.stats.snapshot()
        stats = HitStats()
        hit = cache.lookup(node, phase=1, hits=stats)
        assert r.stats.snapshot() == before
        direct_vec, direct_adj = r.read_page(lm.page_of(node)).slot(
            lm.slot_of(node), expect_node=node
        )
    assert hit is not None and hit[0] == "dynamic"
    assert (stats.phase1.dynamic_hits, stats.phase1.misses) == (1, 0)
    assert hit[1].tobytes() == direct_vec.tobytes()
    assert hit[2].tobytes() == direct_adj.tobytes()


# ------------------------------------------------------------ hybrid lookups


def test_lookup_static_dynamic_miss_paths(smoke):
    lm = smoke.layout_sim
    with smoke.index("sim").reader as r:
        entries = preload_static(smoke.graph, r, lm, 5)
        cache = HybridCache(entries, 2, lm)
        stats = HitStats()
        entry_node = smoke.graph.entry_id
        hit = cache.lookup(entry_node, phase=1, hits=stats)
        assert hit is not None and hit[0] == "static"

        # pick a node outside the static set, admit its page, expect a dynamic hit
        outside = next(n for n in range(smoke.dataset.n) if n not in entries)
        assert cache.lookup(outside, phase=2, hits=stats) is None
        cache.admit_pages(r.read_page_range(ReadInterval(lm.page_of(outside), 1)))
        hit = cache.lookup(outside, phase=2, hits=stats)
        assert hit is not None and hit[0] == "dynamic"

        assert stats.phase1.static_hits == 1
        assert stats.phase2.dynamic_hits == 1
        assert stats.phase2.misses == 1

        # fill-evict-lookup under FIFO: overflowing the 2-page capacity twice
        # pushes the first-admitted page out, turning its node into a miss
        fifo = HybridCache({}, 2, lm, policy="FIFO")
        fifo.admit_pages(r.read_page_range(ReadInterval(lm.page_of(outside), 1)))
        assert fifo.lookup(outside, phase=2, hits=stats) is not None
        other_pages = [p for p in range(r.header.total_pages) if p != lm.page_of(outside)]
        fifo.admit_pages(r.read_page_range(ReadInterval(other_pages[0], 1)))
        fifo.admit_pages(r.read_page_range(ReadInterval(other_pages[1], 1)))
        assert fifo.lookup(outside, phase=2, hits=stats) is None


def test_hits_return_bytes_identical_to_direct_reads(smoke):
    lm = smoke.layout_sim
    rng = np.random.default_rng(81)
    with smoke.index("sim").reader as r:
        entries = preload_static(smoke.graph, r, lm, 20)
        cache = HybridCache(entries, 8, lm)
        cache.admit_pages(r.read_page_range(ReadInterval(0, 8)))
        for node in rng.integers(0, smoke.dataset.n, size=60).tolist():
            hit = cache.lookup(int(node), phase=2, hits=HitStats())
            page = r.read_page(lm.page_of(node))
            direct_vec, direct_adj = page.slot(lm.slot_of(node), expect_node=node)
            if hit is not None:
                _, vec, adj = hit
                assert vec.tobytes() == direct_vec.tobytes()
                assert np.array_equal(adj, direct_adj)


def test_static_contents_frozen_under_admissions(smoke):
    lm = smoke.layout_sim
    with smoke.index("sim").reader as r:
        entries = preload_static(smoke.graph, r, lm, 10)
        cache = HybridCache(entries, 2, lm)
        before = {k: (v[0].tobytes(), v[1].tobytes()) for k, v in cache.static.items()}
        for pid in range(min(12, r.header.total_pages)):
            cache.admit_pages(r.read_page_range(ReadInterval(pid, 1)))
            cache.lookup(int(lm.nodes_on_page(pid)[0]), phase=2, hits=HitStats())
        after = {k: (v[0].tobytes(), v[1].tobytes()) for k, v in cache.static.items()}
        assert before == after
