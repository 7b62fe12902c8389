"""Hybrid cache: a frozen static node cache preloaded by BFS from the entry
point, plus a dynamic page cache that admits every page a search reads, with
FIFO / Random / LFU replacement. The pages the preload read seed the dynamic
cache, in read order, while it has free pages, so a page that set-up read is
not read again while the cache holds it. This module owns the read rule of every
cached read: `plan_reads` states what a search with dynamic pages reads and
so admits, and `bridge_gaps` the gap rule it shares with `preload_static`.
A search plans each read from one `residency` snapshot: the resident page
ids and the free pages, read under one lock acquisition. An admission into
free pages evicts nothing.

An admission may carry `wanted`, the searching query's map from page id to
the queue position of the first unexpanded candidate on that page; a search
admits an iteration's reads with the queue that iteration leaves, fresh
neighbours included, as a cheap stand-in for Belady's MIN. Eviction then
ranks the resident pages and the incoming one alike: pages the map lacks go
first, then the wanted page with the highest position, and ties go by the
policy's own order. An incoming page that ranks worst passes through without
staying, and counts as evicted. Without the map the policy alone decides.

FIFO is the default order: an admitted page stays until the pages admitted
after it push it out. Under LFU a new page starts at count 0 among pages that
hits have already counted up, so among unwanted pages it is the next victim.

The budget is expressed in node records; the dynamic share is converted to
whole pages. Lookups and admissions are linearizable under an internal lock so
concurrent query workers can share one cache.
"""

from __future__ import annotations

import random
import threading
from collections.abc import Callable, Iterable, Set
from dataclasses import astuple, dataclass, field

import numpy as np

from .diskstore import DiskPage, Index, IndexReader, slot_size
from .layout import LayoutMap

POLICIES = ("LFU", "FIFO", "RANDOM")
DEFAULT_POLICY = "FIFO"
PRELOAD_GAP_PAGES = 3  # pages a cached read may read through between two of its pages
READ_AHEAD_BEAMS = 4  # beams of queue positions a run grows through past its window


@dataclass
class CacheConfig:
    """Budget split between the static node cache and the dynamic page cache.

    The static share defaults to 5%: about the entry and its first BFS hop on
    the benchmark graph; nodes further out save fewer reads than the dynamic
    pages their room buys (CHANGES.md has the sweep over budgets and seeds).
    """

    total_budget_nodes: int
    static_fraction: float = 0.05
    policy: str = DEFAULT_POLICY
    seed: int = 0

    def __post_init__(self) -> None:
        if self.total_budget_nodes < 0:
            raise ValueError("total_budget_nodes must be >= 0")
        if not 0.0 <= self.static_fraction <= 1.0:
            raise ValueError("static_fraction must be in [0, 1]")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")

    @property
    def static_capacity_nodes(self) -> int:
        return round(self.static_fraction * self.total_budget_nodes)

    def dynamic_capacity_pages(self, page_capacity: int) -> int:
        return (self.total_budget_nodes - self.static_capacity_nodes) // page_capacity


def auto_budget_nodes(
    reader: IndexReader, static_fraction: float = CacheConfig.static_fraction, window_pages: int = 0
) -> int:
    """The default budget: 1% of the index file, in whole node records.

    When that leaves the dynamic share fewer than window_pages whole pages
    and static_fraction is below 1, it is raised to the smallest budget whose
    dynamic share holds them, so the batch reads that misses make in either
    phase have a cache to fill.
    """
    header = reader.header
    size = (header.total_pages + 1) * header.page_size
    budget = int(0.01 * size) // slot_size(header.dim, header.R)
    if static_fraction < 1:
        # the dynamic share, budget - round(f * budget), never falls as the
        # budget grows; start the search at a lower bound on the answer
        cap = header.page_capacity
        budget = max(budget, int((window_pages * cap - 0.5) / (1 - static_fraction)) - 1)
        while CacheConfig(budget, static_fraction).dynamic_capacity_pages(cap) < window_pages:
            budget += 1
    return budget


@dataclass
class PhaseCounts:
    static_hits: int = 0
    dynamic_hits: int = 0
    misses: int = 0

    def __add__(self, other: PhaseCounts) -> PhaseCounts:
        return PhaseCounts(*(a + b for a, b in zip(astuple(self), astuple(other))))

    @property
    def lookups(self) -> int:
        return self.static_hits + self.dynamic_hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return (self.static_hits + self.dynamic_hits) / total if total else 0.0


@dataclass
class HitStats:
    """Per-phase hit/miss counters."""

    phase1: PhaseCounts = field(default_factory=PhaseCounts)
    phase2: PhaseCounts = field(default_factory=PhaseCounts)

    def __add__(self, other: HitStats) -> HitStats:
        return HitStats(self.phase1 + other.phase1, self.phase2 + other.phase2)

    def for_phase(self, phase: int) -> PhaseCounts:
        if phase == 1:
            return self.phase1
        if phase == 2:
            return self.phase2
        raise ValueError(f"phase must be 1 or 2, got {phase}")


def bridge_gaps(pages: Iterable[int], held: Set[int]) -> set[int]:
    """pages plus each gap of at most PRELOAD_GAP_PAGES pages between two
    consecutive pages of it that holds no page in held."""
    ids = sorted(pages)
    out = set(ids)
    for a, b in zip(ids, ids[1:]):
        gap = range(a + 1, b)
        if len(gap) <= PRELOAD_GAP_PAGES and held.isdisjoint(gap):
            out.update(gap)
    return out


def _grow(planned: set[int], page: int, take: Callable[[int], bool]) -> None:
    """Plan page, then the pages outward from it on either side, up to the
    first page that is planned already or that take refuses."""
    planned.add(page)
    for step in (-1, 1):
        p = page + step
        while p not in planned and take(p):
            planned.add(p)
            p += step


def plan_reads(
    windows: dict[int, range],
    wanted: dict[int, int],
    resident: Set[int],
    room: int,
    horizon: int,
) -> set[int]:
    """The pages one beam iteration reads when the dynamic share has pages,
    in either phase; the dynamic cache then admits all of them.

    windows maps each missed page, in batch order, to the page window of its
    first miss (`layout.compute_read_interval`). wanted maps a page id to the
    queue position of its first unexpanded candidate after the beam. resident
    and room are the dynamic store's page ids and free pages
    (`HybridCache.residency`). horizon is a queue position; `beam_search`
    passes READ_AHEAD_BEAMS beams of positions. A page is takeable when it is
    in wanted and not resident. The plan grows in four passes; each growth goes
    outward one page at a time on either side and stops at the first page
    that is planned already or that the pass refuses:

    1. each missed page not yet planned, in order, is planned and grows
       through the takeable pages of its window;
    2. each run of planned pages grows on past the window through the
       takeable pages whose wanted position is below horizon, the candidates
       the next beams will expand;
    3. while the planned pages are fewer than room, a read into the free
       pages evicts nothing, so each run grows on through takeable pages at
       any position until the plan fills the room; once the share is full a
       plan stops at the horizon;
    4. last, whatever the room, bridge_gaps adds each gap of up to
       PRELOAD_GAP_PAGES pages between two planned pages that holds no
       resident page, the gap rule of the static preload: the layout puts a
       query's later candidates near the pages it reads, and a request costs
       more than a few pages more.

    So every missed page is planned, and every other planned page is
    takeable or lies in such a gap. No growth takes a page that holds only
    beam nodes, since each is a hit already or a miss that plans its own
    page; a gap may hold one. The plan uses only what is in memory: the
    layout and the queue. A search without dynamic pages reads only its
    misses' pages and makes no plan.
    """
    planned: set[int] = set()
    for page, window in windows.items():
        if page not in planned:
            _grow(planned, page, lambda p: p in window and p in wanted and p not in resident)
    for page in sorted(planned):
        _grow(planned, page, lambda p: wanted.get(p, horizon) < horizon and p not in resident)
    if len(planned) < room:
        for page in sorted(planned):
            _grow(
                planned, page, lambda p: len(planned) < room and p in wanted and p not in resident
            )
    return bridge_gaps(planned, resident)


class StaticEntries(dict[int, tuple[np.ndarray, np.ndarray]]):
    """`preload_static`'s entries, node id to (vector, adjacency), and in
    `pages` the pages it read, in read order."""

    pages: tuple[DiskPage, ...] = ()


def preload_static(
    graph: object,
    reader: IndexReader,
    layout: LayoutMap,
    capacity_nodes: int,
) -> StaticEntries:
    """BFS from the entry point over the on-disk adjacency, admitting whole
    hops while they fit and truncating the final hop by ascending node id.

    Each page is read once: per hop, the pages of the admitted nodes that no
    earlier hop read, one request per run of consecutive page ids, read
    through short gaps that no hop has read by the gap rule of `plan_reads`
    (bridge_gaps). Entries are copies of the on-disk (vector, adjacency)
    bytes, so cached answers are identical to direct reads and stay valid
    whatever becomes of the pages. The pages go with the entries, for
    `HybridCache` to seed its dynamic share with; a page buffer is freed once
    neither they nor that share hold it. `graph` is unused; bench/ still
    passes one.
    """
    entries = StaticEntries()
    if capacity_nodes <= 0:
        return entries
    pages: dict[int, DiskPage] = {}
    hop = [reader.header.entry_id]
    visited = set(hop)
    while hop and len(entries) < capacity_nodes:
        room = capacity_nodes - len(entries)
        admit = hop if len(hop) <= room else hop[:room]
        needed = {layout.page_of(node) for node in admit} - pages.keys()
        for run in reader.read_pages(bridge_gaps(needed, pages.keys())):
            pages.update((page.page_id, page) for page in run)
        for node in admit:
            page = pages[layout.page_of(node)]
            vec, adj = page.slot(layout.slot_of(node), expect_node=node)
            entries[node] = (vec.copy(), adj.copy())
        if len(hop) > room:
            break
        nxt: set[int] = set()
        for node in hop:
            for j in entries[node][1].tolist():
                if j not in visited:
                    visited.add(j)
                    nxt.add(j)
        hop = sorted(nxt)
    entries.pages = tuple(pages.values())
    return entries


class DynamicCache:
    """Page store with pluggable replacement.

    LFU counts start at zero on first admission, rise by one per dynamic hit
    or re-admission, and ties evict the earliest-inserted page. FIFO ignores
    re-admission. RANDOM draws from a seeded generator. FIFO order and LFU
    ties follow `pages` itself: a dict iterates in first-insertion order, and
    overwriting a resident page keeps its place. A `wanted` map, when given,
    ranks pages before the policy does (see the module docstring).
    """

    def __init__(self, capacity_pages: int, policy: str = DEFAULT_POLICY, seed: int = 0):
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if capacity_pages < 0:
            raise ValueError("capacity_pages must be >= 0")
        self.capacity_pages = capacity_pages
        self.policy = policy
        self.pages: dict[int, DiskPage] = {}
        self.freq: dict[int, int] = {}
        self._rng = random.Random(seed)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self.pages

    def get(self, page_id: int) -> DiskPage | None:
        return self.pages.get(page_id)

    def touch(self, page_id: int) -> None:
        self.freq[page_id] += 1

    def evict_candidate(self, wanted: dict[int, int] | None = None) -> int:
        """Pick the victim page; cache must be nonempty. Pages wanted lacks
        go first, in policy order; when wanted holds every page, the one with
        the highest position goes."""
        if not self.pages:
            raise RuntimeError("cannot pick an eviction candidate from an empty cache")
        pool = self.pages
        if wanted:
            pool = [pid for pid in self.pages if pid not in wanted]
            if not pool:
                return max(self.pages, key=wanted.__getitem__)
        if self.policy == "FIFO":
            return next(iter(pool))
        if self.policy == "LFU":
            return min(pool, key=self.freq.__getitem__)  # first of equal counts
        ids = sorted(pool)
        return ids[self._rng.randrange(len(ids))]

    def admit(self, page: DiskPage, wanted: dict[int, int] | None = None) -> list[int]:
        """Insert one page, evicting until within capacity (the page itself
        may be the victim); returns the evicted page ids in order."""
        pid = page.page_id
        # re-admission refreshes LFU, not FIFO position
        self.freq[pid] = self.freq[pid] + 1 if pid in self.pages else 0
        self.pages[pid] = page
        evicted: list[int] = []
        while len(self.pages) > self.capacity_pages:
            victim = self.evict_candidate(wanted)
            del self.pages[victim]
            del self.freq[victim]
            evicted.append(victim)
        return evicted

    def reset(self) -> None:
        self.pages.clear()
        self.freq.clear()


class HybridCache:
    """Static node cache + dynamic page cache behind one lookup surface.

    static_entries are copied into the static share, which stays frozen.
    When they are `preload_static`'s, the pages the preload read are
    admitted into the dynamic share in read order until it is full, so a
    node on such a page that is not static is a dynamic hit from the first
    query on. The seeding evicts nothing, and the cache keeps no reference to
    the entries' `pages`. A plain dict carries no pages and leaves the dynamic
    share empty.
    """

    def __init__(
        self,
        static_entries: dict[int, tuple[np.ndarray, np.ndarray]],
        dynamic_capacity_pages: int,
        layout: LayoutMap,
        policy: str = DEFAULT_POLICY,
        seed: int = 0,
    ):
        self.static = dict(static_entries)
        self.dynamic = DynamicCache(dynamic_capacity_pages, policy=policy, seed=seed)
        for page in getattr(static_entries, "pages", ())[:dynamic_capacity_pages]:
            self.dynamic.admit(page)
        self.layout = layout
        self._lock = threading.Lock()

    @classmethod
    def from_config(cls, cfg: CacheConfig, index: Index) -> HybridCache:
        """Preload the static share and size the dynamic share of cfg's
        budget, seeding it with the preload's pages while it has room.

        The preload reads through index.reader, whose totals count them like
        any other read; a caller that wants them apart takes reader snapshots
        around this call.
        """
        entries = preload_static(None, index.reader, index.layout, cfg.static_capacity_nodes)
        return cls(
            entries,
            cfg.dynamic_capacity_pages(index.layout.page_capacity),
            index.layout,
            policy=cfg.policy,
            seed=cfg.seed,
        )

    @property
    def dynamic_capacity_pages(self) -> int:
        return self.dynamic.capacity_pages

    def lookup(
        self, node_id: int, phase: int, *, hits: HitStats
    ) -> tuple[str, np.ndarray, np.ndarray] | None:
        """Check static first, then the dynamic page store, and record the
        outcome in hits under phase. Returns (kind, vector, adjacency) on a
        hit; None is a miss, not an error."""
        counts = hits.for_phase(phase)
        with self._lock:
            hit = self.static.get(node_id)
            if hit is not None:
                counts.static_hits += 1
                return ("static", hit[0], hit[1])
            page_id, slot = divmod(int(self.layout.node_rank[node_id]), self.layout.page_capacity)
            page = self.dynamic.get(page_id)
            if page is not None:
                self.dynamic.touch(page_id)
                vec, adj = page.slot(slot, expect_node=node_id)
                counts.dynamic_hits += 1
                return ("dynamic", vec, adj)
            counts.misses += 1
            return None

    def residency(self) -> tuple[set[int], int]:
        """The page ids the dynamic store holds now and its free pages, read
        under one lock acquisition."""
        with self._lock:
            held = set(self.dynamic.pages)
            return held, self.dynamic.capacity_pages - len(held)

    def admit_pages(
        self, pages: list[DiskPage], *, wanted: dict[int, int] | None = None
    ) -> list[int]:
        """Write pages a search read into the dynamic store, ranking victims
        by the caller's wanted map when given; returns the evicted page ids
        in order, an admitted page that passed straight through included."""
        evicted: list[int] = []
        with self._lock:
            for page in pages:
                evicted.extend(self.dynamic.admit(page, wanted))
        return evicted

    def reset_dynamic(self) -> None:
        with self._lock:
            self.dynamic.reset()
