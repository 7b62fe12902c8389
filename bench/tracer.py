"""Per-layer tracing from outside the library.

A Tracer replaces public diskvec functions, on the module or class through
which the search path resolves them, with wrappers that time each call and
count its work. Spans nest: each wrapper adds its duration to the span that
is open around it, so a layer's self time is its duration minus the time of
the wrapped calls inside it. Nothing is patched outside `installed()`, so an
untraced run executes the library unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from typing import Callable, Iterator

from diskvec import search
from diskvec.cache import HybridCache
from diskvec.diskstore import IndexReader

# Calls that beam_search makes, by the name the traced metric uses.
SEARCH_CHILDREN = (
    "pqcodec.build_distance_table",
    "pqcodec.pq_distance",
    "pqcodec.pq_distance_batch",
    "layout.compute_read_interval",
    "diskstore.read_page",
    "diskstore.read_page_range",
    "cache.lookup",
    "cache.admit_pages",
)
BEAM_SEARCH = "search.beam_search"


class Tracer:
    """Aggregated spans (call count, inclusive and self time per name) plus
    the counts that the wrappers observe at each layer boundary."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []  # child time of each open span
        # dynamic-cache residencies that began while tracing: page -> served a hit
        self._resident: dict[int, bool] = {}
        self._closed_useful = 0

    def _wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ctx = before(*args) if before is not None else None
            tracer._open.append(0)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = time.perf_counter_ns() - start
                child = tracer._open.pop()
                tracer.calls[name] += 1
                tracer.total_ns[name] += took
                tracer.self_ns[name] += took - child
                if tracer._open:
                    tracer._open[-1] += took
            if after is not None:
                after(args, out, ctx)
            return out

        return traced

    # -- counting hooks; each runs after the call it observes ---------------

    def _after_lookup(self, args, out, _ctx) -> None:
        cache, node_id, phase = args
        kind = "miss" if out is None else out[0]
        self.counts[f"phase{phase}.{kind}"] += 1
        if kind == "dynamic":
            page = cache.layout.page_of(node_id)
            if page in self._resident:
                self._resident[page] = True

    @staticmethod
    def _before_admit(cache: HybridCache, pages) -> list[bool]:
        return [p.page_id in cache.dynamic for p in pages]

    def _after_admit(self, args, evicted, was_resident) -> None:
        pages = args[1]
        self.counts["pages_admitted"] += len(pages)
        self.counts["evictions"] += len(evicted)
        for page, resident in zip(pages, was_resident):
            if not resident:
                self.counts["residencies"] += 1
                self._resident[page.page_id] = False
        for page_id in evicted:
            self._closed_useful += self._resident.pop(page_id, False)

    def _after_read_page(self, _args, _out, _ctx) -> None:
        self.counts["single_reads"] += 1
        self.counts["pages_read"] += 1

    def _after_read_range(self, args, _out, _ctx) -> None:
        self.counts["range_reads"] += 1
        self.counts["range_pages"] += args[1].page_count
        self.counts["pages_read"] += args[1].page_count

    def _after_pq_distance(self, _args, _out, _ctx) -> None:
        self.counts["codes_scored"] += 1

    def _after_pq_batch(self, args, _out, _ctx) -> None:
        self.counts["codes_scored"] += len(args[1])

    @property
    def useful_residencies(self) -> int:
        """Residencies begun under tracing that served at least one dynamic
        hit, whether since evicted or still resident."""
        return self._closed_useful + sum(self._resident.values())

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch the search path for the duration of the block."""
        targets = [
            (search, "beam_search", BEAM_SEARCH, None, None),
            (search, "build_distance_table", "pqcodec.build_distance_table", None, None),
            (search, "pq_distance", "pqcodec.pq_distance", None, self._after_pq_distance),
            (search, "pq_distance_batch", "pqcodec.pq_distance_batch", None, self._after_pq_batch),
            (search, "compute_read_interval", "layout.compute_read_interval", None, None),
            (IndexReader, "read_page", "diskstore.read_page", None, self._after_read_page),
            (IndexReader, "read_page_range", "diskstore.read_page_range", None, self._after_read_range),
            (HybridCache, "lookup", "cache.lookup", None, self._after_lookup),
            (HybridCache, "admit_pages", "cache.admit_pages", self._before_admit, self._after_admit),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in targets]
        try:
            for owner, attr, name, before, after in targets:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), before, after))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
