"""Tests of the benchmark itself, on shrunken copies of its workloads.

    PYTHONPATH=src python -m pytest bench
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import harness
from tracer import BEAM_SEARCH, SEARCH_CHILDREN

LAYER_TIMES = (
    "pqcodec.table_us",
    "pqcodec.distance_us",
    "layout.read_interval_us",
    "diskstore.read_us",
    "cache.lookup_us",
    "cache.admit_us",
)


def small(name: str) -> harness.Workload:
    w = harness.WORKLOADS[name]
    return dataclasses.replace(
        w, n=600, pq_c=64, budget_nodes=w.budget_nodes * 600 // w.n, pool=30, warmup=20
    )


def run(name: str, trace: bool, seed: int = 3) -> harness.Result:
    return harness.run(small(name), seed, seconds=0.2, trace=trace)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_layer_times_add_up_to_traced_search_time(name):
    result = run(name, trace=True)
    assert result.correct and result.failed == 0
    t = result.tracer
    children = sum(t.total_ns[c] for c in SEARCH_CHILDREN)
    # exact: no wrapped call is nested inside another wrapped child
    assert children + t.self_ns[BEAM_SEARCH] == t.total_ns[BEAM_SEARCH]
    queries = t.calls[BEAM_SEARCH]
    per_query_us = t.total_ns[BEAM_SEARCH] / queries / 1e3
    layers = sum(result.metrics[m][0] for m in LAYER_TIMES) + result.metrics["search.self_us"][0]
    assert math.isclose(layers, per_query_us, rel_tol=1e-9)
    assert result.metrics["search.self_us"][0] > 0


def _counts(result: harness.Result) -> dict[str, float]:
    timing_units = {"s", "us", "us/query", "ms", "1/s", "MB"}
    return {
        name: value
        for name, (value, unit) in result.metrics.items()
        if unit not in timing_units and name != "bench.trace_overhead_ratio"
    }


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_count_metrics_repeat_for_a_seed(name, trace):
    first, second = run(name, trace), run(name, trace)
    counts = _counts(first)
    assert counts and counts == _counts(second)
    # the traced run makes one untraced and one traced pass
    passes = 2 if trace else harness.MIN_PASSES
    assert first.attempted >= passes * small(name).pool
    if not trace:
        assert min(first.record["timings"].values()) > 0


def test_warm_cache_reads_nothing_once_warm():
    m = run("query-warm-cache", trace=True).metrics
    assert m["diskstore.single_reads"][0] == 0
    assert m["diskstore.range_reads"][0] == 0
    assert m["cache.evictions"][0] == 0
    assert m["cache.hit_rate_phase2"][0] == 1.0


def test_check_counts_each_kind_of_wrong_output():
    ds, pool, _ = harness.generate(small("query-small-cache"), seed=5)
    ids = [3, 1, 4]
    diff = ds.vectors[ids].astype(np.float64) - pool[0].astype(np.float64)
    dists = np.sqrt((diff * diff).sum(axis=1))

    def outcome(ids, dists, error=None):
        return harness.Outcome(0, list(ids), np.asarray(dists), None, 0.0, 0.0, error)

    refs = {0: ids}
    good = outcome(ids, dists)
    bad = [
        outcome(ids[:2], dists[:2]),  # too few ids
        outcome([3, 3, 4], dists),  # repeated id
        outcome(ids, dists * (1 + 1e-6)),  # distance not exact
        outcome([3, 4, 1], dists[[0, 2, 1]]),  # differs from the uncached search
        outcome([], [], error="Traceback"),  # raised
    ]
    assert harness.check([good], ds, pool, refs, k=3) == 0
    assert harness.check([good] + bad, ds, pool, refs, k=3) == len(bad)
