"""The no-regression status, claim checks and seed ranges of tools/bench_pairs.py."""

from __future__ import annotations

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# parent runs with an interquartile range of 5% of their median (10.0)
TIGHT = [9.5, 9.75, 10.0, 10.25, 10.5]
# parent runs with an interquartile range of 40% of their median (10.0)
WIDE = [7.0, 8.0, 10.0, 12.0, 13.0]


@pytest.mark.parametrize(
    "parent, change, better, status",
    [
        # spread within the bound: the median decides
        (TIGHT, [10.5, 10.75, 11.0, 11.25, 11.5], "lower", "not worse"),  # +10%
        (TIGHT, [11.5, 11.75, 12.0, 12.25, 12.5], "lower", "worse"),  # +20%
        (TIGHT, [8.5, 8.75, 9.0, 9.25, 9.5], "higher", "not worse"),  # -10%
        (TIGHT, [7.5, 7.75, 8.0, 8.25, 8.5], "higher", "worse"),  # -20%
        # spread wider than the bound: too wide to tell
        (WIDE, [8.0, 7.0, 10.0, 13.0, 12.0], "lower", "unresolved"),
        (WIDE, [6.5, 7.5, 8.0, 9.0, 12.5], "lower", "unresolved"),
        # unless every change run is better than every parent run
        (WIDE, [3.0, 4.0, 5.0, 6.0, 6.5], "lower", "not worse"),
        (WIDE, [13.5, 14.0, 15.0, 16.0, 17.0], "higher", "not worse"),
        # or every pair is identical, as a count is per seed
        (WIDE, WIDE, "lower", "not worse"),
    ],
)
def test_no_regression_status(parent, change, better, status):
    assert bench_pairs.no_regression_status(parent, change, better, bound=0.15) == status


SPEC = {
    "workloads": [{"name": "query-small-cache"}, {"name": "query-warm-cache"}],
    "end_to_end": [{"name": "io_ops_per_query"}, {"name": "recall_at_10"}],
}


@pytest.mark.parametrize(
    "claimed, workload, error",
    [
        (None, None, None),  # no gain claimed
        ("io_ops_per_query", "query-small-cache", None),
        ("io_ops_per_querry", "query-small-cache", "not an end-to-end metric"),
        ("io_ops_per_query", None, "needs --claimed-workload"),
        ("io_ops_per_query", "query-cold-cache", "not a workload"),
        (None, "query-small-cache", "needs --claimed"),
    ],
)
def test_claim_error(claimed, workload, error):
    got = bench_pairs.claim_error(SPEC, claimed, workload)
    assert got is None if error is None else error in got


def test_seeds_arg_refuses_an_empty_range():
    # an empty range would export both trees, then fail on the first record
    assert bench_pairs.seeds_arg("2-4") == [2, 3, 4]
    with pytest.raises(argparse.ArgumentTypeError, match="empty seed range '5-2'"):
        bench_pairs.seeds_arg("5-2")
