"""Sweep the cache's static share over budgets and seeds, and record it.

    python3 tools/static_share.py --seeds 1-10 --out BENCH_<sha>.json

Per seed it generates the benchmark's inputs and builds, calibrates and
checks one index through bench/harness.py's own functions; the benchmark's
two workloads differ only in their budget, so one build serves every budget.
For each budget and static fraction it then does what the harness's set-up
and first measured pass do: preload the static share by BFS, size the
dynamic share, run the 200 warm-up queries and one pass over the 500 pool
queries. Requests and bytes per query are the reader's totals over those
reads, static preload included, divided by the 700 queries, as the harness
counts `io_ops_per_query` and `bytes_read_per_query`. Every pool query is
checked as the harness checks it (k distinct ids, exact distances, the ids of
the uncached search); "failed" counts the queries that are not.

The result is written under the key "static_share" of --out, which keeps any
other keys it already holds. It imports diskvec from this checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as bench/run.py runs

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tools")]
import numpy as np  # noqa: E402

import harness  # noqa: E402
from bench_pairs import merge_into, seeds_arg  # noqa: E402
from diskvec import cache as cachemod  # noqa: E402
from diskvec import search  # noqa: E402

BUDGETS = (400, 1_000, 2_000, 8_000)
FRACTIONS = (0.0, 0.025, 0.05, 0.1, 0.2)
WORKLOAD = harness.WORKLOADS["query-small-cache"]


def sweep_seed(seed: int) -> dict:
    """{budget: {fraction: counts}} for one seed's index."""
    w = WORKLOAD
    ds, pool, warm = harness.generate(w, seed)
    with tempfile.TemporaryDirectory() as tmp:
        idx = harness.build_index(w, ds, seed, Path(tmp))
        try:
            problems = harness.index_problems(w, ds, idx)
            cal = search.calibrate_theta(
                ds, idx.reader, idx.layout, idx.codebook, idx.codes, k=w.k, l=w.l,
                sample_fraction=w.calib_fraction, seed=seed,
                beam_width=w.beam_width, window_pages=w.window_pages)
            params = search.SearchParams(k=w.k, l=w.l, beam_width=w.beam_width,
                                         theta=cal.theta, window_pages=w.window_pages)
            refs = harness.reference_ids(pool, range(len(pool)), params, idx)
            cap = idx.layout.page_capacity
            queries = len(warm) + len(pool)
            out: dict = {}
            for budget in BUDGETS:
                for f in FRACTIONS:
                    cfg = cachemod.CacheConfig(budget, f)
                    base = idx.reader.stats.snapshot()
                    static = cachemod.preload_static(idx.graph, idx.reader, idx.layout,
                                                     cfg.static_capacity_nodes)
                    hc = cachemod.HybridCache(static, cfg.dynamic_capacity_pages(cap),
                                              idx.layout, policy=cfg.policy, seed=cfg.seed)
                    harness._pass(warm, params, idx, hc)
                    first = harness._pass(pool, params, idx, hc)
                    end = idx.reader.stats.snapshot()
                    out.setdefault(str(budget), {})[str(f)] = {
                        "static_nodes": cfg.static_capacity_nodes,
                        "dynamic_pages": cfg.dynamic_capacity_pages(cap),
                        "io_ops_per_query": (end[0] - base[0]) / queries,
                        "bytes_read_per_query": (end[2] - base[2]) / queries,
                        "failed": harness.check(first, ds, pool, refs, w.k) + len(problems),
                    }
                    print(seed, budget, f, json.dumps(out[str(budget)][str(f)]), file=sys.stderr)
        finally:
            idx.reader.close()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    per_seed = {seed: sweep_seed(seed) for seed in args.seeds}
    table: dict = {}
    for budget in map(str, BUDGETS):
        for f in map(str, FRACTIONS):
            cells = [per_seed[seed][budget][f] for seed in args.seeds]
            table.setdefault(budget, {})[f] = {
                "static_nodes": cells[0]["static_nodes"],
                "dynamic_pages": cells[0]["dynamic_pages"],
                "failed": sum(c["failed"] for c in cells),
                **{key: {"median": float(np.median([c[key] for c in cells])),
                         "runs": [c[key] for c in cells]}
                   for key in ("io_ops_per_query", "bytes_read_per_query")},
            }
    record = {
        "command": "python3 tools/static_share.py --seeds "
                   f"{args.seeds[0]}-{args.seeds[-1]} --out {args.out.name}",
        "method": "per seed one build of the benchmark's inputs, n=4,000, 20 nodes to a "
                  "page; per budget and static fraction a fresh cache, the 200 warm-up "
                  "queries and one pass over the 500 pool queries, FIFO, window 2, L=100. "
                  "Requests and bytes count every read from the static preload on, over "
                  "700 queries, as the harness does. Medians over seeds; runs in seed order.",
        "seeds": args.seeds,
        "budgets": table,
    }
    merge_into(args.out, {"static_share": record})
    return 0


if __name__ == "__main__":
    sys.exit(main())
