"""Benchmark CLI: synth, build, layout, gt, calibrate, query, bench, compare.

Every run echoes its full effective configuration into its output, reports are
line-delimited key=value text, and exit codes are 0 (ok), 2 (usage/argument),
3 (data/format), 4 (internal invariant violation).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import diskstore, graphbuild, layout as layoutmod, pqcodec, search, vecdata
from .cache import DEFAULT_POLICY, POLICIES, CacheConfig, HybridCache, auto_budget_nodes
from .diskstore import GRAPH_FILE, INDEX_FILE, LAYOUT_FILE, PQ_FILE, Index
from .errors import FormatError, InvariantError

THETA_FILE = "theta.txt"
BUILD_META_FILE = "build_meta.txt"

_TIMING_KEYS = frozenset({
    "qps",
    "wall_time_s",
    "latency_s",
    "latency_mean_ms",
    "latency_p50_ms",
    "latency_p95_ms",
    "latency_p99_ms",
    "compare_qps_ratio_a_over_b",
})


def is_timing_key(key: str) -> bool:
    """Whether a report key holds a wall-clock figure, which varies run to
    run even under fixed seeds; compare's a_/b_ prefixes are looked through."""
    return key in _TIMING_KEYS or (key[:2] in ("a_", "b_") and key[2:] in _TIMING_KEYS)


def _fmt(v) -> str:
    if v is None:
        return "unavailable"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def _emit_report(pairs: Iterable[tuple[str, object]], out_path: str | Path | None) -> None:
    text = "".join(f"{k}={_fmt(v)}\n" for k, v in pairs)
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _fields(obj, prefix: str = "") -> list[tuple[str, object]]:
    """A dataclass's scalar fields, or the parsed flags, as report pairs: the
    lower-cased field names or flag dests, prefixed, are the keys, in
    declaration order (for flags: `command`, then the subcommand's flags)."""
    if isinstance(obj, argparse.Namespace):
        pairs = [(prefix + k, v) for k, v in vars(obj).items()]
    else:
        pairs = [(prefix + f.name.lower(), getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    return [(k, v) for k, v in pairs if v is None or isinstance(v, (int, float, str))]


def parse_report(path: str | Path) -> dict[str, str]:
    """Read a key=value report back into a dict (keys keep file order); a
    file that is not UTF-8 text is bad data in that file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    out: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        out[key] = value
    return out


# ---------------------------------------------------------------- subcommands


def cmd_synth(args: argparse.Namespace) -> None:
    """Gaussian-blob generator (synthetic stand-in for the public corpora;
    not derived from any published dataset)."""
    if args.n < 1 or args.dim < 1 or args.blobs < 1:
        raise ValueError("n, dim, and blobs must all be positive")
    if args.queries < 0:
        raise ValueError(f"--queries must be >= 0, got {args.queries}")
    if args.queries > 0 and not args.queries_out:
        raise ValueError("--queries-out is required when --queries > 0")
    for flag, value in (("--spread", args.spread), ("--center-spread", args.center_spread)):
        if not 0.0 <= value < np.inf:  # also refuses nan
            raise ValueError(f"{flag} must be finite and >= 0, got {value}")
    rng = np.random.default_rng(args.seed)
    centers = rng.normal(0.0, args.center_spread, size=(args.blobs, args.dim))
    membership = rng.integers(0, args.blobs, size=args.n)
    base = centers[membership] + rng.normal(0.0, args.spread, size=(args.n, args.dim))
    vecdata.write_fvecs(args.out, base.astype(np.float32))
    if args.queries > 0:
        q_membership = rng.integers(0, args.blobs, size=args.queries)
        qs = centers[q_membership] + rng.normal(0.0, args.spread, size=(args.queries, args.dim))
        vecdata.write_fvecs(args.queries_out, qs.astype(np.float32))
    _emit_report(_fields(args), None)


def cmd_build(args: argparse.Namespace) -> None:
    if args.pq_m < 0:
        raise ValueError(f"--pq-m must be >= 0 (0 = auto), got {args.pq_m}")
    dataset = vecdata.load_fvecs(args.dataset)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        graph, repair_edges = graphbuild.build_graph_counting_repairs(
            dataset, R=args.r, L_build=args.l_build, alpha=args.alpha, seed=args.seed
        )
        pq_m = args.pq_m or pqcodec.default_subspace_count(dataset.dim)
        pq_c = min(args.pq_c, dataset.n)
        codebook = pqcodec.train(dataset, m=pq_m, c=pq_c, seed=args.seed)
        codes = pqcodec.encode_dataset(dataset, codebook)
    except ValueError as exc:
        raise ValueError(f"build failed: {exc}") from exc
    graphbuild.save_graph(out_dir / GRAPH_FILE, graph)
    pqcodec.save_pq(out_dir / PQ_FILE, codebook, codes)
    degrees = np.array([neigh.size for neigh in graph.adjacency])
    # the flags, with the PQ sizes the run used in place, then the measures
    report = dict(
        _fields(args),
        pq_m=pq_m,
        pq_c=pq_c,
        n=dataset.n,
        dim=dataset.dim,
        entry_id=graph.entry_id,
        mean_degree=float(degrees.mean()),
        max_degree=int(degrees.max()),
        repair_edges=repair_edges,
    )
    _emit_report(report.items(), out_dir / BUILD_META_FILE)
    _emit_report(report.items(), None)


def cmd_layout(args: argparse.Namespace) -> None:
    dataset = vecdata.load_fvecs(args.dataset)
    index_dir = Path(args.index_dir)
    graph = graphbuild.load_graph(index_dir / GRAPH_FILE)
    if graph.n != dataset.n:
        raise ValueError(
            f"graph has {graph.n} nodes but dataset has {dataset.n}; wrong --dataset?"
        )
    cap = diskstore.page_capacity_for(args.page_size, dataset.dim, graph.R)
    if args.kind == "insertion":
        lm = layoutmod.build_insertion_layout(dataset, cap)
        kind_name = "insertion-order"
    else:
        lm = layoutmod.build_similarity_layout(dataset, cap, seed=args.seed)
        kind_name = "similarity"
    header = diskstore.write_index(
        dataset,
        graph,
        lm,
        index_dir / INDEX_FILE,
        page_size=args.page_size,
        layout_kind=kind_name,
    )
    layoutmod.save_layout(index_dir / LAYOUT_FILE, lm)
    # the flags, with the kind's header name in place, then the measures
    report = dict(
        _fields(args),
        kind=kind_name,
        k_clusters=lm.k_clusters,
        page_capacity=header.page_capacity,
        total_pages=header.total_pages,
    )
    _emit_report(report.items(), None)


def cmd_gt(args: argparse.Namespace) -> None:
    dataset = vecdata.load_fvecs(args.dataset)
    queries = vecdata.load_fvecs(args.queries)
    ids = vecdata.ground_truth_batch(dataset, queries.vectors, args.k)
    vecdata.write_ivecs(args.out, ids.astype(np.int32))
    _emit_report([*_fields(args), ("query_count", queries.n)], None)


def cmd_calibrate(args: argparse.Namespace) -> None:
    dataset = vecdata.load_fvecs(args.dataset)
    index_dir = Path(args.index_dir)
    with Index.open(index_dir) as index:
        cal = search.calibrate_theta(
            dataset, index.reader, index.layout, index.codebook, index.codes,
            k=args.k, l=args.l, sample_fraction=args.fraction, seed=args.seed,
            beam_width=args.beam_width,
        )
    pairs = [*_fields(args), *_fields(cal)]
    _emit_report(pairs, index_dir / THETA_FILE)
    _emit_report(pairs, None)


def _search_params(args: argparse.Namespace, index_dir: Path) -> tuple[search.SearchParams, str]:
    """The search flags, with theta from --theta, else the calibrated sidecar,
    else 0.5; also returns which of the three supplied theta. A sidecar theta
    that is missing, not a number or outside (0, 1) is bad data in that file."""
    theta, source = args.theta, "flag"
    sidecar = index_dir / THETA_FILE
    if theta is None and sidecar.is_file():
        theta, source = parse_report(sidecar).get("theta"), "sidecar"
        try:
            valid = 0.0 < float(theta) < 1.0  # False for nan, TypeError if missing
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise FormatError(f"{sidecar}: theta must be a number in (0, 1), got {theta!r}")
    if theta is None:
        theta, source = 0.5, "default"
    params = search.SearchParams(
        k=args.k,
        l=args.l,
        beam_width=args.beam_width,
        theta=float(theta),
        window_pages=args.window_pages,
    )
    return params, source


def _build_cache(args, index: Index) -> tuple[HybridCache, dict[str, object]]:
    """The cache the flags configure, and the sizes it resolved to."""
    budget = args.cache_budget
    if budget is None:
        budget = auto_budget_nodes(index.reader, args.static_frac, args.window_pages)
    cfg = CacheConfig(budget, args.static_frac, args.policy, args.cache_seed)
    cache = HybridCache.from_config(cfg, index)
    return cache, dict(
        cache_budget_nodes=budget,
        static_capacity_nodes=cfg.static_capacity_nodes,
        dynamic_capacity_pages=cache.dynamic_capacity_pages,
    )


def _trace_line(rec: search.TraceRecord) -> str:
    return f"{rec.iteration},{rec.node_id},{rec.exact_dist:.6f},{rec.phase},{rec.hit_kind}\n"


def cmd_query(args: argparse.Namespace) -> None:
    index_dir = Path(args.index_dir)
    queries = vecdata.load_fvecs(args.queries)
    if not 0 <= args.qid < queries.n:
        raise ValueError(f"--qid {args.qid} out of range [0, {queries.n})")
    with Index.open(index_dir) as index:
        params, theta_source = _search_params(args, index_dir)
        cache, sizes = _build_cache(args, index)
        results, st = search.beam_search(
            queries.vectors[args.qid], params, index.reader, index.layout, cache,
            index.codebook, index.codes, trace=bool(args.trace),
        )
    if args.trace:
        Path(args.trace).write_text("".join(_trace_line(rec) for rec in st.trace))
    # the flags, with the theta the run used in place, then the measures
    report = dict(_fields(args)) | dict([
        *_fields(index.reader.header),
        ("theta", params.theta),
        ("theta_source", theta_source),
        *sizes.items(),
        *_fields(st),
        *_fields(st.hits.phase1, "phase1_"),
        *_fields(st.hits.phase2, "phase2_"),
    ])
    for rank, (nid, dist) in enumerate(results):
        report[f"result_{rank}"] = f"{nid}:{dist:.6f}"
    _emit_report(report.items(), args.out)


def _run_bench(
    args, index_dir: Path, trace: bool = False
) -> tuple[list[tuple[str, object]], search.WorkloadReport]:
    """Run the workload the flags configure on one index dir; returns the
    report pairs of what the run resolved and measured, and the report."""
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    queries = vecdata.load_fvecs(args.queries)
    gt = vecdata.load_ivecs(args.gt) if args.gt else None
    with Index.open(index_dir) as index:
        n = index.reader.header.n
        bad = gt[(gt < 0) | (gt >= n)] if gt is not None else ()
        if len(bad):
            raise FormatError(f"{args.gt}: ground-truth id {int(bad[0])} is outside [0, {n})")
        bypass = "inactive"
        if args.os_bypass:
            bypass = "dontneed-advised" if index.reader.advise_drop_os_cache() else "unsupported"
        params, theta_source = _search_params(args, index_dir)
        cache, sizes = _build_cache(args, index)
        # this run opened the reader, so its totals so far are the preload's
        preload = index.reader.stats.snapshot()
        report = search.run_workload(
            queries.vectors, params, index, cache, gt=gt, workers=args.workers,
            reset_per_query=args.reset_per_query, trace=trace,
        )

    pairs: list[tuple[str, object]] = [
        *_fields(index.reader.header),
        ("theta", params.theta),
        ("theta_source", theta_source),
        *sizes.items(),
        ("preload_io_ops", preload[0]),
        ("preload_pages_read", preload[1]),
        ("os_cache_bypass", bypass),
        *_fields(report),
        *_fields(report.hits_total.phase1, "phase1_"),
        *_fields(report.hits_total.phase2, "phase2_"),
    ]
    return pairs, report


def cmd_bench(args: argparse.Namespace) -> None:
    pairs, report = _run_bench(args, Path(args.index_dir), trace=bool(args.trace_out))
    if args.results_out:
        lines = [
            " ".join([str(qi)] + [str(nid) for nid in ids])
            for qi, ids in enumerate(report.results)
        ]
        Path(args.results_out).write_text("\n".join(lines) + "\n")
    if args.trace_out:
        rows = []
        for qi, st in enumerate(report.stats):
            rows.extend(f"{qi},{_trace_line(rec)}" for rec in st.trace)
        Path(args.trace_out).write_text("".join(rows))
    # the flags, with the theta the run used in place, then the measures
    _emit_report((dict(_fields(args)) | dict(pairs)).items(), args.out)


def cmd_compare(args: argparse.Namespace) -> None:
    pairs_a, report_a = _run_bench(args, Path(args.a_index_dir))
    pairs_b, report_b = _run_bench(args, Path(args.b_index_dir))
    pairs = _fields(args)
    pairs.extend((f"a_{k}", v) for k, v in pairs_a)
    pairs.extend((f"b_{k}", v) for k, v in pairs_b)
    ratio = report_a.mean_io_ops / report_b.mean_io_ops if report_b.mean_io_ops else float("inf")
    pairs.extend(
        [
            ("compare_io_ops_ratio_a_over_b", ratio),
            ("compare_qps_ratio_a_over_b", report_a.qps / report_b.qps if report_b.qps else float("inf")),
        ]
    )
    _emit_report(pairs, args.out)


# -------------------------------------------------------------------- parser


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache-budget", type=int, default=None,
                   help="cache budget in node records (default: 1%% of the index file)")
    p.add_argument("--static-frac", type=float, default=CacheConfig.static_fraction,
                   help="fraction of the budget held by the static cache (default %(default)s)")
    p.add_argument("--policy", choices=POLICIES, default=DEFAULT_POLICY,
                   help="dynamic cache replacement policy (default %(default)s)")
    p.add_argument("--cache-seed", type=int, default=CacheConfig.seed,
                   help="seed for the RANDOM policy")


def _add_beam_flags(p: argparse.ArgumentParser) -> None:
    """--k, --l and --beam-width: calibrate's search flags, and the first of
    the others'."""
    p.add_argument("--k", type=int, default=search.SearchParams.k)
    p.add_argument("--l", type=int, default=search.SearchParams.l)
    p.add_argument("--beam-width", type=int, default=search.SearchParams.beam_width)


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    _add_beam_flags(p)
    p.add_argument(
        "--theta", type=float, default=None,
        help="transition threshold in (0,1); default: calibrated sidecar value, else 0.5",
    )
    p.add_argument("--window-pages", type=int, default=search.SearchParams.window_pages)


def _add_workload_flags(p: argparse.ArgumentParser) -> None:
    """Flags shared by bench and compare: the queries and how they run."""
    p.add_argument("--queries", required=True)
    p.add_argument("--gt", default=None)
    _add_search_flags(p)
    _add_cache_flags(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--reset-per-query", action="store_true")
    p.add_argument("--os-bypass", action="store_true", help="advise the OS to drop its cached index pages")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskvec", description="Disk-resident ANN graph index benchmark tool"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a Gaussian-blob dataset (fvecs)")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--blobs", type=int, default=8)
    p.add_argument("--spread", type=float, default=1.0)
    p.add_argument("--center-spread", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--queries", type=int, default=0, help="also emit this many query vectors")
    p.add_argument("--queries-out", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build", help="build the graph and PQ sidecars")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--r", type=int, default=32)
    p.add_argument("--l-build", type=int, default=64)
    p.add_argument("--alpha", type=float, default=1.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pq-m", type=int, default=0, help="0 = auto (dim/4)")
    p.add_argument("--pq-c", type=int, default=256)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("layout", help="lay the index out on disk and write the index file")
    p.add_argument("--index-dir", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--kind", choices=("insertion", "similarity"), default="similarity")
    p.add_argument("--page-size", type=int, default=diskstore.DEFAULT_PAGE_SIZE)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser("gt", help="write brute-force ground truth (ivecs)")
    p.add_argument("--dataset", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gt)

    p = sub.add_parser("calibrate", help="estimate the transition threshold theta")
    p.add_argument("--index-dir", required=True)
    p.add_argument("--dataset", required=True)
    _add_beam_flags(p)
    p.add_argument("--fraction", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("query", help="run one query and print results plus stats")
    p.add_argument("--index-dir", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qid", type=int, default=0)
    _add_search_flags(p)
    _add_cache_flags(p)
    p.add_argument("--trace", default=None, help="write the per-expansion trace here")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("bench", help="run a query workload and write a report")
    p.add_argument("--index-dir", required=True)
    _add_workload_flags(p)
    p.add_argument("--results-out", default=None, help="dump per-query result ids")
    p.add_argument("--trace-out", default=None, help="dump per-query expansion traces")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("compare", help="bench two index dirs under one configuration")
    p.add_argument("--a-index-dir", required=True)
    p.add_argument("--b-index-dir", required=True)
    _add_workload_flags(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvariantError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
