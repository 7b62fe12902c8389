"""End-to-end CLI pipelines, exit codes, report structure, flag defaults."""

from __future__ import annotations

import dataclasses
import os
import shutil
import struct
from collections import Counter

import numpy as np
import pytest

from diskvec.cache import DEFAULT_POLICY, CacheConfig, PhaseCounts
from diskvec.cli import _fmt, build_parser, is_timing_key, main, parse_report
from diskvec.diskstore import DEFAULT_PAGE_SIZE
from diskvec.graphbuild import load_graph
from diskvec.layout import _HEADER as _LAYOUT_HEADER
from diskvec.search import SearchParams, SearchStats
from diskvec.vecdata import load_fvecs, load_ivecs, write_fvecs, write_ivecs

from builders import edit_index_header


def _pipeline(tmp_path, seed=0, n=400, kind="similarity"):
    """synth -> build -> layout -> gt -> calibrate; returns the artifact dir."""
    base = tmp_path / "base.fvecs"
    queries = tmp_path / "queries.fvecs"
    index_dir = tmp_path / f"idx_{kind}"
    gt = tmp_path / "gt.ivecs"
    assert main([
        "synth", "--out", str(base), "--n", str(n), "--dim", "8", "--blobs", "4",
        "--seed", str(seed), "--queries", "30", "--queries-out", str(queries),
    ]) == 0
    assert main([
        "build", "--dataset", str(base), "--out-dir", str(index_dir),
        "--r", "8", "--l-build", "16", "--seed", str(seed), "--pq-c", "32",
    ]) == 0
    assert main([
        "layout", "--index-dir", str(index_dir), "--dataset", str(base),
        "--kind", kind, "--page-size", "512", "--seed", str(seed),
    ]) == 0
    assert main([
        "gt", "--dataset", str(base), "--queries", str(queries), "--k", "10",
        "--out", str(gt),
    ]) == 0
    assert main([
        "calibrate", "--index-dir", str(index_dir), "--dataset", str(base),
        "--k", "10", "--l", "40", "--fraction", "0.05", "--seed", str(seed),
    ]) == 0
    return base, queries, index_dir, gt


def test_full_pipeline_and_bench_report(tmp_path, capsys):
    base, queries, index_dir, gt = _pipeline(tmp_path)
    # the build's graph-quality report, on file and on stdout
    meta = parse_report(index_dir / "build_meta.txt")
    degrees = [neigh.size for neigh in load_graph(index_dir / "graph.bin").adjacency]
    assert float(meta["mean_degree"]) == pytest.approx(np.mean(degrees), abs=1e-6)
    assert int(meta["max_degree"]) == max(degrees) <= 8
    assert int(meta["repair_edges"]) >= 0
    stdout = capsys.readouterr().out.splitlines()
    for key in ("mean_degree", "max_degree", "repair_edges"):
        assert f"{key}={meta[key]}" in stdout
    report_path = tmp_path / "report.txt"
    rc = main([
        "bench", "--index-dir", str(index_dir), "--queries", str(queries),
        "--gt", str(gt), "--k", "10", "--l", "60", "--workers", "1",
        "--cache-budget", "60", "--out", str(report_path),
    ])
    assert rc == 0
    report = parse_report(report_path)
    # the full effective configuration is echoed
    for key in (
        "layout_kind", "k", "l", "beam_width", "theta", "window_pages",
        "cache_budget_nodes", "static_frac", "policy", "cache_seed",
        "workers", "os_cache_bypass", "page_size",
    ):
        assert key in report, f"missing config echo {key}"
    assert report["layout_kind"] == "similarity"
    assert float(report["recall_at_k"]) > 0.8
    assert float(report["mean_io_ops"]) > 0
    assert report["theta_source"] == "sidecar"
    assert 0.0 < float(report["theta"]) < 1.0
    # the static preload's reads, which the workload counters leave out
    assert 0 < int(report["preload_io_ops"]) <= int(report["preload_pages_read"])


def test_reports_echo_each_parsed_flag_once(tmp_path, capsys):
    base, queries, idx, gt = (
        str(tmp_path / name) for name in ("base.fvecs", "queries.fvecs", "idx", "gt.ivecs")
    )
    # per run, the flags the run resolves and the values it used
    runs = [
        (["synth", "--out", base, "--n", "200", "--dim", "8", "--seed", "3",
          "--queries", "6", "--queries-out", queries], {}),
        (["build", "--dataset", base, "--out-dir", idx, "--r", "8", "--l-build", "16",
          "--pq-m", "0", "--pq-c", "256"], {"pq_m": 2, "pq_c": 200}),
        (["layout", "--index-dir", idx, "--dataset", base, "--kind", "insertion",
          "--page-size", "512"], {"kind": "insertion-order"}),
        (["gt", "--dataset", base, "--queries", queries, "--k", "5", "--out", gt], {}),
        (["calibrate", "--index-dir", idx, "--dataset", base, "--k", "5", "--l", "20",
          "--fraction", "0.05"], {}),
        (["query", "--index-dir", idx, "--queries", queries, "--qid", "4", "--k", "3",
          "--l", "20", "--theta", "0.5"], {}),
        (["bench", "--index-dir", idx, "--queries", queries, "--gt", gt, "--k", "3",
          "--l", "20", "--theta", "0.5"], {}),
        (["compare", "--a-index-dir", idx, "--b-index-dir", idx, "--queries", queries,
          "--k", "3", "--l", "20"], {}),
    ]
    for argv, resolved in runs:
        flags = {**vars(build_parser().parse_args(argv)), **resolved}
        del flags["func"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        keys = [line.partition("=")[0] for line in stdout.splitlines()]
        report = dict(line.partition("=")[::2] for line in stdout.splitlines())
        for flag, value in flags.items():
            assert keys.count(flag) == 1, (argv[0], flag)
            assert report[flag] == _fmt(value), (argv[0], flag)
        sidecar = {"build": "build_meta.txt", "calibrate": "theta.txt"}.get(argv[0])
        if sidecar:
            assert (tmp_path / "idx" / sidecar).read_text() == stdout


def test_bench_reports_admissions_and_evictions(tmp_path):
    _, queries, index_dir, _ = _pipeline(tmp_path)
    report_path = tmp_path / "report.txt"
    assert main([
        "bench", "--index-dir", str(index_dir), "--queries", str(queries),
        "--k", "10", "--l", "40", "--workers", "1", "--cache-budget", "60",
        "--out", str(report_path),
    ]) == 0
    report = parse_report(report_path)
    # with dynamic pages in the budget, every page read is admitted, so the
    # pages read bound the evictions
    assert int(report["dynamic_capacity_pages"]) > 0
    assert 0 < float(report["mean_evictions"]) <= float(report["mean_pages_read"])


def test_bench_os_bypass_advises_the_os_to_drop_the_index(tmp_path, monkeypatch):
    _, queries, index_dir, _ = _pipeline(tmp_path)
    argv = [
        "bench", "--index-dir", str(index_dir), "--queries", str(queries),
        "--k", "10", "--l", "40", "--workers", "1", "--os-bypass",
    ]
    report_path = tmp_path / "advised.txt"
    assert main([*argv, "--out", str(report_path)]) == 0
    advised = "dontneed-advised" if hasattr(os, "posix_fadvise") else "unsupported"
    assert parse_report(report_path)["os_cache_bypass"] == advised
    monkeypatch.delattr(os, "posix_fadvise", raising=False)
    report_path = tmp_path / "unsupported.txt"
    assert main([*argv, "--out", str(report_path)]) == 0
    assert parse_report(report_path)["os_cache_bypass"] == "unsupported"


def test_is_timing_key():
    for key in ("qps", "latency_s", "latency_p99_ms", "wall_time_s", "a_qps",
                "b_latency_p50_ms", "compare_qps_ratio_a_over_b"):
        assert is_timing_key(key), key
    for key in ("mean_io_ops", "a_mean_io_ops", "compare_io_ops_ratio_a_over_b", "a_",
                "recall_at_k", "preload_io_ops"):
        assert not is_timing_key(key), key


def test_synth_is_deterministic(tmp_path):
    a = tmp_path / "a.fvecs"
    b = tmp_path / "b.fvecs"
    for out in (a, b):
        assert main(["synth", "--out", str(out), "--n", "100", "--dim", "4", "--seed", "5"]) == 0
    assert a.read_bytes() == b.read_bytes()
    ds = load_fvecs(a)
    assert ds.n == 100 and ds.dim == 4


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--queries", "5"], "--queries-out"),
        (["--queries", "-3", "--queries-out", "q.fvecs"], "--queries must be >= 0"),
        (["--spread", "nan"], "--spread must be finite and >= 0"),
        (["--spread", "inf"], "--spread must be finite and >= 0"),
        (["--spread", "-1"], "--spread must be finite and >= 0"),
        (["--center-spread", "nan"], "--center-spread must be finite and >= 0"),
        (["--center-spread=-inf"], "--center-spread must be finite and >= 0"),
    ],
    ids=["queries-without-out", "negative-queries", "nan-spread", "inf-spread",
         "negative-spread", "nan-center-spread", "negative-inf-center-spread"],
)
def test_synth_checks_query_flags_before_writing(tmp_path, flags, named, capsys):
    flags = [str(tmp_path / f) if f.endswith(".fvecs") else f for f in flags]
    rc = main(["synth", "--out", str(tmp_path / "base.fvecs"), "--n", "50", "--dim", "4", *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and named in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_dataset_or_queries_exit_3_naming_the_record(tmp_path, bad, capsys):
    good = tmp_path / "good.fvecs"
    base = tmp_path / "bad.fvecs"
    vecs = np.random.default_rng(9).normal(size=(60, 4)).astype(np.float32)
    write_fvecs(good, vecs)
    vecs[7, 2] = bad
    write_fvecs(base, vecs)
    gt = ["gt", "--dataset", str(good), "--queries", str(base), "--k", "5",
          "--out", str(tmp_path / "gt.ivecs")]
    build = ["build", "--dataset", str(base), "--out-dir", str(tmp_path / "idx"),
             "--r", "4", "--l-build", "8", "--pq-c", "8"]
    for argv in (build, gt):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith(f"error: {base}: non-finite element in record 7")
        assert "Traceback" not in err


def test_missing_dataset_exits_2_with_path(tmp_path, capsys):
    missing = tmp_path / "nope.fvecs"
    rc = main(["build", "--dataset", str(missing), "--out-dir", str(tmp_path / "idx")])
    assert rc == 2
    assert str(missing) in capsys.readouterr().err


def test_corrupt_fvecs_exits_3(tmp_path):
    bad = tmp_path / "bad.fvecs"
    bad.write_bytes(struct.pack("<iff", 2, 1.0, 2.0) + b"\x01\x02")
    rc = main(["build", "--dataset", str(bad), "--out-dir", str(tmp_path / "idx")])
    assert rc == 3


def test_gt_self_queries_and_k_too_large(tmp_path):
    base = tmp_path / "base.fvecs"
    main(["synth", "--out", str(base), "--n", "50", "--dim", "4", "--seed", "1"])
    out = tmp_path / "gt.ivecs"
    assert main(["gt", "--dataset", str(base), "--queries", str(base), "--k", "1",
                 "--out", str(out)]) == 0
    ids = load_ivecs(out)
    assert ids[:, 0].tolist() == list(range(50))  # each self-query finds itself
    assert main(["gt", "--dataset", str(base), "--queries", str(base), "--k", "51",
                 "--out", str(out)]) == 2


def test_calibrate_writes_reproducible_sidecar(tmp_path, capsys):
    base, queries, index_dir, gt = _pipeline(tmp_path, seed=3)
    theta_file = index_dir / "theta.txt"
    first = theta_file.read_bytes()
    calibrate = [
        "calibrate", "--index-dir", str(index_dir), "--dataset", str(base),
        "--k", "10", "--l", "40", "--fraction", "0.05", "--seed", "3",
    ]
    assert main(calibrate) == 0
    assert theta_file.read_bytes() == first
    sidecar = parse_report(theta_file)
    assert 0.0 < float(sidecar["theta"]) < 1.0
    assert sidecar["beam_width"] == "4"
    # the search knobs the calibration ran with are recorded, on file and
    # stdout; an uncached calibration reads no window, so no window size is
    # recorded
    capsys.readouterr()
    assert main(calibrate + ["--beam-width", "2"]) == 0
    stdout = capsys.readouterr().out.splitlines()
    sidecar = parse_report(theta_file)
    assert sidecar["beam_width"] == "2" and "beam_width=2" in stdout
    assert "window_pages" not in sidecar
    assert not any(line.startswith("window_pages=") for line in stdout)


def test_bench_budget_zero_hit_rates_zero_results_unchanged(tmp_path):
    base, queries, index_dir, gt = _pipeline(tmp_path, seed=4)
    reports = {}
    results = {}
    for label, budget in (("none", "0"), ("cached", "80")):
        rp = tmp_path / f"r_{label}.txt"
        res = tmp_path / f"res_{label}.txt"
        assert main([
            "bench", "--index-dir", str(index_dir), "--queries", str(queries),
            "--gt", str(gt), "--k", "10", "--l", "60", "--workers", "1",
            "--cache-budget", budget, "--out", str(rp), "--results-out", str(res),
        ]) == 0
        reports[label] = parse_report(rp)
        results[label] = res.read_text()
    assert float(reports["none"]["hit_rate_phase1"]) == 0.0
    assert float(reports["none"]["hit_rate_phase2"]) == 0.0
    assert results["none"] == results["cached"]
    assert reports["none"]["recall_at_k"] == reports["cached"]["recall_at_k"]


def test_static_fraction_sweep_same_recall_different_io(tmp_path):
    base, queries, index_dir, gt = _pipeline(tmp_path, seed=6)
    got = {}
    for frac in ("0.0", "0.2", "1.0"):
        rp = tmp_path / f"sweep_{frac}.txt"
        assert main([
            "bench", "--index-dir", str(index_dir), "--queries", str(queries),
            "--gt", str(gt), "--k", "10", "--l", "60", "--workers", "1",
            "--cache-budget", "80", "--static-frac", frac, "--out", str(rp),
        ]) == 0
        got[frac] = parse_report(rp)
    recalls = {v["recall_at_k"] for v in got.values()}
    assert len(recalls) == 1  # transparency: identical recall
    ios = {k: float(v["mean_io_ops"]) for k, v in got.items()}
    assert len(set(ios.values())) > 1  # but the I/O profile differs
    # an all-static budget has no dynamic page to admit what it reads, so it
    # reads but never evicts
    assert int(got["1.0"]["dynamic_capacity_pages"]) == 0
    assert float(got["1.0"]["mean_pages_read"]) > 0
    assert float(got["1.0"]["mean_evictions"]) == 0.0


def test_query_subcommand_with_trace(tmp_path):
    base, queries, index_dir, gt = _pipeline(tmp_path, seed=7)
    trace = tmp_path / "trace.csv"
    out = tmp_path / "query.txt"
    assert main([
        "query", "--index-dir", str(index_dir), "--queries", str(queries),
        "--qid", "2", "--k", "5", "--l", "40", "--cache-budget", "40",
        "--trace", str(trace), "--out", str(out),
    ]) == 0
    report = parse_report(out)
    assert report["qid"] == "2"
    assert "result_0" in report
    lines = trace.read_text().strip().splitlines()
    assert lines, "trace must not be empty"
    iteration, node_id, dist, phase, hit_kind = lines[0].split(",")
    assert int(iteration) == 1
    assert hit_kind in ("static", "dynamic", "miss")
    assert int(phase) in (1, 2)


def test_query_reports_every_search_stat(foreign_sidecars, tmp_path):
    queries, index_dir, _ = foreign_sidecars
    trace, out = tmp_path / "trace.csv", tmp_path / "query.txt"
    assert main([
        "query", "--index-dir", str(index_dir), "--queries", str(queries), "--qid", "1",
        "--k", "5", "--l", "40", "--cache-budget", "150", "--trace", str(trace),
        "--out", str(out),
    ]) == 0
    report = parse_report(out)
    stats = SearchStats()
    for f in dataclasses.fields(SearchStats):
        if isinstance(getattr(stats, f.name), (int, float)):
            assert f.name in report, f.name
    # each trace line is one look-up, counted under its phase and hit kind
    kinds = {"static": "static_hits", "dynamic": "dynamic_hits", "miss": "misses"}
    traced = Counter(
        f"phase{phase}_{kinds[kind]}"
        for _, _, _, phase, kind in (line.split(",") for line in trace.read_text().splitlines())
    )
    counts = {f"phase{p}_{f.name}": int(report[f"phase{p}_{f.name}"])
              for p in (1, 2) for f in dataclasses.fields(PhaseCounts)}
    assert len(counts) == 6
    assert counts == {key: traced[key] for key in counts}
    assert sum(counts.values()) == len(trace.read_text().splitlines()) > 0


def test_queries_run_without_graph_file(tmp_path):
    base, queries, index_dir, gt = _pipeline(tmp_path, seed=9)

    def outputs(label: str) -> dict[str, object]:
        out = tmp_path / label
        out.mkdir()
        assert main([
            "calibrate", "--index-dir", str(index_dir), "--dataset", str(base),
            "--k", "10", "--l", "40", "--fraction", "0.05", "--seed", "9",
        ]) == 0
        assert main([
            "query", "--index-dir", str(index_dir), "--queries", str(queries), "--qid", "3",
            "--k", "5", "--l", "40", "--cache-budget", "80",
            "--trace", str(out / "trace.csv"), "--out", str(out / "query.txt"),
        ]) == 0
        assert main([
            "bench", "--index-dir", str(index_dir), "--queries", str(queries), "--gt", str(gt),
            "--k", "10", "--l", "60", "--workers", "1", "--cache-budget", "80",
            "--results-out", str(out / "results.txt"), "--trace-out", str(out / "traces.csv"),
            "--out", str(out / "bench.txt"),
        ]) == 0
        got: dict[str, object] = {
            name: (out / name).read_bytes() for name in ("trace.csv", "results.txt", "traces.csv")
        }
        got["theta.txt"] = (index_dir / "theta.txt").read_bytes()
        # the reports echo the output paths, which differ per label
        outs = ("out", "trace", "results_out", "trace_out")
        for report in ("query.txt", "bench.txt"):
            values = parse_report(out / report)
            got[report] = {k: v for k, v in values.items()
                           if not is_timing_key(k) and k not in outs}
        return got

    with_graph = outputs("with_graph")
    (index_dir / "graph.bin").unlink()
    assert outputs("without_graph") == with_graph


def test_compare_emits_ratio_block(tmp_path):
    base, queries, index_dir_sim, gt = _pipeline(tmp_path, seed=8, kind="similarity")
    index_dir_ins = tmp_path / "idx_insertion"
    assert main([
        "build", "--dataset", str(base), "--out-dir", str(index_dir_ins),
        "--r", "8", "--l-build", "16", "--seed", "8", "--pq-c", "32",
    ]) == 0
    assert main([
        "layout", "--index-dir", str(index_dir_ins), "--dataset", str(base),
        "--kind", "insertion", "--page-size", "512", "--seed", "8",
    ]) == 0
    out = tmp_path / "compare.txt"
    assert main([
        "compare", "--a-index-dir", str(index_dir_sim), "--b-index-dir", str(index_dir_ins),
        "--queries", str(queries), "--gt", str(gt), "--k", "10", "--l", "60",
        "--workers", "1", "--cache-budget", "80", "--out", str(out),
    ]) == 0
    report = parse_report(out)
    assert report["a_layout_kind"] == "similarity"
    assert report["b_layout_kind"] == "insertion-order"
    ratio = float(report["compare_io_ops_ratio_a_over_b"])
    assert ratio == pytest.approx(
        float(report["a_mean_io_ops"]) / float(report["b_mean_io_ops"]), rel=1e-4
    )
    assert report["a_recall_at_k"] == report["b_recall_at_k"]


def test_environment_sets_no_flag_default(tmp_path, monkeypatch, foreign_sidecars):
    monkeypatch.setenv("DISKVEC_DIM", "6")
    monkeypatch.setenv("DISKVEC_WORKERS", "abc")
    out = tmp_path / "synth.fvecs"
    assert main(["synth", "--out", str(out), "--n", "20", "--seed", "1"]) == 0
    assert load_fvecs(out).dim == 16
    queries, index_dir, _ = foreign_sidecars
    report = tmp_path / "report.txt"
    assert main([
        "bench", "--index-dir", str(index_dir), "--queries", str(queries), "--k", "5",
        "--l", "40", "--out", str(report),
    ]) == 0
    assert parse_report(report)["workers"] == "1"


_REQUIRED_FLAGS = {
    "layout": ["--index-dir", "idx", "--dataset", "d.fvecs"],
    "calibrate": ["--index-dir", "idx", "--dataset", "d.fvecs"],
    "query": ["--index-dir", "idx", "--queries", "q.fvecs"],
    "bench": ["--index-dir", "idx", "--queries", "q.fvecs"],
    "compare": ["--a-index-dir", "a", "--b-index-dir", "b", "--queries", "q.fvecs"],
}


@pytest.mark.parametrize(
    "command, dest, library_default",
    [("bench", "static_frac", CacheConfig.static_fraction),
     ("bench", "policy", DEFAULT_POLICY),
     ("bench", "cache_seed", CacheConfig.seed),
     ("bench", "beam_width", SearchParams.beam_width),
     ("bench", "window_pages", SearchParams.window_pages),
     ("layout", "page_size", DEFAULT_PAGE_SIZE),
     *[(command, dest, getattr(SearchParams, dest))
       for command in ("calibrate", "query", "bench", "compare") for dest in ("k", "l")]],
)
def test_flag_default_is_the_library_default(command, dest, library_default):
    args = build_parser().parse_args([command, *_REQUIRED_FLAGS[command]])
    assert getattr(args, dest) == library_default


def test_quickstart_bench_runs_at_the_default_k_and_l(foreign_sidecars, tmp_path):
    # the truth file is 10 deep, as the quickstart's `gt --k 10` writes it
    queries, index_dir, _ = foreign_sidecars
    argv = ["bench", "--index-dir", str(index_dir), "--queries", str(queries),
            "--gt", str(index_dir.parent / "gt.ivecs")]
    default, explicit = tmp_path / "default.txt", tmp_path / "explicit.txt"
    assert main([*argv, "--out", str(default)]) == 0
    assert main([*argv, "--k", "10", "--l", "100", "--out", str(explicit)]) == 0
    reports = [
        {k: v for k, v in parse_report(path).items() if not is_timing_key(k) and k != "out"}
        for path in (default, explicit)
    ]
    assert reports[0] == reports[1]
    assert (reports[0]["k"], reports[0]["l"]) == ("10", "100")


def test_layout_insertion_identity_and_content_preserved(tmp_path):
    base, queries, index_dir, gt = _pipeline(tmp_path, seed=9, kind="insertion")
    from diskvec.layout import load_layout

    lm = load_layout(index_dir / "layout.bin")
    assert lm.node_order.tolist() == list(range(400))


def test_page_smaller_than_the_index_header_exits_2(tmp_path, capsys):
    # dim 2, R 2: a 22-byte slot fits a 32-byte page, the index.bin header does not
    base = tmp_path / "base.fvecs"
    index_dir = tmp_path / "idx"
    assert main(["synth", "--out", str(base), "--n", "60", "--dim", "2", "--seed", "3"]) == 0
    assert main([
        "build", "--dataset", str(base), "--out-dir", str(index_dir),
        "--r", "2", "--l-build", "8", "--seed", "3", "--pq-c", "16",
    ]) == 0
    capsys.readouterr()
    rc = main([
        "layout", "--index-dir", str(index_dir), "--dataset", str(base), "--page-size", "32",
    ])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "index.bin header" in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def foreign_sidecars(tmp_path_factory):
    """An index dir, plus sidecars that disagree with its index.bin: a layout
    written with another page size, and the PQ file of a 300-node build."""
    root = tmp_path_factory.mktemp("foreign")
    base, queries, index_dir, _ = _pipeline(root)
    other_pages = root / "other_pages"
    shutil.copytree(index_dir, other_pages)
    assert main([
        "layout", "--index-dir", str(other_pages), "--dataset", str(base),
        "--kind", "similarity", "--page-size", "1024", "--seed", "0",
    ]) == 0
    small = root / "small.fvecs"
    other_build = root / "other_build"
    assert main(["synth", "--out", str(small), "--n", "300", "--dim", "8", "--seed", "1"]) == 0
    assert main([
        "build", "--dataset", str(small), "--out-dir", str(other_build),
        "--r", "8", "--l-build", "16", "--seed", "1", "--pq-c", "32",
    ]) == 0
    foreign = {"layout.bin": other_pages / "layout.bin", "pq.bin": other_build / "pq.bin"}
    return queries, index_dir, foreign


@pytest.mark.parametrize("sidecar", ["layout.bin", "pq.bin"])
def test_sidecar_disagreeing_with_index_exits_3(foreign_sidecars, sidecar, tmp_path, capsys):
    queries, index_dir, foreign = foreign_sidecars
    mixed = tmp_path / "mixed"
    shutil.copytree(index_dir, mixed)
    shutil.copy(foreign[sidecar], mixed / sidecar)
    rc = main([
        "query", "--index-dir", str(mixed), "--queries", str(queries),
        "--k", "5", "--l", "40",
    ])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and sidecar in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "corruption", ["node_id_out_of_range", "duplicated_node", "cluster_start_falls"]
)
def test_corrupt_layout_exits_3(foreign_sidecars, corruption, tmp_path, capsys):
    queries, index_dir, _ = foreign_sidecars
    corrupt = tmp_path / "corrupt"
    shutil.copytree(index_dir, corrupt)
    raw = bytearray((corrupt / "layout.bin").read_bytes())
    # past the header, a u32 node per rank, then a u32 first rank per cluster
    _, _, n, _, k = _LAYOUT_HEADER.unpack_from(raw)
    body = np.frombuffer(raw, dtype="<u4", offset=_LAYOUT_HEADER.size)
    nodes, starts = body[:n], body[n:]
    if corruption == "node_id_out_of_range":
        nodes[0] = n
    elif corruption == "duplicated_node":
        nodes[1] = nodes[0]
    else:
        assert k > 1
        starts[-1] = starts[0]
    (corrupt / "layout.bin").write_bytes(raw)
    rc = main([
        "query", "--index-dir", str(corrupt), "--queries", str(queries),
        "--k", "5", "--l", "40",
    ])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and "layout.bin" in err
    assert "Traceback" not in err


def test_auto_budget_holds_a_window_of_dynamic_pages(foreign_sidecars, capsys):
    queries, index_dir, _ = foreign_sidecars
    for window in ("2", "3"):
        assert main([
            "query", "--index-dir", str(index_dir), "--queries", str(queries),
            "--k", "5", "--l", "40", "--window-pages", window,
        ]) == 0
        report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert report["dynamic_capacity_pages"] == window


@pytest.mark.parametrize("content", ["theta=abc", "theta=1.5", "theta=nan", "k=10"])
def test_bad_theta_sidecar_exits_3_naming_it(foreign_sidecars, content, tmp_path, capsys):
    queries, index_dir, _ = foreign_sidecars
    bad = tmp_path / "bad_theta"
    shutil.copytree(index_dir, bad)
    (bad / "theta.txt").write_text(content + "\n")
    query = ["query", "--index-dir", str(bad), "--queries", str(queries), "--k", "5", "--l", "40"]
    rc = main(query)
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and "theta.txt" in err
    assert "Traceback" not in err
    # a bad --theta flag is still a usage error, and a good one skips the sidecar
    assert main(query + ["--theta", "1.5"]) == 2
    assert main(query + ["--theta", "0.5"]) == 0


def test_non_utf8_theta_sidecar_exits_3_naming_it(foreign_sidecars, tmp_path, capsys):
    queries, index_dir, _ = foreign_sidecars
    bad = tmp_path / "bad_theta"
    shutil.copytree(index_dir, bad)
    (bad / "theta.txt").write_bytes(b"\xff\xfetheta=0.5\n")
    rc = main(["query", "--index-dir", str(bad), "--queries", str(queries), "--k", "5", "--l", "40"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and "theta.txt" in err
    assert "Traceback" not in err


def test_negative_cache_budget_exits_2(foreign_sidecars, capsys):
    queries, index_dir, _ = foreign_sidecars
    rc = main([
        "query", "--index-dir", str(index_dir), "--queries", str(queries),
        "--k", "5", "--l", "40", "--cache-budget", "-7",
    ])
    assert rc == 2
    assert "total_budget_nodes must be >= 0" in capsys.readouterr().err


def test_calibrate_refuses_a_dataset_of_another_size(foreign_sidecars, tmp_path, capsys):
    _, index_dir, _ = foreign_sidecars
    out = tmp_path / "idx"
    shutil.copytree(index_dir, out)
    capsys.readouterr()
    rc = main(["calibrate", "--index-dir", str(out),
               "--dataset", str(index_dir.parent / "small.fvecs")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "300" in err and "400" in err
    assert (out / "theta.txt").read_bytes() == (index_dir / "theta.txt").read_bytes()


def test_calibrate_refuses_a_same_size_dataset_of_another_build(foreign_sidecars, tmp_path,
                                                                capsys):
    _, index_dir, _ = foreign_sidecars
    out = tmp_path / "idx"
    shutil.copytree(index_dir, out)
    other = tmp_path / "other.fvecs"
    assert main(["synth", "--out", str(other), "--n", "400", "--dim", "8", "--blobs", "4",
                 "--seed", "1"]) == 0
    capsys.readouterr()
    rc = main(["calibrate", "--index-dir", str(out), "--dataset", str(other)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: dataset vector ") and len(err.splitlines()) == 1
    assert "is not node" in err
    assert (out / "theta.txt").read_bytes() == (index_dir / "theta.txt").read_bytes()


def test_bench_runs_one_worker_unless_asked(foreign_sidecars, tmp_path, capsys):
    queries, index_dir, _ = foreign_sidecars
    out = tmp_path / "report.txt"
    argv = ["bench", "--index-dir", str(index_dir), "--queries", str(queries), "--k", "5",
            "--l", "40", "--cache-budget", "150"]
    assert main(argv + ["--out", str(out)]) == 0
    assert parse_report(out)["workers"] == "1"
    capsys.readouterr()
    assert main(argv + ["--workers", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--workers must be >= 1" in err


@pytest.mark.parametrize("command", ["bench", "compare"])
@pytest.mark.parametrize("bad", [400, 99999, -1])
def test_ground_truth_id_outside_the_index_exits_3(foreign_sidecars, command, bad, tmp_path,
                                                   capsys):
    queries, index_dir, _ = foreign_sidecars
    gt = load_ivecs(index_dir.parent / "gt.ivecs")
    gt[3, 2] = bad
    bad_gt = tmp_path / "bad_gt.ivecs"
    write_ivecs(bad_gt, gt)
    dirs = (["--index-dir", str(index_dir)] if command == "bench"
            else ["--a-index-dir", str(index_dir), "--b-index-dir", str(index_dir)])
    capsys.readouterr()
    rc = main([command, *dirs, "--queries", str(queries), "--gt", str(bad_gt),
               "--k", "5", "--l", "40", "--cache-budget", "150"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == f"error: {bad_gt}: ground-truth id {bad} is outside [0, 400)\n"


def test_bench_refuses_reset_per_query_on_more_workers(foreign_sidecars, capsys):
    queries, index_dir, _ = foreign_sidecars
    assert main([
        "bench", "--index-dir", str(index_dir), "--queries", str(queries), "--k", "5",
        "--l", "40", "--workers", "2", "--reset-per-query",
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "reset_per_query" in err and "workers=2" in err


def _usage_error(foreign_sidecars, args, tmp_path, capsys) -> str:
    """Run `build` or `layout` (args[0]) on the fixture's dataset with the
    flag and value that follow; check that it exits 2 with an error and no
    traceback, and return the error text."""
    _, index_dir, _ = foreign_sidecars
    base = index_dir.parent / "base.fvecs"
    out = tmp_path / "idx"
    shutil.copytree(index_dir, out)
    if args[0] == "layout":
        argv = ["layout", "--index-dir", str(out), "--dataset", str(base), "--page-size", "512"]
    else:
        argv = ["build", "--dataset", str(base), "--out-dir", str(out), "--r", "8",
                "--l-build", "16", "--pq-c", "32"]
    capsys.readouterr()
    rc = main(argv + args[1:])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err
    return err


def test_page_size_beyond_u32_exits_2_leaving_the_index_file(foreign_sidecars, tmp_path,
                                                              capsys):
    # 2**32 fails before any page is padded; a page size that fits in u32
    # would have write_index pad the header to that many bytes
    _, index_dir, _ = foreign_sidecars
    err = _usage_error(foreign_sidecars, ["layout", "--page-size", str(2**32)], tmp_path, capsys)
    assert len(err.splitlines()) == 1 and f"page_size {2**32}" in err
    assert (tmp_path / "idx" / "index.bin").read_bytes() == (index_dir / "index.bin").read_bytes()


@pytest.mark.parametrize(
    "command, flag, value, named",
    [("build", "--alpha", "nan", "alpha must be finite"),
     ("build", "--alpha", "inf", "alpha must be finite"),
     ("build", "--pq-m", "-1", "--pq-m must be >= 0")],
)
def test_bad_build_or_layout_flag_exits_2_naming_it(foreign_sidecars, command, flag, value, named,
                                                    tmp_path, capsys):
    assert named in _usage_error(foreign_sidecars, [command, flag, value], tmp_path, capsys)


def _corrupt_graph_neighbor(index_dir) -> list[str]:
    """Point the entry node's first neighbor in graph.bin past n."""
    raw = bytearray((index_dir / "graph.bin").read_bytes())
    n, _, entry = struct.unpack_from("<QIQ", raw, 5)
    degrees = np.frombuffer(raw, dtype="<u2", count=n, offset=25)
    struct.pack_into("<q", raw, 25 + 2 * n + 8 * int(degrees[:entry].sum()), n + 5)
    (index_dir / "graph.bin").write_bytes(raw)
    return ["graph.bin"]


def _corrupt_index_neighbor(index_dir) -> list[str]:
    """Point the entry node's first neighbor in index.bin past n."""
    from diskvec.diskstore import IndexReader, _slot_dtype
    from diskvec.layout import load_layout

    with IndexReader(index_dir / "index.bin") as reader:
        h = reader.header
    lm = load_layout(index_dir / "layout.bin")
    page, slot = lm.page_of(h.entry_id), lm.slot_of(h.entry_id)
    dtype = _slot_dtype(h.dim, h.R)
    off = (page + 1) * h.page_size + slot * dtype.itemsize + dtype.fields["neighbors"][1]
    raw = bytearray((index_dir / "index.bin").read_bytes())
    struct.pack_into("<I", raw, off, h.n + 3)
    (index_dir / "index.bin").write_bytes(raw)
    return ["index.bin", "neighbor id"]


def _corrupt_index_degree(index_dir) -> list[str]:
    """Store degree 0xFFFF, far above R, in the entry node's slot of index.bin."""
    from diskvec.diskstore import IndexReader, _slot_dtype
    from diskvec.layout import load_layout

    with IndexReader(index_dir / "index.bin") as reader:
        h = reader.header
    lm = load_layout(index_dir / "layout.bin")
    page, slot = lm.page_of(h.entry_id), lm.slot_of(h.entry_id)
    dtype = _slot_dtype(h.dim, h.R)
    off = (page + 1) * h.page_size + slot * dtype.itemsize + dtype.fields["degree"][1]
    raw = bytearray((index_dir / "index.bin").read_bytes())
    struct.pack_into("<H", raw, off, 0xFFFF)
    (index_dir / "index.bin").write_bytes(raw)
    return ["index.bin", "degree"]


def _index_version(version: int):
    def corrupt(index_dir) -> list[str]:
        """Give index.bin an older version's magic."""
        edit_index_header(index_dir / "index.bin", lambda h: h.update(magic=b"GOVI%d" % version))
        return ["index.bin", f"version {version}", "run `diskvec layout` again"]

    return corrupt


def _layout_version_2(index_dir) -> list[str]:
    """Give layout.bin version 2."""
    raw = bytearray((index_dir / "layout.bin").read_bytes())
    magic, _, *rest = _LAYOUT_HEADER.unpack_from(raw)
    _LAYOUT_HEADER.pack_into(raw, 0, magic, 2, *rest)
    (index_dir / "layout.bin").write_bytes(raw)
    return ["layout.bin", "version 2", "run `diskvec layout` again"]


def _corrupt_index_entry(index_dir) -> list[str]:
    """Make the index.bin header's entry_id n + 5."""
    edit_index_header(index_dir / "index.bin", lambda h: h.update(entry_id=h["n"] + 5))
    return ["index.bin", "entry_id"]


def _corrupt_index_R(index_dir) -> list[str]:
    """Raise the index.bin header's R by one."""
    edit_index_header(index_dir / "index.bin", lambda h: h.update(R=h["R"] + 1))
    return ["index.bin"]


def _corrupt_pq_code(index_dir) -> list[str]:
    """Set the entry node's first PQ code past the codebook's c centroids."""
    raw = bytearray((index_dir / "pq.bin").read_bytes())
    m, c, sub_dim, _, _ = struct.unpack_from("<IIIIQ", raw, 5)
    _, _, entry = struct.unpack_from("<QIQ", (index_dir / "graph.bin").read_bytes(), 5)
    assert c < 200
    raw[29 + 4 * m * c * sub_dim + entry * m] = 200
    (index_dir / "pq.bin").write_bytes(raw)
    return ["pq.bin", "code"]


def _truncate_index_by_40_pages(index_dir) -> list[str]:
    """Cut off the last 40 of the pages that index.bin's total_pages needs."""
    from diskvec.diskstore import IndexReader

    with IndexReader(index_dir / "index.bin") as reader:
        page_size = reader.header.page_size
    raw = (index_dir / "index.bin").read_bytes()
    (index_dir / "index.bin").write_bytes(raw[: -40 * page_size])
    return ["index.bin", "total_pages"]


@pytest.mark.parametrize(
    "corrupt, command, budget",
    [
        (_corrupt_graph_neighbor, "layout", None),
        (_corrupt_index_entry, "query", "150"),
        (_corrupt_index_R, "query", "150"),
        (_corrupt_index_neighbor, "query", "0"),
        (_corrupt_index_neighbor, "query", "150"),
        (_corrupt_index_degree, "query", "0"),
        (_truncate_index_by_40_pages, "bench", "150"),
        (_index_version(1), "query", "0"),
        (_index_version(2), "query", "0"),
        (_layout_version_2, "query", "0"),
        (_corrupt_pq_code, "query", "0"),
        (_corrupt_pq_code, "query", "150"),
        (_corrupt_pq_code, "bench", "150"),
    ],
    ids=["graph-layout", "index-entry-query", "index-R-query", "index-query-uncached",
         "index-query-preload", "index-degree-query", "total-pages-bench", "index-v1-query",
         "index-v2-query", "layout-v2-query", "pq-query-uncached", "pq-query-preload", "pq-bench"],
)
def test_corrupt_graph_or_index_exits_3(foreign_sidecars, corrupt, command, budget, tmp_path,
                                        capsys):
    queries, index_dir, _ = foreign_sidecars
    bad = tmp_path / "bad"
    shutil.copytree(index_dir, bad)
    named = corrupt(bad)
    if command == "layout":
        base = index_dir.parent / "base.fvecs"
        argv = ["layout", "--index-dir", str(bad), "--dataset", str(base), "--page-size", "512"]
    else:
        argv = [command, "--index-dir", str(bad), "--queries", str(queries), "--k", "5",
                "--l", "40", "--cache-budget", budget]
        if command == "bench":
            argv += ["--workers", "1"]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and all(word in err for word in named)
    assert "Traceback" not in err

