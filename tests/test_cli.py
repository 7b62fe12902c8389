"""End-to-end CLI pipelines, exit codes, report structure, env overrides."""

from __future__ import annotations

import os
import shutil
import struct

import numpy as np
import pytest

from diskvec.cli import is_timing_key, main, parse_report
from diskvec.vecdata import load_fvecs, load_ivecs


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


def test_full_pipeline_and_bench_report(tmp_path):
    base, queries, index_dir, gt = _pipeline(tmp_path)
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
        "cache_budget_nodes", "static_fraction", "policy", "cache_seed",
        "workers", "repetitions", "os_cache_bypass", "page_size",
    ):
        assert key in report, f"missing config echo {key}"
    assert report["layout_kind"] == "similarity"
    assert float(report["recall_at_k"]) > 0.8
    assert float(report["mean_io_ops"]) > 0
    assert report["theta_source"] == "sidecar"
    assert 0.0 < float(report["theta"]) < 1.0
    # the static preload's reads, which the workload counters leave out
    assert 0 < int(report["preload_io_ops"]) <= int(report["preload_pages_read"])


def test_is_timing_key():
    for key in ("qps", "latency_ms", "latency_p99_ms", "wall_time_s", "a_qps",
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
    assert (sidecar["beam_width"], sidecar["window_pages"]) == ("4", "2")
    # the search knobs the calibration ran with are recorded, on file and stdout
    capsys.readouterr()
    assert main(calibrate + ["--beam-width", "2", "--window-pages", "3"]) == 0
    stdout = capsys.readouterr().out.splitlines()
    sidecar = parse_report(theta_file)
    assert (sidecar["beam_width"], sidecar["window_pages"]) == ("2", "3")
    assert {"beam_width=2", "window_pages=3"} <= set(stdout)


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
        for report in ("query.txt", "bench.txt"):
            values = parse_report(out / report)
            got[report] = {k: v for k, v in values.items()
                           if not is_timing_key(k)}
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
        float(report["compare_io_ops_a"]) / float(report["compare_io_ops_b"]), rel=1e-4
    )
    assert report["compare_recall_a"] == report["compare_recall_b"]


def test_env_variable_overrides_flag_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DISKVEC_DIM", "6")
    out = tmp_path / "env.fvecs"
    assert main(["synth", "--out", str(out), "--n", "20", "--seed", "1"]) == 0
    assert load_fvecs(out).dim == 6
    # explicit flag beats the environment
    out2 = tmp_path / "env2.fvecs"
    assert main(["synth", "--out", str(out2), "--n", "20", "--dim", "3", "--seed", "1"]) == 0
    assert load_fvecs(out2).dim == 3
    # a bad preset fails only the subcommands that have the flag
    monkeypatch.setenv("DISKVEC_WORKERS", "abc")
    assert main(["synth", "--out", str(out), "--n", "20", "--seed", "1"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--index-dir", str(tmp_path), "--queries", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--workers" in err and "DISKVEC_WORKERS" in err
    # argparse checks no string default against choices; a preset is checked
    monkeypatch.delenv("DISKVEC_WORKERS")
    monkeypatch.setenv("DISKVEC_POLICY", "LRU")
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--index-dir", str(tmp_path), "--queries", str(out)])
    assert exc.value.code == 2
    assert "DISKVEC_POLICY" in capsys.readouterr().err


def test_layout_insertion_identity_and_content_preserved(tmp_path):
    base, queries, index_dir, gt = _pipeline(tmp_path, seed=9, kind="insertion")
    from diskvec.layout import load_layout

    lm = load_layout(index_dir / "layout.bin")
    assert lm.node_order.tolist() == list(range(400))


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


@pytest.mark.parametrize("corruption", ["node_id_out_of_range", "duplicated_node", "split_cluster"])
def test_corrupt_layout_exits_3(foreign_sidecars, corruption, tmp_path, capsys):
    queries, index_dir, _ = foreign_sidecars
    corrupt = tmp_path / "corrupt"
    shutil.copytree(index_dir, corrupt)
    raw = bytearray((corrupt / "layout.bin").read_bytes())
    # past the 20-byte header, one (node u64, cluster u32) record per rank
    records = np.frombuffer(raw, dtype=[("node", "<u8"), ("cluster", "<u4")], offset=20)
    if corruption == "node_id_out_of_range":
        records["node"][0] = len(records)
    elif corruption == "duplicated_node":
        records["node"][1] = records["node"][0]
    else:
        assert records["cluster"][-1] != records["cluster"][0]
        records["cluster"][-1] = records["cluster"][0]
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


def test_negative_cache_budget_exits_2(foreign_sidecars, capsys):
    queries, index_dir, _ = foreign_sidecars
    rc = main([
        "query", "--index-dir", str(index_dir), "--queries", str(queries),
        "--k", "5", "--l", "40", "--cache-budget", "-7",
    ])
    assert rc == 2
    assert "total_budget_nodes must be >= 0" in capsys.readouterr().err


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
    from diskvec.diskstore import IndexReader, slot_size
    from diskvec.layout import load_layout

    with IndexReader(index_dir / "index.bin") as reader:
        h = reader.header
    lm = load_layout(index_dir / "layout.bin")
    page, slot = lm.page_of(h.entry_id), lm.slot_of(h.entry_id)
    off = (page + 1) * h.page_size + 2 + slot * slot_size(h.dim, h.R) + 8 + 4 * h.dim + 2
    raw = bytearray((index_dir / "index.bin").read_bytes())
    struct.pack_into("<q", raw, off, h.n + 3)
    (index_dir / "index.bin").write_bytes(raw)
    return ["index.bin", "neighbor id"]


def _corrupt_index_entry(index_dir) -> list[str]:
    """Make the index.bin header's entry_id n + 5."""
    raw = bytearray((index_dir / "index.bin").read_bytes())
    (n,) = struct.unpack_from("<Q", raw, 13)
    struct.pack_into("<Q", raw, 37, n + 5)
    (index_dir / "index.bin").write_bytes(raw)
    return ["index.bin", "entry_id"]


def _corrupt_index_R(index_dir) -> list[str]:
    """Raise the index.bin header's R by one."""
    raw = bytearray((index_dir / "index.bin").read_bytes())
    (R,) = struct.unpack_from("<I", raw, 21)
    struct.pack_into("<I", raw, 21, R + 1)
    (index_dir / "index.bin").write_bytes(raw)
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


def _corrupt_index_total_pages(index_dir) -> list[str]:
    """Make the index.bin header claim 40 pages fewer than it holds."""
    raw = bytearray((index_dir / "index.bin").read_bytes())
    (total_pages,) = struct.unpack_from("<Q", raw, 29)
    struct.pack_into("<Q", raw, 29, total_pages - 40)
    (index_dir / "index.bin").write_bytes(raw)
    return ["index.bin", "total_pages"]


@pytest.mark.parametrize(
    "corrupt, command, budget",
    [
        (_corrupt_graph_neighbor, "layout", None),
        (_corrupt_index_entry, "query", "150"),
        (_corrupt_index_R, "query", "150"),
        (_corrupt_index_neighbor, "query", "0"),
        (_corrupt_index_neighbor, "query", "150"),
        (_corrupt_index_total_pages, "bench", "150"),
        (_corrupt_pq_code, "query", "0"),
        (_corrupt_pq_code, "query", "150"),
        (_corrupt_pq_code, "bench", "150"),
    ],
    ids=["graph-layout", "index-entry-query", "index-R-query", "index-query-uncached",
         "index-query-preload", "total-pages-bench", "pq-query-uncached", "pq-query-preload",
         "pq-bench"],
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
