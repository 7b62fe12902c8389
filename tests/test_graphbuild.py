"""Graph construction invariants, medoid selection, and persistence."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskvec.graphbuild import (
    GraphIndex,
    build_graph,
    load_graph,
    medoid,
    save_graph,
    validate_graph,
)
from diskvec.errors import FormatError
from diskvec.vecdata import VectorDataset

from conftest import make_blobs


def _ds(arr) -> VectorDataset:
    return VectorDataset(np.asarray(arr, dtype=np.float32))


def _bfs_reachable(adjacency, entry) -> set[int]:
    seen = {entry}
    stack = [entry]
    while stack:
        node = stack.pop()
        for j in adjacency[node].tolist():
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def test_two_nodes_connect_to_each_other():
    g = build_graph(_ds([[0.0], [1.0]]), R=2, L_build=2, seed=0)
    assert g.adjacency[0].tolist() == [1]
    assert g.adjacency[1].tolist() == [0]


def test_ten_points_degree_and_reachability():
    pts = np.random.default_rng(70).normal(size=(10, 3)).astype(np.float32)
    g = build_graph(_ds(pts), R=4, L_build=6, seed=1)
    for i, neigh in enumerate(g.adjacency):
        assert neigh.size <= 4
        assert i not in neigh.tolist()
        assert set(neigh.tolist()) <= set(range(10)) - {i}
    assert _bfs_reachable(g.adjacency, g.entry_id) == set(range(10))


def test_build_determinism():
    pts = make_blobs(200, 6, 3, seed=71)
    a = build_graph(_ds(pts), R=8, L_build=16, seed=9)
    b = build_graph(_ds(pts), R=8, L_build=16, seed=9)
    assert a.entry_id == b.entry_id
    for x, y in zip(a.adjacency, b.adjacency):
        assert np.array_equal(x, y)


def test_build_rejects_tiny_inputs():
    with pytest.raises(ValueError):
        build_graph(_ds([[1.0]]), R=2, L_build=2)


def test_no_duplicates_or_self_loops_on_blobs(smoke):
    validate_graph(smoke.graph, smoke.dataset.n)


def test_medoid_collinear():
    # summed squared distances: 0->101, 1->82, 10->181
    assert medoid(_ds([[0.0], [1.0], [10.0]])) == 1


def test_medoid_single_point():
    assert medoid(_ds([[4.0, 2.0]])) == 0


def test_medoid_symmetric_tie_takes_lowest_id():
    square = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    assert medoid(_ds(square)) == 0


def test_medoid_matches_exhaustive_oracle():
    rng = np.random.default_rng(72)
    pts = rng.normal(size=(40, 5))
    sums = [
        sum(float(np.sum((pts[i] - pts[j]) ** 2)) for j in range(40)) for i in range(40)
    ]
    assert medoid(_ds(pts)) == int(np.argmin(sums))


def test_medoid_peak_memory_is_linear_in_n():
    # an n x n distance block would take about 100 MB here
    pts = np.random.default_rng(73).normal(size=(10_050, 16)).astype(np.float32)
    ds = _ds(pts)
    tracemalloc.start()
    try:
        got = medoid(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * pts.astype(np.float64).nbytes
    mean = pts.astype(np.float64).mean(axis=0)
    assert got == int(np.argmin(np.linalg.norm(pts - mean, axis=1)))


def test_graph_save_load_round_trip(tmp_path, smoke):
    path = tmp_path / "graph.bin"
    save_graph(path, smoke.graph)
    back = load_graph(path)
    assert back.entry_id == smoke.graph.entry_id
    assert back.R == smoke.graph.R
    assert back.n == smoke.graph.n
    for x, y in zip(back.adjacency, smoke.graph.adjacency):
        assert np.array_equal(x, y)


@st.composite
def _random_graphs(draw) -> GraphIndex:
    n = draw(st.integers(1, 20))
    R = draw(st.integers(1, 6))
    neighbors = st.lists(st.integers(0, n - 1), min_size=1, max_size=R, unique=True)
    adjacency = [np.array(draw(neighbors), dtype=np.int64) for _ in range(n)]
    return GraphIndex(adjacency=adjacency, entry_id=draw(st.integers(0, n - 1)), R=R)


@given(graph=_random_graphs(), data=st.data())
def test_corrupt_graph_file_is_a_format_error_or_in_range(tmp_path_factory, graph, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed_graph.bin"
    save_graph(path, graph)
    raw = bytearray(path.read_bytes())
    pos = data.draw(st.integers(0, len(raw) - 1), label="position")
    how = data.draw(st.sampled_from(["truncate", "flip", "overwrite"]), label="corruption")
    if how == "truncate":
        del raw[pos:]
    elif how == "flip":
        raw[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    else:
        chunk = data.draw(st.binary(min_size=1, max_size=16), label="bytes")
        raw[pos : pos + len(chunk)] = chunk[: len(raw) - pos]
    path.write_bytes(bytes(raw))
    try:
        back = load_graph(path)
    except FormatError:
        return
    assert 0 <= back.entry_id < back.n
    for neigh in back.adjacency:
        assert neigh.size <= back.R
        assert all(0 <= j < back.n for j in neigh.tolist())
