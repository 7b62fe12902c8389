"""Graph construction invariants, medoid selection, and persistence."""

from __future__ import annotations

import hashlib
import heapq
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskvec import graphbuild, vecdata
from diskvec.graphbuild import (
    _GRAPH_HEADER,
    GraphIndex,
    _padded_points,
    _prune_rows,
    _repair_connectivity,
    _search_batch,
    build_graph,
    load_graph,
    medoid,
    save_graph,
    validate_graph,
)
from diskvec.errors import FormatError
from diskvec.vecdata import VectorDataset

from builders import make_blobs, mutate


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


def test_repair_counts_the_edges_it_adds():
    # two pairs that point only at each other: node 2 is attached from its
    # nearest reachable node, and node 3 is then reachable through node 2
    pts = np.array([[0.0], [1.0], [5.0], [6.0]])
    adjacency = [np.array([1]), np.array([0]), np.array([3]), np.array([2])]
    assert _repair_connectivity(pts, adjacency, 0, R=2) == 1
    assert adjacency[1].tolist() == [0, 2]
    assert _repair_connectivity(pts, adjacency, 0, R=2) == 0


def test_build_rejects_tiny_inputs():
    with pytest.raises(ValueError):
        build_graph(_ds([[1.0]]), R=2, L_build=2)


@pytest.mark.parametrize("alpha", [0.9, float("nan"), float("inf")])
def test_build_refuses_alpha_below_1_or_not_finite(alpha):
    with pytest.raises(ValueError, match="alpha must be finite and >= 1"):
        build_graph(_ds(np.eye(4)), R=2, L_build=2, alpha=alpha)


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
    path.write_bytes(mutate(data, bytearray(path.read_bytes()), _GRAPH_HEADER.size))
    try:
        back = load_graph(path)
    except FormatError:
        return
    assert 0 <= back.entry_id < back.n
    for neigh in back.adjacency:
        assert neigh.size <= back.R
        assert all(0 <= j < back.n for j in neigh.tolist())


def _greedy_search_build(
    pts: np.ndarray,
    pts_sq: np.ndarray,
    adjacency: list[np.ndarray],
    entry: int,
    query: np.ndarray,
    L: int,
) -> list[int]:
    """Reference: the one-query heap search the build used before it searched
    in batches. Returns the ids it expanded; ties break toward the lower id."""
    q = query.astype(np.float64)
    q_sq = float(q @ q)
    d0 = float(np.sqrt(max(pts_sq[entry] - 2.0 * (pts[entry] @ q) + q_sq, 0.0)))

    frontier = [(d0, entry)]  # min-heap of unexpanded candidates
    # max-heap of the running top-L; (-d, -id) so ties evict the higher id
    best: list[tuple[float, int]] = [(-d0, -entry)]
    in_queue = np.zeros(pts.shape[0], dtype=bool)
    in_queue[entry] = True
    visited: list[int] = []

    while frontier:
        d, node = heapq.heappop(frontier)
        if len(best) >= L and d > -best[0][0]:
            break
        visited.append(node)
        neigh = adjacency[node]
        fresh = neigh[~in_queue[neigh]]
        if fresh.size == 0:
            continue
        in_queue[fresh] = True
        d2 = pts_sq[fresh] - 2.0 * (pts[fresh] @ q) + q_sq
        np.maximum(d2, 0.0, out=d2)
        dists = np.sqrt(d2)
        worst = -best[0][0]
        for dj, j in zip(dists.tolist(), fresh.tolist()):
            if len(best) < L or dj < worst:
                heapq.heappush(frontier, (dj, j))
                heapq.heappush(best, (-dj, -j))
                if len(best) > L:
                    heapq.heappop(best)
                worst = -best[0][0]
    return visited


def _robust_prune(
    pts: np.ndarray,
    point: int,
    candidates: np.ndarray,
    alpha: float,
    R: int,
) -> np.ndarray:
    """Reference: the one-row prune the build used before it pruned rows in
    batches. Keeps the closest candidate, drops everything the kept one
    dominates (alpha slack), repeats until R survivors."""
    cand = np.unique(candidates)
    cand = cand[cand != point]
    if cand.size == 0:
        return cand
    cpts = pts[cand]
    diff = cpts - pts[point]
    d_point = np.einsum("ij,ij->i", diff, diff)
    order = np.lexsort((cand, d_point))
    cand = cand[order]
    d_point = d_point[order]
    cpts = cpts[order]
    # full pairwise squared distances among candidates, computed once
    sq = np.einsum("ij,ij->i", cpts, cpts)
    gram = sq[:, None] - 2.0 * (cpts @ cpts.T) + sq[None, :]
    np.maximum(gram, 0.0, out=gram)

    kept: list[int] = []
    alive = np.ones(cand.shape[0], dtype=bool)
    alpha_sq = alpha * alpha
    for i in range(cand.shape[0]):
        if not alive[i]:
            continue
        kept.append(int(cand[i]))
        if len(kept) >= R:
            break
        kill = alpha_sq * gram[i] <= d_point
        kill[: i + 1] = False
        alive &= ~kill
    return np.array(kept, dtype=np.int64)


@st.composite
def _prune_cases(draw):
    """Points on a small integer grid, so that every distance is exact and
    equal distances are common, and candidate rows that repeat ids and hold
    the row's own point and the padding id n."""
    n = draw(st.integers(2, 12))
    dim = draw(st.integers(1, 3))
    coords = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    pts = np.array(draw(st.lists(coords, min_size=n, max_size=n)), dtype=np.float64)
    rows = draw(st.integers(1, 5))
    width = draw(st.integers(1, 16))
    points = draw(st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows))
    ids = st.lists(st.integers(0, n), min_size=width, max_size=width)
    cands = np.array(draw(st.lists(ids, min_size=rows, max_size=rows)), dtype=np.int64)
    alpha = draw(st.sampled_from([1.0, 1.2, 1.5, 2.0]))
    R = draw(st.integers(1, 6))
    chunk = draw(st.sampled_from([1, 16, 1 << 17]))  # entries per temporary
    return pts, np.array(points, dtype=np.int64), cands, alpha, R, chunk


@given(case=_prune_cases())
def test_batched_prune_matches_one_row_prune(case):
    pts, points, cands, alpha, R, chunk = case
    n = pts.shape[0]
    padded, padded_sq = _padded_points(pts)
    with mock.patch.object(vecdata, "CHUNK_ENTRIES", chunk):
        got = _prune_rows(padded, padded_sq, points, cands, alpha, R)
    assert got.shape == (points.size, R)
    for row, point, cand in zip(got, points.tolist(), cands):
        want = _robust_prune(pts, point, cand[cand < n], alpha, R)
        # kept ids first, in keep order, then only padding
        assert row[: want.size].tolist() == want.tolist()
        assert (row[want.size:] == n).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lockstep_search_expands_what_the_heap_search_expands(seed):
    # Continuous random points have no two exactly equal distances, the one
    # case where the two searches may differ: at a tie with the L-th
    # candidate the heap search refuses the newcomer, while the lockstep
    # search keeps whichever has the lower id.
    rng = np.random.default_rng(seed)
    n, dim, R, L = 300, 8, 8, 16
    pts = rng.normal(size=(n, dim))
    adj = np.full((n, R), n, dtype=np.int64)  # a frozen graph, rows padded with n
    for i in range(n):
        degree = int(rng.integers(1, R + 1))
        pick = rng.choice(n - 1, size=degree, replace=False)
        adj[i, :degree] = np.where(pick >= i, pick + 1, pick)
    adjacency = [row[row < n] for row in adj]
    entry = int(rng.integers(n))
    points = rng.choice(n, size=40, replace=False)
    padded, padded_sq = _padded_points(pts)
    got = _search_batch(padded, padded_sq, adj, entry, points, L)
    for row, point in zip(got, points.tolist()):
        expanded = row[row < n].tolist()
        want = _greedy_search_build(pts, padded_sq[:n], adjacency, entry, pts[point], L)
        assert len(expanded) == len(set(expanded))  # each id expanded once
        assert set(expanded) == set(want)


@pytest.mark.parametrize("rows", [
    # the entry's neighbours 4 and 5 tie for the last of L=3 places
    {1: [5, 4, 3, 2]},
    # 5 holds the last place when node 2 brings 4, at the same distance
    {1: [5, 3, 2], 2: [4]},
])
def test_lockstep_search_breaks_distance_ties_toward_the_lower_id(rows):
    # point 0 searched from entry 1; ids 2 and 3 lie at distance 3, 4 and 5
    # at distance 4
    pts = np.array([[0.0], [5.0], [-3.0], [3.0], [-4.0], [4.0]])
    n = pts.shape[0]
    adj = np.full((n, 4), n, dtype=np.int64)
    for node, neigh in rows.items():
        adj[node, : len(neigh)] = neigh
    padded, padded_sq = _padded_points(pts)
    got = _search_batch(padded, padded_sq, adj, 1, np.array([0]), 3)
    assert got[0][got[0] < n].tolist() == [1, 2, 3, 4]


def _graph_digest(graph: GraphIndex) -> str:
    h = hashlib.sha256(f"entry {graph.entry_id}\n".encode())
    for i, neigh in enumerate(graph.adjacency):
        h.update(f"{i}: {' '.join(map(str, neigh.tolist()))}\n".encode())
    return h.hexdigest()


def test_smoke_graph_matches_pinned_digest(smoke):
    # the graph every smoke search walks; a change in the pinned search
    # digests of test_search.py comes from the search when this one holds.
    # The per-point build gave 33d1312a...
    want = "c9c09ad2a544d93b4b9743c892d01b50d6112b1186a9e64012262a24bd659589"
    assert _graph_digest(smoke.graph) == want


def test_build_is_identical_under_one_and_two_blas_threads(tmp_path):
    src = Path(graphbuild.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from builders import make_blobs\n"
        "from diskvec import graphbuild, vecdata\n"
        "ds = vecdata.VectorDataset(make_blobs(1200, 16, 4, seed=74))\n"
        "graph = graphbuild.build_graph(ds, R=16, L_build=32, alpha=1.2, seed=3)\n"
        "graphbuild.save_graph(sys.argv[1], graph)\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
        out = tmp_path / f"graph_{threads}.bin"
        subprocess.run([sys.executable, "-c", code, str(out)], env=env, check=True, timeout=120)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
