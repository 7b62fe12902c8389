"""Clustering, ordering, page packing, read intervals, and the sidecar format."""

from __future__ import annotations

import struct
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskvec import vecdata
from diskvec.errors import FormatError

from diskvec.layout import (
    _HEADER,
    LayoutMap,
    _kmeans_pp_init,
    build_insertion_layout,
    build_similarity_layout,
    compute_read_interval,
    lloyd_cluster,
    load_layout,
    mean_intra_page_distance,
    order_within_cluster,
    pack_pages,
    save_layout,
)
from diskvec.pqcodec import PQCodebook, encode_batch
from diskvec.vecdata import VectorDataset, nearest_center

from builders import make_blobs, mutate


def _ds(arr) -> VectorDataset:
    return VectorDataset(np.asarray(arr, dtype=np.float32))


# ------------------------------------------------------------------- k-means


def test_kmeans_k1_is_global_mean():
    ds = _ds([[0.0, 0.0], [2.0, 0.0], [4.0, 6.0]])
    centroids, assignment = lloyd_cluster(ds.vectors, 1, 25, seed=0)
    assert assignment.tolist() == [0, 0, 0]
    assert np.allclose(centroids[0], ds.vectors.mean(axis=0), atol=1e-6)


def _distortion(points: np.ndarray, centroids: np.ndarray, assignment: np.ndarray) -> float:
    """Summed squared distance of each point to its assigned centroid."""
    diff = np.asarray(points, dtype=np.float64) - centroids[assignment]
    return float(np.einsum("ij,ij->", diff, diff))


def test_kmeans_saturated_zero_distortion():
    rng = np.random.default_rng(21)
    ds = _ds(rng.normal(size=(12, 3)))
    centroids, assignment = lloyd_cluster(ds.vectors, 12, 25, seed=1)
    assert sorted(assignment.tolist()) == list(range(12))
    assert _distortion(ds.vectors, centroids, assignment) == pytest.approx(0.0, abs=1e-12)


def test_kmeans_two_blobs_recovers_membership():
    rng = np.random.default_rng(22)
    a = rng.normal(loc=(0.0, 0.0), scale=0.3, size=(25, 2))
    b = rng.normal(loc=(20.0, 20.0), scale=0.3, size=(25, 2))
    ds = _ds(np.vstack([a, b]))
    centroids, assignment = lloyd_cluster(ds.vectors, 2, 25, seed=2)
    first_half = set(assignment[:25].tolist())
    second_half = set(assignment[25:].tolist())
    assert len(first_half) == 1 and len(second_half) == 1
    assert first_half != second_half
    # with this separation Lloyd's converges to the blob means
    blob_mean_a = a.mean(axis=0)
    got_a = centroids[assignment[0]]
    assert np.allclose(got_a, blob_mean_a, atol=1e-5)


def test_kmeans_distortion_non_increasing():
    # a run cut at max_iters=i follows the same trajectory for its first i
    # iterations, so these are the distortions after each iteration
    pts = _ds(make_blobs(200, 4, 5, seed=23)).vectors
    hist = [_distortion(pts, *lloyd_cluster(pts, 8, i, seed=3)) for i in range(1, 31)]
    assert all(hist[i + 1] <= hist[i] * (1 + 1e-12) for i in range(len(hist) - 1))


def test_kmeans_no_empty_clusters_random_cases():
    rng = np.random.default_rng(24)
    for trial in range(5):
        pts = rng.normal(size=(30, 2))
        _, assignment = lloyd_cluster(_ds(pts).vectors, 10, 25, seed=trial)
        assert len(set(assignment.tolist())) == 10


def test_kmeans_determinism():
    pts = make_blobs(80, 3, 3, seed=25)
    a_centroids, a_assignment = lloyd_cluster(pts, 5, 25, seed=9)
    b_centroids, b_assignment = lloyd_cluster(pts, 5, 25, seed=9)
    assert np.array_equal(a_assignment, b_assignment)
    assert np.array_equal(a_centroids, b_centroids)


@pytest.mark.parametrize("dim", [1, 2, 16])
def test_kmeans_centroids_are_member_means(dim):
    pts = make_blobs(300, dim, 4, seed=26).astype(np.float64)
    centroids, assignment = lloyd_cluster(pts, 7, 25, seed=4)
    for j in range(7):
        expect = pts[assignment == j].mean(axis=0)
        if dim == 1:
            # numpy sums one column pairwise, where the update adds row by row
            assert np.allclose(centroids[j], expect, rtol=1e-12, atol=1e-12)
        else:
            assert np.array_equal(centroids[j], expect)


def test_kmeans_k_out_of_range():
    with pytest.raises(ValueError):
        lloyd_cluster(np.zeros((4, 2)), 5, 25, seed=0)
    # and an iteration count out of range
    with pytest.raises(ValueError, match="max_iters=0"):
        lloyd_cluster(np.zeros((4, 2)), 2, 0, seed=0)


def _grid(draw, rows: int, dim: int) -> np.ndarray:
    """Points on a small integer grid: every distance is exact, and equal
    distances are common."""
    coords = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    return np.array(draw(st.lists(coords, min_size=rows, max_size=rows)), dtype=np.float64)


@given(data=st.data())
def test_kmeans_pp_init_seeds_distinct_rows(data):
    # a chosen point's own distance is an exact 0, so it is never drawn again
    pts = _grid(data.draw, data.draw(st.integers(1, 40)), data.draw(st.integers(1, 4)))
    distinct = np.unique(pts, axis=0).shape[0]
    k = data.draw(st.integers(1, distinct))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    centers = _kmeans_pp_init(pts, k, rng)
    assert np.unique(centers, axis=0).shape[0] == k
    assert all((pts == c).all(axis=1).any() for c in centers)


@st.composite
def _assignment_cases(draw):
    dim = draw(st.integers(1, 4))
    pts = _grid(draw, draw(st.integers(1, 40)), dim)
    centers = _grid(draw, draw(st.integers(1, 9)), dim)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return pts.astype(dtype), centers, draw(st.integers(1, 64))  # entries per chunk


@given(case=_assignment_cases())
def test_chunked_nearest_center_matches_one_shot_argmin(case):
    pts, centers, chunk = case
    with mock.patch.object(vecdata, "CHUNK_ENTRIES", chunk):
        ids, d2 = nearest_center(pts, centers)
    full = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    want = np.argmin(full, axis=1)  # the lowest index among equal distances
    assert ids.tolist() == want.tolist()
    assert d2.tolist() == full[np.arange(pts.shape[0]), want].tolist()


@given(data=st.data())
def test_kmeans_and_pq_encoding_do_not_depend_on_the_chunk(data):
    chunk = data.draw(st.integers(1, 64))
    # BLAS picks its kernel by the row count, so a chunk may round p·cᵀ
    # differently; on 1-d points each product is one rounding in any kernel.
    pts = _grid(data.draw, data.draw(st.integers(1, 40)), 1)
    k = data.draw(st.integers(1, min(8, pts.shape[0])))
    iters, seed = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 3))
    m, sub = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    c = data.draw(st.integers(1, 9))
    codebook = PQCodebook(_grid(data.draw, m * c, sub).reshape(m, c, sub).astype(np.float32))
    vectors = _grid(data.draw, data.draw(st.integers(1, 40)), m * sub).astype(np.float32)

    whole = lloyd_cluster(pts, k, iters, seed), encode_batch(vectors, codebook)
    with mock.patch.object(vecdata, "CHUNK_ENTRIES", chunk):
        chunked = lloyd_cluster(pts, k, iters, seed), encode_batch(vectors, codebook)
    for want, got in zip(whole[0], chunked[0]):
        assert np.array_equal(want, got)
    assert np.array_equal(whole[1], chunked[1])


# ------------------------------------------------------- within-cluster order


def test_order_within_cluster_defers_peripheral_member():
    # the dense trio sits near the centroid; node 4 is peripheral
    coords = np.zeros((10, 2), dtype=np.float32)
    coords[2] = (0.0, 0.1)
    coords[5] = (0.1, 0.0)
    coords[9] = (-0.1, 0.0)
    coords[4] = (3.0, 3.0)
    ds = _ds(coords)
    members = np.array([2, 4, 5, 9])
    centroid = coords[members].mean(axis=0)
    order = order_within_cluster(members, centroid, ds)
    assert order[-1] == 4
    assert set(order[:3].tolist()) == {2, 5, 9}


def test_order_within_cluster_single_member():
    ds = _ds([[1.0, 1.0]])
    assert order_within_cluster(np.array([0]), np.array([5.0, 5.0]), ds).tolist() == [0]


def test_order_within_cluster_ties_ascend_by_id():
    ds = _ds([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    order = order_within_cluster(np.array([3, 1, 2, 0]), np.zeros(2), ds)
    assert order.tolist() == [0, 1, 2, 3]


# --------------------------------------------------------------- page packing


def test_pack_pages_occupancies():
    orders = [np.arange(10, dtype=np.int64)]
    lm = pack_pages(orders, 3)
    assert lm.total_pages == 4
    occ = [lm.nodes_on_page(p).shape[0] for p in range(4)]
    assert occ == [3, 3, 3, 1]


def test_pack_pages_peripheral_member_starts_next_page():
    coords = np.zeros((10, 2), dtype=np.float32)
    coords[2] = (0.0, 0.1)
    coords[5] = (0.1, 0.0)
    coords[9] = (-0.1, 0.0)
    coords[4] = (3.0, 3.0)
    ds = _ds(coords)
    members = np.array([2, 4, 5, 9])
    centroid = coords[members].mean(axis=0)
    order = order_within_cluster(members, centroid, ds)
    rest = np.array([i for i in range(10) if i not in members.tolist()], dtype=np.int64)
    lm = pack_pages([order, rest], 3)
    assert set(lm.nodes_on_page(0).tolist()) == {2, 5, 9}
    assert lm.nodes_on_page(1)[0] == 4


def test_pack_pages_rank_round_trip():
    rng = np.random.default_rng(32)
    order = rng.permutation(23).astype(np.int64)
    lm = pack_pages([order], 4)
    for v in range(23):
        assert lm.node_order[lm.node_rank[v]] == v
    assert sorted(lm.node_order.tolist()) == list(range(23))


# ------------------------------------------------------------- read intervals


def _fig_layout(orders: list[list[int]], capacity: int = 3) -> LayoutMap:
    arrays = [np.array(o, dtype=np.int64) for o in orders]
    return pack_pages(arrays, capacity)


def test_read_interval_case1_stays_inside_large_cluster():
    # cluster 1 holds the quartet; it spans pages 1-2, at least the window
    lm = _fig_layout([[0, 1, 3], [2, 5, 9, 4], [6, 7, 8]])
    iv = compute_read_interval(5, 2, lm)
    assert (iv.start_page, iv.page_count) == (1, 2)
    window_nodes = set(lm.nodes_on_page(1).tolist()) | set(lm.nodes_on_page(2).tolist())
    assert {2, 5, 9, 4} <= window_nodes
    # no spill: the window stays within the cluster's page span
    c = lm.cluster_of(5)
    assert iv.start_page >= lm.cluster_first_page[c]
    assert iv.end_page <= lm.cluster_first_page[c] + lm.cluster_page_count[c] - 1


def test_read_interval_case2_spills_into_adjacent_cluster():
    # target cluster {5, 9} is smaller than the window; node 4 sits at the end
    # of the preceding (adjacent, therefore similar) cluster
    lm = _fig_layout([[0, 1, 3], [6, 7, 4], [5, 9], [8, 2]])
    assert lm.page_of(5) == 2 and lm.page_of(4) == 1
    iv = compute_read_interval(5, 2, lm)
    assert (iv.start_page, iv.page_count) == (1, 2)
    assert lm.page_of(4) in iv.pages()


def test_read_interval_case3_clamps_at_file_start():
    # target page 0 in a small cluster: left edge clamps to 0, size is preserved
    lm = _fig_layout([[5, 9], [0, 1, 3], [6, 7, 4], [8, 2]])
    assert lm.page_of(5) == 0
    iv = compute_read_interval(5, 2, lm)
    assert (iv.start_page, iv.page_count) == (0, 2)


def test_read_interval_always_covers_target_with_exact_size():
    rng = np.random.default_rng(33)
    pts = make_blobs(120, 4, 5, seed=34)
    ds = _ds(pts)
    lm = build_similarity_layout(ds, page_capacity=4, seed=35)
    for w in (1, 2, 3, 7, 100):
        expect = min(w, lm.total_pages)
        for target in rng.integers(0, 120, size=40).tolist():
            iv = compute_read_interval(int(target), w, lm)
            assert iv.page_count == expect
            assert iv.start_page >= 0 and iv.end_page < lm.total_pages
            assert lm.page_of(int(target)) in iv.pages()


def test_read_interval_invalid_target():
    lm = _fig_layout([[0, 1, 2]])
    with pytest.raises(ValueError):
        compute_read_interval(99, 2, lm)


# ------------------------------------------------------------------ locality


def test_similarity_layout_improves_intra_page_distance():
    pts = make_blobs(400, 6, 5, seed=36)
    ds = _ds(pts)
    sim = build_similarity_layout(ds, page_capacity=4, seed=37)
    ins = build_insertion_layout(ds, page_capacity=4)
    assert mean_intra_page_distance(ds, sim) < mean_intra_page_distance(ds, ins)


def test_insertion_layout_is_identity():
    ds = _ds(make_blobs(50, 3, 2, seed=38))
    lm = build_insertion_layout(ds, page_capacity=7)
    assert lm.node_order.tolist() == list(range(50))
    assert lm.k_clusters == 1


# ----------------------------------------------------------------- bisection


@st.composite
def _bisection_cases(draw):
    dim = draw(st.integers(1, 4))
    pts = _grid(draw, draw(st.integers(1, 60)), dim).astype(np.float32)
    return _ds(pts), draw(st.integers(1, 9)), draw(st.integers(0, 3))


@given(case=_bisection_cases())
def test_bisection_packs_whole_pages_into_clusters_of_one_or_two(case):
    ds, cap, seed = case
    lm = build_similarity_layout(ds, page_capacity=cap, seed=seed)
    _assert_layout_invariants(lm)
    sizes = np.diff(np.append(lm.cluster_start, lm.n))
    # every cluster starts on a page boundary, so no page holds two clusters
    # and only the last page is partly filled
    assert np.all(lm.cluster_start % cap == 0)
    assert np.all(sizes[:-1] % cap == 0)
    assert set(lm.cluster_page_count.tolist()) <= {1, 2}
    again = build_similarity_layout(ds, page_capacity=cap, seed=seed)
    assert np.array_equal(again.node_order, lm.node_order)
    assert np.array_equal(again.cluster_start, lm.cluster_start)


@pytest.mark.parametrize("seed", range(4))
def test_bisection_keeps_separated_blobs_off_each_others_pages(seed):
    rng = np.random.default_rng(41 + seed)
    a = rng.normal(loc=0.0, scale=0.5, size=(12, 3))  # 3 pages of 4
    b = rng.normal(loc=50.0, scale=0.5, size=(20, 3))  # 5 pages of 4
    pts = np.vstack([a, b])[rng.permutation(32)]
    ds = _ds(pts)
    lm = build_similarity_layout(ds, page_capacity=4, seed=seed)
    for page in range(lm.total_pages):
        blob = {bool(ds.vectors[v, 0] > 25.0) for v in lm.nodes_on_page(page).tolist()}
        assert len(blob) == 1, page


def test_bisection_deeper_than_the_recursion_limit_builds():
    # equal points leave 2-means one point for cluster 1, so every cut peels
    # off one page: n - 2 nested splits
    n = sys.getrecursionlimit() + 100
    lm = build_similarity_layout(_ds(np.zeros((n, 1))), page_capacity=1, seed=0)
    assert lm.k_clusters == n - 1
    assert sorted(lm.node_order.tolist()) == list(range(n))


# ------------------------------------------------------------------- sidecar


def test_layout_sidecar_round_trip(tmp_path):
    ds = _ds(make_blobs(90, 5, 3, seed=39))
    lm = build_similarity_layout(ds, page_capacity=4, seed=40)
    path = tmp_path / "layout.bin"
    save_layout(path, lm)
    # the header, then a u32 node per rank and a u32 first rank per cluster
    assert path.stat().st_size == 24 + 4 * (90 + lm.k_clusters)
    back = load_layout(path)
    assert np.array_equal(back.node_order, lm.node_order)
    assert np.array_equal(back.cluster_start, lm.cluster_start)
    assert np.array_equal(back.node_cluster, lm.node_cluster)
    assert np.array_equal(back.node_rank, lm.node_rank)
    assert np.array_equal(back.cluster_first_page, lm.cluster_first_page)
    assert np.array_equal(back.cluster_page_count, lm.cluster_page_count)
    assert back.page_capacity == lm.page_capacity


def test_layout_version_1_asks_for_a_new_layout(tmp_path):
    path = tmp_path / "layout.bin"
    path.write_bytes(struct.pack("<4sIQQII", b"GOVL", 1, 3, 1, 4, 2) + bytes(64))
    with pytest.raises(FormatError, match="run `diskvec layout` again"):
        load_layout(path)


@pytest.mark.parametrize(
    "order, cluster_start, capacity",
    [
        ([0, 0, 1], [0], 2),
        ([0, 1, 3], [0], 2),
        ([0, 1, 2], [0, 2, 1], 2),
        ([0, 1, 2], [0, 2, 2], 2),
        ([0, 1, 2], [1, 2], 2),
        ([0, 1, 2], [0, 3], 2),
        ([0, 1, 2], [], 2),
        ([], [0], 2),
        ([0, 1, 2], [0], 0),
    ],
    ids=[
        "duplicated_node", "node_id_out_of_range", "cluster_start_falls", "cluster_id_gap",
        "first_start_not_zero", "cluster_start_past_n", "no_clusters", "no_nodes",
        "zero_page_capacity",
    ],
)
def test_layout_map_rejects_invalid_placement(order, cluster_start, capacity):
    # "cluster_id_gap": cluster 1 starts where cluster 2 does, so it has no rank
    with pytest.raises(ValueError):
        LayoutMap(np.array(order, dtype=np.int64), np.array(cluster_start, dtype=np.int64), capacity)


def _assert_layout_invariants(lm: LayoutMap) -> None:
    """Check a layout against its definition, node by node."""
    n = lm.n
    assert sorted(lm.node_order.tolist()) == list(range(n))
    assert all(lm.node_order[lm.node_rank[v]] == v for v in range(n))
    by_rank = lm.node_cluster[lm.node_order].tolist()
    # clusters are numbered in disk order, each one run starting at its start
    runs = [r for r in range(n) if r == 0 or by_rank[r] != by_rank[r - 1]]
    assert runs == lm.cluster_start.tolist()
    assert [by_rank[r] for r in runs] == list(range(lm.k_clusters))
    for c in range(lm.k_clusters):
        pages = [lm.page_of(v) for v in range(n) if lm.cluster_of(v) == c]
        assert lm.cluster_first_page[c] == min(pages)
        assert lm.cluster_page_count[c] == max(pages) - min(pages) + 1


@st.composite
def _random_layouts(draw) -> LayoutMap:
    n = draw(st.integers(1, 40))
    order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=8))) if n > 1 else []
    pieces = np.split(order, cuts)
    sequence = draw(st.permutations(range(len(pieces))))
    return pack_pages([pieces[c] for c in sequence], draw(st.integers(1, 9)))


@given(lm=_random_layouts())
def test_random_layouts_round_trip(tmp_path_factory, lm):
    _assert_layout_invariants(lm)
    path = tmp_path_factory.getbasetemp() / "round_trip_layout.bin"
    save_layout(path, lm)
    back = load_layout(path)
    assert np.array_equal(back.node_order, lm.node_order)
    assert np.array_equal(back.cluster_start, lm.cluster_start)
    assert back.page_capacity == lm.page_capacity


@given(lm=_random_layouts(), data=st.data())
def test_corrupt_layout_sidecar_is_a_format_error_or_a_valid_layout(tmp_path_factory, lm, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed_layout.bin"
    save_layout(path, lm)
    path.write_bytes(mutate(data, bytearray(path.read_bytes()), _HEADER.size))
    try:
        back = load_layout(path)
    except FormatError:
        return
    _assert_layout_invariants(back)
