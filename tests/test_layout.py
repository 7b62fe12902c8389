"""Clustering, ordering, page packing, read intervals, and the sidecar format."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskvec.errors import FormatError

from diskvec.layout import (
    _HEADER,
    LayoutMap,
    build_insertion_layout,
    build_similarity_layout,
    compute_read_interval,
    lloyd_cluster,
    load_layout,
    mean_intra_page_distance,
    order_clusters,
    order_within_cluster,
    pack_pages,
    save_layout,
)
from diskvec.vecdata import VectorDataset

from builders import make_blobs, mutate


def _ds(arr) -> VectorDataset:
    return VectorDataset(np.asarray(arr, dtype=np.float32))


# ------------------------------------------------------------------- k-means


def test_kmeans_k1_is_global_mean():
    ds = _ds([[0.0, 0.0], [2.0, 0.0], [4.0, 6.0]])
    centroids, assignment, _ = lloyd_cluster(ds.vectors, 1, 25, seed=0)
    assert assignment.tolist() == [0, 0, 0]
    assert np.allclose(centroids[0], ds.vectors.mean(axis=0), atol=1e-6)


def test_kmeans_saturated_zero_distortion():
    rng = np.random.default_rng(21)
    ds = _ds(rng.normal(size=(12, 3)))
    _, assignment, history = lloyd_cluster(ds.vectors, 12, 25, seed=1)
    assert sorted(assignment.tolist()) == list(range(12))
    assert history[-1] == pytest.approx(0.0, abs=1e-12)


def test_kmeans_two_blobs_recovers_membership():
    rng = np.random.default_rng(22)
    a = rng.normal(loc=(0.0, 0.0), scale=0.3, size=(25, 2))
    b = rng.normal(loc=(20.0, 20.0), scale=0.3, size=(25, 2))
    ds = _ds(np.vstack([a, b]))
    centroids, assignment, _ = lloyd_cluster(ds.vectors, 2, 25, seed=2)
    first_half = set(assignment[:25].tolist())
    second_half = set(assignment[25:].tolist())
    assert len(first_half) == 1 and len(second_half) == 1
    assert first_half != second_half
    # with this separation Lloyd's converges to the blob means
    blob_mean_a = a.mean(axis=0)
    got_a = centroids[assignment[0]]
    assert np.allclose(got_a, blob_mean_a, atol=1e-5)


def test_kmeans_distortion_non_increasing():
    pts = make_blobs(200, 4, 5, seed=23)
    _, _, hist = lloyd_cluster(_ds(pts).vectors, 8, 30, seed=3)
    assert all(hist[i + 1] <= hist[i] * (1 + 1e-12) for i in range(len(hist) - 1))


def test_kmeans_no_empty_clusters_random_cases():
    rng = np.random.default_rng(24)
    for trial in range(5):
        pts = rng.normal(size=(30, 2))
        _, assignment, _ = lloyd_cluster(_ds(pts).vectors, 10, 25, seed=trial)
        assert len(set(assignment.tolist())) == 10


def test_kmeans_determinism():
    pts = make_blobs(80, 3, 3, seed=25)
    a_centroids, a_assignment, _ = lloyd_cluster(pts, 5, 25, seed=9)
    b_centroids, b_assignment, _ = lloyd_cluster(pts, 5, 25, seed=9)
    assert np.array_equal(a_assignment, b_assignment)
    assert np.array_equal(a_centroids, b_centroids)


@pytest.mark.parametrize("dim", [1, 2, 16])
def test_kmeans_centroids_are_member_means(dim):
    pts = make_blobs(300, dim, 4, seed=26).astype(np.float64)
    centroids, assignment, _ = lloyd_cluster(pts, 7, 25, seed=4)
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


# ------------------------------------------------------------- cluster chain


def test_order_clusters_single():
    assert order_clusters(np.array([[4.2]])).tolist() == [0]


def test_order_clusters_line_example():
    # centroids at 0, 10, 11; their mean is 7 -> start at 10, then 11, then 0
    seq = order_clusters(np.array([[0.0], [10.0], [11.0]]))
    assert seq.tolist() == [1, 2, 0]


def test_order_clusters_is_permutation():
    rng = np.random.default_rng(31)
    cents = rng.normal(size=(13, 4))
    assert sorted(order_clusters(cents).tolist()) == list(range(13))


# --------------------------------------------------------------- page packing


def test_pack_pages_occupancies():
    orders = [np.arange(10, dtype=np.int64)]
    lm = pack_pages(np.array([0]), orders, 3)
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
    lm = pack_pages(np.array([0, 1]), [order, rest], 3)
    assert set(lm.nodes_on_page(0).tolist()) == {2, 5, 9}
    assert lm.nodes_on_page(1)[0] == 4


def test_pack_pages_rank_round_trip():
    rng = np.random.default_rng(32)
    order = rng.permutation(23).astype(np.int64)
    lm = pack_pages(np.array([0]), [order], 4)
    for v in range(23):
        assert lm.node_order[lm.node_rank[v]] == v
    assert sorted(lm.node_order.tolist()) == list(range(23))


# ------------------------------------------------------------- read intervals


def _fig_layout(orders: list[list[int]], capacity: int = 3) -> LayoutMap:
    arrays = [np.array(o, dtype=np.int64) for o in orders]
    return pack_pages(np.arange(len(arrays)), arrays, capacity)


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


# ------------------------------------------------------------------- sidecar


def test_layout_sidecar_round_trip(tmp_path):
    ds = _ds(make_blobs(90, 5, 3, seed=39))
    lm = build_similarity_layout(ds, page_capacity=4, seed=40)
    path = tmp_path / "layout.bin"
    save_layout(path, lm)
    assert path.stat().st_size == 20 + 12 * 90  # header, then (node u64, cluster u32) per rank
    back = load_layout(path)
    assert np.array_equal(back.node_order, lm.node_order)
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
    "order, cluster, capacity",
    [
        ([0, 0, 1], [0, 0, 0], 2),
        ([0, 1, 3], [0, 0, 0], 2),
        ([0, 1, 2], [0, 1, 0], 2),
        ([0, 1, 2], [0, 0, 2], 2),
        ([0, 1, 2], [0, 0], 2),
        ([], [], 2),
        ([0, 1, 2], [0, 0, 0], 0),
    ],
    ids=[
        "duplicated_node", "node_id_out_of_range", "split_cluster", "cluster_id_gap",
        "length_mismatch", "no_nodes", "zero_page_capacity",
    ],
)
def test_layout_map_rejects_invalid_placement(order, cluster, capacity):
    with pytest.raises(ValueError):
        LayoutMap(np.array(order, dtype=np.int64), np.array(cluster, dtype=np.int32), capacity)


def _assert_layout_invariants(lm: LayoutMap) -> None:
    """Check a layout against its definition, node by node."""
    n = lm.n
    assert sorted(lm.node_order.tolist()) == list(range(n))
    assert all(lm.node_order[lm.node_rank[v]] == v for v in range(n))
    by_rank = lm.node_cluster[lm.node_order].tolist()
    runs = [c for r, c in enumerate(by_rank) if r == 0 or c != by_rank[r - 1]]
    assert sorted(runs) == list(range(lm.k_clusters))
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
    orders = [pieces[sequence.index(c)] for c in range(len(pieces))]
    return pack_pages(np.array(sequence), orders, draw(st.integers(1, 9)))


@given(lm=_random_layouts())
def test_random_layouts_round_trip(tmp_path_factory, lm):
    _assert_layout_invariants(lm)
    path = tmp_path_factory.getbasetemp() / "round_trip_layout.bin"
    save_layout(path, lm)
    back = load_layout(path)
    assert np.array_equal(back.node_order, lm.node_order)
    assert np.array_equal(back.node_cluster, lm.node_cluster)
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
