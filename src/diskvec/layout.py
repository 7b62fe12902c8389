"""Similarity-driven disk layout: k-means clustering, within-cluster ordering,
cluster sequencing, page packing, and the sequential read-interval rule used
for batch loading.

Placement goal: vectors that are close in space end up on the same or adjacent
pages, so one sequential read fetches many soon-to-be-needed nodes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError
from .vecdata import VectorDataset

LAYOUT_MAGIC = b"GOVL"
LAYOUT_VERSION = 2
_HEADER = struct.Struct("<4sIQI")  # magic, version, n, page_capacity
_RECORD = np.dtype([("node", "<u8"), ("cluster", "<u4")])  # one per rank, in disk order


@dataclass
class ReadInterval:
    """A contiguous page range; always covers the target node's page."""

    start_page: int
    page_count: int

    @property
    def end_page(self) -> int:
        return self.start_page + self.page_count - 1

    def pages(self) -> range:
        return range(self.start_page, self.start_page + self.page_count)


@dataclass
class LayoutMap:
    """Node-to-disk placement: a permutation of nodes packed into fixed pages.

    Clusters occupy contiguous rank intervals but are not page-aligned; a page
    may straddle two adjacent clusters. The node ranks and the per-cluster
    page spans are derived once, on construction, which rejects (ValueError)
    an order that is not a permutation of 0..n-1 and cluster ids that are not
    0..k-1 with each cluster one contiguous run in disk order.
    """

    node_order: np.ndarray  # (n,) int64, disk order (rank -> node)
    node_cluster: np.ndarray  # (n,) int32, node -> cluster
    page_capacity: int
    node_rank: np.ndarray = field(init=False, repr=False)  # (n,) int64, node -> rank
    cluster_first_page: np.ndarray = field(init=False, repr=False)  # (k,) int64
    cluster_page_count: np.ndarray = field(init=False, repr=False)  # (k,) int64

    def __post_init__(self) -> None:
        order = np.asarray(self.node_order, dtype=np.int64)
        cluster = np.asarray(self.node_cluster, dtype=np.int32)
        cap = int(self.page_capacity)
        if cap < 1:
            raise ValueError(f"page_capacity must be >= 1, got {cap}")
        if order.ndim != 1 or order.size < 1 or cluster.shape != order.shape:
            raise ValueError("node_order and node_cluster must be nonempty and of one length")
        n = order.shape[0]
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("node_order is not a permutation of 0..n-1")
        by_rank = cluster[order]
        first_rank = np.flatnonzero(np.concatenate(([True], by_rank[1:] != by_rank[:-1])))
        run_cluster = by_rank[first_rank]
        k = first_rank.shape[0]
        if not np.array_equal(np.sort(run_cluster), np.arange(k)):
            raise ValueError(
                "cluster ids must be 0..k-1, each a single contiguous run in disk order"
            )
        last_rank = np.append(first_rank[1:], n) - 1
        self.node_order, self.node_cluster, self.page_capacity = order, cluster, cap
        self.node_rank = np.empty(n, dtype=np.int64)
        self.node_rank[order] = np.arange(n)
        self.cluster_first_page = np.empty(k, dtype=np.int64)
        self.cluster_first_page[run_cluster] = first_rank // cap
        self.cluster_page_count = np.empty(k, dtype=np.int64)
        self.cluster_page_count[run_cluster] = last_rank // cap - first_rank // cap + 1

    @property
    def n(self) -> int:
        return self.node_order.shape[0]

    @property
    def k_clusters(self) -> int:
        return self.cluster_first_page.shape[0]

    @property
    def total_pages(self) -> int:
        return -(-self.n // self.page_capacity)

    def page_of(self, node_id: int) -> int:
        return int(self.node_rank[node_id]) // self.page_capacity

    def slot_of(self, node_id: int) -> int:
        return int(self.node_rank[node_id]) % self.page_capacity

    def cluster_of(self, node_id: int) -> int:
        return int(self.node_cluster[node_id])

    def nodes_on_page(self, page_id: int) -> np.ndarray:
        lo = page_id * self.page_capacity
        hi = min(lo + self.page_capacity, self.n)
        return self.node_order[lo:hi]


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ seeding; degenerate all-zero distances fall back to the
    lowest unchosen index."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    chosen = np.zeros(n, dtype=bool)
    first = int(rng.integers(0, n))
    centers[0] = points[first]
    chosen[first] = True
    d2 = np.einsum("ij,ij->i", points - centers[0], points - centers[0])
    for j in range(1, k):
        d2[chosen] = 0.0
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(np.nonzero(~chosen)[0][0])
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r))
            idx = min(idx, n - 1)
            if chosen[idx]:  # cumulative-sum edge landing on a zero-mass point
                idx = int(np.nonzero(~chosen)[0][0])
        centers[j] = points[idx]
        chosen[idx] = True
        nd2 = np.einsum("ij,ij->i", points - centers[j], points - centers[j])
        np.minimum(d2, nd2, out=d2)
    return centers


def lloyd_cluster(
    points: np.ndarray, k: int, max_iters: int, seed: int
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd's iteration over a plain (n, d) array; shared by the layout and the
    product-quantizer trainer.

    Returns (centroids float64 (k, d), assignment int32 (n,), distortion history).
    Empty clusters are repaired by stealing the point currently farthest from
    its own centroid (ties to the lowest id). Deterministic for a fixed seed.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(pts, k, rng)
    assignment = np.full(n, -1, dtype=np.int32)
    history: list[float] = []
    pts_sq = np.einsum("ij,ij->i", pts, pts)

    for _ in range(max_iters):
        # argmin over squared distances; argmin takes the lowest index on ties
        d2 = pts_sq[:, None] - 2.0 * pts @ centers.T + np.einsum("ij,ij->i", centers, centers)
        new_assign = np.argmin(d2, axis=1).astype(np.int32)
        own = d2[np.arange(n), new_assign]

        counts = np.bincount(new_assign, minlength=k)
        for empty in np.nonzero(counts == 0)[0]:
            donors = counts[new_assign] >= 2
            cand = np.nonzero(donors)[0]
            steal = cand[np.lexsort((cand, -own[cand]))[0]]
            counts[new_assign[steal]] -= 1
            new_assign[steal] = empty
            counts[empty] = 1
            own[steal] = 0.0

        converged = bool(np.array_equal(new_assign, assignment))
        assignment = new_assign
        for j in range(k):
            members = pts[assignment == j]
            centers[j] = members.mean(axis=0)
        diff = pts - centers[assignment]
        history.append(float(np.einsum("ij,ij->", diff, diff)))
        if converged:
            break
    return centers, assignment, history


def order_within_cluster(
    members: np.ndarray, centroid: np.ndarray, dataset: VectorDataset
) -> np.ndarray:
    """Order cluster members by ascending distance to the centroid, ties by id.

    Centroid-near members land earlier and therefore share pages; the
    peripheral members spill onto the following page.
    """
    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        raise ValueError("cluster member list must be nonempty")
    pts = dataset.vectors[members].astype(np.float64)
    c = np.asarray(centroid, dtype=np.float64)
    d2 = np.einsum("ij,ij->i", pts - c, pts - c)
    return members[np.lexsort((members, d2))]


def order_clusters(centroids: np.ndarray) -> np.ndarray:
    """Greedy nearest-centroid chain so adjacent-on-disk clusters are similar.

    Starts from the cluster nearest the mean of all centroids; each step hops
    to the nearest unvisited centroid (ties to the lowest cluster id).
    """
    centroids = np.asarray(centroids, dtype=np.float64)
    k = centroids.shape[0]
    if k < 1:
        raise ValueError("need at least one cluster")
    gmean = centroids.mean(axis=0)
    d2 = np.einsum("ij,ij->i", centroids - gmean, centroids - gmean)
    sequence = np.empty(k, dtype=np.int64)
    visited = np.zeros(k, dtype=bool)
    current = int(np.argmin(d2))
    sequence[0] = current
    visited[current] = True
    for i in range(1, k):
        diff = centroids - centroids[current]
        dist = np.einsum("ij,ij->i", diff, diff)
        dist[visited] = np.inf
        current = int(np.argmin(dist))
        sequence[i] = current
        visited[current] = True
    return sequence


def pack_pages(
    cluster_sequence: np.ndarray,
    cluster_orders: list[np.ndarray],
    page_capacity: int,
) -> LayoutMap:
    """Concatenate per-cluster orders in sequence order and fill pages.

    Pages are filled strictly sequentially, so cluster boundaries and page
    boundaries interleave: a page may hold the tail of one cluster and the
    head of the next.
    """
    node_order = np.concatenate([cluster_orders[c] for c in cluster_sequence])
    node_cluster = np.empty(node_order.shape[0], dtype=np.int32)
    for c in cluster_sequence:
        node_cluster[cluster_orders[c]] = c
    return LayoutMap(node_order, node_cluster, page_capacity)


def default_cluster_count(n: int, page_capacity: int) -> int:
    """Target a mean cluster of about four pages so most read windows stay
    inside a single cluster."""
    return max(1, -(-n // (4 * page_capacity)))


def build_similarity_layout(
    dataset: VectorDataset,
    page_capacity: int,
    k_clusters: int | None = None,
    max_iters: int = 25,
    seed: int = 0,
) -> LayoutMap:
    """Two-stage reordering: k-means clustering, then locality packing."""
    k = k_clusters if k_clusters is not None else default_cluster_count(dataset.n, page_capacity)
    centers, assignment, _ = lloyd_cluster(dataset.vectors, k, max_iters, seed)
    centroids = centers.astype(np.float32)  # index.bin depends on this rounding
    orders = [
        order_within_cluster(np.flatnonzero(assignment == c), centroids[c], dataset)
        for c in range(k)
    ]
    return pack_pages(order_clusters(centroids), orders, page_capacity)


def build_insertion_layout(dataset: VectorDataset, page_capacity: int) -> LayoutMap:
    """Identity placement: node ids in file order, one cluster spanning everything."""
    n = dataset.n
    return LayoutMap(np.arange(n, dtype=np.int64), np.zeros(n, dtype=np.int32), page_capacity)


def compute_read_interval(target: int, window_pages: int, layout: LayoutMap) -> ReadInterval:
    """Choose the sequential page window to load on a miss of `target`.

    The window is centered on the target's page; while the target's cluster
    spans at least the window, the window is shifted to stay within the
    cluster's pages; small clusters let it spill into the (similar) adjacent
    clusters; finally it is clamped to the file bounds. The result always has
    exactly min(window_pages, total_pages) pages and covers the target's page.
    """
    if window_pages < 1:
        raise ValueError(f"window_pages must be >= 1, got {window_pages}")
    if not 0 <= target < layout.n:
        raise ValueError(f"target node {target} out of range [0, {layout.n})")
    total = layout.total_pages
    w = min(window_pages, total)
    t = layout.page_of(target)
    c = layout.cluster_of(target)
    c_first = int(layout.cluster_first_page[c])
    c_last = c_first + int(layout.cluster_page_count[c]) - 1

    start = t - w // 2
    if c_last - c_first + 1 >= w:
        start = min(max(start, c_first), c_last - w + 1)
    start = min(max(start, 0), total - w)
    return ReadInterval(start_page=start, page_count=w)


def mean_intra_page_distance(dataset: VectorDataset, layout: LayoutMap) -> float:
    """Mean L2 distance over all same-page vector pairs (pooled across pages).

    The measurable core of the reordering: a similarity layout should score
    lower than insertion order on clustered data.
    """
    total = 0.0
    pairs = 0
    for page_id in range(layout.total_pages):
        nodes = layout.nodes_on_page(page_id)
        if nodes.shape[0] < 2:
            continue
        pts = dataset.vectors[nodes].astype(np.float64)
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        m = nodes.shape[0]
        iu = np.triu_indices(m, k=1)
        total += float(d[iu].sum())
        pairs += iu[0].shape[0]
    if pairs == 0:
        return 0.0
    return total / pairs


def save_layout(path: str | Path, layout: LayoutMap) -> None:
    """Persist the layout sidecar: the header, then each rank's node and cluster."""
    records = np.empty(layout.n, dtype=_RECORD)
    records["node"] = layout.node_order
    records["cluster"] = layout.node_cluster[layout.node_order]
    header = _HEADER.pack(LAYOUT_MAGIC, LAYOUT_VERSION, layout.n, layout.page_capacity)
    Path(path).write_bytes(header + records.tobytes())


def load_layout(path: str | Path) -> LayoutMap:
    """Read a layout sidecar written by save_layout; anything that is not a
    valid layout raises FormatError."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: layout sidecar shorter than header")
    magic, version, n, page_capacity = _HEADER.unpack_from(raw, 0)
    if magic != LAYOUT_MAGIC:
        raise FormatError(f"{path}: bad layout magic {magic!r}")
    if version != LAYOUT_VERSION:
        raise FormatError(
            f"{path}: layout version {version} is not {LAYOUT_VERSION}; "
            "run `diskvec layout` again"
        )
    expected = _HEADER.size + n * _RECORD.itemsize
    if len(raw) != expected:
        raise FormatError(f"{path}: layout sidecar size {len(raw)} != expected {expected}")
    records = np.frombuffer(raw, dtype=_RECORD, offset=_HEADER.size)
    if np.any(records["node"] >= n):
        raise FormatError(f"{path}: node id out of range [0, {n})")
    node_order = records["node"].astype(np.int64)
    node_cluster = np.empty(n, dtype=np.int32)
    node_cluster[node_order] = records["cluster"]
    try:
        return LayoutMap(node_order, node_cluster, page_capacity)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
