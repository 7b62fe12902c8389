"""Similarity-driven disk layout: balanced recursive 2-means bisection,
within-cluster ordering, page packing, and the sequential read-interval rule
used for batch loading.

Placement goal: vectors that are close in space end up on the same or adjacent
pages, so one sequential read fetches many soon-to-be-needed nodes. Each part
of the dataset splits in two at a page boundary until it holds at most two
pages; the parts, in depth-first order, are the clusters, so sibling parts lie
next to each other on disk.

The layout sidecar (`layout.bin`, version 3) stores each fact once: the node
at each rank (u32, in disk order), then each cluster's first rank (u32).
A node's page, slot and cluster, and each cluster's page span, are derived
when the file is read. Version-1 and version-2 files are refused as bad data.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError
from .vecdata import VectorDataset, nearest_center

LAYOUT_MAGIC = b"GOVL"
LAYOUT_VERSION = 3
_HEADER = struct.Struct("<4sIQII")  # magic, version, n, page_capacity, k


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

    Each cluster is one run of consecutive ranks, given by its first rank;
    cluster c is the c-th run in disk order. Clusters need not be
    page-aligned: the bisection starts every cluster on a page boundary, but
    `pack_pages` and a loaded `layout.bin` may not, so a page may straddle
    two adjacent clusters. The node ranks, each node's cluster and the
    per-cluster page spans are derived once, on construction, which rejects
    (ValueError) an order that is not a permutation of 0..n-1 and cluster
    starts that do not rise strictly from 0 below n.
    """

    node_order: np.ndarray  # (n,) int64, disk order (rank -> node)
    cluster_start: np.ndarray  # (k,) int64, cluster -> its first rank
    page_capacity: int
    node_rank: np.ndarray = field(init=False, repr=False)  # (n,) int64, node -> rank
    node_cluster: np.ndarray = field(init=False, repr=False)  # (n,) int32, node -> cluster
    cluster_first_page: np.ndarray = field(init=False, repr=False)  # (k,) int64
    cluster_page_count: np.ndarray = field(init=False, repr=False)  # (k,) int64

    def __post_init__(self) -> None:
        order = np.asarray(self.node_order, dtype=np.int64)
        start = np.asarray(self.cluster_start, dtype=np.int64)
        cap = int(self.page_capacity)
        if cap < 1:
            raise ValueError(f"page_capacity must be >= 1, got {cap}")
        if order.ndim != 1 or order.size < 1:
            raise ValueError("node_order must be a nonempty 1-d array")
        n = order.shape[0]
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("node_order is not a permutation of 0..n-1")
        rising = start.ndim == 1 and start.size > 0 and bool(np.all(np.diff(start) > 0))
        if not rising or start[0] != 0 or start[-1] >= n:
            raise ValueError("cluster starts must rise strictly from 0 and stay below n")
        end = np.append(start[1:], n)  # one past each cluster's last rank
        self.node_order, self.cluster_start, self.page_capacity = order, start, cap
        self.node_rank = np.empty(n, dtype=np.int64)
        self.node_rank[order] = np.arange(n)
        self.node_cluster = np.empty(n, dtype=np.int32)
        self.node_cluster[order] = np.repeat(np.arange(start.size, dtype=np.int32), end - start)
        self.cluster_first_page = start // cap
        self.cluster_page_count = (end - 1) // cap - start // cap + 1

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
    diff = points - centers[0]
    d2 = np.einsum("ij,ij->i", diff, diff)
    for j in range(1, k):
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
        np.subtract(points, centers[j], out=diff)
        np.minimum(d2, np.einsum("ij,ij->i", diff, diff), out=d2)
    return centers


def lloyd_cluster(
    points: np.ndarray, k: int, max_iters: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's iteration over a plain (n, d) array; shared by the layout and the
    product-quantizer trainer.

    Returns (centroids float64 (k, d), assignment int32 (n,)).
    Empty clusters are repaired by stealing the point currently farthest from
    its own centroid (ties to the lowest id). Deterministic for a fixed seed.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if max_iters < 1:
        raise ValueError(f"k-means needs at least 1 iteration, got max_iters={max_iters}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(pts, k, rng)
    assignment = np.full(n, -1, dtype=np.int32)

    for _ in range(max_iters):
        nearest, own = nearest_center(pts, centers)
        new_assign = nearest.astype(np.int32)

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
        sums = np.zeros_like(centers)
        np.add.at(sums, assignment, pts)
        centers = sums / counts[:, None]
        if converged:
            break
    return centers, assignment


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
    diff = pts - c
    d2 = np.einsum("ij,ij->i", diff, diff)
    return members[np.lexsort((members, d2))]


def pack_pages(cluster_orders: list[np.ndarray], page_capacity: int) -> LayoutMap:
    """Concatenate per-cluster orders in list order and fill pages.

    Pages are filled strictly sequentially, so cluster boundaries and page
    boundaries interleave: a page may hold the tail of one cluster and the
    head of the next. Cluster c is the c-th order of the list.
    """
    sizes = [order.shape[0] for order in cluster_orders]
    return LayoutMap(np.concatenate(cluster_orders), np.cumsum([0] + sizes[:-1]), page_capacity)


def build_similarity_layout(
    dataset: VectorDataset,
    page_capacity: int,
    max_iters: int = 25,
    seed: int = 0,
) -> LayoutMap:
    """Balanced recursive 2-means bisection, then locality packing.

    A part of more than two pages splits in two with Lloyd's k=2 (max_iters
    iterations, its seed drawn per split from one default_rng(seed) stream in
    depth-first order). Its points are ordered by |x-c0|^2 - |x-c1|^2, ties by
    id, and cut at the page boundary nearest the size of cluster 0, leaving at
    least one page on each side. A part of at most two pages is a cluster, so
    a cluster covers the default two-page read window. Every part starts on a
    page boundary, so only the last page is partly filled. The splits run off
    an explicit stack: skewed data can make every cut one page deep.
    """
    if page_capacity < 1:
        raise ValueError(f"page_capacity must be >= 1, got {page_capacity}")
    if max_iters < 1:
        raise ValueError(f"k-means needs at least 1 iteration, got max_iters={max_iters}")
    rng = np.random.default_rng(seed)
    orders: list[np.ndarray] = []
    stack = [np.arange(dataset.n, dtype=np.int64)]
    while stack:
        ids = stack.pop()
        pts = dataset.vectors[ids].astype(np.float64)
        if ids.size <= 2 * page_capacity:
            orders.append(order_within_cluster(ids, pts.mean(axis=0), dataset))
            continue
        centers, assignment = lloyd_cluster(pts, 2, max_iters, int(rng.integers(2**32)))
        diff = pts - centers[0]
        score = np.einsum("ij,ij->i", diff, diff)
        np.subtract(pts, centers[1], out=diff)
        score -= np.einsum("ij,ij->i", diff, diff)
        ids = ids[np.lexsort((ids, score))]
        pages = -(-ids.size // page_capacity)
        size0 = int(np.count_nonzero(assignment == 0))
        cut = min(max((2 * size0 + page_capacity) // (2 * page_capacity), 1), pages - 1)
        stack += [ids[cut * page_capacity:], ids[: cut * page_capacity]]
    return pack_pages(orders, page_capacity)


def build_insertion_layout(dataset: VectorDataset, page_capacity: int) -> LayoutMap:
    """Identity placement: node ids in file order, one cluster spanning everything."""
    return LayoutMap(np.arange(dataset.n, dtype=np.int64), np.array([0]), page_capacity)


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
    """Persist the layout sidecar: the header, each rank's node, then each
    cluster's first rank."""
    header = _HEADER.pack(
        LAYOUT_MAGIC, LAYOUT_VERSION, layout.n, layout.page_capacity, layout.k_clusters
    )
    body = np.concatenate((layout.node_order, layout.cluster_start)).astype("<u4")
    Path(path).write_bytes(header + body.tobytes())


def load_layout(path: str | Path) -> LayoutMap:
    """Read a layout sidecar written by save_layout; anything that is not a
    valid layout raises FormatError."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: layout sidecar shorter than header")
    magic, version, n, page_capacity, k = _HEADER.unpack_from(raw, 0)
    if magic != LAYOUT_MAGIC:
        raise FormatError(f"{path}: bad layout magic {magic!r}")
    if version != LAYOUT_VERSION:
        raise FormatError(
            f"{path}: layout version {version} is not {LAYOUT_VERSION}; "
            "run `diskvec layout` again"
        )
    expected = _HEADER.size + 4 * (n + k)
    if len(raw) != expected:
        raise FormatError(f"{path}: layout sidecar size {len(raw)} != expected {expected}")
    body = np.frombuffer(raw, dtype="<u4", offset=_HEADER.size).astype(np.int64)
    try:
        return LayoutMap(body[:n], body[n:], page_capacity)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
