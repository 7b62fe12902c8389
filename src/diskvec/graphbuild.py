"""Bounded-degree proximity graph construction (Vamana-style) and medoid
selection.

Build is single-threaded and fully deterministic for a fixed seed: random
initial edges, then two passes of greedy-search-plus-robust-prune (slack 1.0,
then alpha), then a connectivity repair that guarantees every node is
reachable from the medoid entry point.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InvariantError
from .vecdata import VectorDataset

GRAPH_MAGIC = b"GOVG1"
_GRAPH_HEADER = struct.Struct("<5sQIQ")  # magic, n, R, entry_id


@dataclass
class GraphIndex:
    """Directed neighbor graph with bounded out-degree and a medoid entry."""

    adjacency: list[np.ndarray]  # per node, int64 neighbor ids, degree <= R
    entry_id: int
    R: int

    @property
    def n(self) -> int:
        return len(self.adjacency)


def medoid(dataset: VectorDataset) -> int:
    """Node nearest the mean (ties to the lowest id).

    Under squared L2 this is the node minimizing the summed squared distance
    to all nodes: sum_j |x_i - x_j|^2 = n |x_i - mean|^2 + const.
    """
    mean = dataset.vectors.mean(axis=0, dtype=np.float64)
    diff = dataset.vectors - mean
    return int(np.argmin(np.einsum("ij,ij->i", diff, diff)))


def _greedy_search_build(
    pts: np.ndarray,
    pts_sq: np.ndarray,
    adjacency: list[np.ndarray],
    entry: int,
    query: np.ndarray,
    L: int,
) -> list[int]:
    """In-memory greedy search used during construction.

    Returns the ids visited (expanded), which form the prune candidate pool.
    Deterministic: ties everywhere break toward the lower node id.
    """
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
    """DiskANN-style pruning: keep the closest candidate, drop everything the
    kept one dominates (alpha slack), repeat until R survivors."""
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


def build_graph(
    dataset: VectorDataset,
    R: int = 32,
    L_build: int = 64,
    alpha: float = 1.2,
    seed: int = 0,
) -> GraphIndex:
    """Construct the proximity graph; degree <= R, connected from the medoid."""
    n = dataset.n
    if n < 2:
        raise ValueError(f"graph construction needs at least 2 vectors, got {n}")
    if R < 2:
        raise ValueError(f"R must be >= 2, got {R}")
    if L_build < R:
        raise ValueError(f"L_build={L_build} must be >= R={R}")
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")

    pts = dataset.vectors.astype(np.float64)
    pts_sq = np.einsum("ij,ij->i", pts, pts)
    rng = np.random.default_rng(seed)

    degree = min(R, n - 1)
    adjacency: list[np.ndarray] = []
    for i in range(n):
        pick = rng.choice(n - 1, size=degree, replace=False)
        pick = np.where(pick >= i, pick + 1, pick).astype(np.int64)
        adjacency.append(np.sort(pick))

    entry = medoid(dataset)

    for pass_alpha in (1.0, alpha):
        order = rng.permutation(n)
        for i in order.tolist():
            visited = _greedy_search_build(pts, pts_sq, adjacency, entry, pts[i], L_build)
            pool = np.concatenate([np.array(visited, dtype=np.int64), adjacency[i]])
            adjacency[i] = _robust_prune(pts, i, pool, pass_alpha, R)
            for j in adjacency[i].tolist():
                if i in adjacency[j]:
                    continue
                grown = np.append(adjacency[j], i)
                if grown.size > R:
                    adjacency[j] = _robust_prune(pts, j, grown, pass_alpha, R)
                else:
                    adjacency[j] = grown

    _repair_connectivity(pts, adjacency, entry, R)
    return GraphIndex(adjacency=adjacency, entry_id=entry, R=R)


def _reachable_from(
    adjacency: list[np.ndarray], entry: int, seen: np.ndarray | None = None
) -> np.ndarray:
    """Mark every node reachable from entry in seen (a fresh all-false mask
    when None); nodes already marked are not walked again."""
    if seen is None:
        seen = np.zeros(len(adjacency), dtype=bool)
    seen[entry] = True
    stack = [entry]
    while stack:
        node = stack.pop()
        for j in adjacency[node].tolist():
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return seen


def _repair_connectivity(
    pts: np.ndarray, adjacency: list[np.ndarray], entry: int, R: int
) -> None:
    """Attach every unreachable node via an edge from its nearest reachable
    node, evicting that node's farthest neighbor when at capacity."""
    seen = _reachable_from(adjacency, entry)
    while not bool(seen.all()):
        u = int(np.nonzero(~seen)[0][0])
        reach_ids = np.nonzero(seen)[0]
        diff = pts[reach_ids] - pts[u]
        d2 = np.einsum("ij,ij->i", diff, diff)
        v = int(reach_ids[np.lexsort((reach_ids, d2))[0]])
        neigh = adjacency[v]
        if neigh.size >= R:
            diff_v = pts[neigh] - pts[v]
            dv = np.einsum("ij,ij->i", diff_v, diff_v)
            drop = np.lexsort((-neigh, -dv))[0]  # farthest, ties to the higher id
            neigh = np.delete(neigh, drop)
        adjacency[v] = np.append(neigh, u)
        _reachable_from(adjacency, u, seen)  # everything reachable through u


def validate_graph(graph: GraphIndex, n: int) -> None:
    """Check structural invariants; raises InvariantError on violation."""
    if graph.n != n:
        raise InvariantError(f"graph has {graph.n} nodes, expected {n}")
    for i, neigh in enumerate(graph.adjacency):
        if neigh.size > graph.R:
            raise InvariantError(f"node {i} degree {neigh.size} exceeds R={graph.R}")
        if np.unique(neigh).size != neigh.size:
            raise InvariantError(f"node {i} has duplicate neighbors")
        if bool((neigh == i).any()):
            raise InvariantError(f"node {i} has a self-loop")
        if neigh.size and (int(neigh.min()) < 0 or int(neigh.max()) >= n):
            raise InvariantError(f"node {i} has out-of-range neighbors")
    if not bool(_reachable_from(graph.adjacency, graph.entry_id).all()):
        raise InvariantError("graph is not fully reachable from the entry point")


def save_graph(path: str | Path, graph: GraphIndex) -> None:
    degrees = np.array([a.size for a in graph.adjacency], dtype="<u2")
    flat = (
        np.concatenate(graph.adjacency)
        if graph.n and degrees.sum() > 0
        else np.empty(0, dtype=np.int64)
    )
    header = _GRAPH_HEADER.pack(GRAPH_MAGIC, graph.n, graph.R, graph.entry_id)
    Path(path).write_bytes(header + degrees.tobytes() + flat.astype("<i8").tobytes())


def load_graph(path: str | Path) -> GraphIndex:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _GRAPH_HEADER.size:
        raise FormatError(f"{path}: graph file shorter than header")
    magic, n, R, entry_id = _GRAPH_HEADER.unpack_from(raw, 0)
    if magic != GRAPH_MAGIC:
        raise FormatError(f"{path}: bad graph magic {magic!r}")
    if entry_id >= n:
        raise FormatError(f"{path}: entry_id {entry_id} out of range [0, {n})")
    off = _GRAPH_HEADER.size
    if len(raw) < off + 2 * n:
        raise FormatError(f"{path}: truncated graph degree table")
    degrees = np.frombuffer(raw, dtype="<u2", count=n, offset=off)
    off += 2 * n
    total = int(degrees.sum())
    if len(raw) != off + 8 * total:
        raise FormatError(f"{path}: graph file size {len(raw)} != expected {off + 8 * total}")
    if int(degrees.max()) > R:
        raise FormatError(f"{path}: a node degree exceeds R={R}")
    flat = np.frombuffer(raw, dtype="<i8", count=total, offset=off).astype(np.int64)
    if int(flat.view(np.uint64).max(initial=0)) >= n:  # negative ids wrap above n
        raise FormatError(f"{path}: neighbor id out of range [0, {n})")
    adjacency = np.split(flat, np.cumsum(degrees[:-1], dtype=np.int64))
    return GraphIndex(adjacency=adjacency, entry_id=int(entry_id), R=int(R))
