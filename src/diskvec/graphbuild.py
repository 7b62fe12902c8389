"""Bounded-degree proximity graph construction (Vamana-style) and medoid
selection.

The build is Vamana's (DiskANN; Subramanya et al., NeurIPS 2019) run in
batches as ParlayANN runs it (Manohar et al., PPoPP 2024): random initial
edges, then two passes (slack 1.0, then alpha) over a seed-fixed permutation
of the points, then a connectivity repair that guarantees every node is
reachable from the medoid entry point. Each pass walks its permutation in
batches that double in size from 1 up to 2% of n. A batch's greedy searches
run in lockstep against the graph as it stood at the batch start; each point
of the batch then takes the robust prune of what its search expanded plus
its old neighbours. The reverse edges are grouped by target: a target with
room takes its new sources as they are, and an over-full one is pruned once
per batch. The build is fully deterministic for a fixed seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import vecdata
from .errors import FormatError, InvariantError
from .vecdata import VectorDataset

GRAPH_MAGIC = b"GOVG1"
_GRAPH_HEADER = struct.Struct("<5sQIQ")  # magic, n, R, entry_id

_BATCH_FRACTION = 0.02  # the largest batch, as a share of n (ParlayANN's)


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


def _padded_points(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float64 points with one zero row appended for the padding id n,
    and their squared norms, inf for the padding: a distance to it is inf."""
    pts = np.zeros((vectors.shape[0] + 1, vectors.shape[1]))
    pts[:-1] = vectors
    pts_sq = np.einsum("ij,ij->i", pts, pts)
    pts_sq[-1] = np.inf
    return pts, pts_sq


def _search_batch(
    pts: np.ndarray,
    pts_sq: np.ndarray,
    adj: np.ndarray,
    entry: int,
    points: np.ndarray,
    L: int,
) -> np.ndarray:
    """Greedy-search each of `points` in lockstep over the (n, R) adjacency
    `adj` (padded with n; pts and pts_sq from _padded_points).

    Every row keeps its top-L candidates sorted by (distance, id). A step
    expands, in each row, the best candidate not yet expanded and merges in
    the neighbours that beat the row's L-th candidate and are not listed
    yet; a row is done when all its candidates are expanded. Returns the ids
    each row expanded, in order, padded with n: the prune's candidate pool.
    """
    n = adj.shape[0]
    rows = np.arange(points.size)  # the rows still searching
    q2, q_sq = -2.0 * pts[points], pts_sq[points]  # -2 q, so each dot is -2 q.x
    # each candidate as 2 * id + expanded; the padding, 2n + 1, sorts last
    code = np.full((rows.size, L), 2 * n + 1, dtype=np.int64)
    code[:, 0] = 2 * entry
    dist = np.full((rows.size, L), np.inf)
    d2 = pts_sq[entry] + np.einsum("bd,d->b", q2, pts[entry]) + q_sq
    dist[:, 0] = np.sqrt(np.maximum(d2, 0.0))
    expanded = []
    while True:
        open_ = (code & 1) == 0
        live = open_.any(axis=1)
        if not live.all():
            if not live.any():
                break
            rows, q2, q_sq = rows[live], q2[live], q_sq[live]
            code, dist, open_ = code[live], dist[live], open_[live]
        at = np.arange(rows.size)
        pos = open_.argmax(axis=1)
        node = code[at, pos] >> 1
        code[at, pos] += 1
        expanded.append((rows, node))
        nb = adj[node]
        nbp = pts.take(nb.ravel(), axis=0).reshape(nb.shape + (pts.shape[1],))
        d2 = np.einsum("brd,bd->br", nbp, q2)
        d2 += pts_sq[nb]
        d2 += q_sq[:, None]
        nd = np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)
        worst_d, worst_id = dist[:, -1:], code[:, -1:] >> 1
        # the padding lies at distance inf, so it never beats
        beats = (nd < worst_d) | ((nd == worst_d) & (nb < worst_id))
        r, c = np.nonzero(beats)
        if r.size == 0:
            continue
        # drop the neighbours already listed: one search in the rows' sorted
        # ids, kept apart by a per-row offset of 2n + 2
        listed = np.sort(code + (2 * n + 2) * at[:, None], axis=1).ravel() >> 1
        key = nb[r, c] + (n + 1) * r
        hit = np.minimum(np.searchsorted(listed, key), listed.size - 1)
        dup = listed[hit] == key
        beats[r[dup], c[dup]] = False
        m = np.flatnonzero(beats.any(axis=1))  # the rows that change
        if m.size == 0:
            continue
        fresh = beats[m]
        all_code = np.concatenate([code[m], np.where(fresh, 2 * nb[m], 2 * n + 1)], axis=1)
        all_dist = np.concatenate([dist[m], np.where(fresh, nd[m], np.inf)], axis=1)
        order = _sort_rows(all_dist, all_code)[:, :L]
        mi = np.arange(m.size)[:, None]
        code[m] = all_code[mi, order]
        dist[m] = all_dist[mi, order]
    out = np.full((points.size, len(expanded)), n, dtype=np.int64)
    for step, (rows, node) in enumerate(expanded):
        out[rows, step] = node
    return out


def _sort_rows(dist: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Per-row order by (dist, key): one argsort by distance (a stable one,
    which is fastest on rows that are mostly sorted already), then a lexsort
    of the rows where two finite distances tie."""
    order = np.argsort(dist, axis=1, kind="stable")
    d = dist[np.arange(dist.shape[0])[:, None], order]
    tied = ((d[:, 1:] == d[:, :-1]) & (d[:, 1:] < np.inf)).any(axis=1)
    if tied.any():
        order[tied] = np.lexsort((key[tied], dist[tied]), axis=-1)
    return order


def _prune_rows(
    pts: np.ndarray,
    pts_sq: np.ndarray,
    points: np.ndarray,
    cands: np.ndarray,
    alpha: float,
    R: int,
) -> np.ndarray:
    """DiskANN's robust prune of each row of candidate ids for its point.

    Drops the point itself, repeats and the padding id n, sorts the rest by
    (squared distance to the point, id), then keeps the closest candidate,
    drops every later one it alpha-dominates, and repeats until R are kept.
    Returns (rows, R) ids in keep order, padded with n. Rows go in chunks
    whose largest temporary holds about vecdata.CHUNK_ENTRIES entries.
    """
    n = pts.shape[0] - 1
    out = np.full((points.size, R), n, dtype=np.int64)
    alpha_sq = alpha * alpha
    step = max(1, vecdata.CHUNK_ENTRIES // (cands.shape[1] * pts.shape[1]))
    for lo in range(0, points.size, step):
        p, c = points[lo:lo + step], np.sort(cands[lo:lo + step], axis=1)
        c[:, 1:][c[:, 1:] == c[:, :-1]] = n
        c[c == p[:, None]] = n
        diff = pts[c] - pts[p][:, None, :]
        dp = np.where(c < n, np.einsum("bcd,bcd->bc", diff, diff), np.inf)
        # a stable sort of id-sorted rows breaks distance ties by id
        order = np.argsort(dp, axis=1, kind="stable")[:, : int((c < n).sum(axis=1).max())]
        c = np.take_along_axis(c, order, axis=1)
        dp = np.take_along_axis(dp, order, axis=1)
        alive = c < n
        cp, sq = pts[c], pts_sq[c]
        at = np.arange(c.shape[0])
        for k in range(R):
            left = alive.any(axis=1)
            if not left.any():
                break
            pos = alive.argmax(axis=1)
            out[lo + at[left], k] = c[left, pos[left]]
            alive[at, pos] = False
            gram = sq[at, pos][:, None] - 2.0 * np.einsum("bcd,bd->bc", cp, cp[at, pos]) + sq
            np.maximum(gram, 0.0, out=gram)
            alive &= ~(alpha_sq * gram <= dp)
    return out


def _add_reverse_edges(
    pts: np.ndarray,
    pts_sq: np.ndarray,
    adj: np.ndarray,
    deg: np.ndarray,
    batch: np.ndarray,
    alpha: float,
) -> None:
    """Mirror the batch's new out-edges: each target with room for its new
    sources appends them in batch order; each over-full target is pruned
    once over its old neighbours and all its new sources."""
    n, R = adj.shape
    src, tgt = np.repeat(batch, R), adj[batch].ravel()
    keep = tgt < n
    src, tgt = src[keep], tgt[keep]
    keep = ~(adj[tgt] == src[:, None]).any(axis=1)
    order = np.argsort(tgt[keep], kind="stable")
    src, tgt = src[keep][order], tgt[keep][order]
    targets, first, count = np.unique(tgt, return_index=True, return_counts=True)
    rank = np.arange(tgt.size) - np.repeat(first, count)
    room = deg[targets] + count <= R
    fits = np.repeat(room, count)
    adj[tgt[fits], deg[tgt[fits]] + rank[fits]] = src[fits]
    deg[targets[room]] += count[room]
    full = targets[~room]
    if full.size:
        cands = np.full((full.size, R + int(count[~room].max())), n, dtype=np.int64)
        cands[:, :R] = adj[full]
        cands[np.repeat(np.arange(full.size), count[~room]), R + rank[~fits]] = src[~fits]
        adj[full] = _prune_rows(pts, pts_sq, full, cands, alpha, R)
        deg[full] = (adj[full] < n).sum(axis=1)


def build_graph(
    dataset: VectorDataset,
    R: int = 32,
    L_build: int = 64,
    alpha: float = 1.2,
    seed: int = 0,
) -> GraphIndex:
    """Construct the proximity graph; degree <= R, connected from the medoid."""
    return build_graph_counting_repairs(dataset, R, L_build, alpha, seed)[0]


def build_graph_counting_repairs(
    dataset: VectorDataset, R: int, L_build: int, alpha: float, seed: int
) -> tuple[GraphIndex, int]:
    """build_graph, and the number of edges its connectivity repair added."""
    n = dataset.n
    if n < 2:
        raise ValueError(f"graph construction needs at least 2 vectors, got {n}")
    if R < 2:
        raise ValueError(f"R must be >= 2, got {R}")
    if L_build < R:
        raise ValueError(f"L_build={L_build} must be >= R={R}")
    if not 1.0 <= alpha < np.inf:  # also refuses nan
        raise ValueError(f"alpha must be finite and >= 1, got {alpha}")

    pts, pts_sq = _padded_points(dataset.vectors)
    rng = np.random.default_rng(seed)

    degree = min(R, n - 1)
    adj = np.full((n, R), n, dtype=np.int64)  # rows left-packed, padded with n
    for i in range(n):
        pick = rng.choice(n - 1, size=degree, replace=False)
        adj[i, :degree] = np.sort(np.where(pick >= i, pick + 1, pick))
    deg = np.full(n, degree, dtype=np.int64)

    entry = medoid(dataset)
    cap = max(1, int(n * _BATCH_FRACTION))
    for pass_alpha in (1.0, alpha):
        order = rng.permutation(n)
        start, size = 0, 1
        while start < n:
            batch = order[start:start + size]
            start, size = start + size, min(2 * size, cap)
            pool = _search_batch(pts, pts_sq, adj, entry, batch, L_build)
            pool = np.concatenate([pool, adj[batch]], axis=1)
            adj[batch] = _prune_rows(pts, pts_sq, batch, pool, pass_alpha, R)
            deg[batch] = (adj[batch] < n).sum(axis=1)
            _add_reverse_edges(pts, pts_sq, adj, deg, batch, pass_alpha)

    adjacency = [row[:d].copy() for row, d in zip(adj, deg.tolist())]
    repairs = _repair_connectivity(pts[:n], adjacency, entry, R)
    return GraphIndex(adjacency=adjacency, entry_id=entry, R=R), repairs


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
) -> int:
    """Attach every unreachable node via an edge from its nearest reachable
    node, evicting that node's farthest neighbor when at capacity; returns
    the number of edges added."""
    seen = _reachable_from(adjacency, entry)
    added = 0
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
        added += 1
        _reachable_from(adjacency, u, seen)  # everything reachable through u
    return added


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
