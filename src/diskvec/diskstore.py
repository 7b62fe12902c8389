"""Paged on-disk index file: fixed-size slots holding each node's id, vector,
and padded adjacency, packed in layout order.

Accounting treats one read request as one I/O operation regardless of how many
contiguous pages it transfers; pages_read tracks the transfer volume so both
interpretations stay reportable.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InvariantError
from .graphbuild import GraphIndex
from .layout import LayoutMap, ReadInterval
from .vecdata import VectorDataset

INDEX_MAGIC = b"GOVI1"
# magic, page_size, dim, n, R, page_capacity, total_pages, entry_id, layout_kind
_INDEX_HEADER = struct.Struct("<5sIIQIIQQB")
PAGE_HEADER_SIZE = 2  # u16 node count

LAYOUT_KIND_CODES = {"insertion-order": 0, "similarity": 1}
LAYOUT_KIND_NAMES = {v: k for k, v in LAYOUT_KIND_CODES.items()}

DEFAULT_PAGE_SIZE = 4096


def slot_size(dim: int, R: int) -> int:
    """node_id (8) + vector (4*dim) + degree (2) + neighbors (8*R)."""
    return 8 + 4 * dim + 2 + 8 * R


def page_capacity_for(page_size: int, dim: int, R: int) -> int:
    cap = (page_size - PAGE_HEADER_SIZE) // slot_size(dim, R)
    if cap < 1:
        raise ValueError(
            f"page_size {page_size} too small for dim={dim}, R={R}: "
            f"need at least {PAGE_HEADER_SIZE + slot_size(dim, R)} bytes"
        )
    return cap


def _slot_dtype(dim: int, R: int) -> np.dtype:
    return np.dtype(
        [
            ("node_id", "<i8"),
            ("vector", "<f4", (dim,)),
            ("degree", "<u2"),
            ("neighbors", "<i8", (R,)),
        ]
    )


@dataclass
class IndexHeader:
    page_size: int
    dim: int
    n: int
    R: int
    page_capacity: int
    total_pages: int
    entry_id: int
    layout_kind: str


@dataclass
class DiskPage:
    """A page as stored: a read-only structured view of its slots (node_id,
    vector, degree, neighbors) over the bytes that were read."""

    page_id: int
    slots: np.ndarray

    def slot(self, slot_idx: int, expect_node: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Return (vector, adjacency) for one slot, validating the stored id."""
        count = self.slots.shape[0]
        if not 0 <= slot_idx < count:
            raise InvariantError(
                f"slot {slot_idx} out of range on page {self.page_id} (node_count={count})"
            )
        slots = self.slots
        if expect_node is not None and int(slots["node_id"][slot_idx]) != expect_node:
            raise FormatError(
                f"page {self.page_id} slot {slot_idx} holds node "
                f"{int(slots['node_id'][slot_idx])}, expected {expect_node}"
            )
        deg = int(slots["degree"][slot_idx])
        return slots["vector"][slot_idx], slots["neighbors"][slot_idx, :deg]


class IoStats:
    """Thread-safe counters for read requests, page transfers, and bytes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.io_ops = 0
        self.pages_read = 0
        self.bytes_read = 0

    def record(self, pages: int, nbytes: int) -> None:
        with self._lock:
            self.io_ops += 1
            self.pages_read += pages
            self.bytes_read += nbytes

    def snapshot(self) -> tuple[int, int, int]:
        with self._lock:
            return self.io_ops, self.pages_read, self.bytes_read

    def reset(self) -> None:
        with self._lock:
            self.io_ops = 0
            self.pages_read = 0
            self.bytes_read = 0


def write_index(
    dataset: VectorDataset,
    graph: GraphIndex,
    layout: LayoutMap,
    path: str | Path,
    page_size: int = DEFAULT_PAGE_SIZE,
    layout_kind: str = "similarity",
) -> IndexHeader:
    """Serialize vectors + adjacency into fixed pages following the layout.

    Byte-deterministic for fixed inputs: all padding is zeroed.
    """
    if layout_kind not in LAYOUT_KIND_CODES:
        raise ValueError(f"unknown layout kind {layout_kind!r}")
    n, dim, R = dataset.n, dataset.dim, graph.R
    if graph.n != n or layout.n != n:
        raise ValueError("dataset, graph, and layout disagree on node count")
    ssize = slot_size(dim, R)
    needed = PAGE_HEADER_SIZE + ssize * layout.page_capacity
    if needed > page_size:
        raise ValueError(
            f"page_size {page_size} cannot hold {layout.page_capacity} slots of "
            f"{ssize} bytes; need page_size >= {needed}"
        )
    cap = layout.page_capacity
    total_pages = layout.total_pages

    degrees = np.array([a.size for a in graph.adjacency], dtype=np.uint16)
    if int(degrees.max(initial=0)) > R:
        raise InvariantError("graph degree exceeds R")
    padded = np.zeros((n, R), dtype=np.int64)
    for i, neigh in enumerate(graph.adjacency):
        padded[i, : neigh.size] = neigh

    dtype = _slot_dtype(dim, R)
    header = _INDEX_HEADER.pack(
        INDEX_MAGIC,
        page_size,
        dim,
        n,
        R,
        cap,
        total_pages,
        graph.entry_id,
        LAYOUT_KIND_CODES[layout_kind],
    )
    with open(path, "wb") as f:
        f.write(header.ljust(page_size, b"\x00"))
        for page_id in range(total_pages):
            nodes = layout.nodes_on_page(page_id)
            slots = np.zeros(nodes.shape[0], dtype=dtype)
            slots["node_id"] = nodes
            slots["vector"] = dataset.vectors[nodes]
            slots["degree"] = degrees[nodes]
            slots["neighbors"] = padded[nodes]
            body = struct.pack("<H", nodes.shape[0]) + slots.tobytes()
            f.write(body.ljust(page_size, b"\x00"))
    return IndexHeader(
        page_size=page_size,
        dim=dim,
        n=n,
        R=R,
        page_capacity=cap,
        total_pages=total_pages,
        entry_id=graph.entry_id,
        layout_kind=layout_kind,
    )


class IndexReader:
    """Read-only access to an index file with accounted page reads.

    Uses pread so concurrent readers never contend on a shared file offset.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fd = os.open(self.path, os.O_RDONLY)
        try:
            raw = os.pread(self._fd, _INDEX_HEADER.size, 0)
            if len(raw) < _INDEX_HEADER.size:
                raise FormatError(f"{self.path}: index file shorter than header")
            (
                magic,
                page_size,
                dim,
                n,
                R,
                cap,
                total_pages,
                entry_id,
                kind_code,
            ) = _INDEX_HEADER.unpack(raw)
            if magic != INDEX_MAGIC:
                raise FormatError(f"{self.path}: bad index magic {magic!r}")
            if kind_code not in LAYOUT_KIND_NAMES:
                raise FormatError(f"{self.path}: unknown layout kind code {kind_code}")
            if cap < 1 or total_pages != -(-n // cap):
                raise FormatError(
                    f"{self.path}: total_pages {total_pages} is not "
                    f"ceil(n {n} / page_capacity {cap})"
                )
            size = os.fstat(self._fd).st_size
            if size != (total_pages + 1) * page_size:
                raise FormatError(
                    f"{self.path}: file is {size} bytes, the header implies "
                    f"{(total_pages + 1) * page_size}"
                )
            self.header = IndexHeader(
                page_size=page_size,
                dim=dim,
                n=n,
                R=R,
                page_capacity=cap,
                total_pages=total_pages,
                entry_id=int(entry_id),
                layout_kind=LAYOUT_KIND_NAMES[kind_code],
            )
            self._dtype = _slot_dtype(dim, R)
            self.stats = IoStats()
        except Exception:
            os.close(self._fd)
            raise

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "IndexReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def advise_drop_os_cache(self) -> bool:
        """Ask the OS to drop cached pages of the index file; returns whether
        the advice could be issued on this platform."""
        if not hasattr(os, "posix_fadvise"):
            return False
        os.posix_fadvise(self._fd, 0, 0, os.POSIX_FADV_DONTNEED)
        return True

    def _decode_page(self, page_id: int, buf: bytes | memoryview) -> DiskPage:
        count = struct.unpack_from("<H", buf, 0)[0]
        if count > self.header.page_capacity:
            raise FormatError(
                f"{self.path}: page {page_id} claims {count} slots, "
                f"capacity is {self.header.page_capacity}"
            )
        slots = np.frombuffer(buf, dtype=self._dtype, count=count, offset=PAGE_HEADER_SIZE)
        # every id that leaves the reader passes here; negative ids wrap above n
        if int(slots["neighbors"].view(np.uint64).max(initial=0)) >= self.header.n:
            raise FormatError(
                f"{self.path}: page {page_id} holds a neighbor id outside [0, {self.header.n})"
            )
        return DiskPage(page_id=page_id, slots=slots)

    def _pread_pages(self, start_page: int, count: int) -> bytes:
        ps = self.header.page_size
        offset = (start_page + 1) * ps  # page 0 of data sits after the header page
        buf = os.pread(self._fd, count * ps, offset)
        if len(buf) != count * ps:
            raise FormatError(
                f"{self.path}: short read at page {start_page} "
                f"(wanted {count * ps} bytes, got {len(buf)})"
            )
        return buf

    def read_page(self, page_id: int) -> DiskPage:
        """One page, one I/O operation."""
        if not 0 <= page_id < self.header.total_pages:
            raise ValueError(
                f"page {page_id} out of range [0, {self.header.total_pages})"
            )
        buf = self._pread_pages(page_id, 1)
        self.stats.record(pages=1, nbytes=len(buf))
        return self._decode_page(page_id, buf)

    def read_page_range(self, interval: ReadInterval) -> list[DiskPage]:
        """A contiguous range read: one I/O operation, page_count pages."""
        start, count = interval.start_page, interval.page_count
        if count < 1:
            raise ValueError("page_count must be >= 1")
        if start < 0 or start + count > self.header.total_pages:
            raise ValueError(
                f"range [{start}, {start + count}) out of bounds "
                f"[0, {self.header.total_pages})"
            )
        buf = memoryview(self._pread_pages(start, count))
        self.stats.record(pages=count, nbytes=len(buf))
        ps = self.header.page_size
        return [
            self._decode_page(start + i, buf[i * ps : (i + 1) * ps])
            for i in range(count)
        ]

    def read_node(self, node_id: int, layout: LayoutMap) -> tuple[np.ndarray, np.ndarray]:
        """Convenience point read of one node's (vector, adjacency)."""
        page = self.read_page(layout.page_of(node_id))
        return page.slot(layout.slot_of(node_id), expect_node=node_id)
