"""Paged on-disk index file: fixed-size slots holding each node's id, vector,
and padded adjacency, packed in layout order.

The format is version 3 (`GOVI3`): node ids are u32, so n must fit in 32 bits
and a slot of dim 16, R 32 is 198 bytes, 20 to a 4 KiB page. In-memory graphs
keep int64 ids; a reader hands out u32 adjacency views. Each fact is stored
once: pages have no header, since page p holds min(page_capacity,
n - p * page_capacity) slots, and the page count ceil(n / page_capacity) is
derived, not stored. Version-1 and version-2 files are refused as bad data.

Accounting treats one read request as one I/O operation regardless of how many
contiguous pages it transfers; pages_read tracks the transfer volume so both
interpretations stay reportable.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NoReturn

import numpy as np

from .errors import FormatError, InvariantError
from .graphbuild import GraphIndex
from .layout import LayoutMap, ReadInterval, load_layout
from .pqcodec import PQCodebook, load_pq
from .vecdata import VectorDataset

INDEX_MAGIC = b"GOVI3"
MAX_NODES = 2**32  # ids are u32
# magic, page_size, dim, n, R, page_capacity, entry_id, layout_kind
_INDEX_HEADER = struct.Struct("<5sIIQIIQB")

LAYOUT_KIND_CODES = {"insertion-order": 0, "similarity": 1}
LAYOUT_KIND_NAMES = {v: k for k, v in LAYOUT_KIND_CODES.items()}

DEFAULT_PAGE_SIZE = 4096

# the files of an index directory
INDEX_FILE = "index.bin"
LAYOUT_FILE = "layout.bin"
PQ_FILE = "pq.bin"
GRAPH_FILE = "graph.bin"


def slot_size(dim: int, R: int) -> int:
    """Bytes per slot: node_id u32 (4) + vector f32 (4*dim) + degree u16 (2) +
    neighbors u32 (4*R), unaligned; `_slot_dtype(dim, R).itemsize` agrees.
    Arithmetic, not the dtype's itemsize: the reader checks header fields of
    any size, and numpy refuses a dtype of 2 GiB or more."""
    return 4 + 4 * dim + 2 + 4 * R


def page_capacity_for(page_size: int, dim: int, R: int) -> int:
    cap = page_size // slot_size(dim, R)
    if cap < 1:
        raise ValueError(
            f"page_size {page_size} too small for dim={dim}, R={R}: "
            f"need at least {slot_size(dim, R)} bytes"
        )
    return cap


def _slot_dtype(dim: int, R: int) -> np.dtype:
    return np.dtype(
        [
            ("node_id", "<u4"),
            ("vector", "<f4", (dim,)),
            ("degree", "<u2"),
            ("neighbors", "<u4", (R,)),
        ]
    )


@dataclass
class IndexHeader:
    page_size: int
    dim: int
    n: int
    R: int
    page_capacity: int
    total_pages: int = field(init=False)  # ceil(n / page_capacity), not stored
    entry_id: int
    layout_kind: str

    def __post_init__(self) -> None:
        self.total_pages = -(-self.n // self.page_capacity)


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
    """Thread-safe counters for read requests and page transfers. Every page
    is page_size bytes, so the bytes read are derived, not counted. The
    totals only grow: a span's reads are the difference of two snapshots."""

    def __init__(self, page_size: int) -> None:
        self._lock = threading.Lock()
        self.page_size = page_size
        self.io_ops = 0
        self.pages_read = 0

    def record(self, pages: int) -> None:
        with self._lock:
            self.io_ops += 1
            self.pages_read += pages

    def snapshot(self) -> tuple[int, int, int]:
        """(io_ops, pages_read, bytes read)."""
        with self._lock:
            return self.io_ops, self.pages_read, self.pages_read * self.page_size


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
    if n > MAX_NODES:
        raise ValueError(f"n {n} exceeds 2**32: index.bin node ids are u32")
    if graph.n != n or layout.n != n:
        raise ValueError("dataset, graph, and layout disagree on node count")
    if page_size < _INDEX_HEADER.size:
        raise ValueError(
            f"page_size {page_size} is smaller than the {_INDEX_HEADER.size}-byte "
            "index.bin header"
        )
    ssize = slot_size(dim, R)
    cap = layout.page_capacity
    if ssize * cap > page_size:
        raise ValueError(
            f"page_size {page_size} cannot hold {cap} slots of "
            f"{ssize} bytes; need page_size >= {ssize * cap}"
        )

    degrees = np.array([a.size for a in graph.adjacency], dtype=np.uint16)
    if int(degrees.max(initial=0)) > R:
        raise InvariantError("graph degree exceeds R")
    filled = np.arange(R)  # slot j of a node holds a neighbour when j < its degree

    dtype = _slot_dtype(dim, R)
    header = IndexHeader(
        page_size=page_size,
        dim=dim,
        n=n,
        R=R,
        page_capacity=cap,
        entry_id=graph.entry_id,
        layout_kind=layout_kind,
    )
    # packed before the file is opened, so a field too large for the header
    # leaves an existing file as it was
    try:
        packed = _INDEX_HEADER.pack(
            INDEX_MAGIC, page_size, dim, n, R, cap, graph.entry_id,
            LAYOUT_KIND_CODES[layout_kind],
        )
    except struct.error as exc:
        raise ValueError(
            f"the index.bin header cannot hold page_size {page_size}, dim {dim}, R {R} "
            f"and page_capacity {cap}: {exc}"
        ) from None
    with open(path, "wb") as f:
        f.write(packed.ljust(page_size, b"\x00"))
        for page_id in range(header.total_pages):
            nodes = layout.nodes_on_page(page_id)
            slots = np.zeros(nodes.shape[0], dtype=dtype)
            slots["node_id"] = nodes
            slots["vector"] = dataset.vectors[nodes]
            slots["degree"] = degrees[nodes]
            if slots["degree"].any():
                slots["neighbors"][filled < slots["degree"][:, None]] = np.concatenate(
                    [graph.adjacency[i] for i in nodes]
                )
            f.write(slots.tobytes().ljust(page_size, b"\x00"))
    return header


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
            magic, page_size, dim, n, R, cap, entry_id, kind_code = _INDEX_HEADER.unpack(raw)
            if magic in (b"GOVI1", b"GOVI2"):
                raise FormatError(
                    f"{self.path}: index.bin is version {magic[4:].decode()}, not 3; "
                    "run `diskvec layout` again"
                )
            if magic != INDEX_MAGIC:
                raise FormatError(f"{self.path}: bad index magic {magic!r}")
            if kind_code not in LAYOUT_KIND_NAMES:
                raise FormatError(f"{self.path}: unknown layout kind code {kind_code}")
            if entry_id >= n:
                raise FormatError(f"{self.path}: entry_id {entry_id} is not below n {n}")
            if cap < 1 or cap * slot_size(dim, R) > page_size:
                raise FormatError(
                    f"{self.path}: {cap} slots of dim {dim}, R {R} do not fit "
                    f"a {page_size}-byte page"
                )
            self.header = IndexHeader(
                page_size=page_size,
                dim=dim,
                n=n,
                R=R,
                page_capacity=cap,
                entry_id=int(entry_id),
                layout_kind=LAYOUT_KIND_NAMES[kind_code],
            )
            size = os.fstat(self._fd).st_size
            want = (self.header.total_pages + 1) * page_size
            if size != want:
                raise FormatError(
                    f"{self.path}: file is {size} bytes, but total_pages "
                    f"{self.header.total_pages} and the header page make {want}"
                )
            # a request's bytes, viewed as whole pages of page_capacity slots
            self._page_dtype = np.dtype(
                {
                    "names": ["slots"],
                    "formats": [(_slot_dtype(dim, R), (cap,))],
                    "offsets": [0],
                    "itemsize": page_size,
                }
            )
            self.stats = IoStats(page_size)
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

    def _read(self, start: int, count: int) -> list[DiskPage]:
        """Pages [start, start + count) in one request: one I/O operation."""
        h = self.header
        total, ps, cap = h.total_pages, h.page_size, h.page_capacity
        if count < 1 or start < 0 or start + count > total:
            raise ValueError(f"pages [{start}, {start + count}) out of range [0, {total})")
        # page 0 of data sits after the header page
        buf = os.pread(self._fd, count * ps, (start + 1) * ps)
        if len(buf) != count * ps:
            raise FormatError(
                f"{self.path}: short read at page {start} "
                f"(wanted {count * ps} bytes, got {len(buf)})"
            )
        self.stats.record(count)
        slots = np.frombuffer(buf, dtype=self._page_dtype, count=count)["slots"]
        # every id and degree that leaves the reader passes here, checked once
        # per request, the zero-filled slots of a short last page included
        if int(slots["neighbors"].max(initial=0)) >= h.n:
            self._refuse(start, slots["neighbors"] >= h.n, f"a neighbor id outside [0, {h.n})")
        if int(slots["degree"].max(initial=0)) > h.R:
            self._refuse(start, slots["degree"] > h.R, f"a degree above R={h.R}")
        return [
            DiskPage(page_id=p, slots=slots[i, : min(cap, h.n - p * cap)])
            for i, p in enumerate(range(start, start + count))
        ]

    def _refuse(self, start: int, bad: np.ndarray, what: str) -> NoReturn:
        """Raise for the first page of a request from start whose slots bad
        flags."""
        page = start + int(bad.reshape(bad.shape[0], -1).any(axis=1).argmax())
        raise FormatError(f"{self.path}: page {page} holds {what}")

    def read_page(self, page_id: int) -> DiskPage:
        """One page, one I/O operation."""
        return self._read(page_id, 1)[0]

    def read_page_range(self, interval: ReadInterval) -> list[DiskPage]:
        """A contiguous range read: one I/O operation, page_count pages."""
        return self._read(interval.start_page, interval.page_count)

    def read_pages(self, page_ids: Iterable[int]) -> list[list[DiskPage]]:
        """Each distinct page once, with one request per run of consecutive
        page ids, in ascending order; returns the pages of each request."""
        ids = sorted(set(page_ids))
        runs: list[list[DiskPage]] = []
        start = 0
        while start < len(ids):
            end = start + 1
            while end < len(ids) and ids[end] == ids[end - 1] + 1:
                end += 1
            if end - start == 1:
                runs.append([self.read_page(ids[start])])
            else:
                runs.append(self.read_page_range(ReadInterval(ids[start], end - start)))
            start = end
        return runs


@dataclass
class Index:
    """What a query needs, opened together: the paged index file, which holds
    the graph, its layout, and the memory-resident PQ codebook and codes.
    Leaving its `with` block closes the reader."""

    reader: IndexReader
    layout: LayoutMap
    codebook: PQCodebook
    codes: np.ndarray

    @classmethod
    def open(cls, index_dir: str | Path) -> "Index":
        """Open an index directory, checking each sidecar against the index
        header so that artifacts of different builds fail as bad data. A
        missing file raises the OS's FileNotFoundError, naming its path."""
        index_dir = Path(index_dir)
        reader = IndexReader(index_dir / INDEX_FILE)
        try:
            lm = load_layout(index_dir / LAYOUT_FILE)
            codebook, codes = load_pq(index_dir / PQ_FILE)
            h = reader.header
            for name, what, got, want in (
                (LAYOUT_FILE, "n", lm.n, h.n),
                (LAYOUT_FILE, "page_capacity", lm.page_capacity, h.page_capacity),
                (PQ_FILE, "code count", codes.shape[0], h.n),
                (PQ_FILE, "trained dim", codebook.trained_dim, h.dim),
            ):
                if got != want:
                    raise FormatError(
                        f"{index_dir / name}: {what} is {got} but {INDEX_FILE} has {want}"
                    )
        except Exception:
            reader.close()
            raise
        return cls(reader, lm, codebook, codes)

    def __enter__(self) -> "Index":
        return self

    def __exit__(self, *exc) -> None:
        self.reader.close()
