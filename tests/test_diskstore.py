"""Index file round trips, slot arithmetic, and I/O accounting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskvec.errors import FormatError
from diskvec.graphbuild import GraphIndex
from diskvec.layout import ReadInterval, build_insertion_layout, save_layout
from diskvec.diskstore import (
    _INDEX_HEADER,
    INDEX_FILE,
    LAYOUT_FILE,
    MAX_NODES,
    PQ_FILE,
    Index,
    IndexReader,
    _slot_dtype,
    page_capacity_for,
    slot_size,
    write_index,
)
from diskvec.pqcodec import save_pq
from diskvec.vecdata import VectorDataset

from builders import edit_index_header, mutate, write_custom_index


def test_slot_and_capacity_arithmetic():
    # dim=128, R=32: slot = 4 + 512 + 2 + 128 = 646; six fit in a 4 KiB page
    assert slot_size(128, 32) == 646
    assert page_capacity_for(4096, 128, 32) == 6
    # the benchmark's dim 16, R 32: 198-byte slots, twenty to a 4 KiB page
    assert slot_size(16, 32) == 198
    assert page_capacity_for(4096, 16, 32) == 20


def test_page_capacity_is_what_it_was_with_a_page_header():
    # a slot is 2 mod 4 bytes, so no multiple of it lies in (P - 2, P] for a
    # power-of-two page size P: the 2-byte slot count that version-2 pages
    # began with never cost a slot, and dropping it gains none
    for dim in (1, 2, 3, 4, 8, 16, 100, 128, 960):
        for R in (1, 2, 3, 8, 16, 32, 64, 255):
            for page_size in (2**k for k in range(5, 17)):
                with_header = (page_size - 2) // slot_size(dim, R)
                if with_header < 1:
                    with pytest.raises(ValueError):
                        page_capacity_for(page_size, dim, R)
                else:
                    assert page_capacity_for(page_size, dim, R) == with_header, (dim, R, page_size)


def test_slot_size_is_the_slot_dtype_itemsize():
    for dim in (1, 2, 3, 8, 16, 100, 128, 960):
        for R in (1, 3, 16, 32, 64, 255):
            assert slot_size(dim, R) == _slot_dtype(dim, R).itemsize, (dim, R)


def test_single_node_index(tmp_path):
    ds = VectorDataset(np.array([[1.5, -2.5]], dtype=np.float32))
    graph = GraphIndex(adjacency=[np.empty(0, dtype=np.int64)], entry_id=0, R=4)
    lm = build_insertion_layout(ds, page_capacity_for(4096, 2, 4))
    path = tmp_path / "one.bin"
    header = write_index(ds, graph, lm, path, page_size=4096)
    assert header.total_pages == 1
    with IndexReader(path) as r:
        page = r.read_page(0)
        assert len(page.slots) == 1
        vec, adj = page.slot(0, expect_node=0)
        assert np.array_equal(vec, ds.vectors[0])
        assert adj.size == 0


def test_round_trip_every_node(tmp_path, smoke):
    for kind in ("sim", "ins"):
        with smoke.index(kind) as index:
            lm = index.layout
            for node in range(smoke.dataset.n):
                page = index.reader.read_page(lm.page_of(node))
                vec, adj = page.slot(lm.slot_of(node), expect_node=node)
                assert vec.tobytes() == smoke.dataset.vectors[node].tobytes()  # bit-exact
                assert np.array_equal(adj, smoke.graph.adjacency[node])


def test_page_coverage_partitions_nodes(tmp_path, smoke):
    with smoke.index("sim").reader as r:
        seen: list[int] = []
        for pid in range(r.header.total_pages):
            seen.extend(r.read_page(pid).slots["node_id"].tolist())
    assert sorted(seen) == list(range(smoke.dataset.n))


def test_same_slots_under_both_layouts(smoke):
    def slot_multiset(kind):
        out = []
        with smoke.index(kind).reader as r:
            for pid in range(r.header.total_pages):
                page = r.read_page(pid)
                for s in range(len(page.slots)):
                    vec, adj = page.slot(s)
                    out.append((int(page.slots["node_id"][s]), vec.tobytes(), adj.tobytes()))
        return sorted(out)

    assert slot_multiset("sim") == slot_multiset("ins")


def test_read_accounting(smoke):
    with smoke.index("sim").reader as r:
        r.read_page(0)
        r.read_page(0)
        assert r.stats.snapshot()[:2] == (2, 2)
        pages = r.read_page_range(ReadInterval(0, 4))
        assert [p.page_id for p in pages] == [0, 1, 2, 3]
        assert r.stats.snapshot()[:2] == (2 + 1, 2 + 4)
        a = r.read_page_range(ReadInterval(0, 2))
        b = r.read_page_range(ReadInterval(2, 2))
        assert r.stats.snapshot()[:2] == (3 + 2, 6 + 4)
        whole = r.read_page_range(ReadInterval(0, 4))
        got = [p.slots["node_id"].tolist() for p in a + b]
        want = [p.slots["node_id"].tolist() for p in whole]
        assert got == want


def test_snapshot_bytes_are_pages_times_page_size(smoke):
    # bench/harness.py reports snapshot()[2] as bytes_read_per_query
    with smoke.index("sim").reader as r:
        r.read_page(4)
        r.read_page_range(ReadInterval(0, 3))
        r.read_pages([9, 1, 10, 6])
        ops, pages, nbytes = r.stats.snapshot()
        assert (ops, pages) == (5, 8)
        assert nbytes == pages * r.header.page_size == 8 * smoke.page_size


def test_read_pages_reads_each_page_once_per_run(smoke):
    with smoke.index("sim").reader as r:
        runs = r.read_pages([8, 2, 3, 1, 5, 2, 7, 3])
        assert [[p.page_id for p in run] for run in runs] == [[1, 2, 3], [5], [7, 8]]
        assert r.stats.snapshot()[:2] == (3, 6)
        for run in runs:
            for page in run:
                assert page.slots.tobytes() == r.read_page(page.page_id).slots.tobytes()
        before = r.stats.snapshot()
        assert r.read_pages([]) == []
        assert r.stats.snapshot() == before


def test_range_of_one_equals_single_read(smoke):
    with smoke.index("sim").reader as r:
        single = r.read_page(3)
        ops0, pages0, _ = r.stats.snapshot()
        ranged = r.read_page_range(ReadInterval(3, 1))
        ops1, pages1, _ = r.stats.snapshot()
        assert (ops1 - ops0, pages1 - pages0) == (1, 1)
        assert ranged[0].slots["node_id"].tolist() == single.slots["node_id"].tolist()


def test_reads_identical_bytes(smoke):
    with smoke.index("sim").reader as r:
        p1 = r.read_page(5)
        p2 = r.read_page(5)
        assert p1.slots["vector"].tobytes() == p2.slots["vector"].tobytes()
        assert np.array_equal(p1.slots["node_id"], p2.slots["node_id"])


def test_out_of_range_reads(smoke):
    with smoke.index("sim").reader as r:
        with pytest.raises(ValueError):
            r.read_page(r.header.total_pages)
        with pytest.raises(ValueError):
            r.read_page_range(ReadInterval(r.header.total_pages - 1, 2))


def test_empty_or_negative_reads_are_refused_uncounted(smoke):
    with smoke.index("sim").reader as r:
        with pytest.raises(ValueError):
            r.read_page_range(ReadInterval(0, 0))
        with pytest.raises(ValueError):
            r.read_page(-1)
        assert r.stats.snapshot() == (0, 0, 0)


def test_slot_overflow_names_required_page_size(tmp_path):
    ds = VectorDataset(np.zeros((10, 128), dtype=np.float32))
    graph = GraphIndex(
        adjacency=[np.empty(0, dtype=np.int64) for _ in range(10)], entry_id=0, R=32
    )
    lm = build_insertion_layout(ds, page_capacity=5)
    needed = 5 * slot_size(128, 32)
    with pytest.raises(ValueError, match=str(needed)):
        write_index(ds, graph, lm, tmp_path / "x.bin", page_size=1024)


def test_page_smaller_than_the_header_is_refused(tmp_path):
    # dim 2, R 2: a 22-byte slot fits a 32-byte page, the header does not
    page_size = 32
    assert slot_size(2, 2) <= page_size < _INDEX_HEADER.size
    ds = VectorDataset(np.zeros((3, 2), dtype=np.float32))
    graph = GraphIndex(adjacency=[np.empty(0, dtype=np.int64)] * 3, entry_id=0, R=2)
    lm = build_insertion_layout(ds, page_capacity_for(page_size, 2, 2))
    with pytest.raises(ValueError, match=f"{_INDEX_HEADER.size}-byte index.bin header"):
        write_index(ds, graph, lm, tmp_path / "x.bin", page_size=page_size)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTANINDEX" + b"\x00" * 100)
    with pytest.raises(FormatError):
        IndexReader(path)


class _HugeDataset:
    """Reports more nodes than u32 ids can name, without holding any."""

    n = MAX_NODES + 1
    dim = 2


def test_write_refuses_more_nodes_than_u32_ids_name(tmp_path):
    graph = GraphIndex(adjacency=[np.empty(0, dtype=np.int64)], entry_id=0, R=4)
    lm = build_insertion_layout(VectorDataset(np.zeros((1, 2), dtype=np.float32)), 1)
    with pytest.raises(ValueError, match="u32"):
        write_index(_HugeDataset(), graph, lm, tmp_path / "x.bin")
    assert not (tmp_path / "x.bin").exists()


@st.composite
def small_graphs(draw):
    """A random graph of 1-40 nodes, dim 1-6, R 1-8, whose adjacency lists
    favour ids near n - 1, with a page size that fits 1-5 slots (more when
    the index header needs a larger page)."""
    n = draw(st.integers(1, 40), label="n")
    dim = draw(st.integers(1, 6), label="dim")
    R = draw(st.integers(1, 8), label="R")
    ids = st.one_of(st.integers(0, n - 1), st.integers(max(0, n - 3), n - 1))
    adjacency = [
        draw(st.lists(ids, max_size=R, unique=True), label=f"adj {i}") for i in range(n)
    ]
    vectors = draw(
        st.lists(
            st.lists(st.floats(-1e6, 1e6, width=32), min_size=dim, max_size=dim),
            min_size=n, max_size=n,
        ),
        label="vectors",
    )
    entry = draw(st.integers(0, n - 1), label="entry")
    slots = draw(st.integers(1, 5), label="slots per page")
    slack = draw(st.integers(0, 3), label="slack")
    page_size = max(slots * slot_size(dim, R) + slack, _INDEX_HEADER.size)
    return np.array(vectors, dtype=np.float32), adjacency, entry, R, page_size


@given(g=small_graphs())
def test_write_then_read_round_trips_every_slot(tmp_path_factory, g):
    vectors, adjacency, entry, R, page_size = g
    ds, _, lm, path, _, _ = write_custom_index(
        tmp_path_factory.mktemp("round"), vectors, adjacency, entry, R, page_size
    )
    with IndexReader(path) as r:
        assert (r.header.n, r.header.dim, r.header.R) == (ds.n, ds.dim, R)
        assert r.header.entry_id == entry
        assert r.header.page_capacity == lm.page_capacity
        for node in range(ds.n):
            page = r.read_page(lm.page_of(node))
            s = lm.slot_of(node)
            assert int(page.slots["node_id"][s]) == node
            assert int(page.slots["degree"][s]) == len(adjacency[node])
            vec, adj = page.slot(s, expect_node=node)
            assert vec.tobytes() == ds.vectors[node].tobytes()
            assert adj.tolist() == adjacency[node]


def test_slot_node_id_mismatch_is_corruption(smoke):
    with smoke.index("sim").reader as r:
        page = r.read_page(0)
        wrong = int(page.slots["node_id"][0]) + 1
        with pytest.raises(FormatError):
            page.slot(0, expect_node=wrong)


@pytest.fixture(scope="module")
def custom_index(tmp_path_factory):
    """A two-page index of ten nodes and its layout, in a directory that also
    holds the layout and PQ sidecars, so that an index.bin written beside
    them opens as an `Index`."""
    root = tmp_path_factory.mktemp("custom")
    rng = np.random.default_rng(17)
    adjacency = [[(i + 1) % 10, (i + 3) % 10][: i % 3] for i in range(10)]
    _, _, lm, path, codebook, codes = write_custom_index(
        root, rng.normal(size=(10, 4)), adjacency, entry=4, R=3
    )
    save_layout(root / LAYOUT_FILE, lm)
    save_pq(root / PQ_FILE, codebook, codes)
    return path, lm


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda h: h.update(entry_id=h["n"]), "entry_id"),
        (lambda h: h.update(R=h["R"] + 1), "do not fit"),
    ],
    ids=["entry_id", "R"],
)
def test_header_fields_the_pages_contradict_are_format_errors(
    custom_index, tmp_path, edit, named
):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(custom_index[0].read_bytes())
    edit_index_header(bad, edit)
    with pytest.raises(FormatError, match=named):
        IndexReader(bad)


def test_slot_degree_above_R_is_a_format_error(custom_index, tmp_path):
    """A stored degree above R would slice the zero padding into edges to
    node 0; the page that holds it is refused when read."""
    path, lm = custom_index
    with IndexReader(path) as r:
        h = r.header
    dtype = _slot_dtype(h.dim, h.R)
    page, slot = lm.page_of(1), lm.slot_of(1)
    raw = bytearray(path.read_bytes())
    at = (page + 1) * h.page_size + slot * dtype.itemsize + dtype.fields["degree"][1]
    raw[at : at + 2] = (0xFFFF).to_bytes(2, "little")
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw)
    with IndexReader(bad) as r:
        with pytest.raises(FormatError, match="degree"):
            r.read_page(page)
        # a page without the bad slot still reads
        other = 1 - page
        assert len(r.read_page(other).slots) == len(lm.nodes_on_page(other))


def test_unused_slots_of_the_last_page_are_checked(custom_index, tmp_path):
    """A request is checked as whole pages: a neighbour id past n in a slot
    that the last page does not use is refused too, and names that page."""
    path, lm = custom_index
    with IndexReader(path) as r:
        h = r.header
    last = h.total_pages - 1
    used = len(lm.nodes_on_page(last))
    assert used < h.page_capacity
    dtype = _slot_dtype(h.dim, h.R)
    at = (last + 1) * h.page_size + used * dtype.itemsize + dtype.fields["neighbors"][1]
    raw = bytearray(path.read_bytes())
    raw[at : at + 4] = h.n.to_bytes(4, "little")
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw)
    with IndexReader(bad) as r:
        with pytest.raises(FormatError, match=f"page {last} holds a neighbor id"):
            r.read_pages(range(h.total_pages))
        assert len(r.read_page(0).slots) == h.page_capacity


def test_overwritten_page_bytes_fail_as_bad_data_or_spare_other_slots(custom_index, tmp_path):
    """Zero 2 bytes at each offset of page 0 in turn and read the page's nodes
    through the layout's (page, slot): each read raises FormatError or returns
    what the clean file holds, unless the zeroed bytes lie in its own slot.
    While pages began with a stored slot count, zeroing it made every read of
    the page an InvariantError."""
    path, lm = custom_index
    clean = path.read_bytes()
    nodes = lm.nodes_on_page(0).tolist()
    with IndexReader(path) as r:
        h = r.header
        page = r.read_page(0)
        want = {v: page.slot(lm.slot_of(v), expect_node=v) for v in nodes}
    ssize = slot_size(h.dim, h.R)
    bad = tmp_path / "bad.bin"
    for offset in range(h.page_size - 1):
        raw = bytearray(clean)
        at = h.page_size + offset  # page 0 follows the header page
        raw[at : at + 2] = bytes(2)
        bad.write_bytes(raw)
        with IndexReader(bad) as r:
            for v in nodes:
                s = lm.slot_of(v)
                try:
                    vec, adj = r.read_page(lm.page_of(v)).slot(s, expect_node=v)
                except FormatError:
                    continue
                if offset + 2 <= s * ssize or offset >= (s + 1) * ssize:
                    assert vec.tobytes() == want[v][0].tobytes(), (offset, v)
                    assert adj.tolist() == want[v][1].tolist(), (offset, v)


@given(data=st.data())
def test_corrupt_index_file_is_a_format_error_or_readable(custom_index, data):
    path, _ = custom_index
    fuzzed = path.with_name(INDEX_FILE)
    fuzzed.write_bytes(mutate(data, bytearray(path.read_bytes()), _INDEX_HEADER.size))
    try:
        with Index.open(fuzzed.parent) as index:
            r, lm = index.reader, index.layout
            assert 0 <= r.header.entry_id < r.header.n
            for v in range(lm.n):
                _, adj = r.read_page(lm.page_of(v)).slot(lm.slot_of(v), expect_node=v)
                assert all(0 <= j < r.header.n for j in adj.tolist())
                assert adj.size <= r.header.R
    except FormatError:
        return
