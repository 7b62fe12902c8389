"""Index file round trips, slot arithmetic, and I/O accounting."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskvec.errors import FormatError
from diskvec.graphbuild import GraphIndex
from diskvec.layout import ReadInterval, build_insertion_layout
from diskvec.diskstore import (
    _INDEX_HEADER,
    IndexReader,
    page_capacity_for,
    slot_size,
    write_index,
)
from diskvec.vecdata import VectorDataset

from builders import mutate, write_custom_index


def test_slot_and_capacity_arithmetic():
    # dim=128, R=32: slot = 8 + 512 + 2 + 256 = 778; five fit in a 4 KiB page
    assert slot_size(128, 32) == 778
    assert page_capacity_for(4096, 128, 32) == 5


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
            for node in range(smoke.dataset.n):
                vec, adj = index.reader.read_node(node, index.layout)
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
        r.stats.reset()
        pages = r.read_page_range(ReadInterval(0, 4))
        assert [p.page_id for p in pages] == [0, 1, 2, 3]
        assert r.stats.snapshot()[:2] == (1, 4)
        r.stats.reset()
        a = r.read_page_range(ReadInterval(0, 2))
        b = r.read_page_range(ReadInterval(2, 2))
        assert r.stats.snapshot()[:2] == (2, 4)
        whole = r.read_page_range(ReadInterval(0, 4))
        got = [p.slots["node_id"].tolist() for p in a + b]
        want = [p.slots["node_id"].tolist() for p in whole]
        assert got == want


def test_read_pages_reads_each_page_once_per_run(smoke):
    with smoke.index("sim").reader as r:
        runs = r.read_pages([8, 2, 3, 1, 5, 2, 7, 3])
        assert [[p.page_id for p in run] for run in runs] == [[1, 2, 3], [5], [7, 8]]
        assert r.stats.snapshot()[:2] == (3, 6)
        for run in runs:
            for page in run:
                assert page.slots.tobytes() == r.read_page(page.page_id).slots.tobytes()
        r.stats.reset()
        assert r.read_pages([]) == []
        assert r.stats.snapshot()[:2] == (0, 0)


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


def test_slot_overflow_names_required_page_size(tmp_path):
    ds = VectorDataset(np.zeros((10, 128), dtype=np.float32))
    graph = GraphIndex(
        adjacency=[np.empty(0, dtype=np.int64) for _ in range(10)], entry_id=0, R=32
    )
    lm = build_insertion_layout(ds, page_capacity=5)
    needed = 2 + 5 * slot_size(128, 32)
    with pytest.raises(ValueError, match=str(needed)):
        write_index(ds, graph, lm, tmp_path / "x.bin", page_size=1024)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTANINDEX" + b"\x00" * 100)
    with pytest.raises(FormatError):
        IndexReader(path)


def test_slot_node_id_mismatch_is_corruption(smoke):
    with smoke.index("sim").reader as r:
        page = r.read_page(0)
        wrong = int(page.slots["node_id"][0]) + 1
        with pytest.raises(FormatError):
            page.slot(0, expect_node=wrong)


@pytest.fixture(scope="module")
def custom_index(tmp_path_factory):
    """A two-page index of ten nodes."""
    rng = np.random.default_rng(17)
    adjacency = [[(i + 1) % 10, (i + 3) % 10][: i % 3] for i in range(10)]
    return write_custom_index(
        tmp_path_factory.mktemp("custom"), rng.normal(size=(10, 4)), adjacency, entry=4, R=3
    )[3]


@pytest.mark.parametrize(
    "offset, fmt, value, named",
    [(37, "<Q", 10, "entry_id"), (21, "<I", 4, "do not fit")],  # entry_id = n; R 3 -> 4
)
def test_header_fields_the_pages_contradict_are_format_errors(
    custom_index, tmp_path, offset, fmt, value, named
):
    raw = bytearray(custom_index.read_bytes())
    struct.pack_into(fmt, raw, offset, value)
    (tmp_path / "bad.bin").write_bytes(raw)
    with pytest.raises(FormatError, match=named):
        IndexReader(tmp_path / "bad.bin")


@given(data=st.data())
def test_corrupt_index_file_is_a_format_error_or_readable(custom_index, data):
    fuzzed = custom_index.with_name("fuzzed_index.bin")
    fuzzed.write_bytes(mutate(data, bytearray(custom_index.read_bytes()), _INDEX_HEADER.size))
    try:
        with IndexReader(fuzzed) as r:
            assert 0 <= r.header.entry_id < r.header.n
            for pid in range(r.header.total_pages):
                page = r.read_page(pid)
                for s in range(len(page.slots)):
                    _, adj = page.slot(s)
                    assert all(0 <= j < r.header.n for j in adj.tolist())
    except FormatError:
        return
