"""Dataset IO, exact distance, ground truth, and recall oracles."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from diskvec.errors import FormatError
from diskvec.vecdata import (
    NonFiniteError,
    VectorDataset,
    ground_truth_batch,
    load_fvecs,
    load_ivecs,
    nearest_center,
    recall_at_k,
    write_fvecs,
    write_ivecs,
)

from builders import ground_truth_topk, l2_distance


def test_load_fvecs_single_record(tmp_path):
    path = tmp_path / "one.fvecs"
    path.write_bytes(struct.pack("<iff", 2, 1.0, 2.0))
    ds = load_fvecs(path)
    assert ds.n == 1
    assert ds.dim == 2
    assert np.array_equal(ds.vectors[0], np.array([1.0, 2.0], dtype=np.float32))


# each error test runs over both codecs: (reader, struct code of one element)
CODECS = [(load_fvecs, "f"), (load_ivecs, "i")]


def test_load_fvecs_inconsistent_dimension(tmp_path):
    path = tmp_path / "bad.vecs"
    for load, e in CODECS:
        path.write_bytes(struct.pack(f"<i2{e}", 2, 1, 2) + struct.pack(f"<i3{e}", 3, 1, 2, 3))
        with pytest.raises(FormatError, match="declares 3, expected 2"):
            load(path)


def test_load_fvecs_truncated_names_offset(tmp_path):
    path = tmp_path / "trunc.vecs"
    for load, e in CODECS:
        good = struct.pack(f"<i2{e}", 2, 1, 2)
        path.write_bytes(good + struct.pack(f"<i{e}", 2, 1))  # second record cut short
        with pytest.raises(FormatError, match=f"byte offset {len(good)}"):
            load(path)


def test_load_fvecs_empty_file(tmp_path):
    path = tmp_path / "empty.vecs"
    path.write_bytes(b"")
    for load, _ in CODECS:
        with pytest.raises(FormatError, match="empty"):
            load(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_fvecs_non_finite_names_the_record(tmp_path, bad):
    vecs = np.ones((5, 3), dtype=np.float32)
    vecs[3, 1] = bad
    path = tmp_path / "bad.fvecs"
    write_fvecs(path, vecs)
    want = f"{path.name}: non-finite element in record 3 at byte offset 48"  # 3 records of 16 bytes
    with pytest.raises(FormatError, match=want):
        load_fvecs(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_refuses_non_finite_elements_naming_the_vector(bad):
    vecs = np.ones((6, 2), dtype=np.float32)
    vecs[4, 0] = vecs[5, 1] = bad
    with pytest.raises(NonFiniteError, match="vector 4") as info:
        VectorDataset(vecs)
    assert info.value.row == 4 and isinstance(info.value, ValueError)


def test_fvecs_round_trip_100_records(tmp_path):
    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(100, 24)).astype(np.float32)
    path = tmp_path / "rt.fvecs"
    write_fvecs(path, vecs)
    ds = load_fvecs(path)
    assert ds.n == 100 and ds.dim == 24
    assert np.array_equal(ds.vectors, vecs)  # bit-exact


def test_ivecs_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    ids = rng.integers(0, 1000, size=(17, 5)).astype(np.int32)
    path = tmp_path / "rt.ivecs"
    write_ivecs(path, ids)
    assert np.array_equal(load_ivecs(path), ids)


def test_l2_identity():
    v = np.array([7.5, -1.0, 0.0])
    assert l2_distance(v, v) == 0.0


def test_l2_3_4_5():
    assert l2_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_l2_matches_componentwise_oracle():
    rng = np.random.default_rng(11)
    a = rng.normal(size=16).astype(np.float32)
    b = rng.normal(size=16).astype(np.float32)
    # independent accumulation in plain python floats
    acc = 0.0
    for x, y in zip(a.tolist(), b.tolist()):
        acc += (x - y) ** 2
    assert l2_distance(a, b) == pytest.approx(math.sqrt(acc), abs=1e-6)


def test_l2_dimension_mismatch():
    with pytest.raises(ValueError):
        l2_distance(np.zeros(3), np.zeros(4))


def test_l2_symmetry_nonneg_triangle():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(30, 6))
    for _ in range(200):
        i, j, k = rng.integers(0, 30, size=3)
        dij = l2_distance(pts[i], pts[j])
        dji = l2_distance(pts[j], pts[i])
        assert dij == dji >= 0.0
        assert dij <= l2_distance(pts[i], pts[k]) + l2_distance(pts[k], pts[j]) + 1e-6


def test_ground_truth_hand_checked():
    ds = VectorDataset(np.array([[0.0], [1.0], [5.0]], dtype=np.float32))
    # distances from 0.9: 0.9, 0.1, 4.1
    assert ground_truth_topk(ds, np.array([0.9]), 2).tolist() == [1, 0]


def test_ground_truth_full_ranking():
    rng = np.random.default_rng(13)
    ds = VectorDataset(rng.normal(size=(20, 4)).astype(np.float32))
    q = rng.normal(size=4)
    ids = ground_truth_topk(ds, q, 20)
    dists = [l2_distance(ds.vectors[i], q) for i in ids]
    assert sorted(ids.tolist()) == list(range(20))
    assert all(dists[i] <= dists[i + 1] + 1e-12 for i in range(19))


def test_ground_truth_tie_breaks_by_lower_id():
    ds = VectorDataset(np.array([[1.0, 0.0], [-1.0, 0.0], [9.0, 9.0]], dtype=np.float32))
    assert ground_truth_topk(ds, np.array([0.0, 0.0]), 2).tolist() == [0, 1]


def test_ground_truth_k_too_large():
    ds = VectorDataset(np.zeros((3, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        ground_truth_topk(ds, np.zeros(2), 4)


def test_recall_cases():
    truth = np.arange(10)
    assert recall_at_k(np.arange(10), truth) == 1.0
    assert recall_at_k(np.arange(10, 20), truth) == 0.0
    mixed = np.array([0, 1, 2, 3, 4, 50, 51, 52, 53, 54])
    assert recall_at_k(mixed, truth) == 0.5


def test_recall_of_ground_truth_is_one():
    rng = np.random.default_rng(14)
    ds = VectorDataset(rng.normal(size=(40, 3)).astype(np.float32))
    q = rng.normal(size=3)
    gt = ground_truth_topk(ds, q, 7)
    assert recall_at_k(gt, gt) == 1.0


def test_recall_length_mismatch():
    with pytest.raises(ValueError):
        recall_at_k(np.arange(3), np.arange(4))


@st.composite
def _center_cases(draw):
    """Random finite points and centres, some centres repeated so that ties
    go to the lower index."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    dim = draw(st.integers(1, 8))
    elements = st.floats(-1e4, 1e4, width=np.dtype(dtype).itemsize * 8)
    pts = draw(hnp.arrays(dtype, (draw(st.integers(1, 40)), dim), elements=elements))
    distinct = draw(hnp.arrays(dtype, (draw(st.integers(1, 9)), dim), elements=elements))
    rows = draw(st.lists(st.integers(0, distinct.shape[0] - 1), min_size=1, max_size=16))
    return pts, distinct[rows]


@given(case=_center_cases())
def test_nearest_center_matches_the_written_formula_bit_for_bit(case):
    pts, centers = case
    ids, d2 = nearest_center(pts, centers)
    # the reference keeps the formula's written order of operations
    p, c = pts.astype(np.float64), centers.astype(np.float64)
    d = np.einsum("ij,ij->i", p, p)[:, None] - 2.0 * p @ c.T + np.einsum("ij,ij->i", c, c)
    want = np.argmin(d, axis=1)
    assert ids.tolist() == want.tolist()
    assert d2.tobytes() == d[np.arange(want.size), want].tobytes()


@st.composite
def _tie_cases(draw):
    """Base rows q ± o around float32 queries q, exact in float32: repeated
    rows and mirror images tie exactly, and coordinates of unlike scale make
    float64 sums round."""
    dim = draw(st.integers(1, 4))
    scale = 2.0 ** np.array(draw(st.lists(st.integers(-20, 10), min_size=dim, max_size=dim)))
    coords = st.lists(st.integers(-(1 << 20), 1 << 20), min_size=dim, max_size=dim)

    def grid(rows: int) -> np.ndarray:
        return np.array(draw(st.lists(coords, min_size=rows, max_size=rows)), dtype=np.float64)

    queries, offsets = grid(draw(st.integers(1, 4))), grid(draw(st.integers(1, 6)))
    picks = st.tuples(
        st.integers(0, queries.shape[0] - 1),
        st.integers(0, offsets.shape[0] - 1),
        st.sampled_from([-1.0, 1.0]),
    )
    base = np.array([queries[q] + s * offsets[o] for q, o, s in
                     draw(st.lists(picks, min_size=1, max_size=60))])
    k = draw(st.integers(1, base.shape[0]))
    return (base * scale).astype(np.float32), (queries * scale).astype(np.float32), k


@given(case=_tie_cases())
def test_ground_truth_batch_matches_a_lexsort_oracle_on_ties(case):
    base, queries, k = case
    got = ground_truth_batch(VectorDataset(base), queries, k)
    ids = np.arange(base.shape[0])
    for q, row in zip(queries, got):
        diff = base.astype(np.float64) - q.astype(np.float64)
        d2 = np.einsum("ij,ij->i", diff, diff)
        assert row.tolist() == np.lexsort((ids, d2))[:k].tolist()
