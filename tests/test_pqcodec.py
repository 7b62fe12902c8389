"""Codebook training, encoding, distance tables, and the saturation oracle."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskvec.errors import FormatError
from diskvec.pqcodec import (
    _PQ_HEADER,
    build_distance_table,
    decode,
    default_subspace_count,
    encode,
    encode_dataset,
    load_pq,
    pq_distance,
    pq_distance_batch,
    save_pq,
    train,
)
from diskvec.vecdata import VectorDataset, l2_distance

from builders import mutate, write_custom_index


def _ds(arr) -> VectorDataset:
    return VectorDataset(np.asarray(arr, dtype=np.float32))


def test_saturated_codebook_centroids_are_training_vectors():
    rng = np.random.default_rng(50)
    pts = rng.normal(size=(8, 4)).astype(np.float32)
    cb = train(_ds(pts), m=1, c=8, seed=0)
    got = {tuple(np.round(c, 5)) for c in cb.centroids[0]}
    want = {tuple(np.round(p, 5)) for p in pts}
    assert got == want


def test_train_determinism():
    pts = np.random.default_rng(51).normal(size=(40, 8)).astype(np.float32)
    a = train(_ds(pts), m=2, c=16, seed=7)
    b = train(_ds(pts), m=2, c=16, seed=7)
    assert np.array_equal(a.centroids, b.centroids)


def test_train_well_separated_pairs_recovers_pair_means():
    # four tight pairs, far apart: Lloyd's settles on the pair means
    base = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
    pts = np.vstack([base + (0.5, 0.0), base - (0.5, 0.0)]).astype(np.float32)
    cb = train(_ds(pts), m=1, c=4, seed=1)
    got = sorted(tuple(np.round(c, 4)) for c in cb.centroids[0])
    want = sorted(tuple(np.round(b, 4)) for b in base)
    assert got == want


def test_train_argument_errors():
    ds = _ds(np.zeros((10, 6)))
    with pytest.raises(ValueError):
        train(ds, m=4, c=4)  # 4 does not divide 6
    with pytest.raises(ValueError):
        train(ds, m=2, c=11)  # c > n


def test_encode_exact_centroid_recovers_index():
    rng = np.random.default_rng(52)
    pts = rng.normal(size=(20, 6)).astype(np.float32)
    cb = train(_ds(pts), m=2, c=5, seed=2)
    j = 3
    v = np.concatenate([cb.centroids[0][j], cb.centroids[1][j]])
    assert encode(v, cb).tolist() == [j, j]


def test_saturated_encode_decode_round_trip():
    rng = np.random.default_rng(53)
    pts = rng.normal(size=(8, 4)).astype(np.float32)
    ds = _ds(pts)
    cb = train(ds, m=1, c=8, seed=0)
    for i in range(8):
        rec = decode(encode(pts[i], cb), cb)
        assert np.allclose(rec, pts[i], atol=1e-6)


def test_encode_is_globally_optimal_per_subspace():
    # reconstruction error of the chosen code matches an exhaustive scan
    rng = np.random.default_rng(54)
    pts = rng.normal(size=(30, 8)).astype(np.float32)
    cb = train(_ds(pts), m=2, c=4, seed=3)
    v = rng.normal(size=8).astype(np.float32)
    chosen = encode(v, cb)
    chosen_err = l2_distance(decode(chosen, cb), v)
    best = min(
        l2_distance(decode(np.array(combo), cb), v)
        for combo in itertools.product(range(4), repeat=2)
    )
    assert chosen_err == pytest.approx(best, abs=1e-9)


def test_encode_idempotent():
    rng = np.random.default_rng(55)
    pts = rng.normal(size=(25, 6)).astype(np.float32)
    cb = train(_ds(pts), m=3, c=8, seed=4)
    for i in range(10):
        code = encode(pts[i], cb)
        assert np.array_equal(encode(decode(code, cb), cb), code)


def test_distance_table_zero_at_matching_centroid():
    rng = np.random.default_rng(56)
    pts = rng.normal(size=(12, 4)).astype(np.float32)
    cb = train(_ds(pts), m=2, c=6, seed=5)
    q = np.concatenate([cb.centroids[0][2], cb.centroids[1][4]])
    table = build_distance_table(q, cb)
    assert table[0][2] == pytest.approx(0.0, abs=1e-10)
    assert table[1][4] == pytest.approx(0.0, abs=1e-10)
    assert (table >= 0).all()


def test_distance_table_m1_matches_l2_oracle():
    rng = np.random.default_rng(57)
    pts = rng.normal(size=(10, 5)).astype(np.float32)
    cb = train(_ds(pts), m=1, c=10, seed=6)
    q = rng.normal(size=5)
    table = build_distance_table(q, cb)
    for i in range(10):
        assert table[0][i] == pytest.approx(l2_distance(q, cb.centroids[0][i]) ** 2, rel=1e-6)


def test_pq_distance_saturated_equals_exact():
    rng = np.random.default_rng(58)
    pts = rng.normal(size=(32, 8)).astype(np.float32)
    ds = _ds(pts)
    cb = train(ds, m=1, c=32, seed=7)
    codes = encode_dataset(ds, cb)
    q = pts[5]
    table = build_distance_table(q, cb)
    for i in range(32):
        assert pq_distance(table, codes[i]) == pytest.approx(
            l2_distance(q, pts[i]), abs=1e-4
        )


def test_pq_distance_of_query_code_is_zero():
    rng = np.random.default_rng(59)
    pts = rng.normal(size=(16, 4)).astype(np.float32)
    ds = _ds(pts)
    cb = train(ds, m=2, c=16, seed=8)
    q = pts[3]
    table = build_distance_table(q, cb)
    assert pq_distance(table, encode(q, cb)) == pytest.approx(0.0, abs=1e-6)


def test_pq_distance_matches_decode_then_l2_oracle():
    rng = np.random.default_rng(60)
    pts = rng.normal(size=(50, 8)).astype(np.float32)
    ds = _ds(pts)
    cb = train(ds, m=2, c=8, seed=9)
    codes = encode_dataset(ds, cb)
    q = rng.normal(size=8)
    table = build_distance_table(q, cb)
    for i in range(0, 50, 7):
        oracle = l2_distance(q, decode(codes[i], cb))
        assert pq_distance(table, codes[i]) == pytest.approx(oracle, abs=1e-5)


def test_pq_distance_batch_matches_scalar():
    rng = np.random.default_rng(61)
    pts = rng.normal(size=(20, 6)).astype(np.float32)
    ds = _ds(pts)
    cb = train(ds, m=3, c=7, seed=10)
    codes = encode_dataset(ds, cb)
    table = build_distance_table(rng.normal(size=6), cb)
    batch = pq_distance_batch(table, codes)
    for i in range(20):
        assert batch[i] == pytest.approx(pq_distance(table, codes[i]), rel=1e-12)


def test_mean_reconstruction_error_non_increasing_in_c():
    # frozen instance: larger codebooks reconstruct this training set no worse
    pts = np.random.default_rng(62).normal(size=(64, 4)).astype(np.float32)
    ds = _ds(pts)
    errs = []
    for c in (2, 4, 8, 16, 32):
        cb = train(ds, m=1, c=c, seed=11)
        codes = encode_dataset(ds, cb)
        errs.append(
            float(np.mean([l2_distance(decode(codes[i], cb), pts[i]) for i in range(64)]))
        )
    assert all(errs[i + 1] <= errs[i] + 1e-9 for i in range(len(errs) - 1))


def test_default_subspace_count():
    assert default_subspace_count(16) == 2
    assert default_subspace_count(128) == 16
    assert default_subspace_count(7) == 1  # no divisor below 7/8 except 1
    assert default_subspace_count(300) == 30  # 300/8=37 floored to divisor 30


def test_encode_dimension_mismatch():
    pts = np.random.default_rng(63).normal(size=(10, 4)).astype(np.float32)
    cb = train(_ds(pts), m=2, c=4, seed=12)
    with pytest.raises(ValueError):
        encode(np.zeros(6), cb)
    with pytest.raises(ValueError):
        build_distance_table(np.zeros(6), cb)


def test_pq_sidecar_round_trip(tmp_path):
    rng = np.random.default_rng(64)
    pts = rng.normal(size=(30, 8)).astype(np.float32)
    ds = _ds(pts)
    cb = train(ds, m=2, c=16, seed=13)
    codes = encode_dataset(ds, cb)
    path = tmp_path / "pq.bin"
    save_pq(path, cb, codes)
    cb2, codes2 = load_pq(path)
    assert np.array_equal(cb2.centroids, cb.centroids)
    assert np.array_equal(codes2, codes)


def test_pq_sidecar_with_code_outside_codebook_is_a_format_error(tmp_path):
    pts = np.random.default_rng(65).normal(size=(30, 8)).astype(np.float32)
    cb = train(_ds(pts), m=2, c=16, seed=13)
    codes = encode_dataset(_ds(pts), cb)
    path = tmp_path / "pq.bin"
    for bad in (16, 255):
        codes[7, 1] = bad
        save_pq(path, cb, codes)
        with pytest.raises(FormatError, match="code"):
            load_pq(path)
    codes[7, 1] = 15  # the last centroid is in range
    save_pq(path, cb, codes)
    assert np.array_equal(load_pq(path)[1], codes)


@pytest.fixture(scope="module")
def custom_pq(tmp_path_factory):
    """The PQ sidecar of a ten-node index."""
    root = tmp_path_factory.mktemp("custom_pq")
    vectors = np.random.default_rng(17).normal(size=(10, 4))
    adjacency = [[(i + 1) % 10] for i in range(10)]
    codebook, codes = write_custom_index(root, vectors, adjacency, entry=4, R=3)[4:]
    save_pq(root / "pq.bin", codebook, codes)
    return root / "pq.bin"


@given(data=st.data())
def test_corrupt_pq_sidecar_is_a_format_error_or_in_range(custom_pq, data):
    fuzzed = custom_pq.with_name("fuzzed_pq.bin")
    fuzzed.write_bytes(mutate(data, bytearray(custom_pq.read_bytes()), _PQ_HEADER.size))
    try:
        codebook, codes = load_pq(fuzzed)
    except FormatError:
        return
    assert codebook.centroids.shape == (codebook.m, codebook.c, codebook.sub_dim)
    assert codes.shape[1] == codebook.m
    assert int(codes.max(initial=0)) < codebook.c
