"""Codec kernel tests — graft of the SIMD-vs-scalar distance tests
(/root/reference/include/flatnav/tests/test_distances.cpp:37-70) and the
FIXTURES.md §5 kernel fixtures."""

import numpy as np
import pytest

from flatnav_ray.functions.codec import (
    decode_postings,
    decode_varint,
    encode_postings,
    encode_varint,
)


def scalar_varint_encode(vals):
    out = bytearray()
    for v in vals:
        v = int(v)
        while True:
            b = v & 0x7F
            v >>= 7
            if v:
                out.append(b | 0x80)
            else:
                out.append(b)
                break
    return bytes(out)


@pytest.mark.parametrize(
    "vals",
    [
        [],
        [0],
        [1],
        [127, 128, 129],
        [2**63 - 1, 0, 2**62],
        list(range(1000)),
    ],
)
def test_varint_round_trip_and_scalar_parity(vals):
    arr = np.array(vals, dtype=np.uint64)
    blob = encode_varint(arr)
    assert blob == scalar_varint_encode(vals)
    assert np.array_equal(decode_varint(blob), arr)


def test_varint_random_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(5):
        vals = rng.integers(0, 2**63, size=2000).astype(np.uint64)
        assert np.array_equal(decode_varint(encode_varint(vals)), vals)


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 1000, 5000])
def test_postings_round_trip(n):
    rng = np.random.default_rng(n)
    ids = np.sort(rng.choice(2**62, size=n, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 100, n).astype(np.int64)
    ep = encode_postings(ids, tfs)
    d, t = decode_postings(ep.doc_blob, ep.tf_blob)
    assert np.array_equal(d, ids)
    assert np.array_equal(t, tfs)
    # block metadata invariants
    nb = (n + 127) // 128
    assert len(ep.block_last_doc) == nb
    assert ep.block_last_doc[-1] == ids[-1]


def test_dense_run_compression():
    """Dense doc_id runs should compress to ~1 byte per posting."""
    ids = np.arange(10_000, dtype=np.int64)
    tfs = np.ones(10_000, dtype=np.int64)
    ep = encode_postings(ids, tfs)
    assert len(ep.doc_blob) < 11_000
