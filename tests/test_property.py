"""Property-based tests (hypothesis) for the pure kernels the whole engine
rests on: the varint/delta posting codec, the tokenizer batch/scalar parity,
the hash spec equivalence, and bounded top-k selection. No Ray needed."""

import functools

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from flatnav_ray.functions.bm25 import K1_DEFAULT, bm25_term_scores, idf, topk_select
from flatnav_ray.functions.codec import (
    binary_views,
    decode_postings,
    decode_postings_rows,
    decode_varint,
    encode_postings,
    encode_segment_table,
    encode_varint,
)
from flatnav_ray.functions.hashes import hash64_str, splitmix64, stable_hash64
from flatnav_ray.functions.tokenize import explode_tokens, term_frequencies_encoded, tokenize_py


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**62 - 1), max_size=300))
def test_varint_roundtrip(vals):
    arr = np.asarray(vals, dtype=np.int64)
    assert np.array_equal(decode_varint(encode_varint(arr)), arr)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=2**40), min_size=1, max_size=500, unique=True
    ),
    st.data(),
    st.sampled_from([4, 32, 128]),
)
def test_postings_roundtrip_any_block_size(ids, data, block_size):
    doc_ids = np.sort(np.asarray(ids, dtype=np.int64))
    tfs = np.asarray(
        data.draw(
            st.lists(
                st.integers(min_value=1, max_value=1000),
                min_size=len(ids), max_size=len(ids),
            )
        ),
        dtype=np.int64,
    )
    enc = encode_postings(doc_ids, tfs, block_size=block_size)
    assert enc.df == doc_ids.size
    pos, tf = decode_postings(enc.doc_blob, enc.tf_blob, block_size=block_size)
    assert np.array_equal(pos, doc_ids)
    assert np.array_equal(tf, tfs)
    # block metadata invariants
    assert enc.block_last_doc[-1] == doc_ids[-1]
    assert np.all(np.diff(enc.block_last_doc) > 0)


def _segment(dfs, block_size, seed):
    """encode_segment_table over random postings with the given per-term
    dfs (positions < 2**20, tfs up to 300: 1- to 3-byte varints)."""
    rng = np.random.default_rng(seed)
    docs = [np.sort(rng.choice(1 << 20, size=d, replace=False)) for d in dfs]
    p_docs = np.concatenate(docs).astype(np.int64)
    p_terms = np.repeat(np.arange(len(dfs), dtype=np.int64), dfs)
    p_tfs = rng.integers(1, 300, p_docs.size).astype(np.int64)
    cols, _, _ = encode_segment_table(p_terms, p_docs, p_tfs, block_size)
    return cols


def _check_rows_decode(cols, rows, block_size):
    """decode_postings_rows over `rows` == decode_postings row by row."""
    dfs = cols["df"].to_numpy().astype(np.int64)
    (doc_offs, doc_vals), (tf_offs, tf_vals) = (
        binary_views(cols["doc_blob"]), binary_views(cols["tf_blob"]),
    )
    row_of, pos, tfs = decode_postings_rows(
        dfs, doc_offs, doc_vals, tf_offs, tf_vals,
        np.asarray(rows, dtype=np.int64), block_size,
    )
    assert row_of.size == pos.size == tfs.size == int(dfs[list(rows)].sum())
    assert np.all(np.diff(row_of) >= 0)
    for j, r in enumerate(rows):
        want_pos, want_tf = decode_postings(
            cols["doc_blob"][r].as_py(), cols["tf_blob"][r].as_py(), block_size=block_size,
        )
        assert np.array_equal(pos[row_of == j], want_pos)
        assert np.array_equal(tfs[row_of == j], want_tf)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([4, 32, 128]), st.data())
def test_rows_decode_equals_per_row_decode(block_size, data):
    # list widths at the block boundaries (1, block_size, block_size + 1)
    # mixed with arbitrary ones; any subset of rows, in any order
    df = st.sampled_from([1, block_size, block_size + 1]) | st.integers(1, 3 * block_size + 1)
    dfs = data.draw(st.lists(df, min_size=1, max_size=12))
    rows = data.draw(st.permutations(range(len(dfs))).flatmap(
        lambda p: st.integers(0, len(p)).map(lambda n: p[:n])
    ))
    _check_rows_decode(_segment(dfs, block_size, seed=len(dfs)), rows, block_size)


@functools.lru_cache(maxsize=1)
def _long_segment():
    # a list longer than 65,536 postings (the 2-byte code width) beside
    # lists of 1, block_size and block_size + 1
    return _segment([1, 128, 129, 70_000, 5], 128, seed=7)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 4), unique=True))
def test_rows_decode_across_a_long_list(rows):
    _check_rows_decode(_long_segment(), rows, 128)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([4, 32, 128]), st.data())
def test_multi_segment_rows_decode_equals_each_segments_own(block_size, data):
    # several segments of one block size (one may hold a 70,000-posting
    # list); each "term" sits at a random row of a random subset of them,
    # possibly none; the (segment, row) pairs decode term-major in one pass
    df = st.sampled_from([1, block_size, block_size + 1]) | st.integers(1, 3 * block_size + 1)
    n_seg = data.draw(st.integers(1, 5))
    segs = [
        _segment(data.draw(st.lists(df, min_size=1, max_size=6)), block_size, seed=i)
        for i in range(n_seg)
    ]
    if block_size == 128 and data.draw(st.booleans()):
        segs[data.draw(st.integers(0, n_seg - 1))] = _long_segment()
    views = [
        (c["df"].to_numpy().astype(np.int64), *binary_views(c["doc_blob"]),
         *binary_views(c["tf_blob"]))
        for c in segs
    ]
    members, rows = [], []
    for _ in range(data.draw(st.integers(0, 6))):
        for m in sorted(data.draw(st.sets(st.integers(0, n_seg - 1)))):
            members.append(m)
            rows.append(data.draw(st.integers(0, len(views[m][0]) - 1)))
    row_of, pos, tfs = decode_postings_rows(
        *([v[i] for v in views] for i in range(5)),
        np.asarray(rows, dtype=np.int64), block_size, members=np.asarray(members, dtype=np.int64),
    )
    want = [
        decode_postings_rows(*views[m], np.array([r]), block_size)
        for m, r in zip(members, rows)
    ]
    e = np.empty(0, np.int64)
    assert np.array_equal(row_of, np.concatenate(
        [np.full(w[0].size, j) for j, w in enumerate(want)] or [e]))
    assert np.array_equal(pos, np.concatenate([w[1] for w in want] or [e]))
    assert np.array_equal(tfs, np.concatenate([w[2] for w in want] or [e]))
    assert pos.dtype == tfs.dtype == np.int64


def _per_block_decode(ep, mask):
    """Each selected block on its own, through the written block offsets."""
    d_ends = np.append(ep.block_doc_offs[1:], len(ep.doc_blob))
    t_ends = np.append(ep.block_tf_offs[1:], len(ep.tf_blob))
    docs, tfs = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for b in np.flatnonzero(mask):
        deltas = decode_varint(ep.doc_blob[ep.block_doc_offs[b] : d_ends[b]])
        docs.append(np.cumsum(deltas.astype(np.int64)))
        tfs.append(decode_varint(ep.tf_blob[ep.block_tf_offs[b] : t_ends[b]]).astype(np.int64))
    return np.concatenate(docs), np.concatenate(tfs)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 1200), st.sampled_from([4, 32, 128]), st.data())
def test_written_block_offsets_decode_each_block(n, block_size, data):
    # the block lists are still written (an older reader decodes selected
    # blocks through them): each block's byte range holds its block_size
    # postings, its first delta absolute, and its last doc id
    rng = np.random.default_rng(n)
    ids = np.sort(rng.choice(1 << 30, size=n, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 300, n).astype(np.int64)
    ep = encode_postings(ids, tfs, block_size=block_size)
    nb = len(ep.block_last_doc)
    assert np.array_equal(ep.block_last_doc, ids[np.minimum(
        np.arange(1, nb + 1) * block_size, n) - 1])
    first, last = np.zeros(nb, bool), np.zeros(nb, bool)
    first[0] = last[-1] = True  # the last block is partial unless n % block_size == 0
    drawn = np.asarray(data.draw(st.lists(st.booleans(), min_size=nb, max_size=nb)))
    for mask in (np.zeros(nb, bool), np.ones(nb, bool), first, last, drawn):
        idx = np.concatenate([np.arange(b * block_size, min((b + 1) * block_size, n))
                              for b in np.flatnonzero(mask)] or [np.empty(0, np.int64)])
        got = _per_block_decode(ep, mask)
        assert np.array_equal(got[0], ids[idx]) and np.array_equal(got[1], tfs[idx])
    full = decode_postings(ep.doc_blob, ep.tf_blob, block_size=block_size)
    assert np.array_equal(full[0], ids) and np.array_equal(full[1], tfs)
    assert full[0].dtype == full[1].dtype == np.int64


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(max_size=40), max_size=20))
def test_tokenizer_batch_equals_scalar(texts):
    parents, toks = explode_tokens(pa.array(texts, type=pa.string()))
    got: dict[int, list[str]] = {}
    for p, t in zip(parents.tolist(), toks.to_pylist()):
        got.setdefault(p, []).append(t)
    for i, text in enumerate(texts):
        assert got.get(i, []) == tokenize_py(text), text


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet=st.characters(codec="utf-8"), max_size=30), max_size=30))
def test_stable_hash64_matches_scalar_spec(strings):
    vec = stable_hash64(pa.array(strings, type=pa.string()))
    for s, h in zip(strings, vec.tolist()):
        assert np.uint64(h) == np.uint64(hash64_str(s)), repr(s)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=200))
def test_splitmix64_is_a_bijection_sample(xs):
    arr = np.asarray(xs, dtype=np.uint64)
    out = splitmix64(arr)
    # distinct inputs -> distinct outputs (bijectivity spot check)
    assert len(set(out.tolist())) == len(set(arr.tolist()))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=0, max_size=200),
    st.integers(min_value=1, max_value=20),
)
def test_topk_select_matches_lexsort(scores, k):
    sc = np.asarray(scores, dtype=np.float64)
    ids = np.arange(sc.size, dtype=np.int64) * 3 + 1
    docs, ssc = topk_select(sc, ids, k)
    order = np.lexsort((ids, -sc))[: min(k, sc.size)]
    assert np.array_equal(docs, ids[order])
    assert np.array_equal(ssc, sc[order])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(alphabet="abc012 ", max_size=30), max_size=10))
def test_char_pair_counts_match_python(texts):
    from collections import Counter

    from flatnav_ray.functions.textstats import char_pair_counts
    from flatnav_ray.functions.tokenize import tokenize_py

    batch = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        }
    )
    out = char_pair_counts(batch)
    got = dict(zip(out.column("pair").to_pylist(), out.column("cnt").to_pylist()))
    want: Counter = Counter()
    for t in texts:
        for w in tokenize_py(t):
            for i in range(len(w) - 1):
                want[w[i : i + 2]] += 1
    assert got == dict(want)


I32_MAX = 2**31 - 1


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, I32_MAX),
    st.integers(0, I32_MAX),
    st.floats(min_value=1.0, max_value=I32_MAX),
    st.integers(1, I32_MAX),
    st.data(),
)
def test_bm25_tf_saturation(tf, doc_len, avgdl, n_docs, data):
    """At a fixed doc length the BM25 term score is finite, positive,
    non-decreasing in tf and strictly below its saturation ceiling
    idf * (k1 + 1), for tf and doc_len up to the int32 columns' maximum.
    Near-neighbour tfs: k1 * (1 - b) = 0.3 bounds the tf-independent part
    of the denominator from below, so the true step between tf and tf + 1
    is above float64 rounding (a few ulps of the score) only while
    tf < ~2**24; above that, rounding may order neighbours the wrong way
    (measured from tf ~ 36.4M on: by up to 3 ulps), so there the check
    allows 8 ulps."""
    df = data.draw(st.integers(1, n_docs))
    tfs = np.unique(np.asarray(
        [max(1, tf - j) for j in range(8)]
        + data.draw(st.lists(st.integers(1, I32_MAX), max_size=8)),
        dtype=np.int64,
    ))
    s = bm25_term_scores(tfs, np.full(tfs.size, doc_len, np.int64), df, n_docs, avgdl)
    w = idf(df, n_docs)
    assert np.isfinite(s).all() and (s > 0).all()
    assert (s < w * (K1_DEFAULT + 1.0)).all()
    step = np.diff(s)
    exact = tfs[1:] < 2**24
    assert (step[exact] >= 0).all()
    assert (step[~exact] >= -8 * np.spacing(s[1:][~exact])).all()


_BLANK = st.text(alphabet=" \t\n.,;:!?-()'\"/_#@", max_size=12)
_WORDS = st.text(alphabet="abcxyz019 .,", max_size=40)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(""), _BLANK, _WORDS, st.text(max_size=40)), max_size=20))
def test_term_frequencies_skip_empty_docs(texts):
    """Empty and whitespace/punctuation-only texts give no postings in a
    batch that mixes them with normal texts; every other row's (term, tf)
    equals the scalar tokenizer's counts."""
    from collections import Counter

    codes, rows, tfs, dictionary = term_frequencies_encoded(pa.array(texts, type=pa.string()))
    terms = dictionary.to_pylist()
    got: dict[int, dict[str, int]] = {}
    for c, r, f in zip(codes.tolist(), rows.tolist(), tfs.tolist()):
        assert terms[c] not in got.setdefault(r, {})
        got[r][terms[c]] = f
    want = {i: dict(Counter(tokenize_py(t))) for i, t in enumerate(texts)}
    assert not {i for i, c in want.items() if not c} & set(got)
    assert got == {i: c for i, c in want.items() if c}
