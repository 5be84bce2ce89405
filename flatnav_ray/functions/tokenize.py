"""Tokenizer / normalizer — the analog of the reference's ingest transform +
dataset normalization (/root/reference/include/flatnav/distances/DistanceInterface.h:45-52
`transformData`; `--normalize` in /root/reference/experiments/README.md:223).

Canonical analyzer (versioned; rank-identity depends on it):
    lower-case -> split on runs of [^a-z0-9] -> drop empty tokens.

The regex `TOKEN_SPLIT_REGEX` is the SPEC, shared with the DuckDB oracle:
    list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'), x -> x <> '')
is what the oracle SQL in __ray_entry__.py uses, and `tokenize_py` is its
scalar Python form (the query side). Parity with the SQL is checked by
the result hashes of the SQL-checked entries of __ray_entry__.py.

The batch kernel `explode_tokens` does not run the regex. After Arrow's
`utf8_lower`, it classifies every lowered UTF-8 byte as in `[a-z0-9]` or
not: a token is a maximal run of class bytes inside one row.
Every byte of a non-ASCII code point is >= 0x80, so it is a separator
exactly as the code point is under `[^a-z0-9]+`; the two kernels agree on
every input (tests/test_kernels.py keeps Arrow's regex split as the oracle).
All kernels are Arrow/numpy-native and operate on whole batches — no
per-row Python in the hot path.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

TOKEN_SPLIT_REGEX = "[^a-z0-9]+"
_PY_SPLIT = re.compile(TOKEN_SPLIT_REGEX)

ANALYZER_VERSION = "v1-lower-alnum"


def tokenize_py(text: str) -> list[str]:
    """Scalar reference tokenizer (oracle for the vectorized kernel)."""
    return [t for t in _PY_SPLIT.split(text.lower()) if t]


def explode_tokens(texts: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, pa.Array]:
    """Vectorized tokenize+explode: texts -> (row_index per token, token).

    Returns (parents int64 ndarray, flat tokens StringArray — LargeStringArray
    for large_string input), empties removed, tokens in row then text order.
    Null rows yield no tokens. The byte-class kernel of the module docstring:
    one class pass over the lowered bytes, run edges, runs cut where they
    cross a row boundary, one compaction of the token bytes.
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    low = pc.utf8_lower(texts)
    if low.null_count:
        low = low.fill_null("")
    large = pa.types.is_large_string(low.type)
    n = len(low)
    offs = np.frombuffer(low.buffers()[1], dtype=np.int64 if large else np.int32)[
        low.offset: low.offset + n + 1
    ].astype(np.int64)
    lo = int(offs[0]) if n else 0
    data = low.buffers()[2]
    raw = np.frombuffer(data, dtype=np.uint8) if data is not None else np.empty(0, np.uint8)
    raw = raw[lo: int(offs[-1]) if n else 0]
    # the byte class [a-z0-9] as two unsigned range tests (a 256-entry table
    # gather gives the same mask ~4x slower)
    tok = (raw - np.uint8(ord("a")) < 26) | (raw - np.uint8(ord("0")) < 10)
    # run edges: a byte whose class differs from its predecessor's, the
    # buffer's ends counting as separators; runs alternate start, end
    edge = np.zeros(tok.size + 1, dtype=bool)
    if tok.size:
        edge[0], edge[-1] = tok[0], tok[-1]
        np.not_equal(tok[1:], tok[:-1], out=edge[1:-1])
    run = np.flatnonzero(edge)
    starts, ends = run[0::2], run[1::2]
    # a run that crosses a row boundary is one token on each side: cut it
    cut = offs[1:-1] - lo
    cut = cut[(cut > 0) & (cut < tok.size)]
    cut = np.unique(cut[tok[cut - 1] & tok[cut]])
    if cut.size:
        starts = np.insert(starts, np.searchsorted(starts, cut), cut)
        ends = np.insert(ends, np.searchsorted(ends, cut), cut)
    counts = np.diff(np.searchsorted(starts, offs - lo))
    parents = np.repeat(np.arange(n, dtype=np.int64), counts)
    out_offs = np.zeros(starts.size + 1, dtype=np.int64 if large else np.int32)
    np.cumsum(ends - starts, out=out_offs[1:])
    # every class byte belongs to exactly one token: the compacted values
    # are the class bytes in order
    values = raw[tok]
    arr_t = pa.LargeStringArray if large else pa.StringArray
    flat = arr_t.from_buffers(starts.size, pa.py_buffer(out_offs), pa.py_buffer(values))
    return parents, flat


def token_positions(
    texts: pa.Array | pa.ChunkedArray,
) -> tuple[np.ndarray, pa.Array, np.ndarray]:
    """Vectorized tokenize+explode WITH token positions:
    texts -> (row_index per token, token, position-within-row per token).

    Position = index in the row's post-filter token sequence (0-based) — the
    coordinate system of phrase adjacency (`positions.py` sidecar). Same
    analyzer as explode_tokens; positions are what DuckDB's
    array_to_string-join adjacency check observes.
    """
    parents, flat = explode_tokens(texts)
    if parents.size == 0:
        return parents, flat, np.empty(0, dtype=np.int64)
    # parents are non-decreasing (tokens come in row order): position =
    # global token index minus the first global index of the parent row
    starts = np.empty(parents.size, dtype=bool)
    starts[0] = True
    starts[1:] = parents[1:] != parents[:-1]
    first_idx = np.maximum.accumulate(
        np.where(starts, np.arange(parents.size, dtype=np.int64), np.int64(0))
    )
    pos = np.arange(parents.size, dtype=np.int64) - first_idx
    return parents, flat, pos


def strip_stopwords(
    texts: pa.Array | pa.ChunkedArray, stopwords: frozenset[str] | set[str]
) -> pa.Array:
    """Analyzer variant as a text pre-filter: tokenize, drop stopwords,
    re-join with single spaces. Composing this ahead of the standard build
    is EXACTLY a stopword analyzer (same tf/df/doc_len as filtering inside
    the tokenizer), expressed as an ordinary map stage — and exactly
    mirrorable in SQL (list_filter ... NOT list_contains). Vectorized:
    explode -> is_in mask -> rebuilt ListArray -> binary_join."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    parents, flat = explode_tokens(texts)
    keep = pc.invert(pc.is_in(flat, value_set=pa.array(sorted(stopwords))))
    keep_np = keep.to_numpy(zero_copy_only=False)
    kept = flat.filter(keep)
    counts = np.bincount(parents[keep_np], minlength=n)
    offs = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=offs[1:])
    lists = pa.ListArray.from_arrays(pa.array(offs), kept.combine_chunks() if isinstance(kept, pa.ChunkedArray) else kept)
    return pc.binary_join(lists, " ")


def union_vocab(terms: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """The sorted distinct terms of `terms` and each entry's int64 code in
    that vocabulary: one hash pass (dictionary_encode) and a sort of the
    distinct terms only. The batch dictionary of `term_frequencies_encoded`
    is built here, and every merge (build, fold, positions sidecar) unions
    its inputs' term dictionaries here, so term strings never enter a
    posting sort."""
    enc = pc.dictionary_encode(terms)
    order = pc.sort_indices(enc.dictionary).to_numpy(zero_copy_only=False)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)
    codes = rank[enc.indices.to_numpy(zero_copy_only=False)]
    return enc.dictionary.take(pa.array(order)), codes


def term_frequencies_encoded(
    texts: pa.Array | pa.ChunkedArray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, pa.Array]:
    """Batch kernel: texts -> dictionary-encoded (code, row, tf) postings.

    ONE string-hash pass plus a sort of the distinct terms (`union_vocab`):
    the dictionary is LEXICOGRAPHICALLY sorted, so a code is its term's rank.
    The (term, doc) grouping is a single integer np.unique over packed keys
    — ~3x cheaper than a hash group-by on token strings — and callers that
    want per-partition dictionaries (the two-phase build map side) slice
    the codes directly: a partition's distinct codes in ascending order ARE
    its terms in lexicographic order, with no second encode or string sort.

    Returns (codes int64, row_idx int64, tf int64, dictionary StringArray),
    sorted by (code, row_idx), i.e. by (term, row). Empty texts yield no rows.
    """
    parents, terms = explode_tokens(texts)
    if len(terms) == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e, e, pa.array([], type=pa.string())
    dictionary, codes = union_vocab(terms)
    n_rows = np.int64(len(texts))
    uk, tf = np.unique(codes * n_rows + parents, return_counts=True)
    return uk // n_rows, uk % n_rows, tf.astype(np.int64), dictionary


def term_frequencies(
    doc_ids: np.ndarray, texts: pa.Array | pa.ChunkedArray
) -> pa.Table:
    """Batch kernel: (doc_id, text) rows -> exploded (term, doc_id, tf) postings.

    The flat-postings producer feeding the index build (SURVEY.md §2.2 M4).
    Built on the encoded kernel; rows come out sorted by (term, row index)
    — the lexicographic batch dictionary's order (callers aggregate or sort
    downstream — none depend on this order).
    """
    codes, rows, tf, d = term_frequencies_encoded(texts)
    if codes.size == 0:
        return pa.table(
            {
                "term": pa.array([], type=pa.string()),
                "doc_id": pa.array([], type=pa.int64()),
                "tf": pa.array([], type=pa.int64()),
            }
        )
    return pa.table(
        {
            "term": d.take(pa.array(codes)),
            "doc_id": pa.array(np.asarray(doc_ids, dtype=np.int64)[rows], type=pa.int64()),
            "tf": pa.array(tf, type=pa.int64()),
        }
    )
