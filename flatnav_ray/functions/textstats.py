"""Text analysis kernels for training-data pipelines: quality scoring,
language ID, token stats, document fingerprinting.

These extend the engine beyond the reference's operator set (the reference's
payload is opaque vectors; its only scalar kernels are distances —
SURVEY.md §2.8). All kernels are vectorized (pyarrow.compute / numpy) batch
functions intended for `map_batches(batch_format="pyarrow")`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .hashes import splitmix64, stable_hash64
from .tokenize import explode_tokens

# 25 common-word profiles per language for the n-gram/stopword language-ID
# heuristic. Deliberately tiny + deterministic (no model downloads).
_LANG_PROFILES: dict[str, set[str]] = {
    "en": set("the of and to a in is it you that he was for on are with as i his they".split()),
    "de": set("der die und in den von zu das mit sich des auf für ist im dem nicht ein".split()),
    "fr": set("le de un être et à il avoir ne je son que se qui ce dans en du elle".split()),
    "es": set("el la de que y a en un ser se no haber por con su para como estar".split()),
    "zh": set("的 一 是 在 不 了 有 和 人 这 中 大 为 上 个 国 我 以 要 他".split()),
}

STOPWORDS_EN = _LANG_PROFILES["en"]

# Token-counting patterns (RE2 on both engines — pyarrow's
# count_substring_regex and DuckDB's regexp_extract_all count identical
# non-overlapping leftmost matches, so the SQL oracle is exact):
#   WS_TOKEN_RE  — whitespace tokenization (runs of non-space)
#   BPE_TOKEN_RE — a BPE-ish pre-tokenizer split in the GPT-2 style
#     (contractions | letter runs | digit runs | punctuation runs), without
#     RE2-unsupported lookaheads. Counts approximate subword-tokenizer input
#     segments for length budgeting in training-data pipelines.
WS_TOKEN_RE = r"\S+"
BPE_TOKEN_RE = r"(?:'s|'t|'re|'ve|'m|'ll|'d)|[a-zA-Z]+|[0-9]+|[^a-zA-Z0-9\s]+"


def token_counts(
    batch: pa.Table, id_col: str = "doc_id", text_col: str = "text"
) -> pa.Table:
    """Per-doc token counts: whitespace tokens and BPE-ish pre-tokenizer
    segments. One vectorized RE2 scan per pattern (no Python per-row loop)."""
    texts = batch.column(text_col)
    return pa.table(
        {
            id_col: batch.column(id_col),
            "n_ws_tokens": pc.cast(
                pc.count_substring_regex(texts, WS_TOKEN_RE), pa.int64()
            ),
            "n_bpe_tokens": pc.cast(
                pc.count_substring_regex(texts, BPE_TOKEN_RE), pa.int64()
            ),
        }
    )


def quality_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-doc quality signals: n_chars, n_tokens, avg_token_len,
    stopword_ratio, digit_ratio, upper_ratio. Appends columns to the batch."""
    texts = batch.column(text_col)
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    n_chars = pc.utf8_length(texts).to_numpy(zero_copy_only=False).astype(np.int64)

    parents, toks = explode_tokens(texts)
    n_tokens = np.zeros(n, dtype=np.int64)
    np.add.at(n_tokens, parents, 1)
    tok_lens = pc.utf8_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    sum_tok_len = np.zeros(n, dtype=np.int64)
    np.add.at(sum_tok_len, parents, tok_lens)
    avg_token_len = np.where(n_tokens > 0, sum_tok_len / np.maximum(n_tokens, 1), 0.0)

    is_stop = pc.is_in(toks, value_set=pa.array(sorted(STOPWORDS_EN))).to_numpy(
        zero_copy_only=False
    )
    n_stop = np.zeros(n, dtype=np.int64)
    np.add.at(n_stop, parents, is_stop.astype(np.int64))
    stopword_ratio = np.where(n_tokens > 0, n_stop / np.maximum(n_tokens, 1), 0.0)

    # digit ratio over characters (vectorized via regex count)
    n_digit = pc.count_substring_regex(texts, "[0-9]").to_numpy(zero_copy_only=False)
    n_upper = pc.count_substring_regex(texts, "[A-Z]").to_numpy(zero_copy_only=False)
    digit_ratio = np.where(n_chars > 0, n_digit / np.maximum(n_chars, 1), 0.0)
    upper_ratio = np.where(n_chars > 0, n_upper / np.maximum(n_chars, 1), 0.0)

    out = batch
    for name, arr, typ in [
        ("n_chars_calc", n_chars, pa.int64()),
        ("n_tokens", n_tokens, pa.int64()),
        ("avg_token_len", avg_token_len, pa.float64()),
        ("stopword_ratio", stopword_ratio, pa.float64()),
        ("digit_ratio", digit_ratio, pa.float64()),
        ("upper_ratio", upper_ratio, pa.float64()),
    ]:
        out = out.append_column(name, pa.array(arr, type=typ))
    return out


def detect_lang(batch: pa.Table, text_col: str = "text", out_col: str = "lang_pred") -> pa.Table:
    """Stopword-profile language ID (n-gram heuristic): argmax over per-lang
    hit counts; 'und' (undetermined) when nothing matches. Deterministic."""
    texts = batch.column(text_col)
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    parents, toks = explode_tokens(texts)
    langs = sorted(_LANG_PROFILES)
    scores = np.zeros((n, len(langs)), dtype=np.int64)
    for li, lang in enumerate(langs):
        hit = pc.is_in(toks, value_set=pa.array(sorted(_LANG_PROFILES[lang]))).to_numpy(
            zero_copy_only=False
        )
        np.add.at(scores[:, li], parents, hit.astype(np.int64))
    best = np.argmax(scores, axis=1)
    has_any = scores.max(axis=1) > 0
    pred = np.where(has_any, np.array(langs, dtype=object)[best], "und")
    return batch.append_column(out_col, pa.array(pred.tolist(), type=pa.string()))


def fingerprint_docs(
    batch: pa.Table,
    text_col: str = "text",
    window: int = 4,
    out_col: str = "fingerprint",
) -> pa.Table:
    """Rolling-hash document fingerprint: hash of token w-shingles combined
    order-invariantly (xor) into one stable uint63 per doc — near-identical
    token streams share it; any token change flips it."""
    texts = batch.column(text_col)
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    parents, toks = explode_tokens(texts)
    th = stable_hash64(toks)
    fp = np.zeros(n, dtype=np.uint64)
    if th.size:
        # rolling combine: shingle hash = mix of w consecutive token hashes
        sh = th.copy()
        for off in range(1, window):
            nxt = np.zeros_like(th)
            nxt[:-off] = th[off:]
            same_doc = np.zeros(th.size, dtype=bool)
            if th.size > off:
                same_doc[:-off] = parents[off:] == parents[:-off]
            sh = np.where(same_doc, splitmix64(sh) ^ nxt, sh)
        # final mix BEFORE the xor combine: without it, a single changed token
        # contributes the same unmixed delta to `window` overlapping shingles
        # and an even window cancels it out of the xor entirely
        np.bitwise_xor.at(fp, parents, splitmix64(sh))
    fp &= np.uint64((1 << 63) - 1)
    return batch.append_column(out_col, pa.array(fp.astype(np.int64), type=pa.int64()))


def token_shingles(texts: pa.Array | pa.ChunkedArray, n: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """(row_index, shingle_hash) for word n-grams of each text — feeds
    MinHash/LSH and n-gram-Jaccard dedup. Vectorized over the token stream."""
    parents, toks = explode_tokens(texts)
    th = stable_hash64(toks)
    if th.size < n:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64)
    sh = th[: th.size - n + 1].copy()
    ok = np.ones(sh.size, dtype=bool)
    for off in range(1, n):
        # order-sensitive rolling combine: mix THEN xor (mix(s ^ (b+off))
        # collides for swapped adjacent tokens with even hashes — xor with a
        # +1 commutes on even values)
        sh = splitmix64(sh) ^ th[off : off + sh.size]
        ok &= parents[off : off + sh.size] == parents[: sh.size]
    return parents[: sh.size][ok], sh[ok]


def repetition_stats(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher-style repetition signals per doc (Rae et al. 2021, app. A1.1,
    token-level variants): appends

      n_tokens        — analyzed token count (same analyzer as the index)
      dup_token_frac  — (n_tokens - n_distinct_tokens) / n_tokens
      top_bigram_frac — 2 * count(most frequent adjacent token 2-gram)
                         / n_tokens  (0.0 when < 2 tokens)

    Exact integer counts, float64 ratios with the same op association the
    DuckDB oracle uses ((a - b) / a; (2.0 * maxc) / n). Fully vectorized:
    one dictionary-encode of the exploded tokens, np.unique over packed
    (doc, code) / (doc, code, code) keys — no Python loop over rows."""
    texts = batch.column(text_col)
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    parents, toks = explode_tokens(texts)
    n_tokens = np.zeros(n, dtype=np.int64)
    np.add.at(n_tokens, parents, 1)

    dup_frac = np.zeros(n, dtype=np.float64)
    top_bg = np.zeros(n, dtype=np.float64)
    if parents.size:
        codes = (
            pc.dictionary_encode(toks)
            .indices.to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        v = int(codes.max()) + 1
        n_distinct, maxc = _distinct_and_max_bigram(parents, codes, n, v)
        nz = n_tokens > 0
        dup_frac[nz] = (n_tokens[nz] - n_distinct[nz]) / n_tokens[nz]
        nz2 = n_tokens >= 2
        top_bg[nz2] = (2.0 * maxc[nz2]) / n_tokens[nz2]

    out = batch
    for name, arr, typ in [
        ("n_tokens", n_tokens, pa.int64()),
        ("dup_token_frac", dup_frac, pa.float64()),
        ("top_bigram_frac", top_bg, pa.float64()),
    ]:
        out = out.append_column(name, pa.array(arr, type=typ))
    return out


def _distinct_and_max_bigram(
    parents: np.ndarray, codes: np.ndarray, n: int, v: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc distinct-token counts and max adjacent-bigram counts from the
    exploded (parents, dictionary codes) representation — shared by
    repetition_stats and gopher_keep. Packed np.unique when n*v^2 fits in
    int64, lexsort-group otherwise (no overflow)."""
    n_distinct = np.zeros(n, dtype=np.int64)
    maxc = np.zeros(n, dtype=np.int64)
    if not parents.size:
        return n_distinct, maxc
    uniq_parents = np.unique(parents * v + codes) // v
    np.add.at(n_distinct, uniq_parents, 1)
    same = parents[1:] == parents[:-1]
    if same.any():
        bp = parents[:-1][same]
        if v < (1 << 31) and v * v * int(n) < (1 << 62):
            packed = bp * (v * v) + codes[:-1][same] * v + codes[1:][same]
            u, cnt = np.unique(packed, return_counts=True)
            np.maximum.at(maxc, u // (v * v), cnt)
        else:
            order = np.lexsort((codes[1:][same], codes[:-1][same], bp))
            sb = bp[order]
            k1, k2 = codes[:-1][same][order], codes[1:][same][order]
            newgrp = np.r_[
                True,
                (sb[1:] != sb[:-1]) | (k1[1:] != k1[:-1]) | (k2[1:] != k2[:-1]),
            ]
            starts = np.flatnonzero(newgrp)
            cnt = np.diff(np.r_[starts, sb.size])
            np.maximum.at(maxc, sb[starts], cnt)
    return n_distinct, maxc


# PII patterns (RE2-safe: no lookaround; identical non-overlapping leftmost
# semantics in pyarrow's count_substring_regex and DuckDB's regexp_extract_all)
PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE_RE = r"\+?[0-9]{1,3}[-. ]?\(?[0-9]{3}\)?[-. ][0-9]{3}[-. ][0-9]{4}"
PII_IPV4_RE = r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b"


def pii_scan(batch: pa.Table, id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """Per-doc PII signal counts (email / phone / IPv4) — the detection pass
    of a redaction pipeline (C4/RefinedWeb-style PII scrubbing). One
    vectorized RE2 scan per pattern; `pii_redact` applies the replacement."""
    texts = batch.column(text_col)
    return pa.table(
        {
            id_col: batch.column(id_col),
            "n_emails": pc.cast(pc.count_substring_regex(texts, PII_EMAIL_RE), pa.int64()),
            "n_phones": pc.cast(pc.count_substring_regex(texts, PII_PHONE_RE), pa.int64()),
            "n_ipv4": pc.cast(pc.count_substring_regex(texts, PII_IPV4_RE), pa.int64()),
        }
    )


def pii_redact(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Replace every PII match with a typed placeholder token (vectorized
    replace_substring_regex, email -> phone -> ipv4 order)."""
    texts = batch.column(text_col)
    for pat, repl in (
        (PII_EMAIL_RE, "<EMAIL>"),
        (PII_PHONE_RE, "<PHONE>"),
        (PII_IPV4_RE, "<IP>"),
    ):
        texts = pc.replace_substring_regex(texts, pat, repl)
    i = batch.schema.get_field_index(text_col)
    return batch.set_column(i, text_col, texts)


def char_pair_counts(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-batch adjacent-character pair counts WITHIN analyzer tokens,
    weighted by occurrence (not distinct words) — the statistic the first
    BPE merge iteration maximises (Sennrich et al. 2016). Vectorized: one
    byte view over the exploded token buffer, pairs packed into uint16,
    boundary-crossing pairs masked out, one np.unique. Tokens are ASCII
    ([a-z0-9]+) by analyzer construction."""
    _, toks = explode_tokens(batch.column(text_col))
    if len(toks) == 0:
        return pa.table(
            {
                "pair": pa.array([], type=pa.string()),
                "cnt": pa.array([], type=pa.int64()),
            }
        )
    arr = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
        arr.offset : arr.offset + len(arr) + 1
    ]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)[offs[0] : offs[-1]]
    offs = offs - offs[0]
    if data.size < 2:
        return pa.table(
            {"pair": pa.array([], type=pa.string()), "cnt": pa.array([], type=pa.int64())}
        )
    packed = data[:-1].astype(np.uint16) * np.uint16(256) + data[1:]
    # mask pairs that straddle a token boundary (positions offs[i]-1)
    ok = np.ones(packed.size, dtype=bool)
    ends = offs[1:-1] - 1  # last char index of every token but the final one
    ok[ends[(ends >= 0) & (ends < packed.size)]] = False
    u, c = np.unique(packed[ok], return_counts=True)
    pairs = [chr(int(p) >> 8) + chr(int(p) & 0xFF) for p in u]
    return pa.table(
        {
            "pair": pa.array(pairs, type=pa.string()),
            "cnt": pa.array(c.astype(np.int64), type=pa.int64()),
        }
    )


def gopher_keep(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Composite Gopher-style quality gate (Rae et al. 2021 A1.1, adapted
    thresholds for this corpus's signal ranges): per doc, the integer
    signals and a boolean keep decision. ALL rules are integer-exact
    (ratio thresholds cross-multiplied), so the SQL oracle replicates the
    decision bit-for-bit with no float arithmetic anywhere:

      R1  20 <= n_tokens <= 90              (word-count bounds)
      R2  3 <= mean token len <= 5          (3n <= sum_len AND sum_len <= 5n)
      R3  dup_token_frac <= 0.6             (5 (n - n_distinct) <= 3 n)
      R4  top_bigram_frac <= 0.12           (50 max_bigram_c <= 3 n)
      R5  n_stop >= 1                       (STOPWORDS_EN membership)

    One exploded-token pass; distinct / bigram counts via the same packed
    np.unique machinery as repetition_stats. Returns (doc_id, n_tokens,
    n_distinct, sum_tok_len, max_bigram_c, n_stop, keep)."""
    texts = batch.column(text_col)
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    parents, toks = explode_tokens(texts)
    n_tokens = np.zeros(n, dtype=np.int64)
    np.add.at(n_tokens, parents, 1)
    sum_len = np.zeros(n, dtype=np.int64)
    n_distinct = np.zeros(n, dtype=np.int64)
    n_stop = np.zeros(n, dtype=np.int64)
    maxc = np.zeros(n, dtype=np.int64)
    if parents.size:
        tok_lens = pc.utf8_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        np.add.at(sum_len, parents, tok_lens)
        is_stop = pc.is_in(toks, value_set=pa.array(sorted(STOPWORDS_EN))).to_numpy(
            zero_copy_only=False
        )
        np.add.at(n_stop, parents, is_stop.astype(np.int64))
        codes = (
            pc.dictionary_encode(toks)
            .indices.to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        v = int(codes.max()) + 1
        n_distinct, maxc = _distinct_and_max_bigram(parents, codes, n, v)
    keep = (
        (n_tokens >= 20)
        & (n_tokens <= 90)
        & (3 * n_tokens <= sum_len)
        & (sum_len <= 5 * n_tokens)
        & (5 * (n_tokens - n_distinct) <= 3 * n_tokens)
        & (50 * maxc <= 3 * n_tokens)
        & (n_stop >= 1)
    )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tokens, type=pa.int64()),
            "n_distinct": pa.array(n_distinct, type=pa.int64()),
            "sum_tok_len": pa.array(sum_len, type=pa.int64()),
            "max_bigram_c": pa.array(maxc, type=pa.int64()),
            "n_stop": pa.array(n_stop, type=pa.int64()),
            "keep": pa.array(keep, type=pa.bool_()),
        }
    )


class Percolator:
    """Reverse search (the Lucene/ES percolator): a SMALL set of stored
    queries matched against a STREAM of documents — the stored queries
    compile once in __init__, then each call matches one document batch.

    A document matches a stored query iff it contains EVERY distinct query
    term (conjunctive percolation — BooleanQuery MUST semantics). Matching
    is fully vectorized: the union vocabulary of all stored queries is
    mapped to bit positions; each doc folds its tokens into a per-doc
    bitmask (np.bitwise_or.at over uint64 words) and a query matches when
    doc_mask & query_mask == query_mask. O(tokens + docs × words), no
    per-row Python.

    Emits (doc_id, query_id) pairs sorted within the batch."""

    def __init__(self, queries: list[tuple[int, list[str]]]):
        vocab: dict[str, int] = {}
        self._qids: list[int] = []
        qterms: list[list[int]] = []
        for qid, terms in queries:
            idxs = []
            for t in sorted(set(terms)):
                if t not in vocab:
                    vocab[t] = len(vocab)
                idxs.append(vocab[t])
            self._qids.append(int(qid))
            qterms.append(idxs)
        self._vocab_arr = pa.array(sorted(vocab, key=vocab.get), type=pa.string())
        self._n_words = max(1, (len(vocab) + 63) // 64)
        self._qmasks = np.zeros((len(queries), self._n_words), dtype=np.uint64)
        for qi, idxs in enumerate(qterms):
            for ix in idxs:
                self._qmasks[qi, ix // 64] |= np.uint64(1) << np.uint64(ix % 64)
        # a stored query with no terms matches nothing (mask 0 would match all)
        self._nonempty = self._qmasks.any(axis=1)

    def __call__(self, batch: pa.Table, id_col: str = "doc_id",
                 text_col: str = "text") -> pa.Table:
        texts = batch.column(text_col)
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        n = len(texts)
        parents, toks = explode_tokens(texts)
        masks = np.zeros((n, self._n_words), dtype=np.uint64)
        if parents.size:
            hit = pc.index_in(toks, value_set=self._vocab_arr)
            ok = pc.is_valid(hit).to_numpy(zero_copy_only=False)
            idx_ok = (
                pc.filter(hit, pa.array(ok))
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            par_ok = parents[ok]
            bits = (np.uint64(1) << (idx_ok % 64).astype(np.uint64))
            np.bitwise_or.at(masks, (par_ok, (idx_ok // 64)), bits)
        # doc x query conjunctive containment: AND over words
        m = (masks[:, None, :] & self._qmasks[None, :, :]) == self._qmasks[None, :, :]
        match = m.all(axis=2) & self._nonempty[None, :]
        di, qi = np.nonzero(match)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        qids = np.asarray(self._qids, dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids[di], type=pa.int64()),
                "query_id": pa.array(qids[qi], type=pa.int64()),
            }
        )
