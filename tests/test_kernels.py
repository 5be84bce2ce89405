"""Tokenizer / BM25 / hash / extractor kernel tests (FIXTURES.md §5)."""

import math

import numpy as np
import pyarrow as pa
import pytest

from flatnav_ray.functions.bm25 import bm25_score_py, bm25_term_scores, topk_select
from flatnav_ray.functions.extract import extract_text_bytes
from flatnav_ray.functions.hashes import (
    doc_ids_for_urls,
    hash64_str,
    minhash_signature,
    simhash64,
    stable_hash64,
)
from flatnav_ray.functions.tokenize import (
    doc_token_counts,
    explode_tokens,
    term_frequencies,
    tokenize_py,
)
from flatnav_ray.sources.synth import PagesGenerator


class TestTokenizer:
    def test_vectorized_matches_scalar(self):
        texts = [
            "Hello, World 42!",
            "",
            "the THE the",
            "a-b_c d",
            "ünïcode stäys out",
            "  leading trailing  ",
            "123abc DEF456",
        ]
        arr = pa.array(texts)
        parents, toks = explode_tokens(arr)
        per_row = [[] for _ in texts]
        for p, t in zip(parents, toks.to_pylist()):
            per_row[p].append(t)
        for row, text in zip(per_row, texts):
            assert row == tokenize_py(text), text

    def test_doc_token_counts(self):
        arr = pa.array(["a b c", "", "x"])
        assert doc_token_counts(arr).tolist() == [3, 0, 1]

    def test_term_frequencies(self):
        t = term_frequencies(np.array([1, 2]), pa.array(["a a b", "b"]))
        rows = sorted(
            zip(t.column("term").to_pylist(), t.column("doc_id").to_pylist(), t.column("tf").to_pylist())
        )
        assert rows == [("a", 1, 2), ("b", 1, 1), ("b", 2, 1)]

    def test_term_frequencies_matches_scalar_counter(self):
        # randomized oracle: the integer-keyed kernel == Counter over tokenize_py
        from collections import Counter

        from flatnav_ray.functions.tokenize import tokenize_py

        rng = np.random.default_rng(7)
        vocab = [f"w{i}" for i in range(40)]
        texts = [
            " ".join(rng.choice(vocab, size=rng.integers(0, 30)).tolist())
            + (", punct! " if i % 3 == 0 else "")
            for i in range(200)
        ]
        doc_ids = rng.permutation(200).astype(np.int64)
        t = term_frequencies(doc_ids, pa.array(texts))
        got = sorted(
            zip(t.column("term").to_pylist(), t.column("doc_id").to_pylist(), t.column("tf").to_pylist())
        )
        want = sorted(
            (term, int(doc_ids[i]), tf)
            for i, text in enumerate(texts)
            for term, tf in Counter(tokenize_py(text)).items()
        )
        assert got == want


class TestBm25:
    def test_closed_form_toy_corpus(self):
        # 5-doc toy corpus, hand-computed (FIXTURES.md §5)
        n, avgdl = 5, 10.0
        s = bm25_score_py(tf=3, dl=10, df=2, n_docs=n, avgdl=avgdl)
        w = math.log(1 + (5 - 2 + 0.5) / (2 + 0.5))
        expect = w * (3 * 2.2) / (3 + 1.2 * (1 - 0.75 + 0.75 * 1.0))
        assert abs(s - expect) < 1e-12

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        tfs = rng.integers(1, 50, 200)
        dls = rng.integers(5, 500, 200)
        vec = bm25_term_scores(tfs, dls, df=17, n_docs=1000, avgdl=123.4)
        for i in range(200):
            assert abs(vec[i] - bm25_score_py(int(tfs[i]), int(dls[i]), 17, 1000, 123.4)) < 1e-12

    def test_topk_ties_break_by_doc_id(self):
        scores = np.array([1.0, 2.0, 2.0, 0.5])
        docs = np.array([40, 30, 10, 5])
        d, s = topk_select(scores, docs, 3)
        assert d.tolist() == [10, 30, 40]
        assert s.tolist() == [2.0, 2.0, 1.0]


class TestHashes:
    def test_vectorized_matches_scalar(self):
        strs = ["", "a", "hello world", "https://d0001.example.com/c0/p423", "ü",
                "x" * 7, "x" * 8, "x" * 9, "y" * 1000, "word " * 4000]
        vec = stable_hash64(strs)
        for s, h in zip(strs, vec):
            assert int(h) == hash64_str(s)
        # arrow-array input path (zero-copy) must match the list path
        import pyarrow as pa

        assert stable_hash64(pa.array(strs)).tolist() == vec.tolist()
        assert (
            stable_hash64(pa.array(strs, type=pa.large_string())).tolist() == vec.tolist()
        )
        # sliced array (non-zero offset) uses the right buffer window
        assert stable_hash64(pa.array(strs)[3:]).tolist() == vec[3:].tolist()

    def test_stable_across_calls_and_processes(self):
        strs = [f"https://x{i}.com/p" for i in range(100)]
        a = stable_hash64(strs)
        b = stable_hash64(list(strs))
        assert (a == b).all()
        import subprocess, sys, json

        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, json; sys.path.insert(0, '/root/repo');"
             "from flatnav_ray.functions.hashes import stable_hash64;"
             "print(json.dumps(stable_hash64(['abc','def']).tolist()))"],
            capture_output=True, text=True,
        )
        assert json.loads(out.stdout) == stable_hash64(["abc", "def"]).tolist()

    def test_doc_ids_fit_int63_and_distinct(self):
        urls = [f"https://x.com/{i}" for i in range(5000)]
        ids = doc_ids_for_urls(urls)
        assert (ids < 2**63).all()
        assert len(np.unique(ids)) == 5000

    def test_minhash_similar_docs_share_bands(self):
        rng = np.random.default_rng(0)
        base = rng.integers(0, 2**63, 200).astype(np.uint64)
        near = base.copy()
        near[:10] = rng.integers(0, 2**63, 10).astype(np.uint64)  # 95% overlap
        far = rng.integers(0, 2**63, 200).astype(np.uint64)
        s1, s2, s3 = (minhash_signature(x, 64) for x in (base, near, far))
        assert (s1 == s2).mean() > 0.7
        assert (s1 == s3).mean() < 0.2

    def test_simhash_hamming(self):
        rng = np.random.default_rng(1)
        base = rng.integers(0, 2**63, 300).astype(np.uint64)
        near = base.copy()
        near[:5] = rng.integers(0, 2**63, 5).astype(np.uint64)
        far = rng.integers(0, 2**63, 300).astype(np.uint64)
        h = lambda a, b: bin(a ^ b).count("1")
        assert h(simhash64(base), simhash64(near)) < 10
        assert h(simhash64(base), simhash64(far)) > 20


class TestExtractor:
    def test_round_trip_byte_identical(self):
        """The per-row invariant (BASELINE.json input_hint): extraction of the
        generated html equals the golden text column byte-for-byte."""
        gen = PagesGenerator(seed=11, vocab_size=500, mean_len=40)
        t = gen.chunk(0, 100)
        for h, txt in zip(t.column("html").to_pylist(), t.column("text").to_pylist()):
            assert extract_text_bytes(h) == txt

    def test_strips_boilerplate_and_unescapes(self):
        html = (
            b"<html><head><title>t</title></head><body>"
            b"<nav>skip me</nav><p>a &amp; b &lt;c&gt;</p>"
            b"<script>var x=1</script><h2>head</h2>"
            b"<footer>skip</footer></body></html>"
        )
        assert extract_text_bytes(html) == 'a & b <c>\nhead'


class TestExtractBatchPath:
    def test_memoryview_path_byte_identical_to_scalar(self):
        """The zero-copy batch extractor must equal per-row extract_text_bytes
        on materialized bytes (the spec), including null-html adapter rows."""
        import pyarrow as pa

        from flatnav_ray.functions.extract import extract_text_batch, extract_text_bytes
        from flatnav_ray.sources.synth import pages_table

        pages = pages_table(200, seed=11, vocab_size=500, mean_len=40)
        out = extract_text_batch(pages)
        exp = [extract_text_bytes(h) for h in pages.column("html").to_pylist()]
        assert out.column("text").to_pylist() == exp
        # mixed null/non-null html: nulls keep the carried text
        mixed = pa.table(
            {
                "url": pa.array(["a", "b"]),
                "html": pa.array([pages.column("html")[0].as_py(), None], type=pa.binary()),
                "text": pa.array([None, "carried text"], type=pa.string()),
            }
        )
        got = extract_text_batch(mixed)
        assert got.column("text").to_pylist() == [exp[0], "carried text"]
        # all-null html (pure adapter path)
        alln = pa.table(
            {
                "url": pa.array(["x"]),
                "html": pa.array([None], type=pa.binary()),
                "text": pa.array(["t"], type=pa.string()),
            }
        )
        assert extract_text_batch(alln).column("text").to_pylist() == ["t"]
        # sliced batch (non-zero arrow offset)
        sl = extract_text_batch(pages.slice(50, 20))
        assert sl.column("text").to_pylist() == exp[50:70]

    def test_vectorized_path_fuzz_and_sentinel_fallback(self):
        """The RE2-kernel batch path (capture-free DFA passes) must be
        byte-identical to the scalar spec on adversarial html — unclosed
        tags, multiple bodies, empty docs, entities — and batches containing
        the \x01 sentinel must take the scalar fallback with identical
        output."""
        import random

        import pyarrow as pa

        from flatnav_ray.functions.extract import extract_text_batch, extract_text_bytes

        rng = random.Random(7)
        docs = [
            b"<html><body><p>hello &amp; bye</p><nav>skip<p>no</p></nav><h2>H</h2></body></html>",
            b"<html><p>outside body</p></html>",  # no <body>
            b"<body><p>first</p></body><body><p>second</p></body>",  # two bodies
            b"<body><script>var x = '<p>fake</p>';</script><p>real</p>",  # unclosed body
            b"",
            b"<body><p>a</p><p></p><h6>z &lt;t&gt; &quot;q&quot; &#39;s&#39;</h6></body>",
            "<body><p>unicode é中文</p></body>".encode(),
            b"<body><p>nested <p>inner</p> tail</p></body>",
        ]
        alphabet = b"<>/pbodynavhs123 &amp;lt#39x\n"
        for _ in range(500):
            docs.append(bytes(rng.choice(alphabet) for _ in range(rng.randrange(0, 160))))
        html = pa.array(docs + [b"<body>\x01<p>sentinel</p></body>"], type=pa.binary())
        batch = pa.table({"url": pa.array([f"u{i}" for i in range(len(html))]), "html": html})
        got = extract_text_batch(batch).column("text").to_pylist()
        exp = [extract_text_bytes(h.as_py()) for h in html]
        assert got == exp


class TestStripStopwords:
    def test_matches_scalar_reference(self):
        import pyarrow as pa

        from flatnav_ray.functions.textstats import STOPWORDS_EN
        from flatnav_ray.functions.tokenize import strip_stopwords, tokenize_py

        texts = pa.array(
            [
                "The cat AND the hat!",
                "of",                      # all stopwords -> empty
                "",                        # empty stays empty
                "dogs are good dogs",      # duplicate non-stop tokens kept
                "It was a 42-mile walk",
            ]
        )
        got = strip_stopwords(texts, STOPWORDS_EN).to_pylist()
        want = [
            " ".join(t for t in tokenize_py(x) if t not in STOPWORDS_EN)
            for x in texts.to_pylist()
        ]
        assert got == want
