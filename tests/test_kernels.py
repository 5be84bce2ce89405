"""Tokenizer / BM25 / hash / extractor kernel tests (FIXTURES.md §5)."""

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    TOKEN_SPLIT_REGEX,
    explode_tokens,
    term_frequencies,
    tokenize_py,
)
from flatnav_ray.sources.synth import PagesGenerator


def _regex_explode(texts):
    """Oracle of `explode_tokens`: the analyzer spec run as Arrow's regex
    split (lower, split on TOKEN_SPLIT_REGEX, flatten, drop empties)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    toks = pc.split_pattern_regex(pc.utf8_lower(texts), TOKEN_SPLIT_REGEX)
    flat = pc.list_flatten(toks)
    keep = pc.invert(pc.equal(flat, ""))
    parents = pc.filter(pc.list_parent_indices(toks), keep)
    return parents.to_numpy(zero_copy_only=False).astype(np.int64), pc.filter(flat, keep)


def _equals_regex_split(texts):
    got_parents, got = explode_tokens(texts)
    want_parents, want = _regex_explode(texts)
    assert got_parents.dtype == np.int64
    assert np.array_equal(got_parents, want_parents), (got_parents, want_parents)
    assert got.equals(want), (got, want)


# ASCII letters of both cases, digits, separators, and code points whose
# lower case is ASCII (the Kelvin sign) or longer than the original (İ)
_MIXED = "abzAZ09 -_.,\t\nàÀéßİΩ\u212a\u0130"


class TestByteClassTokenizer:
    """`explode_tokens` classifies lowered bytes; it must equal the regex
    split of the analyzer spec on every input."""

    @pytest.mark.parametrize(
        "texts",
        [
            ["ab", "cd"],  # alnum runs touching across a row boundary
            ["ab", "cd", "", "ef", "g"],
            ["", "a b", ""],  # empty first and last rows
            [None, "a", None],  # null first and last rows
            ["   ", "x", "\t\n "],  # whitespace-only rows
            ["a--b", "--", "-a-", "a-"],
            ["aàb", "İ", "\u212a", "À", "Ω", "xΩy", "İstanbul", "\u212aelvin9"],
            [],
            [""],
            [None],
            ["", None, " ", ""],
        ],
    )
    @pytest.mark.parametrize("type_", [pa.string(), pa.large_string()])
    def test_equals_regex_split(self, texts, type_):
        _equals_regex_split(pa.array(texts, type=type_))

    def test_sliced_large_and_chunked_inputs(self):
        texts = ["Hello, World 42!", "ab", "cd", "", None, "aàb İ", "x-y_z", "end"]
        arr = pa.array(texts, pa.string())
        _equals_regex_split(arr.slice(1))
        _equals_regex_split(arr.slice(2, 3))
        _equals_regex_split(arr.slice(8))
        _equals_regex_split(pa.array(texts, pa.large_string()).slice(3))
        _equals_regex_split(pa.chunked_array([arr.slice(0, 3), arr.slice(3)]))
        _equals_regex_split(pa.chunked_array([arr.slice(1, 2), arr.slice(5)]))
        _equals_regex_split(pa.chunked_array([], type=pa.string()))
        assert explode_tokens(pa.array(texts, pa.large_string()))[1].type == pa.large_string()

    def test_synthetic_corpus(self):
        from flatnav_ray.functions.extract import extract_text_batch

        text = extract_text_batch(PagesGenerator(seed=5).chunk(0, 200)).column("text")
        _equals_regex_split(text)
        _equals_regex_split(text.combine_chunks().slice(37, 101))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.text(alphabet=_MIXED, max_size=30)), max_size=25))
    def test_random_mixed_strings(self, texts):
        _equals_regex_split(pa.array(texts, pa.string()))


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
        """The byte-scan batch path must be byte-identical to the scalar
        spec on adversarial html — unclosed tags, multiple bodies, empty
        docs, entities — and on a batch holding a \x01 byte."""
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


def _extract_checked(html, text=None):
    """`extract_text_batch` over `html`, asserted equal to the spec row by
    row: `extract_text_bytes` of each non-null row, and for a null row its
    carried `text` ("" with no text column)."""
    from flatnav_ray.functions.extract import extract_text_batch

    cols = {"url": pa.array([f"u{i}" for i in range(len(html))]), "html": html}
    if text is not None:
        cols["text"] = text
    got = extract_text_batch(pa.table(cols)).column("text")
    carried = text.to_pylist() if text is not None else [""] * len(html)
    want = [extract_text_bytes(h) if h is not None else t for h, t in zip(html.to_pylist(), carried)]
    assert got.to_pylist() == want
    assert got.type == pa.string()
    return got.to_pylist()


# html tag tokens: every literal the extractor matches, near misses of them,
# entities, the old \x01 sentinel and multi-byte UTF-8
_HTML_TOKENS = [
    b"<", b">", b"/", b"</", b"p", b"h1", b"h6", b"h7", b"pre", b"body", b"nav",
    b"header", b"footer", b"script", b"style", b"x", b" ", b"\n", b"\x01",
    "é".encode(), "中".encode(), b"&", b"&amp;", b"&lt;", b"&gt;", b"&quot;", b"&#39;",
    b"<p>", b"</p>", b"<h2>", b"</h2>", b"<body>", b"</body>", b"<nav>", b"</nav>",
    b"<script>", b"</script>", b"<header>", b"</header>",
]


class TestExtractByteScan:
    """The byte scan of `extract_text_batch` against the regex spec on the
    inputs where a scan can drift from it: Arrow layouts, null slots that
    cover bytes, tags made by a removal, literals cut by a row or window
    end, entities, invalid UTF-8 and long runs of openers."""

    def test_large_binary_chunked_and_sliced_batches(self):
        from flatnav_ray.sources.synth import pages_table

        html = pages_table(60, seed=3, vocab_size=300, mean_len=30).column("html").combine_chunks()
        html = pa.concat_arrays([html, pa.array([b"<p>a &amp; b</p>", None, b""], pa.binary())])
        _extract_checked(html.cast(pa.large_binary()))
        _extract_checked(html.cast(pa.large_binary()).slice(7, 40))
        _extract_checked(pa.chunked_array([html.slice(0, 10), html.slice(10, 0), html.slice(10)]))
        _extract_checked(html.slice(55))
        _extract_checked(html.slice(61, 2))

    def test_null_slot_covering_bytes_keeps_carried_text(self):
        from flatnav_ray.functions.extract import extract_text_batch

        hidden = b"<body><p>hidden \xff</p></body>"
        data = b"<p>a</p>" + hidden + b"<p>c</p>"
        offsets = np.array([0, 8, 8 + len(hidden), len(data)], dtype=np.int32)
        validity = pa.py_buffer(bytes([0b101]))
        html = pa.Array.from_buffers(
            pa.binary(), 3, [validity, pa.py_buffer(offsets.tobytes()), pa.py_buffer(data)]
        )
        assert html.null_count == 1 and html.to_pylist() == [b"<p>a</p>", None, b"<p>c</p>"]
        text = pa.array(["", "carried", ""], pa.string())
        assert _extract_checked(html, text) == ["a", "carried", "c"]
        assert _extract_checked(html) == ["a", "", "c"]
        batch = pa.table({"url": pa.array(["a", "b"]), "html": html.slice(1), "text": text.slice(1)})
        assert extract_text_batch(batch).column("text").to_pylist() == ["carried", "c"]

    @pytest.mark.parametrize(
        "doc,want",
        [
            (b"<<nav>x</nav>p>a</p>", "a"),
            (b"<p<nav>x</nav>>a</p>", "a"),
            (b"<p>a</<nav></nav>p>b</p>", "a"),
            (b"<body><p>a</<script>s</script>p>b</p></body>", "a"),
        ],
    )
    def test_removal_joins_a_new_tag(self, doc, want):
        assert extract_text_bytes(doc) == want
        assert _extract_checked(pa.array([b"<p>before</p>", doc, b"<p>after</p>"])) == [
            "before", want, "after"
        ]

    @pytest.mark.parametrize(
        "doc,want",
        [
            (b"<pre>x</p>", "x"),
            (b"<p>a</pre><pre>b</p>", "a</pre><pre>b"),
            (b"<h12>y</h1>", "y"),
            (b"<h12>y</h12>", ""),
            (b"<navx>z</nav><p>q</p>", "q"),
            (b"<headers>z</header><p>q</p>", "q"),
            (b"<bodyx><p>in</p></body><p>out</p>", "in"),
        ],
    )
    def test_opener_prefixes(self, doc, want):
        assert extract_text_bytes(doc) == want
        assert _extract_checked(pa.array([doc])) == [want]

    def test_literal_split_across_a_row_boundary(self):
        rows = [
            b"<p>a</p><bo", b"dy><p>b</p></body>",  # "<body" cut by the row end
            b"<body><p>c</p></bo", b"dy>",  # "</body>" cut
            b"<p>d</p><na", b"v>x</nav><p>e</p>",  # "<nav" cut
            b"<p>f</", b"p><p>g</p>",  # "</p>" cut
            b"<h", b"1>h</h1>",  # "<h1" cut
        ]
        assert _extract_checked(pa.array(rows)) == ["a", "b", "c", "", "d", "e", "", "g", "", ""]

    def test_literal_split_across_a_body_window(self):
        rows = [
            b"<body><p>a</p><nav</body><p>x</p></nav>",  # opener's '>' past the window
            b"<body><p>b</body></p>",  # closer past the window
            b"<body><p>c</p><script>s</body></script>",
            b"<body<nav>x</nav><p>d</p></body>",  # "<nav" before the window
            b"<body><p>e</p></body><p>f</p></body>",
            b"<body><p>g</body>",  # next row starts with the closer
            b"</p><p>h</p>",
        ]
        assert _extract_checked(pa.array(rows)) == ["a", "", "c", "d", "e", "", "h"]

    def test_entities_in_some_rows_and_their_order(self):
        rows = [
            b"<p>plain</p>",
            b"<p>a &amp;lt; b &amp;amp;</p>",
            None,
            b"<p>&lt;&gt;&quot;&#39;&amp;</p><p>&</p>",
            b"<nav>&amp;</nav><p>x</p>",
            b"<p>&am</p><p>p;</p>",
        ]
        got = _extract_checked(pa.array(rows, pa.binary()), pa.array(["", "", "kept &amp;", "", "", ""]))
        assert got == ["plain", "a &lt; b &amp;", "kept &amp;", "<>\"'&\n&", "x", "&am\np;"]

    def test_invalid_utf8_in_content_raises_on_both_paths(self):
        from flatnav_ray.functions.extract import extract_text_batch

        doc = b"<body><p>ok \xff\xfe</p></body>"
        with pytest.raises(UnicodeDecodeError):
            extract_text_bytes(doc)
        batch = pa.table({"url": pa.array(["a", "b"]), "html": pa.array([b"<p>a</p>", doc])})
        with pytest.raises(pa.ArrowInvalid):
            extract_text_batch(batch)

    def test_invalid_utf8_in_removed_bytes_is_not_checked(self):
        rows = [
            b"<body><nav>\xff</nav><p>ok</p><script>\xc3</script></body>",
            b"\xff<body><p>ok</p></body>\xfe",
            b"<p>ok</p><p \xff>x",
        ]
        assert _extract_checked(pa.array(rows)) == ["ok", "ok", "ok"]

    def test_many_unclosed_openers(self):
        doc = b"<body>" + b"<p>x" * 200_000 + b"</p><h1>" + b"<p" * 1000 + b"</h1></body>"
        rows = [b"<p>a</p>", doc, b"<p>b</p>"]
        got = _extract_checked(pa.array(rows))
        assert got[1].startswith("x<p>x") and got[1].endswith("<p" * 1000)

    def test_a_dropped_match_leaves_later_matches_kept(self):
        # the h1 match starts inside the kept p match and is dropped, so the
        # p matches it spans are kept
        doc = b"<p>a<h1>b</p>" + b"<p>x</p>" * 50 + b"</h1><p>z</p>"
        assert _extract_checked(pa.array([doc]))[0] == "\n".join(["a<h1>b"] + ["x"] * 50 + ["z"])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(st.none(), st.lists(st.sampled_from(_HTML_TOKENS), max_size=30).map(b"".join)),
            max_size=12,
        ),
        st.integers(0, 3),
    )
    def test_random_tag_token_batches(self, docs, start):
        html = pa.array(docs, pa.binary())
        text = pa.array([f"t{i}" for i in range(len(docs))], pa.string())
        _extract_checked(html.slice(min(start, len(docs))), text.slice(min(start, len(docs))))


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
