"""HTML -> text extraction — the per-row ingest transform (SURVEY.md §2.2 M1).

The graft of the reference's `transformData` ingest normalizer
(/root/reference/include/flatnav/distances/DistanceInterface.h:45-52 — the one
transform applied to every record on its way into the index). The contract
from BASELINE.json input_hint: extracted text must be **byte-identical per
url** to the golden `text` column; the extractor is therefore a pure, versioned
function of `html` with no environment dependence.

Extraction rule (EXTRACTOR_VERSION v1):
  * consider only the <body>,
  * drop <nav>…</nav>, <header>…</header>, <footer>…</footer>, <script>,
    <style> subtrees (boilerplate),
  * the document text is the concatenation of <p>…</p> and <h1..h6>…</h6>
    contents in document order, joined by a single '\n',
  * HTML entities (&amp; &lt; &gt; &quot; &#39;) are unescaped.

The three Python `re` patterns below and `extract_text_bytes` are the SPEC
(and the test oracle). The batch kernel `extract_text_batch` runs no regex:
it scans the batch's html buffer for the positions of `<` and `>` once, reads
the bytes after each `<` as a little-endian word to find the tag literals,
and resolves every pattern from those positions with `searchsorted`:
`[^>]*>` ends at the first `>` after the literal, and the lazy `.*?</T>`
ends at the first closer of the same tag after that `>`. Of the matches that
fit their row (or its body window), the kept ones are the leftmost
non-overlapping ones, as `re.sub`/`finditer` scan. Boilerplate removal can
join bytes into a new tag (`<<nav>x</nav>p>a</p>` gives `a`), so the content
pass runs over the compacted bodies: the `<` and `>` positions carry over,
shifted, and the literals after each `<` are read again from the new bytes.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

EXTRACTOR_VERSION = "v1"

_BODY = re.compile(rb"<body[^>]*>(.*?)</body>", re.DOTALL)
_BOILER = re.compile(
    rb"<(nav|header|footer|script|style)[^>]*>.*?</\1>", re.DOTALL
)
_CONTENT = re.compile(rb"<(p|h[1-6])[^>]*>(.*?)</\1>", re.DOTALL)
# the tags of _BOILER and _CONTENT, as the batch kernel matches them
_BOILER_TAGS = (b"nav", b"header", b"footer", b"script", b"style")
_CONTENT_TAGS = (b"p", b"h1", b"h2", b"h3", b"h4", b"h5", b"h6")

_UNESCAPES = [
    (b"&lt;", b"<"),
    (b"&gt;", b">"),
    (b"&quot;", b'"'),
    (b"&#39;", b"'"),
    (b"&amp;", b"&"),  # last, so '&amp;lt;' -> '&lt;' (standard order)
]


def escape_text(text: str) -> str:
    """The inverse used by the synthetic corpus generator."""
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("'", "&#39;")
    )


def extract_text_bytes(html: bytes) -> str:
    """Pure extraction of one document. Deterministic; see module docstring."""
    m = _BODY.search(html)
    body = m.group(1) if m else html
    body = _BOILER.sub(b"", body)
    parts = [mm.group(2) for mm in _CONTENT.finditer(body)]
    out = b"\n".join(parts)
    for esc, raw in _UNESCAPES:
        out = out.replace(esc, raw)
    return out.decode("utf-8")


def extract_text_batch(batch: pa.Table) -> pa.Table:
    """map_batches(batch_format="pyarrow") stage: pages(html) -> + text column.

    Rows whose `html` is null keep their existing `text` (the already-extracted
    adapter path, FIXTURES.md §4). Drops the heavy `html` column immediately
    after extraction (SURVEY.md §7 'wide rows').

    `extract_text_bytes` is the byte-identity SPEC; this is the byte scan of
    the module docstring over the whole html buffer (no per-row Python, no
    regex): body windows, boilerplate matches, one slice join that compacts
    the bodies, content matches, one slice join of the content pieces, then
    the unescape passes on the rows that hold a `&`. The UTF-8 check of the
    output is Arrow's cast."""
    html = batch.column("html")
    if isinstance(html, pa.ChunkedArray):
        # combine_chunks copies even a single chunk
        html = html.chunk(0) if html.num_chunks == 1 else html.combine_chunks()
    has_text = "text" in batch.column_names
    n = len(html)
    cols = {name: batch.column(name) for name in batch.column_names if name not in ("html", "text")}
    if html.null_count == n:  # pure adapter path: text already extracted
        cols["text"] = batch.column("text") if has_text else pa.nulls(n, pa.string())
        return pa.table(cols)
    extracted = _extract_scan(html)
    if html.null_count and has_text:
        # null-html rows keep their already-extracted text (adapter path)
        cols["text"] = pc.if_else(html.is_valid(), extracted, batch.column("text"))
    else:
        cols["text"] = extracted
    return pa.table(cols)


def _peek(buf: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For sorted positions `pos`: bytes pos..pos+7 of `buf` as little-endian
    uint64 words, and byte pos+8 (zero past the end of `buf`)."""
    n = buf.size
    words = np.empty(pos.size, dtype=np.uint64)
    b8 = np.empty(pos.size, dtype=np.uint8)
    cut = int(np.searchsorted(pos, n - 8))  # pos[:cut] have 9 bytes in buf
    if cut:
        view = np.ndarray((n - 8,), dtype="<u8", buffer=buf, strides=(1,))
        words[:cut] = view[pos[:cut]]
        b8[:cut] = buf[pos[:cut] + 8]
    if cut < pos.size:
        t0 = max(n - 16, 0)
        tail = np.zeros(32, dtype=np.uint8)
        tail[: n - t0] = buf[t0:]
        rel = pos[cut:] - t0
        words[cut:] = np.ndarray((24,), dtype="<u8", buffer=tail, strides=(1,))[rel]
        b8[cut:] = tail[rel + 8]
    return words, b8


def _hits(words: np.ndarray, b8: np.ndarray, lit: bytes) -> np.ndarray:
    """Which peeked positions start with `lit` (at most 9 bytes)."""
    head = lit[:8]
    mask = np.uint64((1 << (8 * len(head))) - 1)
    hit = (words & mask) == np.uint64(int.from_bytes(head, "little"))
    if len(lit) > 8:
        hit &= b8 == lit[8]
    return hit


def _leftmost(start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Keep mask of the leftmost non-overlapping spans, as a regex scan keeps
    them: `start` is ascending and distinct. A span that starts at or after
    every earlier span's end is always kept; only the runs between such spans
    walk the next-span chain."""
    keep = np.ones(start.size, dtype=bool)
    if start.size < 2:
        return keep
    keep[1:] = start[1:] >= np.maximum.accumulate(end)[:-1]
    if keep.all():
        return keep
    free = keep.copy()
    nxt = np.searchsorted(start, end)
    m = start.size
    for k in np.flatnonzero(free[:-1] & ~free[1:]).tolist():
        k = int(nxt[k])
        while k < m and not free[k]:
            keep[k] = True
            k = int(nxt[k])
    return keep


def _matches(
    buf: np.ndarray, lt: np.ndarray, gt: np.ndarray, limit: np.ndarray, tags: tuple[bytes, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Leftmost non-overlapping matches of `<(T)[^>]*>.*?</T>` for T in `tags`
    over `buf`, whose `<` and `>` positions are `lt` and `gt`. A match whose
    `<` is `lt[j]` must end at or before `limit[j]` (-1 bars it): as its
    opener's `>` and its closer come after that `<`, a match whose opener or
    closer runs past the limit is dropped, and no later closer fits instead.

    Returns (start, opener '>', closer start, end) of the kept matches in
    start order. At most one tag can start at a given `<`."""
    words, b8 = _peek(buf, lt)
    found = []
    for t in tags:
        opener, closer = b"<" + t, b"</" + t + b">"
        at = _hits(words, b8, opener)
        closes = lt[_hits(words, b8, closer)]
        if not at.any() or not closes.size or not gt.size:
            continue
        i, lim = lt[at], limit[at]
        jg = np.searchsorted(gt, i)  # buf[i] is '<', so the first '>' after i
        ok = jg < gt.size
        g = gt[np.minimum(jg, gt.size - 1)]
        jc = np.searchsorted(closes, g)  # buf[g] is '>', so the first closer after g
        ok &= jc < closes.size
        c = closes[np.minimum(jc, closes.size - 1)]
        ok &= c + len(closer) <= lim
        found.append((i[ok], g[ok], c[ok], c[ok] + len(closer)))
    if not found:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(4))
    i, g, c, e = (np.concatenate(x) for x in zip(*found))
    order = np.argsort(i, kind="stable")
    i, g, c, e = i[order], g[order], c[order], e[order]
    keep = _leftmost(i, e)
    return i[keep], g[keep], c[keep], e[keep]


def _join_slices(data: pa.Buffer | None, a: np.ndarray, b: np.ndarray):
    """Copy the ordered, disjoint slices data[a_k:b_k] into one new buffer.
    Returns (each slice's start in the new buffer plus the total, the buffer)."""
    if data is None or not data.size or not a.size:
        return np.zeros(a.size + 1, dtype=np.int64), pa.py_buffer(b"")
    pts = np.empty(2 * a.size, dtype=np.int64)
    pts[0::2] = a
    pts[1::2] = b
    # the slices and the gaps between them, as one array over `data`
    both = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), 2 * a.size - 1, [None, pa.py_buffer(pts), data]
    )
    out = both.take(pa.array(np.arange(0, 2 * a.size, 2, dtype=np.int64)))
    return np.frombuffer(out.buffers()[1], dtype=np.int64), out.buffers()[2] or pa.py_buffer(b"")


def _moved(pos: np.ndarray, a: np.ndarray, b: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Where the bytes at sorted `pos` land when `_join_slices` joins the
    slices [a_k, b_k); bytes outside every slice are dropped."""
    k = np.maximum(np.searchsorted(a, pos, side="right") - 1, 0)
    kept = (pos >= a[k]) & (pos < b[k])
    k = k[kept]
    return pos[kept] - a[k] + starts[k]


def _extract_scan(html: pa.Array) -> pa.Array:
    """The byte scan of the module docstring over one binary column. Null
    rows extract to "" (the caller restores their carried text)."""
    n = len(html)
    large = pa.types.is_large_binary(html.type)
    offs = np.frombuffer(html.buffers()[1], dtype=np.int64 if large else np.int32)
    offs = offs[html.offset : html.offset + n + 1].astype(np.int64)
    lo, hi = int(offs[0]), int(offs[-1])
    offs -= lo
    data = html.buffers()[2].slice(lo, hi - lo) if hi > lo else None
    buf = np.frombuffer(data, dtype=np.uint8) if data is not None else np.zeros(0, np.uint8)
    row_lo, row_hi = offs[:-1], offs[1:]
    if html.null_count:  # a null slot may still cover bytes: scan none of them
        row_hi = np.where(html.is_valid().to_numpy(zero_copy_only=False), row_hi, row_lo)

    # 1-2. tag positions, and each row's body window: from the first '>'
    # after its first "<body" to the first "</body>" after that, if that
    # closer ends inside the row; else the whole row
    lt, gt = np.flatnonzero(buf == 0x3C), np.flatnonzero(buf == 0x3E)  # '<', '>'
    words, b8 = _peek(buf, lt)
    opens, closes = lt[_hits(words, b8, b"<body")], lt[_hits(words, b8, b"</body>")]
    win_lo, win_hi = row_lo, row_hi
    if opens.size and closes.size and gt.size:
        jo = np.searchsorted(opens, row_lo)
        p = opens[np.minimum(jo, opens.size - 1)]
        jg = np.searchsorted(gt, p)
        g = gt[np.minimum(jg, gt.size - 1)]
        jc = np.searchsorted(closes, g)
        c = closes[np.minimum(jc, closes.size - 1)]
        ok = (jo < opens.size) & (jg < gt.size) & (jc < closes.size) & (c + 7 <= row_hi)
        win_lo, win_hi = np.where(ok, g + 1, row_lo), np.where(ok, c, row_hi)

    # 3. boilerplate matches inside each body window
    row = np.searchsorted(offs, lt, side="right") - 1
    limit = np.where(lt >= win_lo[row], win_hi[row], -1)
    s, _, _, e = _matches(buf, lt, gt, limit, _BOILER_TAGS)

    # 4. compacted bodies: each window minus its boilerplate, one slice join;
    # a row's slices are [win_lo, s1), [e1, s2), ..., [ek, win_hi)
    pts = np.sort(np.concatenate([win_lo, win_hi, s, e]))
    a, b = pts[0::2], pts[1::2]
    starts, body = _join_slices(data, a, b)
    per_row = np.bincount(np.searchsorted(offs, s, side="right") - 1, minlength=n)
    first = np.arange(n + 1, dtype=np.int64)
    first[1:] += np.cumsum(per_row)
    body_offs = starts[first]
    cb = np.frombuffer(body, dtype=np.uint8)

    # 5. content matches over the compacted bodies, joined per row with '\n':
    # every later piece of a row starts at its opener's '>', rewritten to '\n'
    lt, gt = _moved(lt, a, b, starts), _moved(gt, a, b, starts)
    row = np.searchsorted(body_offs, lt, side="right") - 1
    _, g, c, _ = _matches(cb, lt, gt, body_offs[row + 1], _CONTENT_TAGS)
    prow = np.searchsorted(body_offs, g, side="right") - 1
    later = np.zeros(g.size, dtype=bool)
    later[1:] = prow[1:] == prow[:-1]
    if later.any():
        cb[g[later]] = 0x0A  # `body` is the fresh buffer of `_join_slices`
    starts, text = _join_slices(body, np.where(later, g, g + 1), c)
    first = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(prow, minlength=n), out=first[1:])
    out = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), n, [None, pa.py_buffer(starts[first]), text]
    )

    # 6. unescape, in the spec's order, on the rows that hold a '&'
    amp = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == 0x26)
    if amp.size:
        mask = np.zeros(n, dtype=bool)
        mask[np.searchsorted(starts[first], amp, side="right") - 1] = True
        mask = pa.array(mask)
        sub = out.filter(mask)
        for esc, raw in _UNESCAPES:
            sub = pc.replace_substring(sub, pattern=esc, replacement=raw)
        out = pc.replace_with_mask(out, mask, sub)
    # 7. Arrow's cast checks the output is UTF-8
    return out.cast(pa.string())
