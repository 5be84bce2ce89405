"""O5 — Gorder-style sliding-window docid ordering (the graft of the
reference's `gOrder`, /root/reference/include/flatnav/util/Reordering.h:27-117
with /root/reference/include/flatnav/util/GorderPriorityQueue.h:13-109).

The reference permutes graph node ids so nodes that share edges land in
nearby cache lines. The full-text analog permutes the per-partition docmap
POSITIONS so documents that share *rare* terms receive adjacent positions:
per-term posting deltas shrink for exactly the terms that cluster, so the
delta+varint doc blobs compress better. Same motive (locality), same plug
slot as the reference's pluggable `reorder(strategies=[...])`
(python-bindings/src/flatnav/bindings.cpp:285-295) — here it is
`IndexConfig(docid_strategy="gorder")`, next to "hash" and "dense_url" (O4).

Documented deviations from the reference algorithm:

- flatnav's Gorder walks a directed fixed-degree graph and does 2-hop
  priority updates (out-edges of in-neighbors). Here the graph is the
  doc-similarity graph *induced* by shared low-df terms — the bipartite
  doc→term→doc expansion IS the 2-hop step, applied once at graph-build
  time — so the greedy itself only needs 1-hop updates on the symmetric,
  degree-capped adjacency. (The reference's own comment at Reordering.h:96
  notes the exact update rule barely moves the result.)
- The priority queue is two engines with bit-identical output: a flat numpy
  argmax scan for chunks <= 2^16 (vectorized O(chunk) per step beats Python
  constants there) and a lazy int-keyed heap — the GorderPriorityQueue
  analog — above (O((V+E) log), no quadratic cliff). The greedy still runs
  over contiguous chunks of GORDER_CHUNK docs: locality is a within-chunk
  property (deltas only shrink between near-adjacent ranks), and chunking
  keeps per-task cost linear in partition size.

Scale notes: everything here runs INSIDE one partition's merge task — no
extra shuffle. Graph build is vectorized (one argsort + windowed pair
emission over posting groups); only the greedy loop is sequential, bounded
by GORDER_CHUNK, and partitions reorder in parallel across the cluster.
"""

from __future__ import annotations

import numpy as np

# Only terms with 2 <= df <= GORDER_MAX_DF induce doc-doc edges: hot terms
# carry no locality signal (they touch every doc) and would emit O(df^2) work.
GORDER_MAX_DF = 16
# Windowed pair emission span within one term's posting group: each doc links
# to at most TERM_SPAN successors per shared term (full O(df^2) pairs are not
# needed — edge multiplicity across terms recovers the strong pairs).
GORDER_TERM_SPAN = 4
# Degree cap of the similarity graph — the flatnav `M` analog (Index.h:58).
GORDER_MAX_DEGREE = 32
# Sliding-window width `w` of the greedy (Reordering.h gOrder parameter).
GORDER_WINDOW = 8
# Greedy chunk size: the argmax priority scan is O(chunk) per placed doc.
GORDER_CHUNK = 1 << 16


def doc_similarity_graph(
    positions: np.ndarray,
    term_codes: np.ndarray,
    n_docs: int,
    max_df: int = GORDER_MAX_DF,
    term_span: int = GORDER_TERM_SPAN,
    max_degree: int = GORDER_MAX_DEGREE,
) -> tuple[np.ndarray, np.ndarray]:
    """Build the degree-capped symmetric doc-doc adjacency (CSR) induced by
    shared low-df terms, from one partition's postings.

    positions: int64 docmap position per posting (0..n_docs-1).
    term_codes: integer term code per posting (same length).
    Returns (indptr[n_docs+1], indices) with neighbors sorted by descending
    shared-term multiplicity per doc. Fully vectorized (no Python loop over
    terms or postings).
    """
    pos = positions.astype(np.int64, copy=False)
    codes = term_codes.astype(np.int64, copy=False)
    if pos.size == 0 or n_docs == 0:
        return np.zeros(n_docs + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    # group postings by term (positions fit 32 bits: asserted by caller's
    # packed-key sort in twophase._merge_finalize)
    order = np.argsort((codes << np.int64(32)) | pos, kind="stable")
    c = codes[order]
    p = pos[order]
    new = np.ones(c.size, dtype=bool)
    new[1:] = c[1:] != c[:-1]
    grp_id = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, c.size))
    df_of_post = sizes[grp_id]
    ok = (df_of_post >= 2) & (df_of_post <= max_df)
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    for s in range(1, term_span + 1):
        if s >= c.size:
            break
        same = grp_id[s:] == grp_id[:-s]
        m = same & ok[s:]
        if m.any():
            srcs.append(p[:-s][m])
            dsts.append(p[s:][m])
    if not srcs:
        return np.zeros(n_docs + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    a = np.concatenate(srcs)
    b = np.concatenate(dsts)
    # symmetric edges, weighted by multiplicity (number of shared terms that
    # emitted the pair)
    ea = np.concatenate([a, b])
    eb = np.concatenate([b, a])
    key = (ea << np.int64(32)) | eb
    uniq, counts = np.unique(key, return_counts=True)
    src = (uniq >> np.int64(32)).astype(np.int64)
    dst = (uniq & np.int64(0xFFFFFFFF)).astype(np.int64)
    # cap per-source degree at max_degree, keeping the heaviest edges — the
    # flatnav M-link truncation analog (Index.h:765-834 keeps the best M)
    o = np.lexsort((-counts, src))
    src, dst = src[o], dst[o]
    first = np.ones(src.size, dtype=bool)
    first[1:] = src[1:] != src[:-1]
    grp = np.cumsum(first) - 1
    grp_start = np.flatnonzero(first)
    rank_in_grp = np.arange(src.size) - grp_start[grp]
    keep = rank_in_grp < max_degree
    src, dst = src[keep], dst[keep]
    indptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, dst


def gorder_rank(
    indptr: np.ndarray,
    indices: np.ndarray,
    n_docs: int,
    window: int = GORDER_WINDOW,
    chunk: int = GORDER_CHUNK,
) -> np.ndarray:
    """Greedy sliding-window ordering (Reordering.h:70-112's loop): place the
    unplaced doc sharing the most edges with the last `window` placed docs.

    Returns rank_of[old_position] -> new rank (the reference's `Pinv`,
    Reordering.h:113-117). Deterministic: ties break toward the lowest old
    position (np.argmax first-hit), seed doc = position 0 per chunk — the
    reference seeds node 0 the same way (Reordering.h:68-69).
    """
    rank_of = np.empty(n_docs, dtype=np.int64)
    for lo in range(0, n_docs, chunk):
        hi = min(lo + chunk, n_docs)
        m = hi - lo
        if m <= _ARGMAX_MAX_CHUNK:
            placed = _greedy_argmax(indptr, indices, lo, m, window)
        else:
            placed = _greedy_heap(indptr, indices, lo, m, window)
        rank_of[placed + lo] = np.arange(lo, hi)
    return rank_of


# Crossover between the two greedy engines (identical output, pytest-pinned):
# the vectorized argmax scan costs O(m) per placed doc (~0.8 ns/element) and
# wins below ~2^17 docs; the lazy heap costs O((1+2*deg) log) Python-level ops
# per placed doc (~6 us/op) and wins above. Together the documented
# O(chunk^2) blowup for large chunks is gone — users can raise GORDER_CHUNK
# to widen locality reach without the quadratic cliff.
_ARGMAX_MAX_CHUNK = 1 << 16


def _greedy_argmax(
    indptr: np.ndarray, indices: np.ndarray, lo: int, m: int, window: int
) -> np.ndarray:
    """O(m) argmax scan per placement — fastest for small chunks."""
    pri = np.zeros(m, dtype=np.int64)
    placed = np.empty(m, dtype=np.int64)
    NEG = np.int64(-(1 << 62))
    for i in range(m):
        v = int(np.argmax(pri))
        placed[i] = v
        pri[v] = NEG
        nb = indices[indptr[lo + v] : indptr[lo + v + 1]] - lo
        nb = nb[(nb >= 0) & (nb < m)]
        pri[nb] += 1
        if i >= window:
            u = placed[i - window]
            nbu = indices[indptr[lo + u] : indptr[lo + u + 1]] - lo
            nbu = nbu[(nbu >= 0) & (nbu < m)]
            pri[nbu] -= 1
    return placed


def _greedy_heap(
    indptr: np.ndarray, indices: np.ndarray, lo: int, m: int, window: int
) -> np.ndarray:
    """Lazy max-heap — the GorderPriorityQueue graft
    (GorderPriorityQueue.h:13-109's O(1) bucket increment/decrement): every
    increment pushes a fresh entry; pops discard entries whose recorded
    priority no longer matches. Lazy decrements are safe because an entry
    with priority BELOW a vertex's current one can never reach the heap top
    while the current (smaller-keyed) entry is live — so when a vertex is
    decremented, its entry at the lower priority is always still present.
    One int key (priority flipped into the high bits, old position in the
    low bits) keeps entries allocation-light and makes the pop order
    (max priority, then LOWEST old position) match `_greedy_argmax`'s
    first-hit tie-break bit-for-bit (equivalence pytest-pinned)."""
    import heapq

    SHIFT = max(22, m.bit_length() + 1)  # low bits: vertex id
    BASE = 1 << 21  # > any priority (bounded by window + 1)
    pri = np.zeros(m, dtype=np.int64)
    placed = np.empty(m, dtype=np.int64)
    heap = [(BASE << SHIFT) | v for v in range(m)]  # ascending == valid heap
    done = np.zeros(m, dtype=bool)
    pop, push = heapq.heappop, heapq.heappush
    for i in range(m):
        while True:
            key = pop(heap)
            v = key & ((1 << SHIFT) - 1)
            if not done[v] and (BASE - int(pri[v])) << SHIFT | v == key:
                break
        placed[i] = v
        done[v] = True
        nb = indices[indptr[lo + v] : indptr[lo + v + 1]] - lo
        nb = nb[(nb >= 0) & (nb < m)]
        nb = nb[~done[nb]]
        pri[nb] += 1
        for key in (((BASE - pri[nb]) << SHIFT) | nb).tolist():
            push(heap, key)
        if i >= window:
            u = placed[i - window]
            nbu = indices[indptr[lo + u] : indptr[lo + u + 1]] - lo
            nbu = nbu[(nbu >= 0) & (nbu < m)]
            pri[nbu[~done[nbu]]] -= 1  # lazy: stale higher entries skipped at pop
    return placed


def gorder_rank_of(
    positions: np.ndarray, term_codes: np.ndarray, n_docs: int
) -> np.ndarray:
    """positions+term codes of one partition's postings -> rank_of permutation
    (old docmap position -> new interleaved-id rank)."""
    indptr, indices = doc_similarity_graph(positions, term_codes, n_docs)
    return gorder_rank(indptr, indices, n_docs)


def rcm_rank(
    indptr: np.ndarray, indices: np.ndarray, n_docs: int
) -> np.ndarray:
    """Reverse Cuthill–McKee ordering over the doc-similarity graph — the
    graft of the reference's second reordering strategy
    (Reordering.h:120-200 `rcmOrder`, exposed with gorder through
    `reorder(strategies=[...])`, bindings.cpp:285-295).

    Classic RCM: repeatedly seed a BFS at the unvisited node of minimum
    degree, enqueue each node's unvisited neighbors in ascending-degree
    order, then REVERSE the discovery order (bandwidth reduction — shared-
    term docs land close, like gorder but O(V+E) instead of greedy argmax).
    Deterministic: all ties break toward the lower old position.

    Returns rank_of[old_position] -> new rank (the `Pinv` analog)."""
    deg = np.diff(indptr)
    visited = np.zeros(n_docs, dtype=bool)
    order = np.empty(n_docs, dtype=np.int64)  # BFS discovery sequence
    queue = np.empty(n_docs, dtype=np.int64)
    seed_seq = np.lexsort((np.arange(n_docs), deg))  # (degree, position) asc
    si = 0
    out = 0
    while out < n_docs:
        while visited[seed_seq[si]]:
            si += 1
        s = seed_seq[si]
        visited[s] = True
        queue[0] = s
        head, tail = 0, 1
        while head < tail:
            v = queue[head]
            head += 1
            order[out] = v
            out += 1
            nb = indices[indptr[v]: indptr[v + 1]]
            nb = nb[~visited[nb]]
            if nb.size:
                nb = nb[np.lexsort((nb, deg[nb]))]
                visited[nb] = True
                queue[tail: tail + nb.size] = nb
                tail += nb.size
    rank_of = np.empty(n_docs, dtype=np.int64)
    rank_of[order] = np.arange(n_docs - 1, -1, -1, dtype=np.int64)
    return rank_of


# graph-based strategies composable via "a+b" sequencing (the reference's
# reorder(strategies=["gorder","rcm"]) list, bindings.cpp:285-295)
GRAPH_STRATEGIES = {"gorder", "rcm"}


def is_graph_strategy(strategy: str) -> bool:
    """True iff `strategy` is a single graph reorder or a '+'-sequence of
    them ("gorder", "rcm", "gorder+rcm", ...)."""
    parts = strategy.split("+")
    return all(p in GRAPH_STRATEGIES for p in parts)


def rank_of_for(
    strategy: str, positions: np.ndarray, term_codes: np.ndarray, n_docs: int
) -> np.ndarray:
    """Composed rank_of for a '+'-sequenced graph strategy string: each stage
    reorders the graph RELABELED by the previous stage's permutation (exactly
    the reference's successive in-place permutations in reorder()). Final
    rank of old position p after stages r1, r2 is r2[r1[p]]."""
    rank = np.arange(n_docs, dtype=np.int64)
    for i, name in enumerate(strategy.split("+")):
        pos = positions if i == 0 else rank[positions]
        indptr, indices = doc_similarity_graph(pos, term_codes, n_docs)
        r = gorder_rank(indptr, indices, n_docs) if name == "gorder" else rcm_rank(
            indptr, indices, n_docs
        )
        rank = r[rank]
    return rank
