"""Output gate: engine answers against the brute-force oracle, and the
pruned method against the exhaustive one."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# the tolerance tests/test_build_query.py allows between the engine and
# brute_force_topk (the oracle sums in Python floats, in the same order)
ORACLE_ATOL = 1e-9


def _rows(t: pa.Table, qid: int) -> tuple[list[int], list[int], np.ndarray]:
    sel = t.filter(pc.equal(t.column("query_id"), qid))
    order = np.argsort(sel.column("rank").to_numpy(zero_copy_only=False), kind="stable")
    sel = sel.take(pa.array(order))
    return (
        sel.column("rank").to_pylist(),
        sel.column("doc_id").to_pylist(),
        sel.column("score").to_numpy(zero_copy_only=False).astype(np.float64),
    )


def oracle_mismatches(result: pa.Table, oracle: pa.Table, query_ids) -> list[int]:
    """Query ids whose ranked (doc_id, score) rows differ from the oracle's:
    same ranks and doc_ids, scores within ORACLE_ATOL."""
    bad = []
    for q in query_ids:
        r_rank, r_doc, r_score = _rows(result, int(q))
        o_rank, o_doc, o_score = _rows(oracle, int(q))
        if (
            r_rank != o_rank
            or r_doc != o_doc
            or not np.allclose(r_score, o_score, rtol=0, atol=ORACLE_ATOL)
        ):
            bad.append(int(q))
    return bad


def same_answer(a: pa.Table, b: pa.Table) -> bool:
    """Rank-, doc- and bit-identical score rows (two engine methods that
    claim to be exact must agree to the last bit)."""
    cols = ["query_id", "rank", "doc_id", "score"]
    return a.select(cols).equals(b.select(cols))
