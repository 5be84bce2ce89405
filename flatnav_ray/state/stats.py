"""Global index stats + term-df lookup.

Graft of the reference's index bookkeeping (`_cur_num_nodes`/`_max_node_count`
/root/reference/include/flatnav/index/Index.h:64-65 and the metadata tuple in
its serialized image, Index.h:134-141): n_docs, sum_doc_len -> avgdl (the BM25
normalization constants), partition count and config fingerprint, persisted as
stats.json next to the segments.
"""

from __future__ import annotations

import json
import os

import pyarrow.dataset as pads

from .manifest import atomic_write_bytes


def stats_path(index_dir: str) -> str:
    return os.path.join(index_dir, "stats.json")


def term_stats_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "term_stats")


def save_stats(index_dir: str, stats: dict) -> None:
    atomic_write_bytes(stats_path(index_dir), json.dumps(stats, sort_keys=True).encode())


def load_stats(index_dir: str) -> dict:
    with open(stats_path(index_dir)) as f:
        return json.load(f)


def lookup_term_df(index_dir: str, terms: list[str]) -> dict[str, int]:
    """Global df for a (small) set of query terms — a filtered read over the
    term-sorted term_stats Parquet (row-group pruning does the work; no
    broadcast of the full vocabulary)."""
    if not terms:
        return {}
    ds = pads.dataset(term_stats_dir(index_dir), format="parquet")
    t = ds.to_table(filter=pads.field("term").isin(terms))
    return dict(zip(
        t.column("term").to_numpy(zero_copy_only=False).tolist(), t.column("df").to_numpy().tolist()
    ))
