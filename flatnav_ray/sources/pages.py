"""Pages-table sources: the pages schema + driver-testdata adapter.

Graft of the reference's extension-dispatched dataset loaders
(/root/reference/experiments/data_loader.py:222-243 `get_data_loader` picks a
loader by file extension; range-sliced big inputs at data_loader.py:92-219).
Here Parquet is the only on-disk format (BASELINE.json input_hint) and the
reader is `ray.data.read_parquet(paths, columns=...)` itself: range slicing =
Parquet row-group splitting, column pruning happens at the read.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

_EPOCH_US = 1735689600_000000  # 2025-01-01T00:00:00Z


def documents_as_pages(sf_dir: str) -> ray.data.Dataset:
    """Adapt the driver's documents table (TESTDATA.md) into the pages shape
    (FIXTURES.md §4): url := source || '/' || doc_id, html := NULL (text is
    already extracted), warc_ts := fixed epoch."""

    def _adapt(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        doc_id = batch.column("doc_id")
        url = pc.binary_join_element_wise(
            batch.column("source").cast(pa.string()),
            doc_id.cast(pa.string()),
            "/",
        )
        n = len(batch)
        return pa.table(
            {
                "url": url,
                "warc_ts": pa.array([_EPOCH_US] * n, type=pa.int64()).cast(pa.timestamp("us")),
                "html": pa.nulls(n, type=pa.binary()),
                "text": batch.column("text"),
                "lang": batch.column("lang"),
                # carry the driver's doc_id through so oracle SQL can refer to it
                "ext_doc_id": doc_id.cast(pa.int64()),
            }
        )

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet").map_batches(
        _adapt, batch_format="pyarrow"
    )
