"""The segment format across versions, and its checks under `python -O`.

A posting list is read from its df and its two blobs only. Segments written
by an older version also carry per-block maxima (`block_max_tf`,
`block_min_dl`) between `block_last_doc` and `block_doc_offs`; a stack
whose base segments carry them and whose delta does not must serve the
oracle's answers, and its compaction must keep those answers and write
segments without them.

The format and config checks raise `ValueError`, so they hold under
`python -O` too: a segment row whose df disagrees with its blobs, a
generation stack with no generation and a merge of indexes built with
different block sizes all fail loud in a subprocess run with `-O`.
"""

import glob
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from flatnav_ray.config import IndexConfig
from flatnav_ray.functions.codec import decode_segment_postings
from flatnav_ray.pipelines.build import build_index
from flatnav_ray.stages.build import docmap_path, segment_path

PARTS = 3
BLOCK = 16  # several blocks per list on a small corpus
MAXIMA = ["block_max_tf", "block_min_dl"]

# the segment schema of the version that wrote the per-block maxima
OLD_SEGMENT_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int32()),
        ("doc_blob", pa.binary()),
        ("tf_blob", pa.binary()),
        ("block_last_doc", pa.list_(pa.int64())),
        ("block_max_tf", pa.list_(pa.int32())),
        ("block_min_dl", pa.list_(pa.int32())),
        ("block_doc_offs", pa.list_(pa.int32())),
        ("block_tf_offs", pa.list_(pa.int32())),
    ]
)


def _with_maxima(ix: str, partition: int) -> None:
    """Rewrite one segment the way the older version wrote it: per block of
    `BLOCK` postings, the largest tf and the smallest doc length."""
    path = segment_path(ix, partition)
    seg = pq.read_table(path)
    lens = pq.read_table(docmap_path(ix, partition), columns=["doc_len"]).column(0).to_numpy()
    row_of, pos, tfs = decode_segment_postings(
        seg.column("doc_blob"), seg.column("tf_blob"), seg.column("df"), block_size=BLOCK
    )
    dls = lens[pos].astype(np.int64)
    max_tf, min_dl = [], []
    for r in range(seg.num_rows):
        sel = np.flatnonzero(row_of == r)
        starts = np.arange(0, sel.size, BLOCK)
        max_tf.append(np.maximum.reduceat(tfs[sel], starts).astype(np.int32).tolist())
        min_dl.append(np.minimum.reduceat(dls[sel], starts).astype(np.int32).tolist())
    assert [len(b) for b in max_tf] == [len(b) for b in seg.column("block_last_doc").to_pylist()]
    old = pa.table(
        [seg.column(n) for n in ("term", "df", "doc_blob", "tf_blob", "block_last_doc")]
        + [pa.array(max_tf, pa.list_(pa.int32())), pa.array(min_dl, pa.list_(pa.int32()))]
        + [seg.column(n) for n in ("block_doc_offs", "block_tf_offs")],
        schema=OLD_SEGMENT_SCHEMA,
    )
    pq.write_table(old, path)


def _segment_names(path: str) -> list[str]:
    return pq.read_schema(path).names


def test_old_base_and_new_delta_serve_and_compact(ray_session, tmp_path):
    import ray.data

    from flatnav_ray.pipelines.build import prepare_batch
    from flatnav_ray.pipelines.ingest import (
        add_documents,
        compact,
        delete_documents,
        list_generations,
        open_session,
    )
    from flatnav_ray.pipelines.oracle import brute_force_topk
    from flatnav_ray.sources.synth import PagesGenerator, queries_table
    from flatnav_ray.stages.build import dedup_latest

    gen = PagesGenerator(seed=81, vocab_size=800, mean_len=40, dup_rate=0.0)
    a, b = gen.chunk(0, 300), gen.chunk(1, 80)
    ix = str(tmp_path / "ix")
    build_index(ray.data.from_arrow(a), ix, IndexConfig(num_partitions=PARTS, block_size=BLOCK))
    for p in range(PARTS):
        _with_maxima(ix, p)
    # the delta re-adds 30 base urls (shadowing their base copies) and 40
    # base urls are deleted
    add_documents(ix, ray.data.from_arrow(pa.concat_tables([a.slice(0, 30), b])), mode="stack")
    deleted = set(a.column("url").to_pylist()[100:140])
    delete_documents(ix, urls=sorted(deleted))
    base, delta = list_generations(ix)
    for p in range(PARTS):
        assert pq.read_schema(segment_path(base, p)).equals(OLD_SEGMENT_SCHEMA)
        assert not set(MAXIMA) & set(_segment_names(segment_path(delta, p)))

    docs = dedup_latest(prepare_batch(pa.concat_tables([a, b]), PARTS, None))
    docs = docs.filter(pa.array([u not in deleted for u in docs.column("url").to_pylist()]))
    queries = queries_table(20, seed=82, vocab_size=800)
    want = brute_force_topk(docs.select(["doc_id", "text"]), queries, k=10)
    assert want.num_rows > 100
    cols = ["query_id", "rank", "doc_id", "score"]

    def serve():
        sess = open_session(ix, num_actors=2)
        try:
            return sess.search(queries)
        finally:
            sess.shutdown()

    stacked = serve()
    assert stacked.select(cols).equals(want.select(cols))

    compact(ix)
    assert list_generations(ix) == [ix]
    segs = glob.glob(os.path.join(ix, "segments", "part-*.parquet"))
    assert len(segs) == PARTS
    for p in segs:
        names = _segment_names(p)
        assert not set(MAXIMA) & set(names), names
    assert serve().equals(stacked)


_UNDER_O = r"""
import sys
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from flatnav_ray.functions.codec import decode_segment_postings
from flatnav_ray.stages.build import segment_path
from flatnav_ray.stages.compact import merge_indexes
from flatnav_ray.stages.search import StackedSearchSession, _ShardState

assert not __debug__, "run with python -O"
ix, other = sys.argv[1], sys.argv[2]


def raises(fn, match):
    try:
        fn()
    except ValueError as e:
        assert match in str(e), e
        return
    raise SystemExit(f"no ValueError for {match!r}")


st = _ShardState(ix, 0, 128)
row = int(np.flatnonzero(st._df >= 2)[0])
seg = pq.read_table(segment_path(ix, 0))
df = seg.column("df").to_numpy().copy()
df[row] += 1
pq.write_table(seg.set_column(1, "df", pa.array(df, pa.int32())), segment_path(ix, 0))
bad = _ShardState(ix, 0, 128)
raises(lambda: bad.live_term_doc_ids(bad._terms_list[row]), "blob/df mismatch")
raises(lambda: bad._decode_rows(np.arange(len(bad._terms_list))), "blob/df mismatch")
seg = pq.read_table(segment_path(ix, 0))
raises(lambda: decode_segment_postings(seg.column("doc_blob"), seg.column("tf_blob"),
                                       seg.column("df")), "blob/df mismatch")
raises(lambda: StackedSearchSession([]), "empty generation stack")
raises(lambda: merge_indexes([ix, other], ix + "-merged"), "block_size mismatch")
print("OK")
"""


def test_format_and_config_checks_raise_under_python_O(ray_session, tmp_path):
    import ray.data

    from flatnav_ray.sources.synth import PagesGenerator

    ix, other = str(tmp_path / "ix"), str(tmp_path / "other")
    build_index(ray.data.from_arrow(PagesGenerator(seed=83, vocab_size=300).chunk(0, 120)), ix,
                IndexConfig(num_partitions=2))
    shutil.copytree(ix, other)
    with open(os.path.join(other, "stats.json")) as f:
        stats = json.load(f)
    stats["block_size"] = 64
    with open(os.path.join(other, "stats.json"), "w") as f:
        json.dump(stats, f)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O, ix, other], capture_output=True, text=True,
        cwd=root, env={**os.environ, "PYTHONPATH": root}, timeout=120,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip().endswith("OK")
