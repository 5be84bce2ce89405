"""The segment format across versions, and its checks under `python -O`.

A posting list is read from its df and its two blobs only, and every writer
writes exactly those columns (`POSTING_COLUMNS`; the term layout adds
`dl_blob`), with a bit-packed `tf_blob` and the tf codec tag in the file's
key-value metadata. Segments written by older versions have no tag and a
varint `tf_blob` (one varint per posting), and the oldest carry more
columns: three block lists (`block_last_doc`, `block_doc_offs`,
`block_tf_offs`), and before that also per-block maxima (`block_max_tf`,
`block_min_dl`) between `block_last_doc` and `block_doc_offs`. A stack whose
base segments carry any old schema and whose delta does not must serve the
oracle's answers, and its compaction must keep those answers and write
tagged, packed segments without the old columns.

The format and config checks raise `ValueError`, so they hold under
`python -O` too: a segment row whose df disagrees with its blobs, a
segment whose tf codec tag is unknown, an empty
posting list given to the encoder, a generation stack with no generation, a
merge of indexes built with different block sizes, an incremental add or
delete the index cannot take, an unknown docid strategy, a term-layout
searcher over a doc-layout index, a product quantizer whose dimension does
not split, a positional sidecar built from another corpus and a sidecar
partition too wide for its packed sort key all fail loud in a subprocess
run with `-O`.
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
import pytest

from flatnav_ray.config import IndexConfig
from flatnav_ray.functions.codec import (
    TF_CODEC,
    TF_CODEC_KEY,
    decode_segment_postings,
    encode_varint_with_lens,
)
from flatnav_ray.pipelines.build import build_index
from flatnav_ray.stages.build import POSTING_COLUMNS, SEGMENT_SCHEMA, docmap_path, segment_path

PARTS = 3
BLOCK = 16  # several blocks per list on a small corpus
BLOCK_LISTS = [("block_last_doc", pa.int64()), ("block_doc_offs", pa.int32()),
               ("block_tf_offs", pa.int32())]
MAXIMA = [("block_max_tf", pa.int32()), ("block_min_dl", pa.int32())]
OLD_COLUMNS = [n for n, _ in BLOCK_LISTS + MAXIMA]

# the segment schemas older versions wrote, all untagged with a varint tf
# stream: with the per-block maxima, the three block lists alone (the
# version that dropped the maxima), and the posting columns alone (the
# version that dropped the block lists)
OLD_SEGMENT_SCHEMAS = {
    name: pa.schema(list(SEGMENT_SCHEMA) + [(n, pa.list_(t)) for n, t in cols])
    for name, cols in (
        ("maxima", BLOCK_LISTS[:1] + MAXIMA + BLOCK_LISTS[1:]),
        ("block_lists", BLOCK_LISTS),
        ("varint_tf", []),
    )
}


def _block_offsets(values: np.ndarray, starts: np.ndarray) -> list[int]:
    """Byte offset in a list's varint blob at which each block starts."""
    lens = encode_varint_with_lens(values.astype(np.uint64))[1].astype(np.int64)
    return (np.cumsum(lens) - lens)[starts].tolist()


def _varint_rows(tfs: np.ndarray, dfs: np.ndarray) -> pa.Array:
    """The varint tf column older versions wrote: per row its df tfs, one
    LEB128 varint each."""
    blob, lens = encode_varint_with_lens(tfs.astype(np.uint64))
    ends = np.cumsum(lens.astype(np.int64))[np.cumsum(dfs) - 1]
    offs = np.concatenate(([0], ends)).astype(np.int32)
    return pa.BinaryArray.from_buffers(
        pa.binary(), dfs.size, [None, pa.py_buffer(offs), pa.py_buffer(blob)]
    )


def _rewrite_old(ix: str, partition: int, schema: pa.Schema) -> None:
    """Rewrite one segment the way an older version wrote it: no tf codec
    tag, a varint `tf_blob`, and every old column computed from the decoded
    postings the way its encoder did: per block of `BLOCK` postings, the last
    docmap position, the byte offsets of the block in each blob, and (maxima
    schema) the largest tf and the smallest doc length."""
    path = segment_path(ix, partition)
    seg = pq.read_table(path)
    assert seg.schema.metadata[TF_CODEC_KEY] == TF_CODEC
    lens = pq.read_table(docmap_path(ix, partition), columns=["doc_len"]).column(0).to_numpy()
    row_of, pos, tfs = decode_segment_postings(
        seg.column("doc_blob"), seg.column("tf_blob"), seg.column("df"), block_size=BLOCK
    )
    dfs = seg.column("df").to_numpy().astype(np.int64)
    varint_tf = _varint_rows(tfs, dfs)
    old = {n: [] for n in OLD_COLUMNS}
    for r in range(seg.num_rows):
        sel = np.flatnonzero(row_of == r)
        p, t = pos[sel], tfs[sel]
        starts = np.arange(0, sel.size, BLOCK)
        deltas = np.diff(p, prepend=0)
        deltas[starts] = p[starts]  # each block's first delta is absolute
        old["block_last_doc"].append(p[np.minimum(starts + BLOCK, sel.size) - 1].tolist())
        old["block_doc_offs"].append(_block_offsets(deltas, starts))
        old["block_tf_offs"].append(_block_offsets(t, starts))
        old["block_max_tf"].append(np.maximum.reduceat(t, starts).tolist())
        old["block_min_dl"].append(np.minimum.reduceat(lens[p].astype(np.int64), starts).tolist())
    # the offsets address the blobs as written
    for blob, key in ((seg.column("doc_blob"), "block_doc_offs"), (varint_tf, "block_tf_offs")):
        ends = [len(b) for b in blob.to_pylist()]
        assert all(o[-1] < e for o, e in zip(old[key], ends))
    cols = {**{n: seg.column(n) for n in POSTING_COLUMNS}, "tf_blob": varint_tf, **old}
    pq.write_table(pa.table(cols).select(schema.names).cast(schema), path)
    assert TF_CODEC_KEY not in (pq.read_schema(path).metadata or {})


def _segment_names(path: str) -> list[str]:
    return pq.read_schema(path).names


@pytest.mark.parametrize("old_schema", sorted(OLD_SEGMENT_SCHEMAS))
def test_old_base_and_new_delta_serve_and_compact(ray_session, tmp_path, old_schema):
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

    schema = OLD_SEGMENT_SCHEMAS[old_schema]
    gen = PagesGenerator(seed=81, vocab_size=800, mean_len=40, dup_rate=0.0)
    a, b = gen.chunk(0, 300), gen.chunk(1, 80)
    ix = str(tmp_path / "ix")
    build_index(ray.data.from_arrow(a), ix, IndexConfig(num_partitions=PARTS, block_size=BLOCK))
    for p in range(PARTS):
        assert _segment_names(segment_path(ix, p)) == POSTING_COLUMNS  # the build merge
        _rewrite_old(ix, p, schema)
    # the delta re-adds 30 base urls (shadowing their base copies) and 40
    # base urls are deleted
    add_documents(ix, ray.data.from_arrow(pa.concat_tables([a.slice(0, 30), b])), mode="stack")
    deleted = set(a.column("url").to_pylist()[100:140])
    delete_documents(ix, urls=sorted(deleted))
    base, delta = list_generations(ix)
    for p in range(PARTS):
        assert pq.read_schema(segment_path(base, p)).equals(schema)
        assert TF_CODEC_KEY not in (pq.read_schema(segment_path(base, p)).metadata or {})
        assert _segment_names(segment_path(delta, p)) == POSTING_COLUMNS  # the delta build
        assert pq.read_schema(segment_path(delta, p)).metadata[TF_CODEC_KEY] == TF_CODEC

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
        assert _segment_names(p) == POSTING_COLUMNS  # the fold
        assert pq.read_schema(p).metadata[TF_CODEC_KEY] == TF_CODEC
    assert serve().equals(stacked)


def test_build_partition_writes_the_posting_columns(tmp_path):
    import pyarrow.compute as pc

    from flatnav_ray.pipelines.build import prepare_batch
    from flatnav_ray.sources.synth import PagesGenerator
    from flatnav_ray.stages.build import build_partition

    ix = str(tmp_path / "ix")
    prep = prepare_batch(PagesGenerator(seed=86, vocab_size=300).chunk(0, 60), 2, None)
    for p in range(2):
        build_partition(prep.filter(pc.equal(prep.column("partition"), p)), ix, IndexConfig(num_partitions=2))
        seg = pq.read_table(segment_path(ix, p))
        assert seg.column_names == POSTING_COLUMNS and seg.num_rows > 0


_UNDER_O = r"""
import shutil
import sys
import tempfile
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from flatnav_ray.config import IndexConfig
from flatnav_ray.functions.codec import TF_CODEC_KEY, decode_segment_postings, encode_segment_table
from flatnav_ray.pipelines.ingest import add_documents, delete_documents
from flatnav_ray.stages.build import segment_path
from flatnav_ray.sources.synth import PagesGenerator
from flatnav_ray.stages import positions, twophase
from flatnav_ray.stages.compact import _merge_one, merge_indexes
from flatnav_ray.stages.pq import ProductQuantizer
from flatnav_ray.stages.search import StackedSearchSession, _ShardState
from flatnav_ray.stages.termbuild import TermIndexSearcher
from flatnav_ray.state.stats import load_stats, save_stats

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


def sidecar_partials(seed):
    t = positions.map_positions_partial(PagesGenerator(seed=seed, vocab_size=300).chunk(0, 120),
                                        2, None)
    return t.filter(pa.compute.equal(t.column("partition"), 0))


raises(lambda: positions.merge_positions_partition(sidecar_partials(84), ix),
       "does not match the index docmap")


class WideVocab:
    def __len__(self):
        return 1 << 60


same_corpus = sidecar_partials(83)
positions.union_vocab = lambda terms: (WideVocab(), np.zeros(len(terms), np.int64))
raises(lambda: positions.merge_positions_partition(same_corpus, ix), "packed key overflow")

raises(lambda: encode_segment_table(np.empty(0, np.int64), np.empty(0, np.int64),
                                    np.empty(0, np.int64)), "at least one posting")
raises(lambda: delete_documents(ix), "need urls or doc_ids")
for key, value, match in (("layout", "term", "requires the doc layout"),
                          ("docid_strategy", "dense_url", "requires docid_strategy='hash'")):
    odd = tempfile.mkdtemp()
    shutil.copytree(ix, odd, dirs_exist_ok=True)
    save_stats(odd, {**load_stats(odd), key: value})
    raises(lambda: add_documents(odd, None, mode="stack"), match)
raises(lambda: TermIndexSearcher(ix), "not a term-layout index")
spill = tempfile.mkdtemp()
twophase.map_partial_spill(PagesGenerator(seed=85, vocab_size=300).chunk(0, 40), 1, None, spill)
raises(lambda: twophase.merge_spilled_partition(
    0, spill, tempfile.mkdtemp(), IndexConfig(num_partitions=1, docid_strategy="bogus")),
    "unknown docid_strategy")
raises(lambda: ProductQuantizer.train_matrix(np.ones((16, 6)), m=4), "not divisible")
seg = pq.read_table(segment_path(ix, 1))
pq.write_table(seg.replace_schema_metadata({TF_CODEC_KEY: b"packed-v9"}), segment_path(ix, 1))
raises(lambda: _ShardState(ix, 1, 128), "unknown tf codec 'packed-v9'")
raises(lambda: _merge_one(1, [ix], tempfile.mkdtemp(), IndexConfig(num_partitions=2)),
       "unknown tf codec")
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
