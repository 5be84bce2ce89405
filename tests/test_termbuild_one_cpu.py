"""build_term_index finishes on a 1-CPU cluster: hash-shuffle and aggregate
actors that hold CPU leave none for the map and shuffle tasks that feed
them, and the build never starts. Runs in a subprocess with its own 1-CPU
cluster, under a timeout, so the test session's own cluster is untouched;
the segments it writes carry the index writer's encodings and tf codec
tag, and serve the oracle's answers."""

import os
import subprocess
import sys

_SCRIPT = """
import glob
import os
import sys
import pyarrow.parquet as pq
import ray
from flatnav_ray.config import IndexConfig
from flatnav_ray.functions.codec import TF_CODEC, TF_CODEC_KEY
from flatnav_ray.pipelines.build import prepare_batch
from flatnav_ray.pipelines.oracle import brute_force_topk
from flatnav_ray.sources.synth import PagesGenerator, queries_table
from flatnav_ray.stages.build import dedup_latest
from flatnav_ray.stages.termbuild import TermIndexSearcher, build_term_index

ix = sys.argv[1]
pages = PagesGenerator(seed=1).chunk(0, 400)
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
import ray.data
stats = build_term_index(ray.data.from_arrow(pages), ix,
                         IndexConfig(num_partitions=4, layout="term"), salt_threshold=100)
assert stats["n_heavy_terms"] > 0 and stats["n_docs"] > 0
files = glob.glob(os.path.join(ix, "term_segments", "*.parquet"))
assert files
for f in files:
    assert pq.read_schema(f).metadata[TF_CODEC_KEY] == TF_CODEC
    md = pq.ParquetFile(f).metadata
    for g in range(md.num_row_groups):
        for c in range(md.num_columns):
            col = md.row_group(g).column(c)
            name = col.path_in_schema
            assert col.compression == "ZSTD", name
            assert col.has_dictionary_page == (name == "df"), name
            assert ("DELTA_BYTE_ARRAY" in col.encodings) == (name == "term"), name
queries = queries_table(15, seed=2)
docs = dedup_latest(prepare_batch(pages, 4, None)).select(["doc_id", "text"])
cols = ["query_id", "rank", "doc_id", "score"]
got = TermIndexSearcher(ix).search(queries, k=10).select(cols)
want = brute_force_topk(docs, queries, k=10).select(cols)
assert got.num_rows > 0 and got.equals(want), (got.num_rows, want.num_rows)
ray.shutdown()
print("OK")
"""


def test_term_layout_builds_on_one_cpu(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo)
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path / "ix")], env=env, cwd=repo,
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0 and out.stdout.strip().endswith("OK"), out.stderr[-3000:]
