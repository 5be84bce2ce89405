"""percolate_matches finishes on a 1-CPU cluster: an actor pool that holds
the only CPU leaves none for the read tasks that feed it, and the entry
hangs. Runs in a subprocess with its own 1-CPU cluster, under a timeout, so
the test session's own cluster is untouched."""

import os
import subprocess
import sys

_SCRIPT = """
import sys
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from flatnav_ray.functions.tokenize import tokenize_py
from flatnav_ray.pipelines.documents import (
    _multi_term_queries, build_documents_index, percolate_matches,
)
from flatnav_ray.sources.synth import pages_table

sf = sys.argv[1]
pages = pages_table(200, seed=11, vocab_size=60, mean_len=20)
texts = pages.column("text").to_pylist()
n = len(texts)
pq.write_table(pa.table({
    "doc_id": pa.array(np.arange(n, dtype=np.int64)),
    "text": pa.array(texts, type=pa.string()),
    "lang": pa.array(["en"] * n, type=pa.string()),
    "source": pa.array([f"s{i % 3}" for i in range(n)], type=pa.string()),
}), f"{sf}/documents.parquet")
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
got = percolate_matches(sf)
qt = _multi_term_queries(build_documents_index(sf))
want = sorted(
    (d, int(q))
    for q, t in zip(qt.column("query_id").to_pylist(), qt.column("text").to_pylist())
    for d, toks in enumerate(map(set, map(tokenize_py, texts)))
    if set(tokenize_py(t)) <= toks
)
pairs = list(zip(got.column("doc_id").to_pylist(), got.column("query_id").to_pylist()))
assert pairs == want and pairs, (len(pairs), len(want))
ray.shutdown()
print("OK")
"""


def test_percolate_runs_on_one_cpu(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo)
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path)], env=env, cwd=repo,
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0 and out.stdout.strip().endswith("OK"), out.stderr[-3000:]
