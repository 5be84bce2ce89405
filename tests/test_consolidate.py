"""Streaming spill merge — crash windows.

The map side writes each partial as a post-/meta- file pair, post first; a
meta file is the commit marker the merge keys on. A crashed map task can
therefore leave only an orphan post file, and the merge must build the
same segments with or without it.
"""

import os

import pyarrow as pa
import pytest

from flatnav_ray.config import IndexConfig
from flatnav_ray.stages.introspect import canonical_postings
from flatnav_ray.stages.twophase import map_partial_spill, merge_spilled_partition


@pytest.fixture(scope="module")
def corpus():
    from flatnav_ray.sources.synth import pages_table

    # recrawl-heavy corpus: duplicate urls across batches so cross-partial
    # winner resolution is exercised by the merge
    a = pages_table(400, seed=7, vocab_size=800, mean_len=40)
    b = pages_table(400, seed=8, vocab_size=800, mean_len=40)
    return pa.concat_tables([a, b.slice(0, 200), a.slice(0, 120)])


class TestStreamingMergeCrashWindows:
    def test_orphan_post_file_ignored(self, corpus, tmp_path):
        """A crashed map task can leave a post- file without its meta-
        commit marker; the meta-driven merge must produce the identical
        segment as a spill without the orphan."""
        cfg = IndexConfig(num_partitions=4)
        spill_a, spill_b = str(tmp_path / "sa"), str(tmp_path / "sb")
        for off in range(0, len(corpus), 150):
            batch = corpus.slice(off, 150)
            map_partial_spill(batch, 4, None, spill_a)
            map_partial_spill(batch, 4, None, spill_b)
        # orphan: copy one post file under a fresh uid with NO meta pair
        import shutil

        d = os.path.join(spill_b, "part=00000")
        post = sorted(f for f in os.listdir(d) if f.startswith("post-"))[0]
        shutil.copy(os.path.join(d, post), os.path.join(d, "post-deadbeef.arrows"))
        ix_a, ix_b = str(tmp_path / "ixa"), str(tmp_path / "ixb")
        os.makedirs(ix_a), os.makedirs(ix_b)
        for p in range(4):
            merge_spilled_partition(p, spill_a, ix_a, cfg)
            merge_spilled_partition(p, spill_b, ix_b, cfg)
        assert canonical_postings(ix_a).equals(canonical_postings(ix_b))
