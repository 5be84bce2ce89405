"""Seeded inputs, generated once per seed before any timing and cached in
`.perfbench/seed-<n>/` under the checkout. The engine sees only these files.

Everything here is a pure function of the seed: the corpus is
`PagesGenerator(seed)` Parquet with its defaults, queries come from
`queries_table` with seeds derived from (seed, tag), and the oracle answers
come from `brute_force_topk` over the `dedup_latest` live documents.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

N_PAGES = 5000
NUM_PARTITIONS = 8
CHUNK_ROWS = 1000
ADD_PAGES = 500
DELETE_URLS = 100
SAMPLE_QUERIES = 12
K = 10
# query ids of the oracle sample, appended to timed batches, sit far above
# the ids of the fresh queries they ride along with
SAMPLE_QID0 = 1 << 40
# added pages use chunk indices past the base corpus, so their urls are new
ADD_CHUNK0 = 100_000
MAX_CACHED_SEEDS = 24


def derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence([abs(int(p)) for p in parts]).generate_state(1)[0])


def _atomic_dir(final: str, fill) -> None:
    """Run `fill(tmp_dir)` and rename the result into place, so a killed run
    never leaves a half-written cache entry."""
    tmp = f"{final}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    fill(tmp)
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)


def _atomic_parquet(table: pa.Table, path: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


def _oracle(pages: pa.Table, queries: pa.Table, deleted: set[str] = frozenset()) -> pa.Table:
    from flatnav_ray.pipelines.build import prepare_batch
    from flatnav_ray.pipelines.oracle import brute_force_topk
    from flatnav_ray.stages.build import dedup_latest

    live = dedup_latest(prepare_batch(pages, NUM_PARTITIONS, None))
    if deleted:
        keep = [u not in deleted for u in live.column("url").to_pylist()]
        live = live.filter(pa.array(keep))
    return brute_force_topk(live.select(["doc_id", "text"]), queries, k=K)


class Inputs:
    """The cached inputs of one seed."""

    def __init__(self, root: str, seed: int):
        self.seed = seed
        self.cache = os.path.join(root, ".perfbench")
        self.dir = os.path.join(self.cache, f"seed-{seed}")
        os.makedirs(self.dir, exist_ok=True)
        os.utime(self.dir)
        self.pages_dir = os.path.join(self.dir, "pages")
        self.base_dir = os.path.join(self.dir, "base")
        self._urls = None

    def prune(self) -> None:
        """Keep the inputs of the most recently used seeds only."""
        dirs = [
            os.path.join(self.cache, d) for d in os.listdir(self.cache)
            if d.startswith("seed-") and ".tmp-" not in d
        ]
        dirs.sort(key=os.path.getmtime, reverse=True)
        for d in dirs[MAX_CACHED_SEEDS:]:
            if d != self.dir:
                shutil.rmtree(d, ignore_errors=True)

    # ---- corpus ----------------------------------------------------------

    def pages(self) -> str:
        if not os.path.isdir(self.pages_dir):
            from flatnav_ray.sources.synth import PagesGenerator

            gen = PagesGenerator(seed=self.seed)

            def fill(tmp):
                for i in range(0, N_PAGES, CHUNK_ROWS):
                    c = i // CHUNK_ROWS
                    pq.write_table(
                        gen.chunk(c, min(CHUNK_ROWS, N_PAGES - i)),
                        os.path.join(tmp, f"chunk-{c:04d}.parquet"),
                    )

            _atomic_dir(self.pages_dir, fill)
        return self.pages_dir

    def pages_table(self) -> pa.Table:
        return pq.read_table(self.pages())

    def add_pages(self, cycle: int) -> str:
        """Parquet file of the `cycle`-th batch of new pages for `refresh`."""
        path = os.path.join(self.dir, f"add-{cycle:03d}.parquet")
        if not os.path.exists(path):
            from flatnav_ray.sources.synth import PagesGenerator

            _atomic_parquet(PagesGenerator(seed=self.seed).chunk(ADD_CHUNK0 + cycle, ADD_PAGES), path)
        return path

    def delete_urls(self, cycle: int) -> list[str]:
        """The `cycle`-th batch of base urls to delete; batches are disjoint."""
        if self._urls is None:
            urls = sorted(set(pq.read_table(self.pages(), columns=["url"]).column("url").to_pylist()))
            order = np.random.default_rng(derived_seed(self.seed, 3)).permutation(len(urls))
            self._urls = [urls[i] for i in order]
        return self._urls[cycle * DELETE_URLS:(cycle + 1) * DELETE_URLS]

    # ---- queries ---------------------------------------------------------

    def queries(self, n: int, *tag: int) -> pa.Table:
        """A fresh query set per tag (60% head / 30% mixed / 10% rare terms)."""
        from flatnav_ray.sources.synth import queries_table

        return queries_table(n, seed=derived_seed(self.seed, 1, *tag))

    def sample(self) -> pa.Table:
        """The fixed oracle sample, with ids that cannot clash with `queries`."""
        from flatnav_ray.sources.synth import queries_table

        q = queries_table(SAMPLE_QUERIES, seed=derived_seed(self.seed, 2))
        return q.set_column(
            0, "query_id", pa.array(np.arange(SAMPLE_QUERIES, dtype=np.int64) + SAMPLE_QID0)
        )

    def with_sample(self, queries: pa.Table) -> pa.Table:
        return pa.concat_tables([queries, self.sample()])

    # ---- oracle answers --------------------------------------------------

    def oracle(self) -> pa.Table:
        """brute_force_topk of the sample over the base corpus."""
        path = os.path.join(self.dir, "oracle-base.parquet")
        if not os.path.exists(path):
            _atomic_parquet(_oracle(self.pages_table(), self.sample()), path)
        return pq.read_table(path)

    def refresh_oracle(self, cycles: int) -> pa.Table:
        """brute_force_topk of the sample over base + the first `cycles` adds
        − the first `cycles` deletes."""
        path = os.path.join(self.dir, f"oracle-refresh-{cycles:03d}.parquet")
        if not os.path.exists(path):
            pages = pa.concat_tables(
                [self.pages_table()] + [pq.read_table(self.add_pages(c)) for c in range(cycles)]
            )
            deleted = {u for c in range(cycles) for u in self.delete_urls(c)}
            _atomic_parquet(_oracle(pages, self.sample(), deleted), path)
        return pq.read_table(path)

    # ---- prebuilt indexes --------------------------------------------------

    def base_index(self) -> tuple[str, dict]:
        """The pristine base index of `serve` and `refresh`, built once per
        seed. Runs copy it; nothing writes into it."""
        meta_path = os.path.join(self.base_dir, "perfbench-meta.json")
        if not os.path.exists(meta_path):
            import ray.data

            from flatnav_ray.config import IndexConfig
            from flatnav_ray.pipelines.build import build_index

            pages = self.pages()

            def fill(tmp):
                res = build_index(
                    ray.data.read_parquet(pages), tmp,
                    IndexConfig(num_partitions=NUM_PARTITIONS), resume=False,
                )
                with open(os.path.join(tmp, "perfbench-meta.json"), "w") as f:
                    json.dump({"n_docs": res.n_docs, "bytes": res.bytes}, f)

            _atomic_dir(self.base_dir, fill)
        with open(meta_path) as f:
            return self.base_dir, json.load(f)

    # ---- everything a run reads ------------------------------------------

    def _needs(self, workload: str, refresh_cycles: int) -> list[str]:
        paths = [self.pages_dir, os.path.join(self.dir, "oracle-base.parquet")]
        if workload != "batch-job":
            paths.append(os.path.join(self.base_dir, "perfbench-meta.json"))
        if workload == "refresh":
            paths += [os.path.join(self.dir, f"add-{c:03d}.parquet") for c in range(refresh_cycles)]
            paths.append(os.path.join(self.dir, f"oracle-refresh-{refresh_cycles:03d}.parquet"))
        return paths

    def ready(self, workload: str, refresh_cycles: int) -> bool:
        return all(os.path.exists(p) for p in self._needs(workload, refresh_cycles))

    def prepare(self, workload: str, refresh_cycles: int) -> None:
        """Generate and cache every input of one run of `workload`."""
        self.pages()
        self.oracle()
        if workload != "batch-job":
            self.base_index()
        if workload == "refresh":
            for c in range(refresh_cycles):
                self.add_pages(c)
            self.refresh_oracle(refresh_cycles)
