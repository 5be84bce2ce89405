"""BM25 scoring kernels — the grafted distance functions (SURVEY.md §2.2 M6/M7).

Plays the role of the reference's pluggable SIMD distance kernels
(/root/reference/include/flatnav/distances/SquaredL2Distance.h:40-44,
InnerProductDistance.h:39-43, DistanceInterface.h:22-59 CRTP): a `Scorer`
protocol with a vectorized default (BM25, Lucene idf variant) and a TF-IDF
alternate, both pure numpy over decoded posting blocks.

Determinism contract (north_rule rank-identity): scores are computed in
float64 with a fixed accumulation order (query terms sorted lexicographically),
ties broken (score desc, doc_id asc). k1=1.2, b=0.75 defaults match the
brute-force oracle and the DuckDB oracle SQL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

K1_DEFAULT = 1.2
B_DEFAULT = 0.75


def idf(df: np.ndarray | float, n_docs: int) -> np.ndarray | float:
    """Lucene/BM25+ idf: ln(1 + (N - df + 0.5) / (df + 0.5)) — always > 0,
    which block-max pruning relies on (score upper bounds stay monotone).

    Scalar inputs go through libm's log1p, NOT numpy's SIMD kernel: the two
    differ in the last ULP for ~20% of inputs, and the rank-identity contract
    needs the engine and the brute-force oracle to compute the identical
    float (the engine only ever evaluates idf per distinct query term, so the
    scalar path is the hot one anyway)."""
    if np.ndim(df) == 0:
        return math.log1p((n_docs - float(df) + 0.5) / (float(df) + 0.5))
    return np.log1p((n_docs - np.asarray(df, dtype=np.float64) + 0.5) / (np.asarray(df, dtype=np.float64) + 0.5))


def bm25_term_scores(
    tfs: np.ndarray,
    doc_lens: np.ndarray,
    df: int,
    n_docs: int,
    avgdl: float,
    k1: float = K1_DEFAULT,
    b: float = B_DEFAULT,
) -> np.ndarray:
    """Vectorized per-posting BM25 contribution of one term."""
    return _bm25(float(idf(float(df), n_docs)), tfs, doc_lens, avgdl, k1, b)


def _bm25(w, tfs, doc_lens, avgdl, k1, b) -> np.ndarray:
    """BM25 with idf weight `w`: a scalar, or one value per posting (the
    same float ops per element either way, so the results are identical)."""
    tf = tfs.astype(np.float64)
    dl = doc_lens.astype(np.float64)
    denom = tf + k1 * (1.0 - b + b * dl / avgdl)
    return w * (tf * (k1 + 1.0)) / denom


def _posting_idf(row_of: np.ndarray, dfs, n_docs: int) -> np.ndarray:
    """Each posting's term idf: the scalar libm idf per term (see `idf`),
    broadcast over that term's postings (one term: the scalar itself)."""
    if len(dfs) == 1:
        return float(idf(float(dfs[0]), n_docs))
    return np.array([idf(float(df), n_docs) for df in dfs], dtype=np.float64)[row_of]


def bm25_block_upper_bound(
    block_max_tf: np.ndarray,
    block_min_dl: np.ndarray,
    df: int,
    n_docs: int,
    avgdl: float,
    k1: float = K1_DEFAULT,
    b: float = B_DEFAULT,
) -> np.ndarray:
    """Per-block score upper bound from (max tf, min doc_len) — valid because
    the BM25 term score is increasing in tf and decreasing in doc_len."""
    return bm25_term_scores(block_max_tf, block_min_dl, df, n_docs, avgdl, k1, b)


@dataclass(frozen=True)
class Bm25Scorer:
    """Default scorer (SURVEY.md M6)."""

    k1: float = K1_DEFAULT
    b: float = B_DEFAULT
    name: str = "bm25"

    def term_scores(self, tfs, doc_lens, df, n_docs, avgdl, term=None, plan=None):
        return bm25_term_scores(tfs, doc_lens, df, n_docs, avgdl, self.k1, self.b)

    def many_term_scores(self, tfs, doc_lens, row_of, dfs, n_docs, avgdl,
                         terms=None, plan=None):
        """term_scores of several terms in one pass: posting j belongs to
        term row_of[j], whose global df is dfs[row_of[j]]."""
        return _bm25(_posting_idf(row_of, dfs, n_docs), tfs, doc_lens, avgdl, self.k1, self.b)

    def block_bound(self, block_max_tf, block_min_dl, df, n_docs, avgdl,
                    term=None, plan=None):
        return bm25_block_upper_bound(block_max_tf, block_min_dl, df, n_docs, avgdl, self.k1, self.b)


@dataclass(frozen=True)
class TfIdfScorer:
    """Alternate pluggable scorer (SURVEY.md M7 — the 'second metric').

    score = idf * (tf / doc_len) — the ratio is computed FIRST so docs with
    equal rational tf/dl (3/27 == 4/36) round to the identical double and tie
    exactly, independent of idf's last-ULP value; (idf*tf)/dl would let the
    idf ULP decide near-ties differently than the SQL oracle."""

    name: str = "tfidf"

    def term_scores(self, tfs, doc_lens, df, n_docs, avgdl, term=None, plan=None):
        return self._scores(float(idf(float(df), n_docs)), tfs, doc_lens)

    def many_term_scores(self, tfs, doc_lens, row_of, dfs, n_docs, avgdl,
                         terms=None, plan=None):
        return self._scores(_posting_idf(row_of, dfs, n_docs), tfs, doc_lens)

    @staticmethod
    def _scores(w, tfs, doc_lens):
        return w * (tfs.astype(np.float64) / np.maximum(doc_lens.astype(np.float64), 1.0))

    def block_bound(self, block_max_tf, block_min_dl, df, n_docs, avgdl,
                    term=None, plan=None):
        w = float(idf(float(df), n_docs))
        return w * (block_max_tf.astype(np.float64) / np.maximum(block_min_dl.astype(np.float64), 1.0))


@dataclass(frozen=True)
class LmDirichletScorer:
    """LM Dirichlet similarity (Lucene LMDirichletSimilarity; Zhai & Lafferty
    2001) — the third pluggable similarity, exercising a scorer that needs
    COLLECTION frequency, not just df: per matching term,

        score = max(0, ln(1 + tf / (mu * p_t)) + ln(mu / (mu + dl)))

    with p_t = cf_t / total_len (collection language model). cf arrives on
    the broadcast QueryPlan (`term_cf`, loaded lazily for the plan's distinct
    terms by a pruned per-partition read — segments are NOT rescanned per
    posting), total_len = sum_doc_len from the index stats.

    Determinism contract: every ln goes through libm (math.log) per DISTINCT
    operand — numpy's SIMD log differs from libm in the last ULP for a few
    inputs, and the driver's DuckDB oracle hashes exact float64 values. The
    per-call unique() loops are bounded by distinct tf values (tiny) and
    distinct doc lengths (cached per scorer instance across terms/queries)."""

    mu: float = 2000.0
    name: str = "lmd"
    needs_cf: bool = True

    def _mup(self, term, plan) -> float:
        cf = plan.term_cf.get(term, 0) if plan.term_cf else 0
        if cf <= 0:
            return 0.0
        # association mirrors the oracle SQL exactly: mu * (cf / total)
        return self.mu * (cf / plan.total_len)

    def term_scores(self, tfs, doc_lens, df, n_docs, avgdl, term=None, plan=None):
        if plan is None or plan.term_cf is None or plan.total_len is None:
            raise ValueError("scorer 'lmd' needs term_cf/total_len on the QueryPlan")
        mup = self._mup(term, plan)
        if mup <= 0.0:
            return np.zeros(tfs.shape[0], dtype=np.float64)
        utf, tinv = np.unique(tfs.astype(np.float64), return_inverse=True)
        tfpart = np.fromiter(
            (math.log(1.0 + (t / mup)) for t in utf), dtype=np.float64, count=utf.size
        )[tinv]
        udl, dinv = np.unique(doc_lens.astype(np.float64), return_inverse=True)
        dlpart = np.fromiter(
            (math.log(self.mu / (self.mu + d)) for d in udl),
            dtype=np.float64, count=udl.size,
        )[dinv]
        return np.maximum(tfpart + dlpart, 0.0)

    def many_term_scores(self, tfs, doc_lens, row_of, dfs, n_docs, avgdl,
                         terms=None, plan=None):
        # per term: each term has its own collection frequency
        ends = np.searchsorted(row_of, np.arange(1, len(dfs) + 1))
        out = np.empty(tfs.shape[0], dtype=np.float64)
        lo = 0
        for term, df, hi in zip(terms, dfs, ends.tolist()):
            out[lo:hi] = self.term_scores(
                tfs[lo:hi], doc_lens[lo:hi], df, n_docs, avgdl, term=term, plan=plan
            )
            lo = hi
        return out

    def block_bound(self, block_max_tf, block_min_dl, df, n_docs, avgdl,
                    term=None, plan=None):
        if plan is None or plan.term_cf is None or plan.total_len is None:
            raise ValueError("scorer 'lmd' needs term_cf/total_len on the QueryPlan")
        mup = self._mup(term, plan)
        if mup <= 0.0:
            return np.zeros(np.asarray(block_max_tf).shape[0], dtype=np.float64)
        raw = np.log1p(block_max_tf.astype(np.float64) / mup) + np.log(
            self.mu / (self.mu + block_min_dl.astype(np.float64))
        )
        # numpy's SIMD log can land 1 ULP BELOW libm's; inflate so the bound
        # stays a true upper bound of the libm-exact per-posting scores
        return np.maximum(raw, 0.0) * (1.0 + 1e-9) + 1e-12


SCORERS = {"bm25": Bm25Scorer(), "tfidf": TfIdfScorer(), "lmd": LmDirichletScorer()}


def bm25_score_py(tf: int, dl: int, df: int, n_docs: int, avgdl: float,
                  k1: float = K1_DEFAULT, b: float = B_DEFAULT) -> float:
    """Scalar closed-form reference used by kernel tests (tests/test_bm25.py)."""
    w = math.log1p((n_docs - df + 0.5) / (df + 0.5))
    return w * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * dl / avgdl))


def topk_select(scores: np.ndarray, doc_ids: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic top-k: (score desc, doc_id asc); returns (doc_ids, scores)."""
    n = scores.size
    if n == 0:
        return doc_ids[:0], scores[:0]
    if n > k:
        # partition prune before the exact sort; keep everything tied with
        # the k-th score so the doc_id tiebreak stays deterministic. One
        # negated temporary (the partition input) — the threshold compare
        # runs on the original array, saving a full negated pass per query
        # in the hottest serving loop
        kth = -np.partition(-scores, k - 1)[k - 1]
        cand = np.flatnonzero(scores >= kth)
    else:
        cand = np.arange(n)
    order = np.lexsort((doc_ids[cand], -scores[cand]))
    sel = cand[order][:k]
    return doc_ids[sel], scores[sel]
