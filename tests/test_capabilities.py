"""One capability table for both serving stacks (`QueryConfig.check`).

Every query-feature combination the engine refuses must raise a plain
ValueError with the same message from `search_to_table`,
`SearchSession.search` and `StackedSearchSession.search`, before any shard
task runs or any shard actor is asked for anything: the planner is the
first step that reaches a task or an actor (df lookup, fuzzy expansion, cf
read, the plan broadcast), so it must never be reached.

method="wand" names the default scoring loop, so it serves every feature
that maxscore serves, with the same answers.
"""

import types

import pyarrow as pa
import pytest

from flatnav_ray.config import IndexConfig, QueryConfig
from flatnav_ray.pipelines import query as Q
from flatnav_ray.pipelines.build import build_index
from flatnav_ray.stages import search as S

FEATURES = {
    "neg": ({}, {"neg_text": ["the"]}),
    "must": ({}, {"must_text": ["a"]}),
    "after": ({}, {"after_score": [1.0], "after_doc": [1]}),
    "sort_by": ({"sort_by": "doc_len"}, {}),
    "filter_lang": ({"filter_lang": "en"}, {}),
    "filter_len": ({"filter_len_min": 3}, {}),
    "boosts": ({"boosts": {"a": 2.0}}, {}),
    "synonyms": ({"synonyms": {"a": ("b",)}}, {}),
    "fuzzy": ({"fuzzy_max_edits": 1}, {}),
}
METHODS = {
    "and": {"method": "and"},
    "phrase": {"method": "phrase"},
    "msm": {"min_should_match": 2},
}
# (id, QueryConfig kwargs, extra query columns, stacked sessions only)
COMBOS = [
    (f"{m}+{f}", {**mkw, **fkw}, cols, False)
    for m, mkw in METHODS.items() for f, (fkw, cols) in FEATURES.items()
] + [
    # min_should_match is a floor of the default loop: no other method has it
    (f"msm+{m}", {"method": m, "min_should_match": 2}, {}, False)
    for m in ("and", "phrase")
] + [
    ("unknown-method", {"method": "phrse"}, {}, False),
    ("synonyms+fuzzy", {"synonyms": {"a": ("b",)}, "fuzzy_max_edits": 1}, {}, False),
    ("synonyms+lmd", {"synonyms": {"a": ("b",)}, "scorer": "lmd"}, {}, False),
    ("phrase-on-stack", {"method": "phrase"}, {}, True),
    ("lmd-on-stack", {"scorer": "lmd"}, {}, True),
]
STACKS = ("search_to_table", "SearchSession", "StackedSearchSession")
CASES = [
    pytest.param(stack, combo, id=f"{combo[0]}-{stack}")
    for combo in COMBOS for stack in STACKS
    if stack == "StackedSearchSession" or not combo[3]
]


@pytest.fixture(scope="module")
def stacks(ray_session, small_corpus, tmp_path_factory):
    import ray.data

    from flatnav_ray.pipelines.ingest import add_documents, open_session

    pages, _ = small_corpus
    root = tmp_path_factory.mktemp("capabilities")
    ix, stacked = str(root / "ix"), str(root / "stacked")
    build_index(ray.data.from_arrow(pages.slice(0, 200)), ix, IndexConfig(num_partitions=2))
    build_index(ray.data.from_arrow(pages.slice(0, 150)), stacked, IndexConfig(num_partitions=2))
    add_documents(stacked, ray.data.from_arrow(pages.slice(150, 50)), mode="stack")
    plain, stack = open_session(ix, num_actors=1), open_session(stacked, num_actors=1)
    assert type(plain) is S.SearchSession and type(stack) is S.StackedSearchSession
    yield {
        "search_to_table": lambda q, cfg: Q.search_to_table(ix, q, cfg),
        "SearchSession": plain.search,
        "StackedSearchSession": stack.search,
    }
    plain.shutdown()
    stack.shutdown()


def _queries(cols: dict, texts=("a b",)) -> pa.Table:
    t = pa.table({"query_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)})
    for name, vals in cols.items():
        t = t.append_column(name, pa.array(vals * len(texts)))
    return t


def _refusal(search, q, cfg) -> ValueError:
    with pytest.raises(ValueError) as err:
        search(q, cfg)
    assert type(err.value) is ValueError
    return err.value


@pytest.mark.parametrize("stack,combo", CASES)
def test_rejected_at_the_door_with_one_message(stacks, stack, combo, monkeypatch):
    name, kw, cols, stacked_only = combo

    def reached(*a, **k):
        raise AssertionError(f"{name}: planned or submitted a shard task")

    for mod in (S, Q):
        monkeypatch.setattr(mod, "make_query_plan", reached)
    monkeypatch.setattr(Q, "_op_task", types.SimpleNamespace(remote=reached))
    cfg, q = QueryConfig(k=5, **kw), _queries(cols)
    msg = str(_refusal(stacks[stack], q, cfg))
    if stacked_only:
        assert "generation stack" in msg and "compact" in msg
    else:
        assert msg == str(_refusal(stacks["search_to_table"], q, cfg))


# (id, QueryConfig kwargs, extra query columns): every feature, and msm 2
SERVED = [(f"wand+{f}", fkw, cols) for f, (fkw, cols) in FEATURES.items()] + [
    ("msm+wand", {"min_should_match": 2}, {}),
]


@pytest.mark.parametrize("stack,combo", [
    pytest.param(stack, combo, id=f"{combo[0]}-{stack}") for combo in SERVED for stack in STACKS
])
def test_wand_serves_as_maxscore(stacks, stack, combo):
    name, kw, cols = combo
    q = _queries(cols, ("a b", "the w000010", "w000042 a of"))
    want = stacks[stack](q, QueryConfig(k=5, **kw))
    assert stacks[stack](q, QueryConfig(k=5, method="wand", **kw)).equals(want), name
    assert len(want), name
