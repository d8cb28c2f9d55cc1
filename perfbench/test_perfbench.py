"""Fast tests of the benchmark's own parts: the corpus generator, the
full-sort rank oracle and the tracer's self-time accounting."""

import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corpus_gen  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from checks import full_sort_ranks, popularity_ndcg20  # noqa: E402
from seqfilt.data import load_corpus  # noqa: E402
from seqfilt.evaluation import rank_of_target  # noqa: E402

TINY = corpus_gen.CorpusSpec(
    users=30, catalog=50, min_len=5, max_len=40, tail_scale=4.0,
    tail_shape=1.5, zipf=0.8, restart=0.2, successors=(3, 1),
)


def test_generator_same_seed_same_bytes(tmp_path):
    paths = [tmp_path / name for name in ("a.txt", "b.txt", "c.txt")]
    corpus_gen.write_corpus(paths[0], TINY, seed=7)
    corpus_gen.write_corpus(paths[1], TINY, seed=7)
    corpus_gen.write_corpus(paths[2], TINY, seed=8)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    corpus = load_corpus(paths[0])
    assert len(corpus.sequences) == TINY.users
    assert all(TINY.min_len <= len(s) <= TINY.max_len for s in corpus.sequences)


def _loop_ranks(scores, targets, excluded):
    return [
        rank_of_target(row, int(t), exclude=np.flatnonzero(ex))
        for row, t, ex in zip(scores, targets, excluded)
    ]


def test_full_sort_ranks_match_rank_of_target_with_ties_and_exclusions():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 4, size=(200, 12)).astype(float)  # many ties
    targets = rng.integers(1, 12, size=200)
    excluded = rng.random((200, 12)) < 0.3
    excluded[:, 0] = True
    excluded[np.arange(200), targets] = False
    assert full_sort_ranks(scores, targets, excluded).tolist() == _loop_ranks(
        scores, targets, excluded
    )


def test_full_sort_ranks_keep_an_excluded_target():
    scores = np.array([[5.0, 1.0, 3.0, 3.0]])
    excluded = np.array([[True, False, True, True]])
    # item 2 is the target: its own exclusion is lifted, item 3 stays out
    assert full_sort_ranks(scores, [2], excluded).tolist() == [1]
    assert full_sort_ranks(scores, [3], np.zeros((1, 4), bool)).tolist() == [3]


def test_popularity_ndcg20_prefers_lower_id_on_ties():
    prefixes = [[2, 1], [1, 2]]
    assert popularity_ndcg20(prefixes, [1], 3) == 1.0
    assert popularity_ndcg20(prefixes, [2], 3) == pytest.approx(1 / np.log2(3))


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children(monkeypatch):
    clock = _FakeClock()
    monkeypatch.setattr(tracer_mod, "_clock", clock)
    tr = tracer_mod.Tracer()

    def leaf(seconds):
        clock.now += seconds

    def middle():
        clock.now += 1.0
        mod.leaf(2.0)
        mod.leaf(3.0)

    def outer():
        clock.now += 0.5
        mod.middle()
        mod.leaf(4.0)

    mod = types.SimpleNamespace(leaf=leaf, middle=middle, outer=outer, __name__="mod")
    tr.install([
        (mod, "leaf", "leaf", {"count": lambda s: int(s)}),
        (mod, "middle", "middle", {}),
        (mod, "outer", "outer", {"phase": {"train": "valid"}}),
        (mod, "gone", "gone", {}),
    ])
    tr.phase = "train"
    mod.outer()
    totals = tr.totals()
    assert totals[("outer", "valid")] == [1, 10.5, 0.5, 0]
    assert totals[("middle", "valid")] == [1, 6.0, 1.0, 0]
    assert totals[("leaf", "valid")] == [3, 9.0, 9.0, 9]
    assert tr.phase == "train"
    assert tr.missing == ["mod.gone"]


def test_generator_spans_cover_each_next(monkeypatch):
    clock = _FakeClock()
    monkeypatch.setattr(tracer_mod, "_clock", clock)
    tr = tracer_mod.Tracer()

    def batches():
        for _ in range(3):
            clock.now += 2.0
            yield clock.now

    mod = types.SimpleNamespace(batches=batches, __name__="mod")
    tr.install([(mod, "batches", "batches", {"generator": True})])
    for _ in mod.batches():
        clock.now += 10.0  # the consumer's time is not the generator's
    assert tr.totals()[("batches", "setup")] == [4, 6.0, 6.0, 0]
