"""Ranking and metric tests, checked against a full-sort oracle."""

from dataclasses import replace

import numpy as np
import pytest

from seqfilt import evaluation as ev
from seqfilt.data import Corpus, Split, split_loo
from seqfilt.model import (
    ModelConfig,
    freeze_filters,
    init_params,
    model_forward,
    pad_context,
    predict_scores,
)
from seqfilt.nn import InvalidTarget
from seqfilt.train import make_synthetic


def sort_oracle_rank(scores, target, exclude=()):
    """Rank via an explicit stable sort on (-score, id)."""
    order = sorted(
        (i for i in range(len(scores)) if i == target or i not in set(exclude)),
        key=lambda i: (-scores[i], i),
    )
    return order.index(target) + 1


class TestRankOfTarget:
    def test_unique_maximum(self):
        scores = np.array([0.0, 1.0, 9.0, 2.0])
        assert ev.rank_of_target(scores, 2) == 1

    def test_all_tied_lowest_id_wins(self):
        scores = np.zeros(11)
        assert ev.rank_of_target(scores, 1, exclude={0}) == 1
        assert ev.rank_of_target(scores, 5, exclude={0}) == 5

    def test_matches_sort_oracle(self, rng):
        for _ in range(300):
            v = int(rng.integers(3, 40))
            scores = rng.normal(size=v)
            if rng.random() < 0.5:  # force ties sometimes
                scores = np.round(scores, 1)
            target = int(rng.integers(1, v))
            got = ev.rank_of_target(scores, target, exclude={0})
            assert got == sort_oracle_rank(scores, target, exclude={0})

    def test_invalid_targets(self):
        with pytest.raises(InvalidTarget):
            ev.rank_of_target(np.zeros(5), 7)
        with pytest.raises(InvalidTarget):
            ev.rank_of_target(np.zeros(5), 2, exclude={2})

    def test_scaling_invariance(self, rng):
        scores = rng.normal(size=30)
        for c in (0.5, 2.0, 1000.0):
            for target in (1, 7, 29):
                assert ev.rank_of_target(scores, target, exclude={0}) == ev.rank_of_target(
                    c * scores, target, exclude={0}
                )


class TestMetricsFromRank:
    def test_rank_one(self):
        assert ev.metrics_from_rank(1, 5) == (1.0, 1.0)

    def test_rank_three_at_five(self):
        hr, ndcg = ev.metrics_from_rank(3, 5)
        assert hr == 1.0 and ndcg == 0.5

    def test_rank_past_cutoff(self):
        assert ev.metrics_from_rank(6, 5) == (0.0, 0.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ev.metrics_from_rank(0, 5)


class TestAggregate:
    def test_two_users(self):
        report = ev.aggregate_ranks([1, 21], mode="test")
        assert report.hr[20] == 0.5
        assert report.ndcg[20] == 0.5

    def test_perfect_ranks(self):
        report = ev.aggregate_ranks([1] * 10, mode="valid")
        for r in ev.CUTOFFS:
            assert report.hr[r] == 1.0 and report.ndcg[r] == 1.0

    def test_monotonicity_and_bounds(self, rng):
        ranks = rng.integers(1, 100, size=500)
        report = ev.aggregate_ranks(ranks, mode="test")
        cuts = list(ev.CUTOFFS)
        for lo, hi in zip(cuts, cuts[1:]):
            assert report.hr[lo] <= report.hr[hi]
        for r in cuts:
            assert 0.0 <= report.ndcg[r] <= report.hr[r] <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ev.aggregate_ranks([], mode="test")

    def test_csv_and_table(self):
        report = ev.aggregate_ranks([1, 3, 40], mode="test")
        assert "NDCG,20" in report.to_csv()
        assert "HR" in report.table()


class TestEvaluate:
    def test_random_model_hits_uniform_baseline(self):
        rng = np.random.default_rng(8)
        # independent random contexts so the 2000 ranks are uncorrelated
        from seqfilt.data import Corpus

        seqs = [list(rng.integers(1, 101, size=5)) for _ in range(2000)]
        corpus = Corpus(list(range(2000)), seqs, 100)
        cfg = ModelConfig(num_items=100, max_len=5, dim=8, layers=1, num_bases=3)
        params = init_params(cfg, rng)
        split = split_loo(corpus)
        report = ev.evaluate(split, params, cfg, mode="test")
        assert abs(report.hr[10] - 0.10) <= 0.03

    def test_batched_ranks_match_scalar(self, rng):
        logits = rng.normal(size=(40, 25))
        targets = rng.integers(1, 25, size=40)
        batched = ev._batched_ranks(logits.copy(), targets)
        for i in range(40):
            assert batched[i] == ev.rank_of_target(logits[i], targets[i], exclude={0})

    def test_filter_seen_excludes_context(self, rng):
        logits = np.zeros((1, 6))
        logits[0, 3] = 5.0  # seen item scores highest
        targets = np.array([2])
        plain = ev._batched_ranks(logits.copy(), targets)
        filtered = ev._batched_ranks(logits.copy(), targets, [[3]])
        assert plain[0] == filtered[0] + 1

    def test_filter_seen_never_drops_target(self, rng):
        logits = np.zeros((1, 6))
        targets = np.array([2])
        # target already interacted with (repeat consumption)
        ranks = ev._batched_ranks(logits, targets, [[2, 4]])
        assert ranks[0] >= 1

    def test_empty_split_errors(self, rng):
        split = Split([], [], [], [], 6)
        cfg = ModelConfig(num_items=6, max_len=4, dim=4, layers=1, num_bases=2)
        with pytest.raises(ValueError):
            ev.evaluate(split, init_params(cfg, rng), cfg)

    def test_report_counts_empty_contexts(self, rng):
        cfg = ModelConfig(num_items=6, max_len=4, dim=4, layers=1, num_bases=2)
        params = init_params(cfg, rng)
        split = split_loo(make_synthetic(4, 6, 4, rng))
        split = replace(split, prefixes=[[]] + split.prefixes[1:])
        report = ev.evaluate(split, params, cfg, mode="valid")
        assert report.num_empty_context == 1

    def test_filter_seen_end_to_end(self):
        rng = np.random.default_rng(31)
        early = 40  # seen only by the last user, before its max_len window
        # distinct items per user, so no target is in its own context
        seqs = [
            rng.permutation(np.arange(1, early))[: rng.integers(3, 10)].tolist()
            for _ in range(10)
        ]
        seqs.append([early, 1, 2, 3, 4, 5, 6])
        split = split_loo(Corpus(list(range(11)), seqs, early))
        split = replace(split, prefixes=split.prefixes[:4] + [[]] + split.prefixes[5:])
        cfg = ModelConfig(num_items=early, max_len=4, dim=8, layers=1, num_bases=3)
        params = init_params(cfg, rng)
        for mode in ("valid", "test"):
            contexts = [
                p if mode == "valid" else p + [v]
                for p, v in zip(split.prefixes, split.valid_targets)
            ]
            targets = split.valid_targets if mode == "valid" else split.test_targets
            # make the early item the last user's top score, so only
            # excluding the full context (not the window) drops it
            ids = pad_context(contexts[-1], cfg.max_len)[None]
            params["emb"][early] = 10.0 * model_forward(params, cfg, ids)[0][0]
            ops = freeze_filters(params, cfg)
            scores = [predict_scores(params, cfg, c, frozen_ops=ops) for c in contexts]
            window_rank = ev.rank_of_target(
                scores[-1], targets[-1], exclude={0, *contexts[-1][-cfg.max_len :]}
            )
            ranks = [
                ev.rank_of_target(s, t, exclude={0, *c})
                for s, c, t in zip(scores, contexts, targets)
            ]
            assert window_rank > ranks[-1]
            # 11 users in batches of 4: the last user sits in a partial batch
            report = ev.evaluate(split, params, cfg, mode=mode, batch_size=4, filter_seen=True)
            want = ev.aggregate_ranks(ranks, mode)
            assert report.hr == want.hr and report.ndcg == want.ndcg
            assert report.num_users == 11 and report.filter_seen
            assert report.num_empty_context == (1 if mode == "valid" else 0)
