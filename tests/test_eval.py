"""Ranking and metric tests, checked against a full-sort oracle."""

import sys
import threading

import numpy as np
import pytest

from conftest import chunk_sizes
from seqfilt import evaluation as ev
from seqfilt import nn
from seqfilt.data import Corpus, Split, eval_instances, make_batches, split_loo
from seqfilt.model import (
    ModelConfig,
    example_flops,
    freeze_filters,
    init_params,
    model_forward,
    pad_context,
    predict_scores,
    predict_scores_batch,
)
from seqfilt.nn import InvalidTarget, NumericError
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


def make_synthetic_random(num_users, num_items, rng):
    """Random histories of 3 to 12 items, repeats allowed, so a target can
    sit among its user's seen items."""
    seqs = [rng.integers(1, num_items + 1, size=rng.integers(3, 13)).tolist() for _ in range(num_users)]
    return Corpus(list(range(num_users)), seqs, num_items)


def with_prefixes(split, prefixes):
    """The split with other history prefixes and the same targets."""
    return Split(split.users, prefixes, split.valid_targets, split.test_targets, split.num_items)


def oracle_ranks(scores, targets, contexts=None):
    """rank_of_target row by row, the padding id and each row's context
    (when given) excluded; a target among its own context is ranked, as
    evaluate ranks a repeat consumption."""
    contexts = contexts if contexts is not None else [()] * len(targets)
    return np.array([
        ev.rank_of_target(row, t, exclude={0, *c} - {t}) for row, t, c in zip(scores, targets, contexts)
    ])


class TestBatchedRanks:
    def test_ties_below_and_above_the_target(self):
        scores = np.array([
            [9.0, 1.0, 2.0, 2.0, 2.0, 0.5, 2.0],  # target 3: ties at 2 below, 4 and 6 above
            [9.0, 2.0, 2.0, 3.0, 1.0, 2.0, 0.0],  # target 1: ties only above, one better
            [9.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0],  # target 6: ties only below
        ])
        targets = np.array([3, 1, 6])
        got = ev._batched_ranks(scores.copy(), targets)
        assert got.tolist() == oracle_ranks(scores, targets).tolist() == [2, 2, 5]

    def test_target_among_seen_items(self):
        scores = np.array([[0.0, 3.0, 1.0, 2.0, 1.0], [0.0, 1.0, 1.0, 4.0, 1.0]])
        targets = np.array([2, 4])
        contexts = [[2, 1], [4, 3, 2]]
        # test-mode contexts are prefix plus validation item
        split = Split([7, 8], [[2], [4, 3]], [1, 2], [2, 4], 4)
        seen = ev._seen_index(split, "test", slice(0, 2), 5)
        # each row's context, then its target, which is masked anyway
        assert seen.tolist() == [2, 1, 2, 9, 8, 7, 9]
        got = ev._batched_ranks(scores.copy(), targets, seen)
        assert got.tolist() == oracle_ranks(scores, targets, contexts).tolist() == [2, 2]

    def test_valid_seen_index_leaves_out_the_test_item(self):
        # user 8's test item 1 is in neither its context nor its target
        split = Split([7, 8], [[2], [4, 3]], [1, 2], [2, 1], 4)
        seen = ev._seen_index(split, "valid", slice(0, 2), 5)
        assert seen.tolist() == [2, 1, 1, 9, 8, 7, 7]
        assert ev._seen_index(split, "valid", slice(1, 2), 5).tolist() == [4, 3, 2, 2]

    @pytest.mark.parametrize("mode", ["valid", "test"])
    def test_seen_index_lists_each_context_and_target(self, rng, mode):
        split = split_loo(make_synthetic_random(9, 12, rng))
        items, starts, ends = eval_instances(split, mode)
        for lo in range(9):
            for hi in range(lo + 1, 10):
                seen = ev._seen_index(split, mode, slice(lo, hi), 13)
                want = {r * 13 + i for r, u in enumerate(range(lo, hi)) for i in items[starts[u] : ends[u] + 1]}
                assert set(seen.tolist()) == want

    def test_all_tied_row(self):
        scores = np.full((2, 9), 0.25)
        targets = np.array([1, 8])
        got = ev._batched_ranks(scores.copy(), targets)
        assert got.tolist() == oracle_ranks(scores, targets).tolist() == [1, 8]

    def test_partial_last_batch_with_seen_items(self, rng):
        # 11 users in batches of 4, each batch ranked from the flat index
        # of its own rows, the last batch holding 3 rows; rounded scores tie
        split = split_loo(make_synthetic_random(11, 12, rng))
        scores = np.round(rng.normal(size=(11, 13)), 1)
        for mode in ("valid", "test"):
            items, starts, ends = eval_instances(split, mode)
            targets = items[ends]
            contexts = [items[s:e] for s, e in zip(starts, ends)]
            want = oracle_ranks(scores, targets, contexts)
            got = []
            for lo in range(0, 11, 4):
                rows = slice(lo, min(lo + 4, 11))
                seen = ev._seen_index(split, mode, rows, 13)
                got.extend(ev._batched_ranks(scores[rows].copy(), targets[rows], seen))
            assert got == want.tolist()

    def test_non_finite_target_score_ranks_zero(self):
        scores = np.array([[0.0, 1.0, 2.0], [0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [0.0, 1.0, np.nan]])
        targets = np.array([1, 1, 2, 1])
        # a NaN elsewhere in the row, which rank_of_target skips, gets
        # minus its item's id
        assert ev._batched_ranks(scores, targets).tolist() == [2, 0, 0, -2]

    def test_nan_in_excluded_columns_is_not_reported(self):
        scores = np.array([[np.nan, 1.0, 2.0, np.nan], [0.0, np.nan, 2.0, 3.0]])
        # padding column 0 and the seen item 3 of row 0; row 1's target is NaN
        seen = np.array([3])
        assert ev._batched_ranks(scores, np.array([2, 1]), seen).tolist() == [1, 0]


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
        # distinct scores, then rounded ones that tie
        for scores in (logits, np.round(logits, 1)):
            batched = ev._batched_ranks(scores.copy(), targets)
            for i in range(40):
                assert batched[i] == ev.rank_of_target(scores[i], targets[i], exclude={0})

    def test_filter_seen_excludes_context(self, rng):
        logits = np.zeros((1, 6))
        logits[0, 3] = 5.0  # seen item scores highest
        targets = np.array([2])
        plain = ev._batched_ranks(logits.copy(), targets)
        # one row: the flat index of item 3 is 3
        filtered = ev._batched_ranks(logits.copy(), targets, np.array([3]))
        assert plain[0] == filtered[0] + 1

    def test_filter_seen_never_drops_target(self, rng):
        logits = np.zeros((1, 6))
        targets = np.array([2])
        # target already interacted with (repeat consumption)
        ranks = ev._batched_ranks(logits, targets, np.array([2, 4]))
        assert ranks[0] >= 1

    def test_empty_split_errors(self, rng):
        split = Split([], [], [], [], 6)
        cfg = ModelConfig(num_items=6, max_len=4, dim=4, layers=1, num_bases=2)
        with pytest.raises(ValueError, match="empty split"):
            ev.evaluate(split, init_params(cfg, rng), cfg)

    def test_report_counts_empty_contexts(self, rng):
        cfg = ModelConfig(num_items=6, max_len=4, dim=4, layers=1, num_bases=2)
        params = init_params(cfg, rng)
        split = split_loo(make_synthetic(4, 6, 4, rng))
        split = with_prefixes(split, [[]] + split.prefixes[1:])
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
        split = with_prefixes(split, split.prefixes[:4] + [[]] + split.prefixes[5:])
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

    def test_chunked_batches_match_on_one_and_two_threads(self, monkeypatch, pool_shares):
        # at N=50, D=64 and L=2 batches of 300, 37 and 24 users are cut
        # into chunks and a batch of one stays whole.
        # predict_scores_batch submits each cut batch to the pool once, and the ranks are
        # those of its scores; a pool entered from inside a job would add
        # a count.  337 users are 300 + 37, or 14 x 24 + 1.
        rng = np.random.default_rng(14)
        split = split_loo(make_synthetic_random(337, 60, rng))
        cfg = ModelConfig(num_items=60, max_len=50, dim=64, layers=2, num_bases=4)
        params = init_params(cfg, rng)
        count = {b: len(chunk_sizes(b, example_flops(cfg))) for b in (300, 37, 24, 1)}
        assert min(count[300], count[37], count[24]) > 1 and count[1] == 1
        shares = pool_shares
        ops = freeze_filters(params, cfg)
        examples = eval_instances(split, "test")
        items, starts, ends = examples
        for batch_size, counts in ((300, [count[300], count[37]]), (24, [count[24]] * 14)):
            for seen in (False, True):
                reports = []
                for workers in (1, 2):
                    monkeypatch.setattr(nn, "_WORKERS", workers)
                    shares.clear()
                    reports.append(ev.evaluate(split, params, cfg, batch_size=batch_size, filter_seen=seen).to_csv())
                    assert shares == (counts if workers == 2 else [])
                assert reports[0] == reports[1]
                # the oracle ranks the same batches' scores one row at a time
                ranks = []
                for ids, targets in make_batches(examples, cfg.max_len, batch_size):
                    scores = predict_scores_batch(params, cfg, ids, frozen_ops=ops)
                    lo = len(ranks)
                    contexts = [items[starts[i]:ends[i]] for i in range(lo, lo + len(ids))] if seen else None
                    ranks.extend(oracle_ranks(scores, targets, contexts))
                assert reports[0] == ev.aggregate_ranks(ranks, "test", 0, seen).to_csv()

    SEQS = [[1, 2, 3, 4], [2, 3, 4, 5], [3, 4, 5, 6], [4, 5, 6, 1], [5, 6, 1, 2], [6, 1, 2, 7], [1, 3, 5]]

    def test_non_finite_target_score_is_numeric_error(self, rng):
        # item 7 is only user 15's test target and in no context, so an
        # infinite first embedding entry makes column 7 ±inf, not NaN, and
        # leaves every other target score finite
        split = split_loo(Corpus(list(range(10, 17)), self.SEQS, 7))
        cfg = ModelConfig(num_items=7, max_len=4, dim=4, layers=1, num_bases=2)
        params = init_params(cfg, rng)
        params["emb"][7] = [np.inf, 0.0, 0.0, 0.0]
        with pytest.raises(NumericError) as info:
            ev.evaluate(split, params, cfg, batch_size=4)
        assert str(info.value) == "user 15 (batch 1, row 1): target score is not finite"

    @pytest.mark.parametrize("filter_seen", [False, True])
    def test_nan_item_score_is_numeric_error(self, rng, filter_seen):
        # a NaN embedding for item 7 makes column 7 NaN for every user; no
        # comparison counts it, so it used to leave the ranking unreported
        # for the six users whose target is not 7
        split = split_loo(Corpus(list(range(10, 17)), self.SEQS, 7))
        cfg = ModelConfig(num_items=7, max_len=4, dim=4, layers=1, num_bases=2)
        params = init_params(cfg, rng)
        params["emb"][7] = np.nan
        with pytest.raises(NumericError) as info:
            ev.evaluate(split, params, cfg, batch_size=4, filter_seen=filter_seen)
        assert str(info.value) == "user 10 (batch 0, row 0): score of item 7 is NaN"

    def test_non_finite_context_row_is_numeric_error(self, rng):
        # the frozen table norms item 3's infinite row to NaN, and user
        # 10's context [1, 2, 3] gathers it, so all of that user's scores
        # are NaN; rows no context gathers are normed too, without a warning
        split = split_loo(Corpus(list(range(10, 17)), self.SEQS, 7))
        cfg = ModelConfig(num_items=7, max_len=4, dim=4, layers=1, num_bases=2)
        params = init_params(cfg, rng)
        params["emb"][3] = [np.inf, 0.0, 0.0, 0.0]
        with pytest.raises(NumericError) as info:
            ev.evaluate(split, params, cfg, batch_size=4)
        assert str(info.value) == "user 10 (batch 0, row 0): target score is not finite"


class TestEvaluateBatches:
    """`evaluate` builds each batch's contexts, targets and seen index from
    the split on every call and keeps nothing between calls."""

    CFG = ModelConfig(num_items=30, max_len=6, dim=8, layers=1, num_bases=3)

    def make_split(self, seed=23):
        rng = np.random.default_rng(seed)
        split = split_loo(make_synthetic_random(19, 30, rng))
        # user 0's validation context is empty
        return with_prefixes(split, [[]] + split.prefixes[1:]), init_params(self.CFG, rng)

    def test_reports_equal_the_oracle(self):
        split, params = self.make_split()
        ops = freeze_filters(params, self.CFG)
        for mode in ("valid", "test"):
            contexts = [p if mode == "valid" else p + [v] for p, v in zip(split.prefixes, split.valid_targets)]
            targets = split.valid_targets if mode == "valid" else split.test_targets
            scores = [predict_scores(params, self.CFG, c, frozen_ops=ops) for c in contexts]
            for seen in (False, True):
                ranks = oracle_ranks(scores, targets, contexts if seen else None)
                want = ev.aggregate_ranks(ranks, mode, int(mode == "valid"), seen).to_csv()
                for batch_size in (1, 7, 256):
                    assert ev.evaluate(split, params, self.CFG, mode, batch_size, seen).to_csv() == want

    def test_threads_evaluating_one_split_agree(self):
        # more threads than cores, with a short switch interval so that
        # they interleave within a batch
        workers = 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(3):
                split, params = self.make_split(seed)
                want = [
                    ev.evaluate(split, params, self.CFG, mode, 5, True).to_csv()
                    for mode in ("valid", "test")
                ]
                barrier = threading.Barrier(workers)
                reports = [None] * workers

                def work(i):
                    barrier.wait(timeout=60)
                    reports[i] = [ev.evaluate(split, params, self.CFG, mode, 5, True).to_csv() for mode in ("valid", "test")]

                threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert reports == [want] * workers
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_value_error(self, batch_size):
        split, params = self.make_split()
        with pytest.raises(ValueError, match="batch_size must be positive"):
            ev.evaluate(split, params, self.CFG, batch_size=batch_size)
