"""Corpus parsing, leave-one-out splitting, and batching."""

import numpy as np
import pytest

from seqfilt import data
from seqfilt.model import pad_context
from seqfilt.train import make_synthetic


def write_corpus(tmp_path, lines, name="interactions.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_repeats_allowed(self, tmp_path):
        path = write_corpus(tmp_path, ["1 5 9 5"])
        corpus = data.load_corpus(path, min_interactions=3)
        # ids are remapped densely: 5 -> 1, 9 -> 2
        assert corpus.sequences == [[1, 2, 1]]
        assert corpus.num_items == 2
        assert corpus.item_map == {5: 1, 9: 2}

    def test_empty_file(self, tmp_path):
        path = write_corpus(tmp_path, [""])
        with pytest.raises(data.DataError, match="empty"):
            data.load_corpus(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = write_corpus(tmp_path, ["1 2 3 4", "2 5 x 6"])
        with pytest.raises(data.DataError, match=":2"):
            data.load_corpus(path, min_interactions=3)

    def test_nonpositive_item_rejected(self, tmp_path):
        path = write_corpus(tmp_path, ["1 2 0 4"])
        with pytest.raises(data.DataError):
            data.load_corpus(path, min_interactions=3)

    def test_duplicate_user_rejected(self, tmp_path):
        path = write_corpus(tmp_path, ["1 2 3 4", "1 5 6 7"])
        with pytest.raises(data.DataError, match="duplicate"):
            data.load_corpus(path, min_interactions=3)

    def test_short_users_dropped_and_counted(self, tmp_path):
        path = write_corpus(
            tmp_path,
            ["1 4 5 6 7 8", "2 9 9", "3 10 11 12 13 14 15"],
        )
        corpus = data.load_corpus(path, min_interactions=5)
        assert corpus.users == [1, 3]
        assert corpus.report.dropped_users == 1
        assert corpus.report.min_interactions == 5

    def test_report_statistics(self, tmp_path):
        path = write_corpus(tmp_path, ["1 2 4 6", "2 2 2 4 8"])
        corpus = data.load_corpus(path, min_interactions=3)
        rep = corpus.report
        assert rep.num_users == 2
        assert rep.num_items == 4  # {2, 4, 6, 8}
        assert rep.num_interactions == 7
        assert rep.avg_length == pytest.approx(3.5)
        assert rep.sparsity == pytest.approx(1.0 - 7 / 8)
        assert "Sparsity" in rep.summary()

    def test_remap_is_dense_and_sorted(self, tmp_path):
        path = write_corpus(tmp_path, ["1 100 7 42", "2 7 100 100"])
        corpus = data.load_corpus(path, min_interactions=3)
        assert corpus.item_map == {7: 1, 42: 2, 100: 3}
        assert corpus.num_items == 3


class TestSplit:
    def test_four_item_sequence(self):
        corpus = data.Corpus([1], [[10, 11, 12, 13]], 13)
        split = data.split_loo(corpus)
        assert split.prefixes == [[10, 11]]
        assert split.valid_targets == [12]
        assert split.test_targets == [13]

    def test_three_item_sequence(self):
        corpus = data.Corpus([1], [[1, 2, 3]], 3)
        split = data.split_loo(corpus)
        assert split.prefixes == [[1]]
        assert split.valid_targets == [2]
        assert split.test_targets == [3]

    def test_single_user_single_test_example(self):
        corpus = data.Corpus([9], [[1, 2, 3, 4, 5]], 5)
        split = data.split_loo(corpus)
        items, starts, ends = data.eval_instances(split, "test")
        assert len(starts) == 1 and len(ends) == 1
        assert items[ends[0]] == 5

    def test_round_trip_reconstruction(self, rng):
        corpus = make_synthetic(25, 9, 7, rng)
        split = data.split_loo(corpus)
        rebuilt = [
            p + [v, t]
            for p, v, t in zip(split.prefixes, split.valid_targets, split.test_targets)
        ]
        assert rebuilt == corpus.sequences

    def test_no_leakage_into_training_targets(self, rng):
        corpus = make_synthetic(40, 11, 9, rng)
        split = data.split_loo(corpus)
        items, starts, ends = data.train_examples(split)
        idx = 0
        for prefix in split.prefixes:
            for j in range(1, len(prefix)):
                assert items[starts[idx] : ends[idx]].tolist() == prefix[:j]
                assert items[ends[idx]] == prefix[j]
                idx += 1
        assert idx == len(ends)

    def test_test_context_includes_valid_item(self):
        corpus = data.Corpus([1], [[1, 2, 3, 4]], 4)
        split = data.split_loo(corpus)
        items, starts, ends = data.eval_instances(split, "test")
        assert items[starts[0] : ends[0]].tolist() == [1, 2, 3]
        assert items[ends[0]] == 4
        items, starts, ends = data.eval_instances(split, "valid")
        assert items[starts[0] : ends[0]].tolist() == [1, 2]
        assert items[ends[0]] == 3


def one_example(context, target):
    """A single `(items, starts, ends)` example: context -> target."""
    items = np.asarray(context + [target], dtype=np.int64)
    return items, np.array([0]), np.array([len(context)])


class TestBatches:
    def test_left_padding(self):
        batches = list(data.make_batches(one_example([4, 5, 6], 7), max_len=5, batch_size=4))
        ids, targets = batches[0]
        assert np.array_equal(ids[0], [0, 0, 4, 5, 6])
        assert targets[0] == 7

    def test_truncation_keeps_most_recent(self):
        batches = list(
            data.make_batches(one_example([1, 2, 3, 4, 5, 6, 7], 8), max_len=5, batch_size=1)
        )
        ids, _ = batches[0]
        assert np.array_equal(ids[0], [3, 4, 5, 6, 7])

    def test_shuffle_deterministic_per_seed(self):
        # 32 one-item contexts [i] -> target i
        items = np.repeat(np.arange(1, 33), 2)
        examples = (items, np.arange(0, 64, 2), np.arange(1, 64, 2))
        a = [
            t.tolist()
            for _, t in data.make_batches(examples, 4, 8, np.random.default_rng(3))
        ]
        b = [
            t.tolist()
            for _, t in data.make_batches(examples, 4, 8, np.random.default_rng(3))
        ]
        assert a == b
        assert sorted(sum(a, [])) == list(range(1, 33))

    def test_padding_is_contiguous_prefix(self, rng):
        corpus = make_synthetic(30, 8, 6, rng)
        split = data.split_loo(corpus)
        examples = data.train_examples(split)
        for ids, tg in data.make_batches(examples, 7, 16, rng):
            assert np.all((tg >= 1) & (tg <= 8))
            for row in ids:
                nz = np.flatnonzero(row)
                if nz.size:
                    assert np.all(row[nz[0] :] > 0)


def list_examples(split, mode):
    """The list-based (context, target) pairs the flat index replaced:
    one copied context per example."""
    if mode == "train":
        return [(p[:j], p[j]) for p in split.prefixes for j in range(1, len(p))]
    if mode == "valid":
        return list(zip(split.prefixes, split.valid_targets))
    rows = zip(split.prefixes, split.valid_targets, split.test_targets)
    return [(p + [v], t) for p, v, t in rows]


def list_batches(pairs, max_len, batch_size, rng=None):
    """Per-example `pad_context` batching over list pairs."""
    order = rng.permutation(len(pairs)) if rng is not None else np.arange(len(pairs))
    for lo in range(0, len(pairs), batch_size):
        chunk = order[lo : lo + batch_size]
        ids = np.stack([pad_context(pairs[i][0], max_len) for i in chunk])
        yield ids, np.asarray([pairs[i][1] for i in chunk], dtype=np.int64)


class TestIndexOracle:
    @pytest.mark.parametrize("max_len", [2, 5, 20])
    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_batches_match_list_oracle(self, max_len, batch_size):
        rng = np.random.default_rng(1000 * max_len + batch_size)
        lengths = [3, 3 * max_len + 5, *rng.integers(3, 3 * max_len + 6, size=20)]
        seqs = [rng.integers(1, 30, size=n).tolist() for n in lengths]
        split = data.split_loo(data.Corpus(list(range(len(seqs))), seqs, 29))
        prefix_lengths = [len(p) for p in split.prefixes]
        assert min(prefix_lengths) < max_len < max(prefix_lengths)
        for mode in ("train", "valid", "test"):
            if mode == "train":
                examples = data.train_examples(split)
                got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
            else:
                examples = data.eval_instances(split, mode)
                got_rng = want_rng = None
            got = list(data.make_batches(examples, max_len, batch_size, got_rng))
            want = list(list_batches(list_examples(split, mode), max_len, batch_size, want_rng))
            assert len(got) == len(want)
            for (ids, targets), (want_ids, want_targets) in zip(got, want):
                assert ids.dtype == np.int64 and targets.dtype == np.int64
                assert np.array_equal(ids, want_ids)
                assert np.array_equal(targets, want_targets)
