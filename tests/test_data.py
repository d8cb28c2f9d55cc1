"""Corpus parsing, leave-one-out splitting, and batching."""

import tracemalloc
from itertools import chain

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


def reference_load_corpus(path, min_interactions=5):
    """The per-line loader that the array passes replaced, kept as the
    oracle for files in its grammar: `int()` on every token, so it also
    took signs, underscores, non-ASCII digits and whitespace, and ids of
    any length, which `load_corpus` now rejects."""
    min_keep = max(3, min_interactions)
    raw = {}
    order = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                fields = line.split()
                try:
                    values = [int(tok) for tok in fields]
                except ValueError as exc:
                    raise data.DataError(f"{path}:{lineno}: non-integer token") from exc
                user, items = values[0], values[1:]
                if any(item < 1 for item in items):
                    raise data.DataError(f"{path}:{lineno}: item ids must be >= 1")
                if user in raw:
                    raise data.DataError(f"{path}:{lineno}: duplicate user {user}")
                raw[user] = items
                order.append(user)
    except UnicodeDecodeError as exc:
        raise data.DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not raw:
        raise data.DataError(f"{path}: empty corpus")

    kept = [u for u in order if len(raw[u]) >= min_keep]
    dropped = len(order) - len(kept)
    if not kept:
        raise data.DataError(
            f"{path}: no user has >= {min_keep} interactions; nothing to model"
        )
    distinct = sorted({item for u in kept for item in raw[u]})
    item_map = {orig: idx for idx, orig in enumerate(distinct, start=1)}
    sequences = [[item_map[item] for item in raw[u]] for u in kept]
    interactions = sum(len(s) for s in sequences)
    report = data.LoadReport(
        num_users=len(kept),
        num_items=len(distinct),
        num_interactions=interactions,
        avg_length=interactions / len(kept),
        sparsity=1.0 - interactions / (len(kept) * len(distinct)),
        dropped_users=dropped,
        min_interactions=min_interactions,
    )
    return data.Corpus(kept, sequences, len(distinct), item_map, report)


def load_both(path, min_interactions):
    """`load_corpus` and the reference on one file: each a `Corpus`, or
    the text of the `DataError` it raised."""
    results = []
    for load in (data.load_corpus, reference_load_corpus):
        try:
            results.append(load(path, min_interactions))
        except data.DataError as exc:
            results.append(f"DataError: {exc}")
    return results


def assert_python_ints(corpus):
    """Users, sequences, the item map and the report hold Python numbers,
    as the CLI's `json.dump` of `item_map.json` and the checks read them."""
    ids = [*corpus.users, *chain.from_iterable(corpus.sequences), *chain(*corpus.item_map.items())]
    assert all(type(v) is int for v in ids)
    assert all(type(v) in (int, float) for v in vars(corpus.report).values())


def render(rows, rng):
    """A file's text: each row a list of id tokens, or None for a line
    of blanks or nothing; tokens joined by runs of ASCII blanks, with
    leading and trailing blanks, each line ended by "\\n", "\\r\\n" or
    "\\r", the last one sometimes by nothing."""
    blanks = [" ", "  ", "\t", " \t ", "\v", "\f"]

    def pick(options):
        return str(rng.choice(options))

    lines = []
    for row in rows:
        tokens = [pick(["", *blanks])]
        if row:
            tokens += [row[0], *(pick(blanks) + tok for tok in row[1:]), pick(["", *blanks])]
        lines.append("".join(tokens) + pick(["\n", "\r\n", "\r"]))
    if rng.random() < 0.3:
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


def random_rows(rng):
    """Users with 0-8 items from a small catalog (so items repeat), ids
    with leading zeros now and then, and blank lines between them."""
    users = rng.choice(1000, size=int(rng.integers(1, 12)), replace=False)
    rows = []
    for user in users:
        while rng.random() < 0.2:
            rows.append(None)
        items = rng.integers(1, 40, size=int(rng.integers(0, 9)))
        rows.append([str(user), *(f"{v:0{int(rng.integers(1, 4))}d}" for v in items)])
    return rows


# files the old grammar reads, each with its `min_interactions`
VALID_FILES = {
    "blank-lines": ("\n1 4 5 6\n\n   \n\t \n2 7 8 9\n\n", 3),
    "crlf": ("1 4 5 6\r\n2 7 8 9\r\n", 3),
    "lone-cr": ("1 4 5 6\r2 7 8 9\r\r3 4 4 4", 3),
    "mixed-endings": ("1 4 5 6\r\n2 7 8 9\r3 5 6 7\n", 3),
    "tabs-and-blanks": ("  1\t4 5\t\t6  \n\t2 7  8 9\t\n", 3),
    "vertical-tab-and-form-feed": ("1\v4 5\f6\n2 7 8 9\n", 3),
    "repeated-items": ("1 4 4 4 4\n2 9 9 4 9\n", 3),
    "user-without-items": ("1 4 5 6\n7\n2 7 8 9\n", 3),
    "no-final-newline": ("1 4 5 6\n2 7 8 9", 3),
    "leading-zeros": ("01 004 5 6\n2 007 8 9\n", 3),
    "eighteen-digits": (f"{'9' * 18} {'9' * 18} 1 2\n0 {'0' * 17}1 5 6\n", 3),
    "at-and-below-threshold": ("1 4 5 6 7\n2 4 5 6 7 8\n3 9 8 7 6 5\n", 5),
    "below-three": ("1 4 5\n2 4 5 6\n", 1),
    "all-dropped": ("1 4 5 6 7\n2 4 5\n", 5),
}

# files with errors the old grammar also rejects: the first bad line is
# reported, and on it a bad token before an item 0 before a repeated user
BAD_FILES = {
    "token-then-zero": "1 4 5 6\n2 7 x 9\n3 4 0 5\n",
    "zero-then-token": "1 4 5 6\n2 7 0 9\n3 4 x 5\n",
    "zero-then-duplicate": "1 4 0 6\n2 7 8 9\n2 4 5 6\n",
    "duplicate-then-zero": "1 4 5 6\n1 7 8 9\n3 4 0 6\n",
    "token-then-duplicate": "1 4 5.5 6\n2 7 8 9\n2 4 5 6\n",
    "duplicate-then-token": "1 4 5 6\n1 7 8 9\n3 4 x 6\n",
    "zero-before-token-on-a-line": "1 0 x 6\n",
    "token-before-zero-on-a-line": "1 x 0 6\n",
    "zero-and-duplicate-on-a-line": "1 4 5 6\n1 0 8 9\n",
    "token-and-duplicate-on-a-line": "1 4 5 6\n1 x 8 9\n",
    "all-three-on-a-line": "1 4 5 6\n1 0 y 9\n",
    "bad-user-token": "u1 4 5 6\n",
    "after-blank-lines": "\n\n   \n\t\n1 4 0 6\n",
    "after-blank-crlf-lines": "\r\n\r\n1 4 x 6\r\n",
    "after-lone-cr-lines": "\r\r1 4 5 6\r1 5 6 7",
    "first-line": "1 0 5 6\n2 4 5 6\n",
    "last-line": "1 4 5 6\n2 4 5 6\n3 0 5 6\n",
    "last-line-without-newline": "1 4 5 6\n2 4 5 x",
    "empty": "",
    "blank-only": " \n\t\r\n",
}


class TestLoaderOracle:
    @pytest.mark.parametrize("case", sorted(VALID_FILES))
    def test_valid_file_matches_reference(self, tmp_path, case):
        text, min_interactions = VALID_FILES[case]
        path = tmp_path / "interactions.txt"
        path.write_bytes(text.encode("ascii"))
        got, want = load_both(path, min_interactions)
        assert got == want
        if case != "all-dropped":
            assert_python_ints(got)

    @pytest.mark.parametrize("case", sorted(BAD_FILES))
    def test_bad_file_matches_reference(self, tmp_path, case):
        path = tmp_path / "interactions.txt"
        path.write_bytes(BAD_FILES[case].encode("ascii"))
        got, want = load_both(path, 3)
        assert isinstance(want, str) and got == want

    @pytest.mark.parametrize("seed", range(40))
    def test_generated_file_matches_reference(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path / "interactions.txt"
        path.write_bytes(render(random_rows(rng), rng).encode("ascii"))
        min_interactions = int(rng.integers(1, 7))
        got, want = load_both(path, min_interactions)
        assert got == want
        if not isinstance(got, str):
            assert_python_ints(got)

    @pytest.mark.parametrize("seed", range(40))
    def test_generated_errors_match_reference(self, tmp_path, seed):
        """One to three errors of random kinds on random lines."""
        rng = np.random.default_rng(1000 + seed)
        rows = [row for row in random_rows(rng) if row]
        for _ in range(int(rng.integers(1, 4))):
            row = rows[int(rng.integers(len(rows)))]
            kind = rng.choice(["token", "zero", "duplicate"])
            if kind == "token":
                row[int(rng.integers(len(row)))] = str(rng.choice(["x", "5.0", "1e3", "0x1", "--"]))
            elif kind == "zero" and len(row) > 1:
                row[int(rng.integers(1, len(row)))] = str(rng.choice(["0", "00"]))
            else:
                row[0] = rows[int(rng.integers(len(rows)))][0]
        path = tmp_path / "interactions.txt"
        path.write_bytes(render(rows, rng).encode("ascii"))
        got, want = load_both(path, 3)
        assert got == want


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

    @pytest.mark.parametrize("lengths", [[2], [3, 1], [5, 0, 4]])
    def test_short_sequence_is_rejected(self, lengths):
        seqs = [list(range(1, n + 1)) for n in lengths]
        corpus = data.Corpus(list(range(len(seqs))), seqs, 5)
        with pytest.raises(data.DataError, match="^every sequence needs >= 3 interactions to split$"):
            data.split_loo(corpus)

    def test_empty_prefix_gives_no_training_example(self):
        split = data.Split([4, 5, 6], [[1, 2, 3], [], [2]], [4, 1, 3], [5, 2, 1], 5)
        items, starts, ends = data.train_examples(split)
        got = [(items[lo:hi].tolist(), items[hi]) for lo, hi in zip(starts, ends)]
        assert got == list_examples(split, "train") == [([1], 2), ([1, 2], 3)]

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


def loaded_files(tmp_path):
    """Paths of the oracle's valid files that load, and of generated files,
    each with its `min_interactions`; every generated file holds one user
    with enough items to load."""
    for case, (text, min_interactions) in sorted(VALID_FILES.items()):
        if case != "all-dropped":
            path = tmp_path / f"{case}.txt"
            path.write_bytes(text.encode("ascii"))
            yield path, min_interactions
    for seed in range(20):
        rng = np.random.default_rng(seed)
        path = tmp_path / f"generated-{seed}.txt"
        rows = [*random_rows(rng), ["1000", "7", "8", "9"]]
        path.write_bytes(render(rows, rng).encode("ascii"))
        yield path, 3


class TestArrayPath:
    """The loader hands its arrays to the corpus and the split; the list
    constructors build the same arrays, and the lists are derived views."""

    def test_loaded_split_equals_list_built_split(self, tmp_path):
        for path, min_interactions in loaded_files(tmp_path):
            corpus = data.load_corpus(path, min_interactions)
            got = data.split_loo(corpus)
            want = data.split_loo(data.Corpus(corpus.users, corpus.sequences, corpus.num_items))
            assert got == want
            assert got.users == want.users and got.num_items == want.num_items
            for name in ("items", "offsets"):
                assert getattr(got, name).dtype == np.int64
                assert np.array_equal(getattr(got, name), getattr(want, name))
            for name in ("prefixes", "valid_targets", "test_targets"):
                assert getattr(got, name) == getattr(want, name)
                assert all(type(v) is int for v in chain.from_iterable(got.prefixes))
                assert all(type(v) is int for v in got.valid_targets + got.test_targets)
            got_examples, want_examples = data.train_examples(got), data.train_examples(want)
            for a, b in zip(got_examples, want_examples):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            batches = [
                list(data.make_batches(examples, 3, 4, np.random.default_rng(7)))
                for examples in (got_examples, want_examples)
            ]
            assert len(batches[0]) == len(batches[1])
            for (ids, targets), (want_ids, want_targets) in zip(*batches):
                assert np.array_equal(ids, want_ids) and np.array_equal(targets, want_targets)

    def test_views_are_derived_and_read_only(self):
        corpus = data.Corpus([3, 1], [[1, 2, 3, 4], [2, 2, 1]], 4)
        assert corpus.items.tolist() == [1, 2, 3, 4, 2, 2, 1]
        assert corpus.offsets.tolist() == [0, 4, 7]
        assert corpus.sequences == [[1, 2, 3, 4], [2, 2, 1]]
        split = data.split_loo(corpus)
        assert (split.prefixes, split.valid_targets, split.test_targets) == ([[1, 2], [2]], [3, 2], [4, 1])
        assert split == data.Split([3, 1], [[1, 2], [2]], [3, 2], [4, 1], 4)
        assert split != data.Split([3, 1], [[1, 2], [2]], [3, 2], [4, 2], 4)
        assert corpus != data.Corpus([3, 1], [[1, 2, 3], [4, 2, 2, 1]], 4)
        for obj, name in ((corpus, "sequences"), (split, "prefixes"), (split, "items")):
            with pytest.raises(AttributeError):
                setattr(obj, name, [])
        with pytest.raises(ValueError):
            split.items[0] = 9

    def test_setup_builds_no_per_user_lists(self, tmp_path):
        path = write_corpus(tmp_path, ["1 4 5 6 7 8", "2 9 9 4", "3 10 11 12 13 14 15"])
        corpus = data.load_corpus(path, min_interactions=3)
        split = data.split_loo(corpus)
        data.train_examples(split)
        list(data.make_batches(data.eval_instances(split, "test"), 4, 2))
        assert "sequences" not in vars(corpus)
        assert not {"prefixes", "valid_targets", "test_targets"} & set(vars(split))
        assert split.items is corpus.items and split.offsets is corpus.offsets

    def test_setup_peak_memory_is_array_sized(self, tmp_path):
        """~100k interactions: loading, splitting and indexing the examples
        peaks at 62.3 bytes an interaction, in the parser's temporaries
        (tracemalloc; per-user lists of Python ints took it to 99.4)."""
        rng = np.random.default_rng(0)
        rows = [[u, *rng.integers(1, 5001, size=200)] for u in range(1, 501)]
        path = write_corpus(tmp_path, [" ".join(map(str, row)) for row in rows])
        tracemalloc.start()
        try:
            data.train_examples(data.split_loo(data.load_corpus(path)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 75 * 100_000
