"""Interaction-log loading, leave-one-out splitting, and batching.

The input format is one user per line: a user id followed by that user's
item ids in chronological order, all space-separated positive integers.
Items are remapped to a dense 1..V range (0 is reserved for padding) and
the mapping is kept so it can be persisted beside checkpoints.

Examples are positions in one flat array of every user's full history
(prefix, validation item, test item): example j predicts `items[ends[j]]`
from `items[starts[j]:ends[j]]`, so memory is O(interactions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

__all__ = [
    "DataError",
    "LoadReport",
    "Corpus",
    "Split",
    "load_corpus",
    "split_loo",
    "train_examples",
    "eval_instances",
    "make_batches",
]


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class LoadReport:
    num_users: int
    num_items: int
    num_interactions: int
    avg_length: float
    sparsity: float
    dropped_users: int
    min_interactions: int

    def summary(self) -> str:
        return (
            "# Users  # Items  # Interactions  Avg. Length  Sparsity\n"
            f"{self.num_users:<8d} {self.num_items:<8d} "
            f"{self.num_interactions:<15d} {self.avg_length:<12.1f} "
            f"{100.0 * self.sparsity:.2f}%\n"
            f"(dropped {self.dropped_users} users with < "
            f"{self.min_interactions} interactions)"
        )


@dataclass
class Corpus:
    users: list
    sequences: list
    num_items: int
    item_map: dict = field(default_factory=dict)
    report: LoadReport | None = None


@dataclass(frozen=True)
class Split:
    """Per-user leave-one-out split: history prefix, then the two held-out
    targets (second-to-last for validation, last for testing).

    Construction also builds the example index once: `items` holds every
    user's full history (prefix, validation item, test item) back to
    back, read-only, and user u's history is `items[offsets[u]:offsets[u + 1]]`.
    The split is frozen, and the lists it is built from must not be
    changed afterwards, since the index would not follow them."""

    users: list
    prefixes: list
    valid_targets: list
    test_targets: list
    num_items: int
    items: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = zip(self.prefixes, self.valid_targets, self.test_targets)
        items = np.fromiter(chain.from_iterable(chain(p, (v, t)) for p, v, t in rows), dtype=np.int64)
        items.flags.writeable = False
        sizes = np.fromiter(map(len, self.prefixes), dtype=np.int64, count=len(self.prefixes)) + 2
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "offsets", np.concatenate(([0], np.cumsum(sizes))))


def load_corpus(path, min_interactions: int = 5) -> Corpus:
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
                    raise DataError(f"{path}:{lineno}: non-integer token") from exc
                user, items = values[0], values[1:]
                if any(item < 1 for item in items):
                    raise DataError(f"{path}:{lineno}: item ids must be >= 1")
                if user in raw:
                    raise DataError(f"{path}:{lineno}: duplicate user {user}")
                raw[user] = items
                order.append(user)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not raw:
        raise DataError(f"{path}: empty corpus")

    kept = [u for u in order if len(raw[u]) >= min_keep]
    dropped = len(order) - len(kept)
    if not kept:
        raise DataError(
            f"{path}: no user has >= {min_keep} interactions; nothing to model"
        )
    distinct = sorted({item for u in kept for item in raw[u]})
    item_map = {orig: idx for idx, orig in enumerate(distinct, start=1)}
    sequences = [[item_map[item] for item in raw[u]] for u in kept]
    interactions = sum(len(s) for s in sequences)
    report = LoadReport(
        num_users=len(kept),
        num_items=len(distinct),
        num_interactions=interactions,
        avg_length=interactions / len(kept),
        sparsity=1.0 - interactions / (len(kept) * len(distinct)),
        dropped_users=dropped,
        min_interactions=min_interactions,
    )
    return Corpus(kept, sequences, len(distinct), item_map, report)


def split_loo(corpus: Corpus) -> Split:
    prefixes, valid, test = [], [], []
    for seq in corpus.sequences:
        if len(seq) < 3:
            raise DataError("every sequence needs >= 3 interactions to split")
        prefixes.append(seq[:-2])
        valid.append(seq[-2])
        test.append(seq[-1])
    return Split(list(corpus.users), prefixes, valid, test, corpus.num_items)


def train_examples(split: Split):
    """Dense next-item examples `(items, starts, ends)`: within each
    history prefix, every position after the first is predicted from the
    items before it."""
    items, first, prefix_end = eval_instances(split, "valid")
    user = np.repeat(np.arange(len(first)), prefix_end - first + 2)
    pos = np.arange(len(items))
    ends = np.flatnonzero((pos > first[user]) & (pos < prefix_end[user]))
    return items, first[user[ends]], ends


def eval_instances(split: Split, mode: str):
    """One example `(items, starts, ends)` per user: the history prefix
    predicts the validation item (`valid`), prefix plus validation item
    the test item (`test`).  Offset arithmetic on the split's index."""
    if mode not in ("valid", "test"):
        raise ValueError(f"mode must be 'valid' or 'test', got {mode!r}")
    starts, stops = split.offsets[:-1], split.offsets[1:]
    return split.items, starts, stops - (2 if mode == "valid" else 1)


def make_batches(examples, max_len, batch_size, rng=None):
    """Yield (ids, targets) arrays for `(items, starts, ends)` examples:
    each row is the last max_len items of its context, left-padded with
    zeros.  Order is shuffled when an rng is given."""
    if max_len < 1 or batch_size < 1:
        raise ValueError("max_len and batch_size must be positive")
    items, starts, ends = examples
    order = rng.permutation(len(ends)) if rng is not None else np.arange(len(ends))
    window = np.arange(-max_len, 0)
    for lo in range(0, len(order), batch_size):
        chunk = order[lo : lo + batch_size]
        first = starts[chunk, None]
        pos = ends[chunk, None] + window
        ids = np.where(pos >= first, items[np.maximum(pos, first)], 0)
        yield ids, items[ends[chunk]]
