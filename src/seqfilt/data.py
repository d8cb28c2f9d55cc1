"""Interaction-log loading, leave-one-out splitting, and batching.

The input format is one user per line: a user id followed by that user's
item ids in chronological order, as ASCII decimal integers separated by
ASCII whitespace; item ids are positive (see `load_corpus`).
Items are remapped to a dense 1..V range (0 is reserved for padding) and
the mapping is kept so it can be persisted beside checkpoints.

A corpus and its split hold one form, the loader's arrays: every user's
full history back to back in a read-only int64 array `items`, user u's
being `items[offsets[u]:offsets[u + 1]]`, so memory is O(interactions).
The per-user lists (`Corpus.sequences`, `Split.prefixes`, `valid_targets`
and `test_targets`) are read-only views, built on first read and cached.
Example j predicts `items[ends[j]]` from `items[starts[j]:ends[j]]`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
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
    "MIN_INTERACTIONS",
]

# users with fewer interactions are dropped, unless a run asks otherwise
MIN_INTERACTIONS = 5


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


@dataclass(frozen=True, init=False, eq=False)
class _Histories:
    """Users' full histories back to back, read-only int64: user u's is
    `items[offsets[u]:offsets[u + 1]]`.  Equal when the fields are."""

    users: list
    num_items: int
    items: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)

    def _fill(self, users, num_items, items, offsets, **rest):
        items.flags.writeable = offsets.flags.writeable = False
        rest.update(users=list(users), num_items=num_items, items=items, offsets=offsets)
        for name, value in rest.items():
            object.__setattr__(self, name, value)
        return self

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    def _lists(self, drop):  # each history as Python ints, less its last `drop` items
        flat, bounds = self.items.tolist(), self.offsets.tolist()
        return [flat[lo : hi - drop] for lo, hi in zip(bounds, bounds[1:])]


def _offsets(lengths):
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


@dataclass(frozen=True, init=False, eq=False)
class Corpus(_Histories):
    """Users' item sequences (dense ids 1..V), the item map and the load
    report; `Corpus(users, sequences, num_items)` builds the arrays."""

    item_map: dict
    report: LoadReport | None

    def __init__(self, users, sequences, num_items, item_map=None, report=None):
        items = np.fromiter(chain.from_iterable(sequences), dtype=np.int64)
        self._fill(users, num_items, items, _offsets([len(s) for s in sequences]),
                   item_map={} if item_map is None else item_map, report=report)

    @cached_property
    def sequences(self):
        return self._lists(0)


@dataclass(frozen=True, init=False, eq=False)
class Split(_Histories):
    """Per-user leave-one-out split: history prefix, then the two held-out
    targets (second-to-last for validation, last for testing).  It holds
    the corpus's arrays; `Split(users, prefixes, valid_targets,
    test_targets, num_items)` builds them from lists."""

    def __init__(self, users, prefixes, valid_targets, test_targets, num_items):
        rows = zip(prefixes, valid_targets, test_targets)
        items = np.fromiter(chain.from_iterable(chain(p, (v, t)) for p, v, t in rows), dtype=np.int64)
        self._fill(users, num_items, items, _offsets([len(p) + 2 for p in prefixes]))

    @cached_property
    def prefixes(self):
        return self._lists(2)

    @cached_property
    def valid_targets(self):
        return self.items[self.offsets[1:] - 2].tolist()

    @cached_property
    def test_targets(self):
        return self.items[self.offsets[1:] - 1].tolist()


def load_corpus(path, min_interactions: int = MIN_INTERACTIONS) -> Corpus:
    """Read an interaction file: one user per line, a user id and then the
    user's item ids, every id an ASCII decimal integer of at most 18
    digits, separated by ASCII whitespace; blank lines are skipped and
    lines end in "\\n", "\\r\\n" or "\\r".  Raises `DataError` naming the
    first bad line as `path:line`; on one line a malformed token comes
    before an item id < 1, which comes before a repeated user."""
    min_keep = max(3, min_interactions)
    with open(path, "rb") as fh:
        raw = fh.read()
    users, counts, items = _parse(raw, path)
    keep = counts >= min_keep
    if not keep.any():
        raise DataError(
            f"{path}: no user has >= {min_keep} interactions; nothing to model"
        )
    distinct, dense = np.unique(items[np.repeat(keep, counts)], return_inverse=True)
    kept = users[keep].tolist()
    num_items, total = len(distinct), len(dense)
    report = LoadReport(
        num_users=len(kept),
        num_items=num_items,
        num_interactions=total,
        avg_length=total / len(kept),
        sparsity=1.0 - total / (len(kept) * num_items),
        dropped_users=len(users) - len(kept),
        min_interactions=min_interactions,
    )
    item_map = dict(zip(distinct.tolist(), range(1, num_items + 1)))
    return object.__new__(Corpus)._fill(kept, num_items, dense + 1, _offsets(counts[keep]),
                                        item_map=item_map, report=report)


# ids of at most 18 digits stay below 10**18 < 2**63, so int64 holds them
_MAX_DIGITS = 18


def _parse(raw, path):
    """The user ids, item counts and item ids of the lines in `raw`, in
    file order, as int64 arrays; raises `DataError` for the first bad line.

    Tokens and line breaks are found by array passes over the bytes.  Only
    the tokens on lines before the first malformed token are parsed, so an
    earlier line's item 0 or repeated user is still the error reported."""
    text = np.frombuffer(raw, dtype=np.uint8)
    # ASCII whitespace, as `bytes.split` has it: " \t\n\v\f\r"
    space = (text == 32) | ((text >= 9) & (text <= 13))
    # universal newlines: every "\r" ends a line, and so does a "\n" that
    # does not follow one
    newline = text == 10
    newline[1:] &= text[:-1] != 13
    breaks = np.flatnonzero(newline | (text == 13))
    edges = np.flatnonzero(np.diff(~space, prepend=False, append=False))
    starts, stops = edges[::2], edges[1::2]

    def line_of(offset):  # 0-based
        return int(np.searchsorted(breaks, offset))

    errors = []  # (line, rank on that line, reason)
    wrong = np.flatnonzero(~space & ((text < 48) | (text > 57)))
    if wrong.size:
        at = line_of(wrong[0])
        try:  # every byte before wrong[0] is ASCII
            raw[wrong[0] : breaks[at] if at < len(breaks) else None].decode("utf-8")
            errors.append((at, 0, "non-integer token"))
        except UnicodeDecodeError as exc:
            errors.append((at, 0, f"not UTF-8 text ({exc.reason})"))
    long = np.flatnonzero(stops - starts > _MAX_DIGITS)
    if long.size:
        errors.append((line_of(starts[long[0]]), 1, f"id longer than {_MAX_DIGITS} digits"))
    if errors:  # keep the tokens on the lines before the first bad one
        at = min(errors)[0]
        cut = np.searchsorted(starts, breaks[at - 1]) if at else 0
        starts, stops = starts[:cut], stops[:cut]
    values = np.fromstring(raw[starts[0] : stops[-1]] if len(starts) else b"", dtype=np.int64, sep=" ")
    # a line's first token is its user
    head = np.zeros(len(starts), dtype=bool)
    after = np.searchsorted(starts, breaks)
    head[after[after < len(starts)]] = True
    head[:1] = True
    zero = np.flatnonzero((values == 0) & ~head)
    if zero.size:
        errors.append((line_of(starts[zero[0]]), 2, "item ids must be >= 1"))
    heads = np.flatnonzero(head)
    users = values[heads]
    _, first = np.unique(users, return_index=True)
    if len(first) < len(users):
        again = np.ones(len(users), dtype=bool)
        again[first] = False
        dup = int(np.argmax(again))
        errors.append((line_of(starts[heads[dup]]), 3, f"duplicate user {users[dup]}"))
    if errors:
        at, _, reason = min(errors)
        raise DataError(f"{path}:{at + 1}: {reason}")
    if not users.size:
        raise DataError(f"{path}: empty corpus")
    counts = np.diff(heads, append=len(values)) - 1
    return users, counts, values[~head]


def split_loo(corpus: Corpus) -> Split:
    if (np.diff(corpus.offsets) < 3).any():
        raise DataError("every sequence needs >= 3 interactions to split")
    return object.__new__(Split)._fill(corpus.users, corpus.num_items, corpus.items, corpus.offsets)


def train_examples(split: Split):
    """Dense next-item examples `(items, starts, ends)`: within each
    history prefix, every position after the first is predicted from the
    items before it."""
    items, first, prefix_end = eval_instances(split, "valid")
    # every position but a history's first and its two held-out items
    keep = np.ones(len(items), dtype=bool)
    keep[first] = keep[prefix_end] = keep[prefix_end + 1] = False
    return items, np.repeat(first, np.maximum(prefix_end - first - 1, 0)), np.flatnonzero(keep)


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
