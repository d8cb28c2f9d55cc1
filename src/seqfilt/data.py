"""Interaction-log loading, leave-one-out splitting, and batching.

The input format is one user per line: a user id followed by that user's
item ids in chronological order, as ASCII decimal integers separated by
ASCII whitespace; item ids are positive (see `load_corpus`).
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
    flat = (dense + 1).tolist()
    bounds = np.cumsum(counts[keep]).tolist()
    sequences = [flat[lo:hi] for lo, hi in zip([0, *bounds], bounds)]
    kept = users[keep].tolist()
    num_items = len(distinct)
    report = LoadReport(
        num_users=len(kept),
        num_items=num_items,
        num_interactions=len(flat),
        avg_length=len(flat) / len(kept),
        sparsity=1.0 - len(flat) / (len(kept) * num_items),
        dropped_users=len(users) - len(kept),
        min_interactions=min_interactions,
    )
    item_map = dict(zip(distinct.tolist(), range(1, num_items + 1)))
    return Corpus(kept, sequences, num_items, item_map, report)


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
