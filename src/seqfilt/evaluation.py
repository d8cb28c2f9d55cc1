"""Full-ranking evaluation: HR@r and NDCG@r over the whole item set.

Every prediction scores the entire catalog (no sampled negatives); the
held-out item's rank is 1 plus the number of better-scoring items, with
ties broken in favour of the lower item id so results are reproducible
across platforms.

`evaluate` scores each batch with `predict_scores_batch`, which shares a
batch with enough work (`nn.batch_chunks`) out on the row pool, and
ranks the batch in the calling thread, so the pool is entered once per
batch: ranking 24 long-window users takes about 2% of the time scoring
them takes.  A row's rank reads only its own scores, so ranks and
reports are the same bits whatever the pool size.  A target whose score
is not finite, or a NaN score of any ranked item, raises `NumericError`:
the first would rank first, and NaN compares neither better nor tied, so
its item would silently leave the catalog and inflate HR and NDCG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Split, eval_instances, make_batches
from .model import ModelConfig, freeze_filters, predict_scores_batch
from .nn import InvalidTarget, NumericError

__all__ = [
    "CUTOFFS",
    "EvalReport",
    "rank_of_target",
    "metrics_from_rank",
    "aggregate_ranks",
    "evaluate",
]

CUTOFFS = (1, 5, 10, 20)


@dataclass(frozen=True)
class EvalReport:
    mode: str
    num_users: int
    num_empty_context: int
    filter_seen: bool
    hr: dict
    ndcg: dict

    def to_csv(self) -> str:
        lines = ["metric,cutoff,value"]
        for r in CUTOFFS:
            lines.append(f"HR,{r},%.17g" % self.hr[r])
        for r in CUTOFFS:
            lines.append(f"NDCG,{r},%.17g" % self.ndcg[r])
        lines.append(f"users,,{self.num_users}")
        lines.append(f"empty_contexts,,{self.num_empty_context}")
        lines.append(f"filter_seen,,{int(self.filter_seen)}")
        lines.append(f"mode,,{self.mode}")
        return "\n".join(lines) + "\n"

    def table(self) -> str:
        head = f"{'Metric':<10}" + "".join(f"@{r:<8d}" for r in CUTOFFS)
        hr = f"{'HR':<10}" + "".join(f"{self.hr[r]:<9.4f}" for r in CUTOFFS)
        nd = f"{'NDCG':<10}" + "".join(f"{self.ndcg[r]:<9.4f}" for r in CUTOFFS)
        note = (
            f"({self.mode} split, {self.num_users} users, "
            f"{self.num_empty_context} empty contexts, "
            f"filter_seen={'on' if self.filter_seen else 'off'})"
        )
        return "\n".join([head, hr, nd, note])


def rank_of_target(scores, target, exclude=()) -> int:
    """1-based rank of `target` within `scores`, excluded indices ignored,
    ties resolved in favour of the lower index.  A test oracle only for
    `evaluate`'s batched ranking."""
    scores = np.asarray(scores, dtype=float)
    v = scores.shape[0]
    if not 0 <= target < v:
        raise InvalidTarget(f"target {target} out of range for {v} scores")
    considered = np.ones(v, dtype=bool)
    for i in exclude:
        considered[i] = False
    if not considered[target]:
        raise InvalidTarget(f"target {target} is excluded from ranking")
    considered[target] = False
    own = scores[target]
    better = scores > own
    tied_lower = (scores == own) & (np.arange(v) < target)
    return int(1 + (better & considered).sum() + (tied_lower & considered).sum())


def metrics_from_rank(rank, r):
    """HR and NDCG credit for a single relevant item at `rank`.  A test
    oracle only for `aggregate_ranks`."""
    if rank < 1 or r < 1:
        raise ValueError("rank and cutoff must be >= 1")
    if rank > r:
        return 0.0, 0.0
    return 1.0, 1.0 / np.log2(rank + 1)


def aggregate_ranks(ranks, mode, num_empty_context=0, filter_seen=False) -> EvalReport:
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        raise ValueError("cannot aggregate an empty set of ranks")
    # one (cutoffs, users) pass, each row reduced as the 1-D mean would be
    hit = ranks <= np.array(CUTOFFS)[:, None]
    hr = dict(zip(CUTOFFS, map(float, hit.mean(axis=1))))
    ndcg = dict(zip(CUTOFFS, map(float, np.where(hit, 1.0 / np.log2(ranks + 1), 0.0).mean(axis=1))))
    return EvalReport(mode, int(ranks.size), num_empty_context, filter_seen, hr, ndcg)


def _seen_index(split: Split, mode: str, users: slice, width: int):
    """The seen items of `users` (a slice of the split's users, in order)
    as one flat index into a raveled (rows, width) score block: row r's
    item i is r·width + i.  It lists each user's history up to and
    including the `mode` target, one multiply-add over a contiguous run
    of the split's index.  Listing the target does not matter, since
    `_batched_ranks` reads its score first and masks it anyway; in valid
    mode the test item, which follows the target, is listed as the
    target again."""
    bounds = split.offsets[users.start : users.stop + 1]
    seen = np.repeat(np.arange(0, width * (len(bounds) - 1), width), np.diff(bounds))
    seen += split.items[bounds[0] : bounds[-1]]
    if mode == "valid":
        test = bounds[1:] - bounds[0] - 1
        seen[test] = seen[test - 1]
    return seen


def _batched_ranks(logits, targets, seen=None):
    """Ranks over a (B, V) score block; each matches rank_of_target with
    the padding id and, given a `_seen_index`, the row's seen items
    excluded.  Overwrites `logits`: once each row's own score is read, the
    padding column, the seen items and the target are set to -inf, so they
    never count as better or tied and a seen target needs no special case.
    The lower-id tie term is counted only when some row has a tie or a
    NaN.  For the caller to report, a row whose target score is not
    finite gets rank 0, and otherwise a row that ranks a NaN score gets
    minus the first such item's id."""
    b, v = logits.shape
    rows = np.arange(b)
    own = logits[rows, targets][:, None]
    logits[:, 0] = -np.inf
    if seen is not None:
        logits.ravel()[seen] = -np.inf
    logits[rows, targets] = -np.inf
    better = np.count_nonzero(logits > own, axis=1)
    ranks = 1 + better
    # a score is above, below or tied with its row's own, or NaN: only a
    # tie or a NaN is in neither count.  The excluded columns and the
    # target are -inf by now, so a NaN is a ranked item's score.
    if better.sum() + np.count_nonzero(logits < own) < logits.size:
        tied = logits == own
        ranks += np.count_nonzero(tied & (np.arange(v) < targets[:, None]), axis=1)
        bad = np.flatnonzero(np.isnan(logits).any(axis=1))
        ranks[bad] = -np.isnan(logits[bad]).argmax(axis=1)
    ranks[~np.isfinite(own[:, 0])] = 0
    return ranks


def evaluate(
    split: Split,
    params,
    cfg: ModelConfig,
    mode: str = "test",
    batch_size: int = 256,
    filter_seen: bool = False,
) -> EvalReport:
    """Score every user's context, rank the held-out target over the full
    catalog, and average HR/NDCG at each cutoff.  The filters are frozen
    once on entry, so every batch runs the real operators.  Raises
    `NumericError` naming the first user whose target score is not finite
    or who ranks an item whose score is NaN."""
    examples = eval_instances(split, mode)
    _, starts, ends = examples
    if not len(ends):
        raise ValueError("empty split")
    ops = freeze_filters(params, cfg)
    ranks = np.empty(len(ends), dtype=np.intp)
    # make_batches checks batch_size before the first batch
    for b, (ids, targets) in enumerate(make_batches(examples, cfg.max_len, batch_size)):
        users = slice(b * batch_size, b * batch_size + len(ids))
        logits = predict_scores_batch(params, cfg, ids, frozen_ops=ops)
        seen = _seen_index(split, mode, users, logits.shape[1]) if filter_seen else None
        ranks[users] = _batched_ranks(logits, targets, seen)
    if ranks.min() < 1:
        i = int(np.flatnonzero(ranks < 1)[0])
        where = f"user {split.users[i]} (batch {i // batch_size}, row {i % batch_size})"
        what = "target score is not finite" if ranks[i] == 0 else f"score of item {-ranks[i]} is NaN"
        raise NumericError(f"{where}: {what}")
    num_empty = int(np.count_nonzero(starts == ends))
    return aggregate_ranks(ranks, mode, num_empty, filter_seen)
