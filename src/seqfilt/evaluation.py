"""Full-ranking evaluation: HR@r and NDCG@r over the whole item set.

Every prediction scores the entire catalog (no sampled negatives); the
held-out item's rank is 1 plus the number of better-scoring items, with
ties broken in favour of the lower item id so results are reproducible
across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Split, eval_instances, make_batches
from .model import ModelConfig, freeze_filters, predict_scores_batch
from .nn import InvalidTarget

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
    hr, ndcg = {}, {}
    gain = 1.0 / np.log2(ranks + 1)
    for r in CUTOFFS:
        hit = ranks <= r
        hr[r] = float(hit.mean())
        ndcg[r] = float(np.where(hit, gain, 0.0).mean())
    return EvalReport(mode, int(ranks.size), num_empty_context, filter_seen, hr, ndcg)


def _batched_ranks(logits, targets, contexts=()):
    """Vectorized ranks over a batch; matches rank_of_target with the
    padding id excluded, and row i's seen items (the i-th of `contexts`)
    when given.  Overwrites `logits`: once each row's own score is read,
    the excluded entries are set to -inf, so they never count as better
    or tied; the target never counts either, so a seen target needs no
    special case.  The seen items are set in one flat scatter: each row's
    offset in the raveled (B, V) logits, repeated over its context, plus
    the item ids."""
    b, v = logits.shape
    rows = np.arange(b)
    own = logits[rows, targets][:, None]
    logits[:, 0] = -np.inf
    if len(contexts):
        lengths = np.fromiter(map(len, contexts), dtype=np.intp, count=b)
        seen = np.concatenate(contexts).astype(np.intp, copy=False)
        seen += np.repeat(np.arange(0, b * v, v), lengths)
        logits.ravel()[seen] = -np.inf
    better = np.count_nonzero(logits > own, axis=1)
    tied_lower = np.count_nonzero((logits == own) & (np.arange(v) < targets[:, None]), axis=1)
    return 1 + better + tied_lower


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
    once on entry, so every batch runs the real operators."""
    examples = eval_instances(split, mode)
    items, starts, ends = examples
    if not len(ends):
        raise ValueError("empty split")
    ops = freeze_filters(params, cfg)
    all_ranks = []
    batches = make_batches(examples, cfg.max_len, batch_size)
    for lo, (ids, targets) in zip(range(0, len(ends), batch_size), batches):
        logits = predict_scores_batch(params, cfg, ids, frozen_ops=ops)
        rows = slice(lo, lo + batch_size)
        seen = [items[s:e] for s, e in zip(starts[rows], ends[rows])] if filter_seen else ()
        all_ranks.append(_batched_ranks(logits, targets, seen))
    ranks = np.concatenate(all_ranks)
    num_empty = int(np.count_nonzero(starts == ends))
    return aggregate_ranks(ranks, mode, num_empty, filter_seen)
