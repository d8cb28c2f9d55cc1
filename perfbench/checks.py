"""Correctness oracles that the benchmark computes apart from the program.

Ranking here is a full sort of the catalog, the plainest definition of
a rank: order items by score, highest first, ties to the lower id, drop
the excluded ones, and read off the target's place.
"""

from __future__ import annotations

import math

import numpy as np

CUTOFFS = (1, 5, 10, 20)


def full_sort_ranks(scores, targets, excluded=None):
    """1-based rank of each row's target among the non-excluded columns.

    `excluded` is a boolean (rows, items) mask; the target itself is
    never excluded.  Ties go to the lower column index, which a stable
    sort of the negated scores gives.
    """
    scores = np.asarray(scores, dtype=float)
    rows, items = scores.shape
    targets = np.asarray(targets, dtype=np.int64)
    considered = np.ones((rows, items), dtype=bool)
    if excluded is not None:
        considered &= ~np.asarray(excluded, dtype=bool)
    considered[np.arange(rows), targets] = True
    order = np.argsort(-scores, axis=1, kind="stable")
    place = np.empty_like(order)
    np.put_along_axis(place, order, np.arange(items)[None, :], axis=1)
    target_place = place[np.arange(rows), targets]
    ahead = (place < target_place[:, None]) & considered
    return 1 + ahead.sum(axis=1)


def seen_mask(contexts, items):
    """(rows, items) mask of the padding column plus each row's seen items."""
    mask = np.zeros((len(contexts), items), dtype=bool)
    mask[:, 0] = True
    for row, context in enumerate(contexts):
        mask[row, list(context)] = True
    return mask


def hr_ndcg(ranks):
    """HR@r and NDCG@r for one relevant item per row, as two dicts."""
    hr, ndcg = {}, {}
    for r in CUTOFFS:
        hits = [rank for rank in ranks.tolist() if rank <= r]
        hr[r] = len(hits) / len(ranks)
        ndcg[r] = sum(1.0 / math.log2(rank + 1) for rank in hits) / len(ranks)
    return hr, ndcg


def popularity_ndcg20(prefixes, targets, items):
    """NDCG@20 of ranking every item by its count in the training
    prefixes (padding excluded, ties to the lower id)."""
    counts = np.bincount(
        [item for prefix in prefixes for item in prefix], minlength=items
    ).astype(float)
    counts[0] = -1.0  # below every real item, so never ahead of a target
    order = np.argsort(-counts, kind="stable")
    place = np.empty_like(order)
    place[order] = np.arange(items)
    return hr_ndcg(1 + place[np.asarray(targets)])[1][20]
