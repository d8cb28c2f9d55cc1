"""Seeded interaction-log generator for the benchmark workloads.

Each user's history is a Markov chain with random restarts over a
Zipf-popular catalog: a restart draws the next item from the popularity
law, otherwise the next item is one of the current item's few fixed
successors.  History lengths are heavy-tailed (a floor plus a Pareto
tail, capped); they sit at evenly spaced quantiles of that law, in a
seeded order, so every seed gives the same lengths and only the items
differ.  Raw item ids are scattered over a range three times the
catalog so that the program's id remapping has real work to do.

The output is the `seqfilt` interaction format: one line per user, the
user id followed by the item ids in order.  The same arguments give the
same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CorpusSpec:
    users: int
    catalog: int
    min_len: int
    max_len: int
    tail_scale: float  # Pareto scale of the length above min_len
    tail_shape: float  # Pareto shape; smaller means a heavier tail
    zipf: float  # popularity exponent of restarts and successors
    restart: float  # chance that the next item is a fresh popularity draw
    successors: tuple  # transition weights of each item's successors


def _popularity(catalog, zipf):
    """Cumulative Zipf law over popularity ranks 0..catalog-1."""
    weights = 1.0 / np.arange(1, catalog + 1) ** zipf
    return np.cumsum(weights / weights.sum())


def _draw(cdf, uniforms):
    return np.minimum(np.searchsorted(cdf, uniforms, side="right"), len(cdf) - 1)


def generate(spec: CorpusSpec, seed: int) -> list:
    """Return the histories as lists of raw item ids, one per user."""
    rng = np.random.default_rng(seed)
    cdf = _popularity(spec.catalog, spec.zipf)
    # item i (0-based popularity rank) moves to succ[i, j] with weight j
    succ = _draw(cdf, rng.random((spec.catalog, len(spec.successors))))
    succ_cdf = np.cumsum(spec.successors) / np.sum(spec.successors)
    raw_ids = 1 + rng.choice(3 * spec.catalog, size=spec.catalog, replace=False)

    # quantile function of numpy's Pareto (Lomax) law at the midpoints
    q = (np.arange(spec.users) + 0.5) / spec.users
    extra = np.floor(((1.0 - q) ** (-1.0 / spec.tail_shape) - 1.0) * spec.tail_scale)
    lengths = rng.permutation(np.minimum(spec.min_len + extra.astype(np.int64), spec.max_len))
    total = int(lengths.sum())
    restarts = (rng.random(total) < spec.restart).tolist()
    fresh = _draw(cdf, rng.random(total)).tolist()
    picks = np.searchsorted(succ_cdf, rng.random(total), side="right").tolist()
    succ = succ.tolist()

    histories = []
    pos = 0
    for length in lengths.tolist():
        item = fresh[pos]
        seq = [item]
        for step in range(pos + 1, pos + length):
            item = fresh[step] if restarts[step] else succ[item][picks[step]]
            seq.append(item)
        pos += length
        histories.append([int(raw_ids[i]) for i in seq])
    return histories


def write_corpus(path, spec: CorpusSpec, seed: int) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for user, items in enumerate(generate(spec, seed), start=1):
            fh.write(f"{user} {' '.join(map(str, items))}\n")
