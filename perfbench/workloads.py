"""The benchmark's workloads: corpus make-up, model and training settings.

Each workload leans on a different layer of `seqfilt`; the README maps
the per-layer metrics to the end-to-end ones they should move.
"""

from __future__ import annotations

from dataclasses import dataclass

from corpus_gen import CorpusSpec


@dataclass(frozen=True)
class Workload:
    corpus: CorpusSpec
    model: dict  # ModelConfig fields other than num_items
    train: dict  # TrainConfig fields other than seed and patience
    filter_seen: bool = False


WORKLOADS = {
    # Long histories under a 50-wide window: the dense complex filter
    # transforms and the position-wise kernels over B*N*D rows dominate.
    "long-window": Workload(
        corpus=CorpusSpec(
            users=24, catalog=1500, min_len=53, max_len=200,
            tail_scale=10.0, tail_shape=2.0, zipf=0.5, restart=0.15,
            successors=(6, 3, 1),
        ),
        model=dict(max_len=50, filter_order=50, dim=64, layers=2, num_bases=8, dropout=0.2),
        train=dict(epochs=2, batch_size=256, lr=3e-3),
    ),
    # Many long histories, tiny model: the data layer (prefix copies,
    # per-example padding, seen-item masking) dominates.
    "long-history": Workload(
        corpus=CorpusSpec(
            users=100, catalog=300, min_len=100, max_len=400,
            tail_scale=40.0, tail_shape=2.0, zipf=0.8, restart=0.15,
            successors=(6, 3, 1),
        ),
        model=dict(max_len=10, dim=16, layers=1, num_bases=4, dropout=0.2),
        train=dict(epochs=2, batch_size=256, lr=3e-3),
        filter_seen=True,
    ),
}
