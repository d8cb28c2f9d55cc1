"""Training loop: cross-entropy with orthogonal basis regularization,
Adam updates, validation-based early stopping.

Each example is one history prefix whose target is the next item; the
loss reads only the encoder's final position (`model_forward` returns
it as (B, D)), so the last block is computed for that position alone.
Examples are independent up to the loss, so a batch with enough work
(`nn.batch_chunks`) runs as chunks of examples on the pool of
`seqfilt.nn`, whose CE and gradients `nn.run_chunks` hands back in
chunk order to be summed in a plain loop; the filter operators and
their backward, Adam and the orthogonality penalty run once per batch.
Adam updates the one parameter vector, which the best epoch's snapshot
copies.  A non-finite loss raises `NumericError` naming the epoch, the
batch and the first non-finite parameter group."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import Corpus, DataError, make_batches, split_loo, train_examples
from .evaluation import evaluate
from .model import ModelConfig, atomic_open, filter_backward, filter_operators, init_params, param_shapes
from .model import check_integers, example_flops, model_backward, model_forward, score_logits
from .nn import NumericError, adam_init, adam_step, batch_chunks, flat_views, run_chunks, softmax_xent_batch

__all__ = [
    "TrainConfig",
    "TrainLog",
    "loss_and_grads",
    "fit",
    "make_synthetic",
]


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    alpha: float = 0.0
    epochs: int = 200
    batch_size: int = 256
    patience: int = 10
    seed: int = 42

    def __post_init__(self):
        check_integers(self, ("epochs", "batch_size", "patience", "seed"))
        if not 0 < self.lr < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {self.lr}")
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be non-negative and finite, got {self.alpha}")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class TrainLog:
    epochs: list = field(default_factory=list)
    ce: list = field(default_factory=list)
    ortho: list = field(default_factory=list)
    valid_ndcg20: list = field(default_factory=list)
    seconds: list = field(default_factory=list)

    def append(self, epoch, ce, ortho, ndcg, seconds):
        self.epochs.append(epoch)
        self.ce.append(ce)
        self.ortho.append(ortho)
        self.valid_ndcg20.append(ndcg)
        self.seconds.append(seconds)

    def to_csv(self) -> str:
        lines = ["epoch,ce,ortho,valid_ndcg20,seconds"]
        for row in zip(self.epochs, self.ce, self.ortho, self.valid_ndcg20, self.seconds):
            lines.append("%d,%.17g,%.17g,%.17g,%.17g" % row)
        return "\n".join(lines) + "\n"

    def last_line(self) -> str:
        """One human-readable line for the latest epoch."""
        return (
            f"epoch {self.epochs[-1]:4d}  ce {self.ce[-1]:.4f}  "
            f"ortho {self.ortho[-1]:.3e}  valid ndcg@20 {self.valid_ndcg20[-1]:.4f}"
        )

    def write_csv(self, path) -> None:
        """Replace `path` atomically with every epoch logged so far."""
        with atomic_open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


def loss_and_grads(params, cfg: ModelConfig, ids, targets, alpha, rng=None):
    """Joint objective over one batch: mean cross-entropy over the batch
    targets plus the orthogonality penalty on every layer's basis.
    Returns (loss, ce, ortho, grads).

    A batch that `batch_chunks` splits runs chunk by chunk on the pool:
    each chunk runs the forward pass on the batch's filter operators, the
    head, the softmax and the backward pass, with its CE and logit gradient
    scaled by its share of the batch and a dropout generator of its own,
    seeded from `rng`; a one-chunk batch draws from `rng` itself.
    `run_chunks` hands the chunks' gradients back in chunk order, each as
    soon as every earlier one is in, and each is added into the step's
    and freed, so the sum is the same bits on one thread as on two; the
    filter backward and penalty run once."""
    ids, targets = np.asarray(ids), np.asarray(targets)
    chunks = batch_chunks(len(ids), example_flops(cfg))
    rngs = [rng] * len(chunks)
    if rng is not None and len(chunks) > 1:
        rngs = [np.random.default_rng(seed) for seed in rng.integers(1 << 63, size=len(chunks))]
    ops, tap_caches = filter_operators(params, cfg)

    def job(i):
        x_last, cache = model_forward(params, cfg, ids[chunks[i]], rngs[i], training=True, frozen_ops=ops)
        ce, d_logits = softmax_xent_batch(score_logits(params, x_last), targets[chunks[i]])
        share = len(x_last) / len(ids)
        if share != 1.0:  # times 1.0 would change no bit
            d_logits *= share
        d_emb = d_logits.T @ x_last
        dx = d_logits @ params["emb"]
        del d_logits  # (chunk, V+1): freed before the backward's peak
        return ce * share, model_backward(params, cfg, cache, dx, d_emb)

    grads = None
    for part_ce, part in run_chunks(job, len(chunks)):
        if grads is None:
            ce, grads = part_ce, part
        else:
            ce += part_ce
            for key in part:
                grads[key] += part[key]
        del part  # the chunk's (V+1, D) table gradient goes before the next chunk runs
    ortho_total = filter_backward(params, cfg, tap_caches, grads, alpha)

    loss = ce + ortho_total
    if not np.isfinite(loss):
        raise NumericError(
            f"non-finite loss {loss!r} (ce={ce!r}, ortho={ortho_total!r}); "
            + _first_non_finite(params, grads)
        )
    return loss, ce, ortho_total, grads


def _first_non_finite(params, grads):
    """Name the first group, in `params` order, whose value, or failing
    that whose gradient, is non-finite; values come first because a bad
    value makes the gradients of every group upstream of it non-finite."""
    for what, arrays in (("value", params), ("gradient", grads)):
        for key in params:
            if not np.all(np.isfinite(arrays[key])):
                return f"first non-finite group: {key} ({what})"
    return "every parameter value and gradient is finite"


def fit(
    corpus: Corpus,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    timer=time.perf_counter,
    on_epoch=None,
):
    """Train on the corpus; returns (best_params, TrainLog).

    Validation NDCG@20 is computed every epoch; training stops after
    `patience` epochs without improvement and the best-epoch snapshot is
    the one returned.  `on_epoch`, if given, is called with the TrainLog
    after every epoch, so a run that fails later still leaves its record.
    """
    rng = np.random.default_rng(train_cfg.seed)
    split = split_loo(corpus)
    examples = train_examples(split)
    if not len(examples[2]):
        raise DataError("corpus yields no training examples")
    params = init_params(model_cfg, rng)
    state = adam_init(params, train_cfg.lr)
    log = TrainLog()
    best = state.flat.copy()
    best_ndcg = -np.inf
    stale = 0
    for epoch in range(1, train_cfg.epochs + 1):
        started = timer()
        ce_sum = ortho_sum = 0.0
        seen = 0
        for batch_no, (ids, batch_targets) in enumerate(
            make_batches(examples, model_cfg.max_len, train_cfg.batch_size, rng)
        ):
            try:
                _, ce, ortho, grads = loss_and_grads(
                    params, model_cfg, ids, batch_targets, train_cfg.alpha, rng=rng
                )
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, batch {batch_no}: {exc}") from exc
            adam_step(params, grads, state)
            ce_sum += ce * len(batch_targets)
            ortho_sum += ortho * len(batch_targets)
            seen += len(batch_targets)
        report = evaluate(split, params, model_cfg, mode="valid", batch_size=train_cfg.batch_size)
        ndcg = report.ndcg[20]
        log.append(epoch, ce_sum / seen, ortho_sum / seen, ndcg, timer() - started)
        if on_epoch is not None:
            on_epoch(log)
        if ndcg > best_ndcg:
            best_ndcg = ndcg
            best[...] = state.flat
            stale = 0
        else:
            stale += 1
            if stale >= train_cfg.patience:
                break
    return flat_views(param_shapes(model_cfg), best), log


def make_synthetic(num_users, num_items, seq_len, rng) -> Corpus:
    """Deterministic successor-rule corpus: from a random start item s,
    each next item is (previous mod num_items) + 1."""
    if num_items < 2:
        raise ValueError("need at least two items")
    if seq_len < 3:
        raise ValueError("sequences must have length >= 3 to be splittable")
    sequences = []
    for _ in range(num_users):
        item = int(rng.integers(1, num_items + 1))
        seq = [item]
        for _ in range(seq_len - 1):
            item = (item % num_items) + 1
            seq.append(item)
        sequences.append(seq)
    return Corpus(list(range(1, num_users + 1)), sequences, num_items)
