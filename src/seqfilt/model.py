"""Encoder model: embedding, stacked filter blocks, prediction head.

Item sequences are embedded, passed through L blocks (a per-position
spectral filter layer followed by a feed-forward layer, each wrapped in
dropout + residual + layer norm), and scored against the embedding table
using the final position's representation.  That representation is all
the loss and the scores read, and everything after the filter is
position-wise, so the last block applies only row N-1 of its filter and
runs on B rows instead of B·N; `model_forward` returns it as (B, D).

Each filter layer computes y = G x with one real N x N operator,
G[i, i-k] = Re H[i, k] (causal; circular mode wraps i-k mod N and sums
the wrapped taps), built by `filter_operators` once per training step.
Training, validation and frozen inference all run G; only live
(unfrozen, eval-mode) prediction runs the paper's frequency-domain
transforms from `spectral`, the reference G is checked and timed
against.  The signal is real, so only Re(H) reaches the output:
`basis_im` acts only through the basis row norms and the orthogonality
penalty.

The embedding layer norm of an id depends only on the weights, so
`freeze_filters` also norms the whole (V+1) x D table once, and the
forward of a frozen prediction (`predict_scores_batch` with frozen
operators, and so `evaluate`) gathers its block-0 input from that table.
Training and live prediction norm the rows of the batch's distinct ids
(`_embed_forward`): the backward reads that per-id cache, and the live
path is the reference the frozen one is checked against.

Every example is encoded apart, so `predict_scores_batch` scores a batch
that `nn.batch_chunks` splits chunk by chunk on the pool of `seqfilt.nn`:
each chunk's job writes its rows of the one score array, and the batch
is done once the `nn.run_chunks` iterator is drained, with the same bits
on one thread as on two.  Chunks are sized by the forward flops of an
example (`example_flops`).

Parameters are a dict of float64 arrays that are views of one vector
laid out as a checkpoint's data section (`nn.flat_views`); an entry is
written through (`params[key][...] = x`), never rebound.  Forward passes
return caches that the matching backward passes consume; there is no tape.
Each backward pass returns the gradients of its own groups.

Memory.  A block's cache keeps only what the backward reads and cannot
rebuild in one pass, `model_backward` consumes the caches and frees each
buffer after its last read, and a pass that is not training keeps no
cache (README, Memory).
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import re
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from . import spectral
from .nn import (
    ShapeMismatch,
    affine,
    affine_backward,
    batch_chunks,
    dropout,
    dropout_backward,
    flat_views,
    flatten,
    gelu,
    gelu_backward,
    layer_norm,
    layer_norm_backward,
    ortho_penalty,
    run_chunks,
)

__all__ = [
    "ModelConfig",
    "NormalizationError",
    "OutOfVocabulary",
    "CheckpointError",
    "param_shapes",
    "init_params",
    "build_tap_matrix",
    "build_tap_matrix_backward",
    "model_forward",
    "model_backward",
    "score_logits",
    "example_flops",
    "predict_scores",
    "predict_scores_batch",
    "freeze_filters",
    "count_params",
    "save_checkpoint",
    "load_checkpoint",
]

FILTER_MODES = ("causal", "circular")

# config keys that earlier checkpoints carry, each with the one value
# they always held; `from_dict` drops a key only when it holds that value
_RETIRED_KEYS = {"ln_eps": 1e-12, "ffn_hidden": None}


class NormalizationError(RuntimeError):
    """A basis row has zero norm, so the filter cannot be normalized."""


class OutOfVocabulary(ValueError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    num_items: int
    max_len: int = 50
    dim: int = 64
    layers: int = 2
    num_bases: int = 8
    filter_order: int | None = None
    dropout: float = 0.2
    filter_mode: str = "causal"

    def __post_init__(self):
        # a float that equals an integer would pass the checks below and
        # even match a checkpoint's array shapes, then fail at first use
        for name in ("num_items", "max_len", "dim", "layers", "num_bases", "filter_order"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                if name != "filter_order" or value is not None:
                    raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.num_items < 1:
            raise ValueError("need at least one item")
        if self.max_len < 1 or self.dim < 1 or self.layers < 1:
            raise ValueError("max_len, dim and layers must be positive")
        if not 1 <= self.num_bases <= self.max_len:
            raise ValueError(
                f"num_bases must be in [1, max_len], got {self.num_bases}"
            )
        if self.filter_order is not None and self.filter_order < 0:
            raise ValueError("filter_order must be non-negative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.filter_mode not in FILTER_MODES:
            raise ValueError(f"filter_mode must be one of {FILTER_MODES}")

    @property
    def order(self) -> int:
        return self.max_len if self.filter_order is None else self.filter_order

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**{
            key: value for key, value in data.items()
            if key not in _RETIRED_KEYS or value != _RETIRED_KEYS[key]
        })


def block_key(layer: int, name: str) -> str:
    return f"block{layer}_{name}"


def param_shapes(cfg: ModelConfig) -> dict:
    """Shape of every parameter group, in the order `init_params` draws them."""
    d, n, m, k = cfg.dim, cfg.max_len, cfg.num_bases, cfg.order
    shapes = {"emb": (cfg.num_items + 1, d), "emb_ln_g": (d,), "emb_ln_b": (d,)}
    for layer in range(cfg.layers):
        block = {
            "coef": (n, m),
            "basis_re": (m, k + 1),
            "basis_im": (m, k + 1),
            "w1": (d, d),
            "b1": (d,),
            "w2": (d, d),
            "b2": (d,),
            "ln1_g": (d,),
            "ln1_b": (d,),
            "ln2_g": (d,),
            "ln2_b": (d,),
        }
        shapes.update((block_key(layer, name), shape) for name, shape in block.items())
    return shapes


def init_params(cfg: ModelConfig, rng) -> dict:
    """Fresh parameter views, drawn in `param_shapes` order: matrices ~
    N(0, 0.02); vectors 0, except the layer-norm scales (`*_g`), which are 1."""
    params = flat_views(param_shapes(cfg))
    for key, value in params.items():
        if value.ndim == 2:
            rng.standard_normal(out=value)
            value *= 0.02
        else:
            value[...] = 1.0 if key.endswith("_g") else 0.0
    return params


# ---------------------------------------------------------------------------
# filter construction H = C @ (B / ||B row||)


def build_tap_matrix(coef, basis_re, basis_im):
    """Per-position taps from coefficients and a row-normalized complex basis."""
    b = basis_re + 1j * basis_im
    norms = np.sqrt((basis_re * basis_re + basis_im * basis_im).sum(axis=1))
    if not np.all(np.isfinite(norms)):
        raise NormalizationError("basis contains non-finite entries")
    if np.any(norms == 0.0):
        row = int(np.flatnonzero(norms == 0.0)[0])
        raise NormalizationError(
            f"basis row {row} is identically zero and cannot be normalized"
        )
    b_bar = b / norms[:, None]
    taps = coef @ b_bar
    return taps, (coef, b, b_bar, norms)


def build_tap_matrix_backward(cache, d_taps):
    """Gradients of a scalar through H = C B̄, including the normalization."""
    coef, b, b_bar, norms = cache
    d_coef = (d_taps @ b_bar.conj().T).real
    d_bbar = coef.T @ d_taps
    row_dot = (d_bbar * b.conj()).real.sum(axis=1)
    d_b = d_bbar / norms[:, None] - b * (row_dot / norms**3)[:, None]
    return d_coef, d_b.real, d_b.imag


# ---------------------------------------------------------------------------
# filter layer: y = G x, with G[i, col(i, k)] summing Re H[i, k]


@functools.lru_cache(maxsize=16)
def _band(cfg: ModelConfig):
    """Index set of the filter operator: row i and shift k of each tap, and
    the flat index i·N + col(i, k) of its entry in G.  Built once per
    config, read-only.

    Causal mode keeps 0 <= i-k (shifts past the first position read the
    zero padding of the N+K ring); circular mode wraps to (i-k) mod N."""
    n, width = cfg.max_len, cfg.order + 1
    rows, shifts = np.divmod(np.arange(n * width), width)
    cols = rows - shifts
    if cfg.filter_mode == "causal":
        keep = cols >= 0
        rows, shifts, cols = rows[keep], shifts[keep], cols[keep]
    else:
        cols %= n
    band = rows, shifts, rows * n + cols
    for array in band:
        array.flags.writeable = False
    return band


def _tap_operator(cfg: ModelConfig, taps):
    """Real N x N operator G of a tap matrix; wrapped circular taps are summed."""
    n = cfg.max_len
    rows, shifts, flat = _band(cfg)
    return np.bincount(flat, weights=taps.real[rows, shifts], minlength=n * n).reshape(n, n)


def _live_filter(cfg: ModelConfig, taps, x):
    """The paper's frequency-domain filter on a (B, N, D) block; the
    reference that frozen operators are timed and checked against."""
    b, n, d = x.shape
    cols = x.transpose(1, 0, 2).reshape(n, b * d)
    if cfg.filter_mode == "causal":
        y = spectral.causal_filter(n, cfg.order, taps, cols)
    else:
        basis = spectral.make_basis(n, cfg.order)
        y = (spectral.nv_mixing_matrix(basis, taps) @ basis.gft(cols)).real
    return y.reshape(n, b, d).transpose(1, 0, 2)


def layer_taps(params, layer):
    """Tap matrix H of one layer, with its backward cache."""
    return build_tap_matrix(
        params[block_key(layer, "coef")],
        params[block_key(layer, "basis_re")],
        params[block_key(layer, "basis_im")],
    )


def filter_operators(params, cfg: ModelConfig):
    """Every layer's operator G, and the tap caches `filter_backward` reads."""
    built = [layer_taps(params, layer) for layer in range(cfg.layers)]
    return [_tap_operator(cfg, taps) for taps, _ in built], [cache for _, cache in built]


def filter_backward(params, cfg: ModelConfig, tap_caches, grads, alpha):
    """Swap each layer's `block{l}_op` gradient in `grads` for its tap
    groups', and add the gradient of the basis's orthogonality penalty
    of weight `alpha`; returns the penalty summed over the layers."""
    rows, shifts, flat = _band(cfg)
    ortho = 0.0
    for layer, tap_cache in enumerate(tap_caches):
        d_taps = np.zeros((cfg.max_len, cfg.order + 1))
        d_taps[rows, shifts] = grads.pop(block_key(layer, "op")).ravel()[flat]
        names = [block_key(layer, name) for name in ("coef", "basis_re", "basis_im")]
        d_coef, d_re, d_im = build_tap_matrix_backward(tap_cache, d_taps)
        penalty, g_re, g_im = ortho_penalty(params[names[1]], params[names[2]], alpha)
        grads.update(zip(names, (d_coef, d_re + g_re, d_im + g_im)))
        ortho += penalty
    return ortho


# ---------------------------------------------------------------------------
# embedding layer


def _check_ids(cfg: ModelConfig, ids):
    ids = np.asarray(ids)
    # a float or bool array would fail later, at its first use as an index
    if ids.dtype.kind not in "iu":
        raise TypeError(f"item ids must be an integer array, got dtype {ids.dtype}")
    if ids.ndim != 2 or ids.shape[1] != cfg.max_len:
        raise ShapeMismatch(
            f"ids must be (batch, {cfg.max_len}), got {ids.shape}"
        )
    if ids.min() < 0 or ids.max() > cfg.num_items:
        raise OutOfVocabulary(
            f"item ids must lie in [0, {cfg.num_items}], got "
            f"[{ids.min()}, {ids.max()}]"
        )
    return ids


def _embed_forward(params, cfg, ids, rng, training):
    """Layer-normed embeddings of (B, N) ids, dropped out, as (B, N, D).

    The layer norm of `emb[id]` depends only on the id, so it runs once
    per distinct id in the batch and the normed rows are gathered after.
    The distinct ids come from a presence mask over the catalog ids, in
    O(V + B·N) with no sort: `uniq` lists them in order, and `slot[id]`
    is an id's row in `uniq`."""
    present = np.zeros(cfg.num_items + 1, dtype=bool)
    present[ids] = True
    uniq = np.flatnonzero(present)
    slot = np.zeros(len(present), dtype=np.intp)
    slot[uniq] = np.arange(len(uniq))
    rows = slot[ids.ravel()]
    normed, ln_cache = layer_norm(params["emb"][uniq], params["emb_ln_g"], params["emb_ln_b"])
    out, mask = dropout(normed[rows], cfg.dropout, rng, training)
    return out.reshape(ids.shape + (cfg.dim,)), (uniq, rows, ln_cache, mask)


def _embed_backward(cfg, cache, dx, d_emb):
    """Sum the gradient per distinct id, then run one layer-norm backward
    on those sums; that backward is linear in its `dy`, so this equals the
    per-position backward summed per id.  `uniq` has no repeats, so the
    result adds straight into its rows of `d_emb`, the head's gradient."""
    uniq, rows, ln_cache, mask = cache
    flat = dropout_backward(mask, dx.reshape(-1, cfg.dim))
    positions = len(rows)
    # one-hot (U, B·N) summing matrix: column p holds a 1 in row rows[p]
    per_id = sparse.csc_matrix(
        (np.ones(positions), rows, np.arange(positions + 1)), shape=(len(uniq), positions)
    ) @ flat
    d_in, d_gamma, d_beta = layer_norm_backward(ln_cache, per_id)
    d_emb[uniq] += d_in
    return {"emb": d_emb, "emb_ln_g": d_gamma, "emb_ln_b": d_beta}


# ---------------------------------------------------------------------------
# encoder blocks


def _block_forward(params, cfg, layer, x, rng, training, op=None):
    """One block on (B, N, D) input, filtered by the N x N operator `op` or,
    if None, by the live path (no backward).  Only the final position of
    the last block reaches the head, and everything after the filter is
    position-wise, so the last block applies only row N-1 of its filter
    and runs on B rows; the others output all N positions.  The cache is
    a list that `_block_backward` empties (see Memory, above)."""
    key = lambda name: params[block_key(layer, name)]
    rows = 1 if layer == cfg.layers - 1 else cfg.max_len
    if op is None:
        filtered = _live_filter(cfg, layer_taps(params, layer)[0], x)[:, -rows:]
    else:
        op = op[-rows:]
        filtered = np.matmul(op, x)
    # dropout returns a fresh array or `filtered` itself, which nothing
    # else reads, so the residual is added in place
    res1, mask1 = dropout(filtered, cfg.dropout, rng, training)
    del filtered
    res1 += x[:, -rows:]
    shape = res1.shape
    f2d, ln1_cache = layer_norm(res1.reshape(-1, cfg.dim), key("ln1_g"), key("ln1_b"))
    del res1
    act, act_cache = gelu(affine(f2d, key("w1"), key("b1")))
    h2 = affine(act, key("w2"), key("b2"))
    del act
    # dropout returns h2 itself or a fresh array: both are this block's own
    res2, mask2 = dropout(h2, cfg.dropout, rng, training)
    del h2
    res2 += f2d
    del f2d
    out2d, ln2_cache = layer_norm(res2, key("ln2_g"), key("ln2_b"))
    return out2d.reshape(shape), [op, x, mask1, ln1_cache, act_cache, mask2, ln2_cache]


def _block_backward(params, cfg, layer, cache, dy):
    """Gradient of the block's input, and of its groups keyed as in `params`,
    the filter's as its operator's: dG = Σ_batch dy xᵀ, keyed `block{l}_op`.

    Consumes the block's cache list, releasing each buffer after its last
    read, and `dy`, into which the second layer norm's dx is written."""
    op, x, mask1, ln1_cache, act_cache, mask2, ln2_cache = cache
    cache.clear()
    key = lambda name: params[block_key(layer, name)]
    g = {}

    dy = dy.reshape(-1, cfg.dim)
    d_res2, g["ln2_g"], g["ln2_b"] = layer_norm_backward(ln2_cache, dy, dy)
    del ln2_cache
    d_h2 = dropout_backward(mask2, d_res2)
    h1, cdf = act_cache
    # gelu's output, rebuilt as gelu built it; a temporary, so
    # affine_backward frees it before d_act is allocated
    d_act, g["w2"], g["b2"] = affine_backward(h1 * cdf, key("w2"), d_h2)
    del d_h2, h1, cdf
    d_h1 = gelu_backward(act_cache, d_act)
    del act_cache, d_act
    # the first layer norm's output, rebuilt as layer_norm built it
    f2d = ln1_cache[0] * key("ln1_g")
    f2d += key("ln1_b")
    d_f, g["w1"], g["b1"] = affine_backward(f2d, key("w1"), d_h1)
    del f2d, d_h1
    d_f += d_res2
    del d_res2

    d_res1, g["ln1_g"], g["ln1_b"] = layer_norm_backward(ln1_cache, d_f, d_f)
    del ln1_cache
    d_res1 = d_res1.reshape(len(x), len(op), cfg.dim)
    d_filtered = dropout_backward(mask1, d_res1)
    g["op"] = np.zeros((cfg.max_len, cfg.max_len))
    g["op"][-len(op):] = np.matmul(d_filtered, x.transpose(0, 2, 1)).sum(axis=0)
    del x
    dx = np.matmul(op.T, d_filtered)
    dx[:, -len(op):] += d_res1
    return dx, {block_key(layer, name): grad for name, grad in g.items()}


def model_forward(params, cfg, ids, rng=None, training=False, frozen_ops=None):
    """Run embedding plus all blocks; returns the (B, D) representation of
    the final position, and the cache `model_backward` reads, which only a
    training pass keeps (None otherwise).  A training pass needs the
    layers' operators from `filter_operators` as `frozen_ops`, since the
    live filter has no backward."""
    if training and frozen_ops is None:
        raise ValueError("a training pass needs frozen_ops=filter_operators(params, cfg)[0]")
    return _forward(params, cfg, _check_ids(cfg, ids), rng, training, frozen_ops)


def _forward(params, cfg, ids, rng, training, frozen_ops):
    """`model_forward` on ids already checked.  Out of training, a frozen
    model's normed table is gathered instead of running the embedding
    layer, and each block's cache is dropped as soon as it returns."""
    table = None if training else getattr(frozen_ops, "table", None)
    if table is None:
        x, emb_cache = _embed_forward(params, cfg, ids, rng, training)
    else:
        x, emb_cache = table[ids], None
    block_caches = []
    for layer in range(cfg.layers):
        op = None if frozen_ops is None else frozen_ops[layer]
        x, cache = _block_forward(params, cfg, layer, x, rng, training, op)
        if training:
            block_caches.append(cache)
        del cache
    return x[:, -1], ((emb_cache, block_caches) if training else None)


def model_backward(params, cfg, cache, dx, d_emb):
    """Gradients of a scalar whose gradient with respect to
    `model_forward`'s (B, D) output is `dx`.  They are keyed as in
    `params`, except that each layer's filter comes back as its operator's
    gradient, keyed `block{l}_op`, for `filter_backward` to swap for the
    tap groups'.  The encoder's rows of the table's gradient are added
    into `d_emb`, the tied head's.  Consumes `cache`, whose block list it
    empties, and `dx`, which the top block's backward overwrites."""
    emb_cache, block_caches = cache
    grads = {}
    for layer in reversed(range(cfg.layers)):
        dx, block_grads = _block_backward(params, cfg, layer, block_caches.pop(), dx)
        grads.update(block_grads)
    grads.update(_embed_backward(cfg, emb_cache, dx, d_emb))
    return grads


def score_logits(params, x_last, out=None):
    """Preference scores for every item id (column 0 is the padding slot),
    written into `out` when given."""
    return np.matmul(x_last, params["emb"].T, out)


def pad_context(context, max_len) -> np.ndarray:
    """Truncate to the most recent max_len items and left-pad with zeros."""
    ids = np.zeros(max_len, dtype=np.int64)
    tail = list(context)[-max_len:]
    if tail:
        ids[-len(tail):] = tail
    return ids


def example_flops(cfg: ModelConfig) -> int:
    """Forward flops of one example, the work `nn.batch_chunks` sizes
    chunks by: each block before the last filters N positions (2·N²·D)
    and runs its FFN on them (4·N·D²), the last block does both for one
    row, and the head scores that row against V+1 items (2·D·(V+1)).
    The element-wise kernels are left out."""
    n, d = cfg.max_len, cfg.dim
    full = 2 * n * n * d + 4 * n * d * d
    last = 2 * n * d + 4 * d * d
    return (cfg.layers - 1) * full + last + 2 * d * (cfg.num_items + 1)


def predict_scores_batch(params, cfg, ids, frozen_ops=None):
    """Scores (B, V+1) for a batch of (B, N) ids.  A batch that
    `batch_chunks` splits is scored chunk by chunk on the pool, into the
    one array."""
    ids = _check_ids(cfg, ids)
    chunks = batch_chunks(len(ids), example_flops(cfg))
    scores = np.empty((len(ids), cfg.num_items + 1))

    def job(i):
        x_last, _ = _forward(params, cfg, ids[chunks[i]], None, False, frozen_ops)
        score_logits(params, x_last, scores[chunks[i]])

    for _ in run_chunks(job, len(chunks)):
        pass
    return scores


def predict_scores(params, cfg, context, frozen_ops=None):
    """Scores for a single raw item sequence (any length)."""
    ids = pad_context(context, cfg.max_len)[None, :]
    return predict_scores_batch(params, cfg, ids, frozen_ops=frozen_ops)[0]


class _Frozen(list):
    """Every layer's operator G, in layer order, and `table`: the layer
    norm of the whole embedding table, so that a prediction gathers its
    block-0 input instead of norming its ids' rows on every call."""


def freeze_filters(params, cfg) -> list:
    """Collapse each layer's trained filter into its real N x N operator G,
    and layer-norm the embedding table once, for the prediction forward.

    Rows that no prediction gathers are normed too; a non-finite one norms
    to NaN without a warning, and reaches a score only if it is gathered,
    where `evaluate` reports it."""
    frozen = _Frozen(filter_operators(params, cfg)[0])
    with np.errstate(invalid="ignore", over="ignore"):
        frozen.table = layer_norm(params["emb"], params["emb_ln_g"], params["emb_ln_b"])[0]
    return frozen


def count_params(params) -> int:
    return int(sum(v.size for v in params.values()))


# ---------------------------------------------------------------------------
# checkpoint format: magic line, header length, JSON header, raw float64


_MAGIC = b"SEQFILT-CKPT-V1\n"


@contextmanager
def atomic_open(path, mode="wb", **kwargs):
    """Write to `path` + ".tmp" in the same directory and move it over
    `path` only once fully written, so a failed write leaves the old file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _layout(shapes):
    """The manifest and data size of float64 arrays of these shapes laid
    back to back in sorted key order: the one layout a checkpoint has."""
    manifest, offset = {}, 0
    for key in sorted(shapes):
        manifest[key] = {"shape": list(shapes[key]), "offset": offset}
        offset += 8 * math.prod(shapes[key])
    return manifest, offset


def _check_layout(manifest, cfg):
    """`cfg`'s layout, if `manifest` is its manifest as JSON text (in which
    0, 0.0 and false differ); else ValueError names the first key that differs."""
    want, total_bytes = _layout(param_shapes(cfg))
    for key in sorted(want.keys() | manifest.keys()):
        got, expect = (json.dumps(d.get(key), sort_keys=True) for d in (manifest, want))
        if got != expect:
            raise ValueError(f"manifest entry {key!r} is {got}, its config's layout has {expect}")
    return want, total_bytes


# what each meta key that `seqfilt train` writes must hold; an integer is
# one JSON can hold, not a bool; other keys pass through unchecked
_SHA256 = re.compile("[0-9a-f]{64}")
_META = {
    "data_sha256": ("a sha256 hex digest", lambda v: isinstance(v, str) and _SHA256.fullmatch(v)),
    "min_interactions": ("an integer", lambda v: type(v) is int),
    "seed": ("a non-negative integer", lambda v: type(v) is int and v >= 0),
    "alpha": (
        "a finite number >= 0",
        lambda v: (type(v) is int or isinstance(v, float)) and 0 <= v < math.inf,
    ),
}


def _check_meta(meta) -> None:
    if not isinstance(meta, dict):
        raise TypeError(f"meta is {type(meta).__name__}, not an object")
    for key, (what, ok) in _META.items():
        if key in meta and not ok(meta[key]):
            raise ValueError(f"meta {key} must be {what}, got {meta[key]!r}")


def save_checkpoint(path, params, cfg: ModelConfig, meta=None) -> None:
    """Write `params` and their vector; their layout must be `cfg`'s, or no
    file is opened."""
    meta = meta or {}
    _check_meta(meta)
    shapes = {key: np.shape(value) for key, value in params.items()}
    manifest, total_bytes = _check_layout(_layout(shapes)[0], cfg)
    header = {
        "config": cfg.to_dict(),
        "manifest": manifest,
        "meta": meta,
        "total_bytes": total_bytes,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path) as fh:
        fh.write(_MAGIC)
        fh.write(f"{len(blob)}\n".encode("ascii"))
        fh.write(blob)
        fh.write(flatten(params).astype("<f8", copy=False))


def load_checkpoint(path):
    """Read a checkpoint back; returns (params, config, meta), bit-exact,
    params as views of a copy of the data.  The header must hold the
    layout its config implies and a valid meta."""
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != _MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
        try:
            header_len = int(fh.readline().strip())
        except ValueError as exc:
            raise CheckpointError(f"{path}: corrupt header length") from exc
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except ValueError as exc:
            raise CheckpointError(f"{path}: corrupt header") from exc
        raw = fh.read()
    try:
        cfg = ModelConfig.from_dict(header["config"])
        manifest, total_bytes = _check_layout(header["manifest"], cfg)
        if json.dumps(header["total_bytes"]) != str(total_bytes):
            raise ValueError(f"total_bytes is {header['total_bytes']!r}, its layout has {total_bytes}")
        meta = header.get("meta", {})
        _check_meta(meta)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed header ({type(exc).__name__}: {exc})") from exc
    if len(raw) != total_bytes:
        raise CheckpointError(
            f"{path}: expected {total_bytes} data bytes, got {len(raw)}"
        )
    params = flat_views(param_shapes(cfg), np.frombuffer(raw, dtype="<f8").astype(np.float64))
    return params, cfg, meta
