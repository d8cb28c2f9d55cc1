"""Differentiable numerical kernels and the Adam optimizer.

Each kernel returns its output together with a cache, and has a matching
`*_backward` function implementing the exact analytic gradient.  The set
is deliberately small: just the pieces the encoder needs, all in 64-bit
floats so finite-difference checks are meaningful.

The row kernels (layer norm, GELU, dropout, the affine map) run over
B·N·D elements per call, so they are written to make few passes and few
fresh temporaries: row means are BLAS products with a 1/D vector,
results are built in place in the buffers they own, and a dropout mask
is the pair (keep, scale) of a boolean array and the one scale 1/(1-p)
instead of a float array.  Dropout draws one float64 uniform per element.

What a backward consumes.  Backward kernels only read their `dy`;
`layer_norm_backward` writes its dx into `dy` only when the caller hands
`dy` over as `out`.  It consumes its cache, building its shift in the
cached x_hat; the GELU and dropout backwards leave their caches as they are.

Threads.  The encoder and the head treat each example of a batch apart,
so a batch is what gets shared out, not a kernel: `batch_chunks` cuts a
batch into chunks that each hold at least _SPLIT_MIN forward flops, two
halves of a batch of up to 64 examples or chunks of 64 or more examples
of a larger one, and `run_chunks` runs a job per chunk on a pool of
min(2, usable CPUs) threads, the caller and one worker, which claim
chunks from a shared counter.  The worker is the one thread of a
standard-library `ThreadPoolExecutor`, started by the first chunked
batch; a forked child makes a fresh executor, since it inherits no
threads.  The caller cancels the worker's task if the worker has not
started it by the time the chunks ran out, and else waits for it.
`train.loss_and_grads` runs the forward pass, the head, the softmax and
the backward pass of each chunk, and `model.predict_scores_batch`
scores each chunk, for its callers and for `evaluation.evaluate`; both
size their chunks by `model.example_flops`, and a chunk's job never
splits its rows again.  The filter operators and their backward,
Adam and the orthogonality penalty run once per batch in the caller.
A batch with too little work for two chunks (batch-1 prediction, the
small models' steps) runs whole in the caller's thread, with no handoff.
A chunk computes the same bits on either thread and results are summed
in chunk order, so nothing depends on the pool size.  BLAS keeps its own
threads.

Each training step allocates and frees hundreds of MB of such
temporaries, and each prediction tens of MB.  Importing this module,
which every `seqfilt` module does, sets one process-wide malloc policy
(glibc only) so that freed blocks stay mapped for the next batch or call
to reuse, instead of going back to the OS and being faulted in and zeroed
again page by page.

The layer-norm epsilon and Adam's betas and epsilon are module
constants, not parameters.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
import platform
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

__all__ = [
    "NumericError",
    "ShapeMismatch",
    "InvalidTarget",
    "pool_size",
    "batch_chunks",
    "run_chunks",
    "layer_norm",
    "layer_norm_backward",
    "gelu",
    "gelu_backward",
    "affine",
    "affine_backward",
    "dropout",
    "dropout_backward",
    "softmax_xent_batch",
    "ortho_penalty",
    "AdamState",
    "adam_init",
    "adam_step",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_LN_EPS = 1e-12
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8

# glibc's mallopt parameters, and the values _keep_freed_memory sets
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * 1024 * 1024  # glibc's largest on 64-bit builds
_TRIM_THRESHOLD = 1024 * 1024 * 1024

# the pool: the caller plus at most one worker thread
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
# the forward flops a chunk must hold to be worth a thread: on one BLAS
# thread, frozen long-window prediction (1.25 M flops an example) ran its
# halves 0.96x as fast as the whole batch at 4 rows a half, 1.00x at 5
# and 1.35x at 6, and long-history prediction (11 k) 0.94x at 512 rows
_SPLIT_MIN = 7_000_000
# a batch of more rows than this is cut into chunks of this many rows,
# or more when that is too little work; 32 and 64 measured alike at
# B=256, and fixed halves would leave a stalled thread holding up half
_CHUNK_ROWS = 64


class NumericError(RuntimeError):
    """Raised when a computation produces non-finite values."""


class ShapeMismatch(ValueError):
    pass


class InvalidTarget(ValueError):
    pass


def _keep_freed_memory() -> None:
    """Keep freed memory mapped for reuse, process-wide; run once, below,
    when this module is imported.

    On glibc, blocks below 32 MiB (M_MMAP_THRESHOLD) come from the heap
    rather than from their own mmap, and up to 1 GiB of free heap
    (M_TRIM_THRESHOLD) is kept rather than handed back to the OS, so the
    next batch's temporaries take no page faults.  Both are set: setting
    the trim threshold alone turns off glibc's dynamic mmap threshold.
    The cost is that the resident size stays at its high-water mark.
    Does nothing on a C library other than glibc or without `mallopt`.
    Arithmetic is unaffected."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success and 0 on failure; the trim threshold
    # is set only after the mmap threshold took, since alone it would
    # turn off the dynamic mmap threshold
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_freed_memory()


def pool_size() -> int:
    """Threads a chunked batch runs on: the caller plus the worker, if any."""
    return _WORKERS


def _new_pool():
    """Make the worker pool; its thread starts on the first `submit`.  Run
    again in a forked child, which inherits the parent's pool but none of
    its threads, and maybe its locks held."""
    global _pool
    _pool = ThreadPoolExecutor(1, thread_name_prefix="seqfilt-rows")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _share(job, count):
    """Run job(0), ..., job(count - 1) on the caller and the worker.

    Each thread claims the next index from one counter, so a thread that
    the host stalls holds up no fixed share of the work.  Once the caller
    ran out of indices it cancels the worker's task, which succeeds when
    the worker has not started it, or else waits for it.  The first
    exception either thread raised, an interrupt included, stops both
    claiming further indices, and is raised in the caller after that
    wait."""
    claim = itertools.count()
    errors = []

    def drain():
        try:
            while not errors:
                i = next(claim)
                if i >= count:
                    break
                job(i)
        except BaseException as exc:
            errors.append(exc)

    try:
        remote = _pool.submit(drain)
    except RuntimeError:
        # the interpreter is shutting down, as for a thread still running
        # once the main thread has ended: the caller runs every index
        remote = None
    drain()
    if remote is not None and not remote.cancel():
        remote.result()
    # a cancelled task stays in the pool's queue until the worker reaches
    # it, and must not keep the job's arrays alive: drop them from the
    # closure it shares
    job = None
    if errors:
        # the cancelled task's closure still holds this list: leave it
        # empty, so that the exception's traceback, and the chunk arrays
        # its frames hold, go once the caller is done with the exception
        del errors[1:]
        raise errors.pop()


def batch_chunks(rows, work):
    """Slices of a batch of `rows` examples of `work` forward flops each
    (`model.example_flops`) that `run_chunks` shares out.  Up to
    _CHUNK_ROWS rows the batch is cut in two halves, and a larger one in
    chunks of max(_CHUNK_ROWS, rows that reach _SPLIT_MIN flops), the last
    maybe fewer.  A last chunk below _SPLIT_MIN flops joins the one before
    it, so every chunk clears the floor, and a batch with too little work
    for two chunks stays whole."""
    if rows * work < 2 * _SPLIT_MIN:
        return [slice(0, rows)]
    if rows <= _CHUNK_ROWS:
        size = -(-rows // 2)
    else:
        size = max(_CHUNK_ROWS, -(-_SPLIT_MIN // work))
    starts = list(range(0, rows, size))
    if (rows - starts[-1]) * work < _SPLIT_MIN:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [rows])]


def run_chunks(job, count):
    """job(0), ..., job(count - 1), each a chunk that writes its own
    results: shared by the caller and the executor's worker thread, which
    `_share` cancels or waits for, or in turn in the caller when there is
    one chunk or one thread.  Each chunk computes the same bits on either
    thread, so results do not depend on the pool size."""
    if count < 2 or _WORKERS < 2:
        for i in range(count):
            job(i)
    else:
        _share(job, count)


@functools.lru_cache(maxsize=None)
def _row_mean(width):
    """The read-only vector of `width` entries 1/width whose product with
    a row is the row's mean; made once per width, since at batch 1
    filling it anew costs a few percent of a prediction."""
    vec = np.full(width, 1.0 / width)
    vec.flags.writeable = False
    return vec


def layer_norm(x, gamma, beta):
    """Standardize each row of `x`, then scale by gamma and shift by beta.

    Returns (y, (x_hat, inv_std, gamma)); `x_hat` is the centred buffer
    scaled in place, and `y` first holds the squared deviations."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ShapeMismatch(f"layer_norm needs a 2-d input with columns, got {x.shape}")
    row_mean = _row_mean(x.shape[1])
    x_hat = x - (x @ row_mean)[:, None]
    y = np.square(x_hat)
    inv_std = 1.0 / np.sqrt(y @ row_mean + _LN_EPS)[:, None]
    x_hat *= inv_std
    np.multiply(x_hat, gamma, y)
    y += beta
    return y, (x_hat, inv_std, gamma)


def layer_norm_backward(cache, dy, out=None):
    """dx = inv_std * (dy*gamma - mean(dy*gamma) - x_hat * mean(dy*gamma*x_hat)),
    with the row means and column sums as BLAS products.

    Consumes the cache: the shift is built in its x_hat.  dx is written
    into `out`, which may be `dy` itself when the caller no longer reads
    it, or else into the buffer of dy * x_hat, once its column sums (dgamma)
    and row means are taken; `dy` is only read."""
    x_hat, inv_std, gamma = cache
    gamma_mean = gamma / x_hat.shape[1]
    ones = np.ones(len(dy))
    scratch = dy * x_hat
    d_gamma = ones @ scratch
    shift = np.multiply(x_hat, (scratch @ gamma_mean)[:, None], out=x_hat)
    shift += (dy @ gamma_mean)[:, None]
    d_beta = ones @ dy
    dx = np.multiply(dy, gamma, out=scratch if out is None else out)
    dx -= shift
    dx *= inv_std
    return dx, d_gamma, d_beta


def gelu(x):
    """Exact GELU x * Phi(x) with Phi the standard normal CDF."""
    x = np.asarray(x, dtype=float)
    cdf = x * _INV_SQRT2
    erf(cdf, cdf)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, (x, cdf)


def gelu_backward(cache, dy):
    """dy * (Phi(x) + x * phi(x)), built in one buffer."""
    x, cdf = cache
    grad = x * -0.5
    grad *= x
    np.exp(grad, grad)
    grad *= _INV_SQRT_2PI
    grad *= x
    grad += cdf
    grad *= dy
    return grad


def affine(x, w, b):
    """x @ w + b over the rows of a 2-d `x`."""
    out = x @ w
    out += b
    return out


def affine_backward(x, w, dy):
    """Gradients (dx, dw, db) of y = x @ w + b.

    x is dropped before dx is allocated, so an x that the caller passed
    as a temporary is freed first (CPython 3.11+ hands a call its
    arguments)."""
    dw = x.T @ dy
    del x
    return dy @ w.T, dw, dy.sum(axis=0)


def dropout(x, rate, rng=None, training=True):
    """Inverted dropout; identity when not training.  Returns (y, mask).

    The mask is (keep, scale): a boolean array of the kept entries and
    the scale 1/(1-rate) they are multiplied by, or None when nothing is
    dropped.  Each call draws x.size float64 uniforms from `rng` and
    builds the output in their buffer."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    y = rng.random(x.shape)
    scale = 1.0 / (1.0 - rate)
    keep = y >= rate
    np.multiply(x, scale, y)
    y *= keep
    return y, (keep, scale)


def dropout_backward(mask, dy):
    if mask is None:
        return dy
    keep, scale = mask
    dx = dy * scale
    dx *= keep
    return dx


def softmax_xent_batch(logits, targets):
    """Mean cross-entropy over rows, with column 0 (the padding item)
    excluded from the softmax.  Gradient is already divided by the batch."""
    logits = np.asarray(logits, dtype=float)
    b = logits.shape[0]
    if np.any(targets < 1) or np.any(targets >= logits.shape[1]):
        raise InvalidTarget("targets must be valid non-padding item ids")
    m = logits[:, 1:].max(axis=1, keepdims=True)
    # the one (B, V) buffer: shifted logits, then probabilities, then the
    # gradient; exp(-inf) zeroes the padding column
    grad = np.subtract(logits, m)
    grad[:, 0] = -np.inf
    np.exp(grad, out=grad)
    # summed over the same columns as the softmax, so rounding is unchanged
    z = grad[:, 1:].sum(axis=1, keepdims=True)
    grad /= z
    rows = np.arange(b)
    losses = (m[:, 0] + np.log(z[:, 0])) - logits[rows, targets]
    grad[rows, targets] -= 1.0
    grad /= b
    return losses.mean(), grad


def ortho_penalty(b_real, b_imag, alpha):
    """Penalty alpha * sum_c ||B_c B_c^T - I||_F^2 over both components.

    Returns (loss, grad_real, grad_imag) with grads 4*alpha*(B B^T - I)B.
    """
    if alpha < 0:
        raise ValueError(f"regularization strength must be non-negative, got {alpha}")
    if alpha == 0:
        return 0.0, np.zeros_like(b_real), np.zeros_like(b_imag)
    loss = 0.0
    grads = []
    eye = np.eye(b_real.shape[0])
    for comp in (b_real, b_imag):
        resid = comp @ comp.T - eye
        loss += (resid * resid).sum()
        grads.append(4.0 * alpha * (resid @ comp))
    return alpha * loss, grads[0], grads[1]


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    lr: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(params, lr) -> AdamState:
    state = AdamState(lr=lr)
    for key, value in params.items():
        state.m[key] = np.zeros_like(value)
        state.v[key] = np.zeros_like(value)
    return state


def adam_step(params, grads, state: AdamState) -> None:
    """One bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    correct1 = 1.0 - _BETA1**t
    correct2 = 1.0 - _BETA2**t
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ShapeMismatch(
                f"gradient shape {g.shape} does not match parameter "
                f"{key} of shape {p.shape}"
            )
        m = state.m[key]
        v = state.v[key]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * (g * g)
        p -= state.lr * (m / correct1) / (np.sqrt(v / correct2) + _ADAM_EPS)
