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
batch into even chunks that each hold at least _SPLIT_MIN forward flops,
of at most _CHUNK_ROWS examples where that floor allows, and
`run_chunks` runs a job per chunk on a pool of min(2, usable CPUs)
threads, the caller and the one worker of a standard-library
`ThreadPoolExecutor`, which claim chunks from a shared counter, and
yields the results in chunk order.  A chunk computes the same bits on
either thread, so nothing depends on the pool size, and each thread
holds one chunk's activations at a time, so the row cap sets a step's
peak.  When the pool has two threads, importing this module holds
numpy's bundled OpenBLAS to one thread a call, so BLAS starts no threads
of its own on the pool's cores (`blas_threads`).  README, Threads, has
the callers, the handoff and the measurements.

Importing this module, which every `seqfilt` module does, sets one
process-wide malloc policy (`_keep_freed_memory`).

Adam updates the one vector that every parameter group is a view of
(`flat_views`) in one pass, with the same bits as group by group.  The
layer-norm epsilon and Adam's betas and epsilon are module constants.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import itertools
import math
import os
import platform
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

__all__ = [
    "NumericError",
    "ShapeMismatch",
    "InvalidTarget",
    "pool_size",
    "blas_threads",
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
    "flat_views",
    "flatten",
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
# the thread-count calls of numpy's bundled OpenBLAS, "set" or "get", by
# build: scipy-openblas wheels, older wheels with 64-bit integers, others
_OPENBLAS_CALLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads")

# the pool: the caller plus at most one worker thread
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
# the forward flops a chunk must hold to be worth a thread (README, Threads)
_SPLIT_MIN = 7_000_000
# a batch is cut into chunks of at most this many rows, when each still
# clears _SPLIT_MIN; each thread holds one chunk's activations, so the
# cap sets a step's peak (README, Memory)
_CHUNK_ROWS = 32
_PENDING = object()  # the result slot of a chunk not yet finished


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


def _openblas_thread_calls():
    """The (set, get) thread-count functions of numpy's bundled OpenBLAS,
    or None where numpy bundles none that exports them."""
    numpy_dir = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(numpy_dir, os.pardir, "numpy.libs", "*openblas*"))
    paths += glob.glob(os.path.join(numpy_dir, ".dylibs", "*openblas*"))
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)  # the copy numpy loaded, not a second one
        except OSError:
            continue
        for name in _OPENBLAS_CALLS:
            setter = getattr(lib, name.format("set"), None)
            getter = getattr(lib, name.format("get"), None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                getter.argtypes, getter.restype = (), ctypes.c_int
                return setter, getter
    return None


# The pool owns the two cores: when it has two threads, BLAS runs each
# call on one, whatever OPENBLAS_NUM_THREADS says, so a chunked step does
# not run four threads on two cores and computes the same bits in every
# environment.  Without a bundled OpenBLAS nothing is set.
_OPENBLAS = _openblas_thread_calls()
if _OPENBLAS is not None and _WORKERS == 2:
    _OPENBLAS[0](1)


def pool_size() -> int:
    """Threads a chunked batch runs on: the caller plus the worker, if any."""
    return _WORKERS


def blas_threads():
    """Threads numpy's bundled OpenBLAS runs a call on, or None where there
    is no such library to ask."""
    return None if _OPENBLAS is None else _OPENBLAS[1]()


def _new_pool():
    """Make the worker pool; its thread starts on the first `submit`.  Run
    again in a forked child, which inherits the parent's pool but none of
    its threads, and maybe its locks held."""
    global _pool
    _pool = ThreadPoolExecutor(1, thread_name_prefix="seqfilt-rows")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def batch_chunks(rows, work):
    """Slices of a batch of `rows` examples of `work` forward flops each
    (`model.example_flops`) that `run_chunks` shares out: `count` chunks
    whose sizes differ by at most a row, where count =
    min(max(2, ceil(rows / _CHUNK_ROWS)), rows // ceil(_SPLIT_MIN / work)),
    so every chunk clears the _SPLIT_MIN floor.  A batch with too little
    work for two chunks stays whole."""
    count = min(max(2, -(-rows // _CHUNK_ROWS)), rows // -(-_SPLIT_MIN // work))
    if count < 2:
        return [slice(0, rows)]
    bounds = [-(-rows * k // count) for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def run_chunks(job, count):
    """Yield job(0), ..., job(count - 1) in chunk order, the way
    `Executor.map` does.

    With two chunks or more and two threads, the caller and the
    executor's worker claim the next index from one counter, so a thread
    that the host stalls holds up no fixed share of the work, and the
    worker only writes its results into their slots; else the caller
    runs the chunks in turn.  The caller yields each result once every
    earlier one is in, between its own chunks and after it ran out of
    indices and cancelled the worker's task, which succeeds when the
    worker has not started it, or else waited for it.  The first
    exception either thread raised, an interrupt included, stops both
    claiming further indices and is raised in the caller after that
    wait; a consumer that stops early stops the worker the same way.
    Each chunk computes the same bits on either thread, so results do not
    depend on the pool size."""
    if count < 2 or _WORKERS < 2:
        # no handoff, and none of its bookkeeping, which would cost a
        # batch-1 prediction a few percent
        yield from map(job, range(count))
        return
    claim = itertools.count()
    results = [_PENDING] * count
    errors = []

    def drain():
        # run the chunks this thread claims, one step each, until they
        # run out or a thread failed
        try:
            for i in claim:
                if i >= count or errors:
                    return
                results[i] = job(i)
                yield
        except BaseException as exc:
            errors.append(exc)

    try:
        remote = _pool.submit(list, drain())  # the worker runs drain() to its end
    except RuntimeError:
        # the interpreter is shutting down, as for a thread still running
        # once the main thread has ended: the caller runs every index
        remote = None
    steps = drain()
    done = 0  # results 0..done-1 were yielded
    try:
        for _ in steps:
            while done < count and results[done] is not _PENDING:
                yield results[done]
                results[done] = None
                done += 1
    finally:
        steps.close()  # a consumer that stopped early stops the worker too
        if remote is not None and not remote.cancel():
            remote.result()
        # a cancelled task stays in the pool's queue until the worker
        # reaches it: leave it no job, result or error to keep alive
        job = None
        rest, failed = results[done:], errors[:1]
        del results[:], errors[:]
    if failed:
        raise failed.pop()
    while rest:  # popped, so each result goes once its consumer is done
        yield rest.pop(0)


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
    builds the output in their buffer; a call that draws needs one."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError(f"dropout at rate {rate} in training needs a random generator, got None")
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


def flat_views(shapes, flat=None) -> dict:
    """Views of the float64 vector `flat` (a fresh one if None) for groups
    of these shapes, back to back in sorted key order; keyed as `shapes`."""
    sizes = {key: math.prod(shapes[key]) for key in sorted(shapes)}
    flat = np.empty(sum(sizes.values())) if flat is None else flat
    starts = dict(zip(sizes, itertools.accumulate(sizes.values(), initial=0)))
    return {key: flat[starts[key]:starts[key] + sizes[key]].reshape(shape) for key, shape in shapes.items()}


def flatten(params) -> np.ndarray:
    """A fresh vector of `params`' groups, laid out as by `flat_views`."""
    return np.concatenate([params[key] for key in sorted(params)], axis=None, dtype=np.float64)


@dataclass
class AdamState:
    """The vector every parameter group is a view of, its two moment
    vectors and the shared step counter."""

    lr: float
    flat: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def adam_init(params, lr) -> AdamState:
    """Adam state for `params`, whose entries are rebound to views of a
    fresh vector (`flatten`); from then on, write an entry, never rebind it."""
    flat = flatten(params)
    params.update(flat_views({key: np.shape(value) for key, value in params.items()}, flat))
    return AdamState(lr=lr, flat=flat, m=np.zeros_like(flat), v=np.zeros_like(flat))


def adam_step(params, grads, state: AdamState) -> None:
    """One bias-corrected Adam update of the whole vector, in place."""
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ShapeMismatch(
                f"gradient shape {g.shape} does not match parameter "
                f"{key} of shape {p.shape}"
            )
        if p.base is not state.flat:
            raise ValueError(f"parameter {key} was rebound after adam_init: write params[{key!r}][...]")
    g = np.concatenate([grads[key] for key in sorted(params)], axis=None)
    state.step += 1
    t = state.step
    correct1 = 1.0 - _BETA1**t
    correct2 = 1.0 - _BETA2**t
    # m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g²;  p -= lr (m/c1) / (sqrt(v/c2) + eps),
    # operation by operation as written, in two buffers, g's and step's
    m, v = state.m, state.v
    m *= _BETA1
    step = np.multiply(g, 1.0 - _BETA1)
    m += step
    v *= _BETA2
    g *= g
    g *= 1.0 - _BETA2
    v += g
    np.sqrt(np.divide(v, correct2, out=g), out=g)
    g += _ADAM_EPS
    np.divide(m, correct1, out=step)
    step *= state.lr
    step /= g
    state.flat -= step
