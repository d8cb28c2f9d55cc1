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

Threads.  Each row kernel treats every row apart, so `map_rows` runs it
on a pool of min(2, usable CPUs) threads: the caller and one worker
claim chunks of whole multiples of 64 rows from a shared counter.  It
serves layer norm, GELU, dropout's mask and apply and the three
backwards, the FFN products with their biases (`affine`), and in
`model` the filter's G x, its per-example products dy xᵀ and Gᵀ dy.
Column reductions stay one call over all rows: dgamma and dbeta, the
weight and bias gradients, the filter's sum of products over the batch
and the head's d_logits.T @ x_last; `run_pair` only runs two such whole
calls at once.  Dropout's uniforms are drawn in one call in the caller's
thread, so the random stream does not move.  A pool of one thread runs
the same chunks in turn, so every output is bit-identical whatever the
pool size, whatever BLAS's own thread count.  Arrays below 2^17
elements, which covers prediction at small batches, run whole in the
caller's thread.  BLAS keeps its own thread setting.

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
import itertools
import os
import platform
import queue
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

__all__ = [
    "NumericError",
    "ShapeMismatch",
    "InvalidTarget",
    "pool_size",
    "map_rows",
    "run_pair",
    "layer_norm",
    "layer_norm_backward",
    "gelu",
    "gelu_backward",
    "affine",
    "affine_backward",
    "dropout",
    "dropout_backward",
    "softmax_xent",
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

# the row pool: the caller plus at most one worker thread
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
# arrays below this many elements run whole: on a 2-vCPU VM a handoff
# to the worker costs ~50 us, and two chunks of 2^16 won from here
_SPLIT_MIN = 1 << 17
_ALIGN = 64  # rows; every chunk starts at a multiple of this
_CHUNK = 1 << 16  # elements a chunk aims at, rounded down to aligned rows
_worker = None  # (pid, task queue of the worker thread), made on first use
_worker_lock = threading.Lock()  # guards the check-then-start of _worker
_ROW_MEANS = {}  # width -> _row_mean(width)


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
    """Threads the row kernels run on: the caller plus the worker, if any."""
    return _WORKERS


def _worker_tasks():
    """The worker thread's task queue; the thread starts on first use, and
    again in a forked child, which inherits no threads."""
    global _worker
    pid = os.getpid()
    with _worker_lock:
        if _worker is None or _worker[0] != pid:
            tasks = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(tasks,), name="seqfilt-rows", daemon=True).start()
            _worker = (pid, tasks)
        return _worker[1]


def _reset_worker_lock():
    """A forked child inherits the lock in whatever state a parent thread
    left it, and none of the threads that could release it."""
    global _worker_lock
    _worker_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_worker_lock)


def _serve(tasks):
    while True:
        tasks.get()()


def _share(job, count):
    """Run job(0), ..., job(count - 1) on the caller and the worker.

    Each thread claims the next index from one counter, so a thread that
    the host stalls holds up no fixed share of the work.  A worker that
    has not started by the time the caller ran out of indices does
    nothing; otherwise the caller waits for it.  The first exception
    either thread raised is raised in the caller, after that wait."""
    claim = itertools.count()
    errors = []
    started = threading.Lock()
    done = threading.Lock()
    done.acquire()

    def drain():
        try:
            while not errors:
                i = next(claim)
                if i >= count:
                    break
                job(i)
        except BaseException as exc:
            errors.append(exc)

    def remote():
        if started.acquire(blocking=False):
            drain()
            done.release()

    _worker_tasks().put(remote)
    drain()
    if not started.acquire(blocking=False):
        done.acquire()
    # a task the worker has yet to dequeue must not keep the job's arrays
    # alive: drop them from the closure it shares
    job = None
    if errors:
        raise errors[0]


def map_rows(kernel, args, rows):
    """kernel(*args), for a kernel that treats each index of the leading
    axis of its first `rows` arguments apart and writes its results into
    some of them.

    When args[0] holds fewer than _SPLIT_MIN elements the kernel runs
    once on the whole arrays.  Otherwise the pool's threads share chunks
    of whole multiples of _ALIGN rows, each passing the kernel its chunk
    of the first `rows` arguments and the others as they are; a pool of
    one thread runs the same chunks in turn.  It does not make one call
    over all rows: a threaded BLAS splits such a call's rows among its
    own threads at cuts of its choosing, and the rows at a cut can round
    differently than inside a chunk, so the results would depend on the
    pool size.

    The row kernels below take their outputs first.  Below _SPLIT_MIN
    they are called directly, without this call, with None for each
    output, which they then allocate: on the 2-vCPU VM they were measured
    on, a Python call costs ~1 us, a few percent of a batch-1 prediction.
    Above it the caller allocates the outputs, so that the worker thread
    allocates nothing large."""
    first = args[0]
    if first.size < _SPLIT_MIN or len(first) <= _ALIGN:
        kernel(*args)
        return
    shared = args[rows:]
    step = max(_ALIGN, _CHUNK * len(first) // first.size // _ALIGN * _ALIGN)

    def job(i):
        part = slice(i * step, (i + 1) * step)
        kernel(*[a[part] for a in args[:rows]], *shared)

    count = -(-len(first) // step)
    if _WORKERS < 2:
        for i in range(count):
            job(i)
    else:
        _share(job, count)


def run_pair(first, second, size):
    """(first(), second()): two independent whole calls, run at once on
    the pool's two threads when `size`, the elements they read, is at
    least _SPLIT_MIN."""
    if size < _SPLIT_MIN or _WORKERS < 2:
        return first(), second()
    out = [None, None]

    def job(i):
        out[i] = (first, second)[i]()

    _share(job, 2)
    return out[0], out[1]


def _row_mean(width):
    """The read-only vector of `width` entries 1/width whose product with
    a row is the row's mean; made once per width, since at batch 1
    filling it anew cost as much as the row pool's dispatch."""
    vec = _ROW_MEANS.get(width)
    if vec is None:
        vec = np.full(width, 1.0 / width)
        vec.flags.writeable = False
        _ROW_MEANS[width] = vec
    return vec


def layer_norm(x, gamma, beta):
    """Standardize each row of `x`, then scale by gamma and shift by beta.

    Returns (y, (x_hat, inv_std, gamma)); `x_hat` is the centred buffer
    scaled in place, and `y` first holds the squared deviations."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ShapeMismatch(f"layer_norm needs a 2-d input with columns, got {x.shape}")
    row_mean = _row_mean(x.shape[1])
    if x.size < _SPLIT_MIN:
        y, x_hat, inv_std = _layer_norm_rows(None, None, None, x, row_mean, gamma, beta)
    else:
        y, x_hat, inv_std = np.empty(x.shape), np.empty(x.shape), np.empty((len(x), 1))
        map_rows(_layer_norm_rows, (y, x_hat, inv_std, x, row_mean, gamma, beta), 4)
    return y, (x_hat, inv_std, gamma)


def _layer_norm_rows(y, x_hat, inv_std, x, row_mean, gamma, beta):
    x_hat = np.subtract(x, (x @ row_mean)[:, None], x_hat)
    y = np.square(x_hat, y)
    inv_std = np.divide(1.0, np.sqrt(y @ row_mean + _LN_EPS)[:, None], inv_std)
    x_hat *= inv_std
    np.multiply(x_hat, gamma, y)
    y += beta
    return y, x_hat, inv_std


def layer_norm_backward(cache, dy):
    """dx = inv_std * (dy*gamma - mean(dy*gamma) - x_hat * mean(dy*gamma*x_hat)),
    with the row means and column sums as BLAS products."""
    x_hat, inv_std, gamma = cache
    ones = np.ones(len(dy))
    gamma_mean = gamma / x_hat.shape[1]
    if dy.size < _SPLIT_MIN:
        scratch, dx = _layer_norm_backward_rows(None, None, dy, x_hat, inv_std, gamma, gamma_mean)
        return dx, ones @ scratch, ones @ dy
    scratch, dx = np.empty(dy.shape), np.empty(dy.shape)
    map_rows(_layer_norm_backward_rows, (scratch, dx, dy, x_hat, inv_std, gamma, gamma_mean), 5)
    dgamma, dbeta = run_pair(lambda: ones @ scratch, lambda: ones @ dy, dy.size)
    return dx, dgamma, dbeta


def _layer_norm_backward_rows(scratch, dx, dy, x_hat, inv_std, gamma, gamma_mean):
    """scratch = dy * x_hat, whose column sums are dgamma, and dx."""
    scratch = np.multiply(dy, x_hat, scratch)
    shift = np.multiply(x_hat, (scratch @ gamma_mean)[:, None])
    shift += (dy @ gamma_mean)[:, None]
    dx = np.multiply(dy, gamma, dx)
    dx -= shift
    dx *= inv_std
    return scratch, dx


def gelu(x):
    """Exact GELU x * Phi(x) with Phi the standard normal CDF."""
    x = np.asarray(x, dtype=float)
    if x.size < _SPLIT_MIN:
        y, cdf = _gelu_rows(None, None, x)
    else:
        y, cdf = np.empty(x.shape), np.empty(x.shape)
        map_rows(_gelu_rows, (y, cdf, x), 3)
    return y, (x, cdf)


def _gelu_rows(y, cdf, x):
    cdf = np.multiply(x, _INV_SQRT2, cdf)
    erf(cdf, cdf)
    cdf += 1.0
    cdf *= 0.5
    return np.multiply(x, cdf, y), cdf


def gelu_backward(cache, dy):
    """dy * (Phi(x) + x * phi(x)), built in one buffer."""
    x, cdf = cache
    if x.size < _SPLIT_MIN:
        return _gelu_backward_rows(None, x, cdf, dy)
    grad = np.empty(x.shape)
    map_rows(_gelu_backward_rows, (grad, x, cdf, dy), 4)
    return grad


def _gelu_backward_rows(grad, x, cdf, dy):
    grad = np.multiply(x, -0.5, grad)
    grad *= x
    np.exp(grad, grad)
    grad *= _INV_SQRT_2PI
    grad *= x
    grad += cdf
    grad *= dy
    return grad


def affine(x, w, b):
    """x @ w + b over the rows of a 2-d `x`."""
    if x.size < _SPLIT_MIN:
        return _affine_rows(None, x, w, b)
    out = np.empty((len(x), w.shape[1]))
    map_rows(_affine_rows, (out, x, w, b), 2)
    return out


def _affine_rows(out, x, w, b):
    out = np.matmul(x, w, out)
    out += b
    return out


def affine_backward(x, w, dy):
    """Gradients (dx, dw, db) of y = x @ w + b.  On the pool the row
    product dx runs beside the column reduction dw."""
    if dy.size < _SPLIT_MIN:
        dw = x.T @ dy
        return dy @ w.T, dw, dy.sum(axis=0)
    dx = np.empty((len(dy), w.shape[0]))
    dw, _ = run_pair(lambda: x.T @ dy, lambda: np.matmul(dy, w.T, dx), dy.size)
    return dx, dw, dy.sum(axis=0)


def dropout(x, rate, rng=None, training=True):
    """Inverted dropout; identity when not training.  Returns (y, mask).

    The mask is (keep, scale): a boolean array of the kept entries and
    the scale 1/(1-rate) they are multiplied by, or None when nothing is
    dropped.  Each call draws x.size float64 uniforms from `rng`, in one
    call in the caller's thread, and builds the output in their buffer."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    y = rng.random(x.shape)
    scale = 1.0 / (1.0 - rate)
    if x.size < _SPLIT_MIN:
        keep = _dropout_rows(None, x, y, rate, scale)
    else:
        keep = np.empty(x.shape, dtype=bool)
        map_rows(_dropout_rows, (keep, x, y, rate, scale), 3)
    return y, (keep, scale)


def _dropout_rows(keep, x, y, rate, scale):
    keep = np.greater_equal(y, rate, keep)
    np.multiply(x, scale, y)
    y *= keep
    return keep


def dropout_backward(mask, dy):
    if mask is None:
        return dy
    keep, scale = mask
    if dy.size < _SPLIT_MIN:
        return _dropout_backward_rows(None, dy, keep, scale)
    dx = np.empty(dy.shape)
    map_rows(_dropout_backward_rows, (dx, dy, keep, scale), 3)
    return dx


def _dropout_backward_rows(dx, dy, keep, scale):
    dx = np.multiply(dy, scale, dx)
    dx *= keep
    return dx


def softmax_xent(logits, target, exclude=()):
    """Cross-entropy of a stable softmax restricted to non-excluded indices.

    Returns (loss, grad) where grad is p - onehot(target) on active
    indices and exactly zero on excluded ones.  A test oracle only: the
    program trains with `softmax_xent_batch`.
    """
    logits = np.asarray(logits, dtype=float)
    v = logits.shape[0]
    if not 0 <= target < v:
        raise InvalidTarget(f"target {target} out of range for {v} logits")
    active = np.ones(v, dtype=bool)
    for i in exclude:
        active[i] = False
    if not active[target]:
        raise InvalidTarget(f"target {target} is excluded")
    a = logits[active]
    m = a.max()
    exp = np.exp(a - m)
    z = exp.sum()
    loss = m + np.log(z) - logits[target]
    grad = np.zeros(v)
    grad[active] = exp / z
    grad[target] -= 1.0
    return loss, grad


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
