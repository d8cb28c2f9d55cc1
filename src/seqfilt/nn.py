"""Differentiable numerical kernels and the Adam optimizer.

Each kernel returns its output together with a cache, and has a matching
`*_backward` function implementing the exact analytic gradient.  The set
is deliberately small: just the pieces the encoder needs, all in 64-bit
floats so finite-difference checks are meaningful.

The row kernels (layer norm, GELU, dropout) run over B·N·D elements per
call, so they are written to make few passes and few fresh temporaries:
row means are BLAS products with a 1/D vector, results are built in
place in the buffers they own, and a dropout mask is the pair
(keep, scale) of a boolean array and the one scale 1/(1-p) instead of a
float array.  Dropout draws one float64 uniform per element.

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
import platform
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

__all__ = [
    "NumericError",
    "ShapeMismatch",
    "InvalidTarget",
    "layer_norm",
    "layer_norm_backward",
    "gelu",
    "gelu_backward",
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


def layer_norm(x, gamma, beta):
    """Standardize each row of `x`, then scale by gamma and shift by beta.

    Returns (y, (x_hat, inv_std, gamma)); `x_hat` is the centred buffer
    scaled in place, and `y` reuses the buffer of the squared deviations."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ShapeMismatch(f"layer_norm needs a 2-d input with columns, got {x.shape}")
    row_mean = np.full(x.shape[1], 1.0 / x.shape[1])
    x_hat = x - (x @ row_mean)[:, None]
    y = np.square(x_hat)
    inv_std = 1.0 / np.sqrt(y @ row_mean + _LN_EPS)[:, None]
    x_hat *= inv_std
    np.multiply(x_hat, gamma, out=y)
    y += beta
    return y, (x_hat, inv_std, gamma)


def layer_norm_backward(cache, dy):
    """dx = inv_std * (dy*gamma - mean(dy*gamma) - x_hat * mean(dy*gamma*x_hat)),
    with the row means and column sums as BLAS products."""
    x_hat, inv_std, gamma = cache
    ones = np.ones(len(dy))
    gamma_mean = gamma / x_hat.shape[1]
    scratch = dy * x_hat
    dgamma = ones @ scratch
    dbeta = ones @ dy
    # scratch is reused for x_hat * mean(dy*gamma*x_hat) + mean(dy*gamma)
    np.multiply(x_hat, (scratch @ gamma_mean)[:, None], out=scratch)
    scratch += (dy @ gamma_mean)[:, None]
    dx = dy * gamma
    dx -= scratch
    dx *= inv_std
    return dx, dgamma, dbeta


def gelu(x):
    """Exact GELU x * Phi(x) with Phi the standard normal CDF."""
    x = np.asarray(x, dtype=float)
    cdf = np.multiply(x, _INV_SQRT2)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, (x, cdf)


def gelu_backward(cache, dy):
    """dy * (Phi(x) + x * phi(x)), built in one buffer."""
    x, cdf = cache
    grad = np.multiply(x, -0.5)
    grad *= x
    np.exp(grad, out=grad)
    grad *= _INV_SQRT_2PI
    grad *= x
    grad += cdf
    grad *= dy
    return grad


def dropout(x, rate, rng=None, training=True):
    """Inverted dropout; identity when not training.  Returns (y, mask).

    The mask is (keep, scale): a boolean array of the kept entries and
    the scale 1/(1-rate) they are multiplied by, or None when nothing is
    dropped.  Each call draws x.size float64 uniforms from `rng`."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    y = rng.random(x.shape)
    keep = y >= rate
    scale = 1.0 / (1.0 - rate)
    np.multiply(x, scale, out=y)
    y *= keep
    return y, (keep, scale)


def dropout_backward(mask, dy):
    if mask is None:
        return dy
    keep, scale = mask
    dx = dy * scale
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
