"""Differentiable numerical kernels and the Adam optimizer.

Each kernel returns its output together with a cache, and has a matching
`*_backward` function implementing the exact analytic gradient.  The set
is deliberately small: just the pieces the encoder needs, all in 64-bit
floats so finite-difference checks are meaningful.
"""

from __future__ import annotations

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


class NumericError(RuntimeError):
    """Raised when a computation produces non-finite values."""


class ShapeMismatch(ValueError):
    pass


class InvalidTarget(ValueError):
    pass


def layer_norm(x, gamma, beta, eps=1e-12):
    """Standardize each row of `x`, then scale by gamma and shift by beta."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ShapeMismatch(f"layer_norm needs a 2-d input with columns, got {x.shape}")
    mu = x.mean(axis=1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    return x_hat * gamma + beta, (x_hat, inv_std, gamma)


def layer_norm_backward(cache, dy):
    x_hat, inv_std, gamma = cache
    dgamma = (dy * x_hat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dx_hat = dy * gamma
    dx = inv_std * (
        dx_hat
        - dx_hat.mean(axis=1, keepdims=True)
        - x_hat * (dx_hat * x_hat).mean(axis=1, keepdims=True)
    )
    return dx, dgamma, dbeta


def gelu(x):
    """Exact GELU x * Phi(x) with Phi the standard normal CDF."""
    x = np.asarray(x, dtype=float)
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return x * cdf, (x, cdf)


def gelu_backward(cache, dy):
    x, cdf = cache
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return dy * (cdf + x * pdf)


def dropout(x, rate, rng=None, training=True):
    """Inverted dropout; identity when not training.  Returns (y, mask)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, None
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask


def dropout_backward(mask, dy):
    return dy if mask is None else dy * mask


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
    active = logits[:, 1:]
    if np.any(targets < 1) or np.any(targets >= logits.shape[1]):
        raise InvalidTarget("targets must be valid non-padding item ids")
    m = active.max(axis=1, keepdims=True)
    exp = np.exp(active - m)
    z = exp.sum(axis=1, keepdims=True)
    rows = np.arange(b)
    target_logit = logits[rows, targets]
    losses = (m[:, 0] + np.log(z[:, 0])) - target_logit
    grad = np.zeros_like(logits)
    grad[:, 1:] = exp / z
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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(params, lr, beta1=0.9, beta2=0.999, eps=1e-8) -> AdamState:
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    for key, value in params.items():
        state.m[key] = np.zeros_like(value)
        state.v[key] = np.zeros_like(value)
    return state


def adam_step(params, grads, state: AdamState) -> None:
    """One bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    correct1 = 1.0 - state.beta1**t
    correct2 = 1.0 - state.beta2**t
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ShapeMismatch(
                f"gradient shape {g.shape} does not match parameter "
                f"{key} of shape {p.shape}"
            )
        m = state.m[key]
        v = state.v[key]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / correct1) / (np.sqrt(v / correct2) + state.eps)
