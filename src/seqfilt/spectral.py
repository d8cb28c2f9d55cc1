"""Filtering machinery on directed cyclic graphs.

A length-M sequence is modelled as a ring of M nodes where node i receives
from node i-1 (mod M).  The ring's adjacency matrix is circulant, so its
eigenvectors are the DFT exponentials and a polynomial filter in the shift
operator can be applied either by repeated shifting in the time domain or
by a closed-form multiply in the frequency domain.  Node-variant filters
give every node its own tap vector; causal filtering of a length-N signal
embeds it in a ring of N+K nodes padded with zeros so nothing can flow
backwards in time, and the trained filter collapses to a banded real
operator for fast inference.

This module is the paper's reference computation and the test oracle:
`causal_filter`, `precompute_operator` and the `apply_*` filters define
what the model's real operator must reproduce.  The model calls it only
on its live prediction path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ShapeError",
    "SpectralBasis",
    "make_basis",
    "apply_fixed_filter_time",
    "apply_fixed_filter_freq",
    "apply_nv_filter_time",
    "apply_nv_filter_freq",
    "nv_mixing_matrix",
    "causal_filter",
    "precompute_operator",
]


class ShapeError(ValueError):
    """Raised when an operand's dimensions do not match the graph size."""


def _check_signal(x, size, name="signal"):
    x = np.asarray(x)
    if x.shape[0] != size:
        raise ShapeError(f"{name} has leading dimension {x.shape[0]}, expected {size}")
    return x


@dataclass(frozen=True)
class SpectralBasis:
    """Fourier basis of a cyclic shift operator, plus eigenvalue powers.

    `forward` maps time-domain signals to the frequency domain; its
    conjugate transpose `eigenvectors` maps back.  Columns of
    `eigenvectors` are genuine eigenvectors of the ring's delay-by-one shift.
    `vandermonde[i, k]` holds `eigenvalues[i] ** k` for k = 0..order.
    Instances are immutable and safe to share across workers.
    """

    size: int
    order: int
    forward: np.ndarray
    eigenvectors: np.ndarray
    eigenvalues: np.ndarray
    vandermonde: np.ndarray

    def gft(self, x):
        return self.forward @ _check_signal(x, self.size)

    def igft(self, x_freq):
        return self.eigenvectors @ _check_signal(x_freq, self.size)


@lru_cache(maxsize=16)
def _cached_basis(size: int, order: int) -> SpectralBasis:
    n = np.arange(size)
    fwd = np.exp(-2j * np.pi * np.outer(n, n) / size) / np.sqrt(size)
    lam = np.exp(-2j * np.pi * n / size)
    # exact e^0 = 1 in column zero; powers evaluated in closed form
    van = np.exp(-2j * np.pi * np.outer(n, np.arange(order + 1)) / size)
    return SpectralBasis(size, order, fwd, fwd.conj().T, lam, van)


def make_basis(size: int, order: int = 0) -> SpectralBasis:
    if size < 1:
        raise ValueError(f"basis needs at least one node, got {size}")
    if order < 0:
        raise ValueError(f"filter order must be non-negative, got {order}")
    return _cached_basis(size, order)


def apply_fixed_filter_time(size, taps, x):
    """Apply sum_k taps[k] * S^k * x by repeated shifting (brute force).
    A test oracle only."""
    x = _check_signal(x, size)
    taps = np.asarray(taps)
    y = taps[0] * x
    shifted = x
    for k in range(1, taps.shape[0]):
        shifted = np.roll(shifted, 1, axis=0)
        y = y + taps[k] * shifted
    return y


def apply_fixed_filter_freq(basis: SpectralBasis, taps, x):
    """Same filter as a pointwise multiply in the frequency domain.  A test
    oracle only."""
    taps = np.asarray(taps)
    if taps.shape[0] != basis.order + 1:
        raise ShapeError(
            f"got {taps.shape[0]} taps for a basis of order {basis.order}"
        )
    response = basis.vandermonde @ taps
    return basis.igft(response * basis.gft(x))


def _tap_cols(h, x):
    # broadcast per-node taps over signal columns
    return h if x.ndim == 1 else h[:, None]


def apply_nv_filter_time(size, tap_matrix, x):
    """Node-variant filter sum_k diag(H[:, k]) * S^k * x, by shifting.  A
    test oracle only."""
    x = _check_signal(x, size)
    h = _check_signal(np.asarray(tap_matrix), size, "tap matrix")
    y = _tap_cols(h[:, 0], x) * x
    shifted = x
    for k in range(1, h.shape[1]):
        shifted = np.roll(shifted, 1, axis=0)
        y = y + _tap_cols(h[:, k], x) * shifted
    return y


def nv_mixing_matrix(basis: SpectralBasis, tap_matrix) -> np.ndarray:
    """Dense matrix U ∘ (H Λᵀ) mapping a frequency signal to the filtered
    time-domain signal."""
    h = np.asarray(tap_matrix)
    if h.shape != (basis.size, basis.order + 1):
        raise ShapeError(
            f"tap matrix shape {h.shape} does not match basis "
            f"({basis.size} nodes, order {basis.order})"
        )
    return basis.eigenvectors * (h @ basis.vandermonde.T)


def apply_nv_filter_freq(basis: SpectralBasis, tap_matrix, x_freq):
    """Frequency response of the node-variant filter on a transformed
    signal.  A test oracle only."""
    mix = nv_mixing_matrix(basis, tap_matrix)
    return basis.forward @ (mix @ _check_signal(x_freq, basis.size))


def causal_filter(n, order, tap_matrix, x):
    """Causally filter the first axis of `x` with per-position taps.

    The signal is zero-padded to a ring of n+order nodes, the tap matrix
    is extended with inert zero rows, the node-variant filter is applied
    through the frequency domain, and the real part of the first n rows
    is returned.  Output row i depends only on input rows 0..i.
    """
    x = _check_signal(np.asarray(x, dtype=float), n)
    h = _check_signal(np.asarray(tap_matrix), n, "tap matrix")
    if h.shape[1] != order + 1:
        raise ShapeError(f"tap matrix has {h.shape[1]} columns, expected {order + 1}")
    size = n + order
    basis = make_basis(size, order)
    h_pad = np.zeros((size, order + 1), dtype=complex)
    h_pad[:n] = h
    x_pad = np.zeros((size,) + x.shape[1:])
    x_pad[:n] = x
    mix = nv_mixing_matrix(basis, h_pad)
    return (mix @ basis.gft(x_pad)).real[:n]


def precompute_operator(n, order, tap_matrix) -> np.ndarray:
    """Collapse frozen causal taps into the equivalent banded real matrix.

    G[i, j] = Re(H[i, i-j]) for 0 <= i-j <= order, zero elsewhere, so that
    causal_filter(n, order, H, X) == G @ X for every X.  A test oracle
    only: the model builds its operator with `model.freeze_filters`.
    """
    h = _check_signal(np.asarray(tap_matrix), n, "tap matrix")
    g = np.zeros((n, n))
    for k in range(min(order, n - 1) + 1):
        rows = np.arange(k, n)
        g[rows, rows - k] = h[rows, k].real
    return g
