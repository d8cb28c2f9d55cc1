"""Shared numeric helpers and fixtures for the test suite."""

import os
import subprocess
import sys

import numpy as np
import pytest

from seqfilt import nn


def finite_diff(f, x, h=1e-5):
    """Central finite differences of scalar f() w.r.t. array x (in place)."""
    grad = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        f_plus = f()
        x[idx] = orig - h
        f_minus = f()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
    return grad


def rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(floor, np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    return np.abs(a - b).max(initial=0.0) / denom


def causal_oracle(taps, x, order):
    """Direct-summation causal convolution: y_i = sum_k Re(h_k^i) x_{i-k}."""
    taps = np.asarray(taps)
    x = np.asarray(x, dtype=float)
    y = np.zeros_like(x)
    n = x.shape[0]
    for i in range(n):
        for k in range(min(i, order) + 1):
            y[i] += taps[i, k].real * x[i - k]
    return y


def chunk_sizes(rows, work):
    """The row counts of `nn.batch_chunks(rows, work)`, checked against
    the rule: the chunks cover the rows in order, in sizes a row apart at
    most; a cut batch's chunks each clear `_SPLIT_MIN`, and a batch stays
    whole only when its halves would not; no chunk holds more than
    `_CHUNK_ROWS` rows where that many chunks clear the floor."""
    chunks = nn.batch_chunks(rows, work)
    sizes = [c.stop - c.start for c in chunks]
    case = (rows, work, sizes)
    assert chunks[0].start == 0 and chunks[-1].stop == rows, case
    assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:])), case
    assert max(sizes) - min(sizes) <= 1, case
    if len(sizes) > 1:
        assert min(sizes) * work >= nn._SPLIT_MIN, case
    else:
        assert rows // 2 * work < nn._SPLIT_MIN, case
    if rows // -(-rows // nn._CHUNK_ROWS) * work >= nn._SPLIT_MIN:
        assert max(sizes) <= nn._CHUNK_ROWS, case
    return sizes


def run_fresh(script, timeout, env=os.environ):
    """`script` run by `sys.executable -c` under `env` in a fresh
    interpreter that imports this checkout's `seqfilt`: one whose threads
    and malloc state this process did not shape.  Returns the finished
    process, once it has exited 0."""
    env = dict(env, PYTHONPATH=os.path.dirname(os.path.dirname(nn.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=timeout
    )
    assert done.returncode == 0, done.stderr
    return done


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def pool_shares(monkeypatch):
    """The chunk count of every batch that `nn.run_chunks` shares with
    the row pool's worker, one entry per task submitted to the pool."""
    shares = []
    submit = nn._pool.submit

    def counting(fn, *args):
        shares.append(sys._getframe(1).f_locals["count"])  # run_chunks's frame
        return submit(fn, *args)

    monkeypatch.setattr(nn._pool, "submit", counting)
    return shares
