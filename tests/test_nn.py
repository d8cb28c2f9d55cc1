"""Kernel-level tests: forward values against closed forms, backward
rules against central finite differences, and the row pool's results,
errors and threads."""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from conftest import finite_diff, rel_err
from seqfilt import nn


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        x = np.full((1, 6), 3.7)
        y, _ = nn.layer_norm(x, np.ones(6), np.zeros(6))
        assert np.abs(y).max() <= 1e-6

    def test_already_standardized_row(self):
        x = np.array([[1.0, -1.0]])
        y, _ = nn.layer_norm(x, np.ones(2), np.zeros(2))
        assert np.abs(y - x).max() <= 1e-9

    def test_row_statistics(self, rng):
        x = rng.normal(size=(5, 16)) * 4 + 2
        y, _ = nn.layer_norm(x, np.ones(16), np.zeros(16))
        assert np.abs(y.mean(axis=1)).max() <= 1e-12
        assert np.abs(y.var(axis=1) - 1.0).max() <= 1e-9

    def test_gradients(self, rng):
        x = rng.normal(size=(3, 5))
        gamma = rng.normal(size=5)
        beta = rng.normal(size=5)
        w = rng.normal(size=(3, 5))  # fixed projection making the loss scalar

        def loss():
            y, _ = nn.layer_norm(x, gamma, beta)
            return float((y * w).sum())

        y, cache = nn.layer_norm(x, gamma, beta)
        dx, dgamma, dbeta = nn.layer_norm_backward(cache, w)
        assert rel_err(dx, finite_diff(loss, x)) <= 1e-5
        assert rel_err(dgamma, finite_diff(loss, gamma)) <= 1e-5
        assert rel_err(dbeta, finite_diff(loss, beta)) <= 1e-5

    def test_zero_width_rejected(self):
        with pytest.raises(nn.ShapeMismatch):
            nn.layer_norm(np.zeros((2, 0)), np.ones(0), np.zeros(0))


class TestGelu:
    def test_zero(self):
        y, _ = nn.gelu(np.array([[0.0]]))
        assert y[0, 0] == 0.0

    def test_asymptote(self):
        y, _ = nn.gelu(np.array([[10.0]]))
        assert abs(y[0, 0] - 10.0) <= 1e-6

    def test_gradient(self, rng):
        x = rng.normal(size=(4, 3)) * 2
        w = rng.normal(size=(4, 3))

        def loss():
            y, _ = nn.gelu(x)
            return float((y * w).sum())

        _, cache = nn.gelu(x)
        dx = nn.gelu_backward(cache, w)
        assert rel_err(dx, finite_diff(loss, x)) <= 1e-5


class TestAffine:
    def test_value(self, rng):
        x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)
        assert np.array_equal(nn.affine(x, w, b), x @ w + b)

    def test_gradients(self, rng):
        x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)
        proj = rng.normal(size=(5, 4))
        loss = lambda: float((nn.affine(x, w, b) * proj).sum())
        dx, dw, db = nn.affine_backward(x, w, proj)
        assert rel_err(dx, finite_diff(loss, x)) <= 1e-6
        assert rel_err(dw, finite_diff(loss, w)) <= 1e-6
        assert rel_err(db, finite_diff(loss, b)) <= 1e-6


class TestDropout:
    def test_rate_zero_is_identity(self, rng):
        x = rng.normal(size=(4, 4))
        y, mask = nn.dropout(x, 0.0, rng, training=True)
        assert mask is None and np.array_equal(y, x)

    def test_eval_mode_is_identity(self, rng):
        x = rng.normal(size=(4, 4))
        y, mask = nn.dropout(x, 0.9, rng, training=False)
        assert mask is None and np.array_equal(y, x)

    def test_expectation_preserved(self):
        rng = np.random.default_rng(0)
        x = np.ones((1000, 100))
        y, _ = nn.dropout(x, 0.5, rng, training=True)
        assert 0.98 <= y.mean() <= 1.02

    def test_seed_reproducible(self):
        x = np.ones((50, 50))
        a, _ = nn.dropout(x, 0.3, np.random.default_rng(9), training=True)
        b, _ = nn.dropout(x, 0.3, np.random.default_rng(9), training=True)
        assert np.array_equal(a, b)

    def test_backward_applies_mask(self, rng):
        # the backward of a draw is that same draw applied to dy
        dy = rng.normal(size=(6, 6))
        _, mask = nn.dropout(rng.normal(size=(6, 6)), 0.4, np.random.default_rng(3), training=True)
        again, _ = nn.dropout(dy, 0.4, np.random.default_rng(3), training=True)
        assert np.array_equal(nn.dropout_backward(mask, dy), again)

    def test_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            nn.dropout(np.ones((2, 2)), 1.0, rng)


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss, _ = nn.softmax_xent(np.zeros(20), target=3)
        assert abs(loss - np.log(20.0)) <= 1e-12

    def test_saturated_target(self):
        logits = np.zeros(10)
        logits[4] = 1000.0
        loss, _ = nn.softmax_xent(logits, target=4)
        assert loss <= 1e-6

    def test_gradient(self, rng):
        logits = rng.normal(size=12)
        target = 5
        exclude = {0, 7}

        def loss():
            return nn.softmax_xent(logits, target, exclude)[0]

        _, grad = nn.softmax_xent(logits, target, exclude)
        assert rel_err(grad, finite_diff(loss, logits)) <= 1e-5

    def test_gradient_sums_to_zero_and_respects_exclusions(self, rng):
        logits = rng.normal(size=15)
        _, grad = nn.softmax_xent(logits, 2, exclude={0, 9})
        assert grad[0] == 0.0 and grad[9] == 0.0
        assert abs(grad.sum()) <= 1e-12

    def test_invalid_targets(self):
        with pytest.raises(nn.InvalidTarget):
            nn.softmax_xent(np.zeros(5), 2, exclude={2})
        with pytest.raises(nn.InvalidTarget):
            nn.softmax_xent(np.zeros(5), 7)

    def test_batch_matches_single(self, rng):
        logits = rng.normal(size=(6, 9))
        targets = rng.integers(1, 9, size=6)
        loss, grad = nn.softmax_xent_batch(logits, targets)
        singles = [nn.softmax_xent(logits[i], targets[i], {0}) for i in range(6)]
        assert abs(loss - np.mean([s[0] for s in singles])) <= 1e-12
        stacked = np.stack([s[1] for s in singles]) / 6
        assert np.abs(grad - stacked).max() <= 1e-12


class TestOrthoPenalty:
    def test_identity_basis_is_free(self):
        eye = np.eye(4)
        loss, gr, gi = nn.ortho_penalty(eye, eye, alpha=0.5)
        assert loss == 0.0
        assert np.abs(gr).max() <= 1e-15 and np.abs(gi).max() <= 1e-15

    def test_orthonormal_rows_are_free(self, rng):
        # rows of a random orthogonal matrix, truncated
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        b = q[:3]
        loss, _, _ = nn.ortho_penalty(b, b.copy(), alpha=1.0)
        assert loss <= 1e-12

    def test_alpha_zero(self, rng):
        b = rng.normal(size=(3, 5))
        loss, gr, gi = nn.ortho_penalty(b, b, alpha=0.0)
        assert loss == 0.0 and np.abs(gr).max() == 0.0 and np.abs(gi).max() == 0.0

    def test_gradients(self, rng):
        br = rng.normal(size=(3, 5))
        bi = rng.normal(size=(3, 5))
        alpha = 1e-3

        def loss():
            return nn.ortho_penalty(br, bi, alpha)[0]

        _, gr, gi = nn.ortho_penalty(br, bi, alpha)
        assert rel_err(gr, finite_diff(loss, br)) <= 1e-5
        assert rel_err(gi, finite_diff(loss, bi)) <= 1e-5


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = nn.adam_init(params, lr=0.1)
        nn.adam_step(params, {"w": np.zeros(2)}, state)
        assert np.array_equal(params["w"], [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        params = {"w": np.zeros(4)}
        state = nn.adam_init(params, lr=0.01)
        nn.adam_step(params, {"w": np.full(4, 0.5)}, state)
        assert np.abs(np.abs(params["w"]) - 0.01).max() <= 1e-6

    def test_quadratic_convergence(self):
        params = {"w": np.array([1.0])}
        state = nn.adam_init(params, lr=0.05)
        for _ in range(500):
            nn.adam_step(params, {"w": 2.0 * params["w"]}, state)
        assert abs(params["w"][0]) <= 1e-3

    def test_shape_mismatch(self):
        params = {"w": np.zeros(3)}
        state = nn.adam_init(params, lr=0.1)
        with pytest.raises(nn.ShapeMismatch):
            nn.adam_step(params, {"w": np.zeros(4)}, state)

    def test_step_counter_increases(self):
        params = {"w": np.zeros(2)}
        state = nn.adam_init(params, lr=0.1)
        for expected in (1, 2, 3):
            nn.adam_step(params, {"w": np.ones(2)}, state)
            assert state.step == expected


ROWS = 12_837  # above the split size at width 64, and a multiple of neither 64 nor a chunk


def _kernel_outputs(x, dy, gamma, beta, w, b):
    """Every array the row kernels return, forward and backward."""
    y, (x_hat, inv_std, _) = nn.layer_norm(x, gamma, beta)
    ln_back = nn.layer_norm_backward((x_hat, inv_std, gamma), dy)
    act, (_, cdf) = nn.gelu(x)
    dropped, (keep, _) = nn.dropout(x, 0.2, np.random.default_rng(9))
    return [
        y, x_hat, inv_std, *ln_back,
        act, cdf, nn.gelu_backward((x, cdf), dy),
        dropped, keep, nn.dropout_backward((keep, 1.25), dy),
        nn.affine(x, w, b), *nn.affine_backward(x, w, dy),
    ]


def _child_layer_norm(x, gamma, beta, results):
    y, _ = nn.layer_norm(x, gamma, beta)
    results.put((os.getpid(), nn._worker[0], y.tobytes()))


class TestRowPool:
    @pytest.fixture
    def two_threads(self, monkeypatch):
        monkeypatch.setattr(nn, "_WORKERS", 2)

    def test_kernels_match_on_one_and_two_threads(self, monkeypatch):
        rng = np.random.default_rng(21)
        args = (
            rng.normal(size=(ROWS, 64)), rng.normal(size=(ROWS, 64)),
            rng.normal(size=64), rng.normal(size=64),
            rng.normal(size=(64, 64)), rng.normal(size=64),
        )
        assert args[0].size >= nn._SPLIT_MIN
        shares = []
        share = nn._share
        monkeypatch.setattr(nn, "_share", lambda job, count: shares.append(count) or share(job, count))
        results = {}
        for workers in (1, 2):
            monkeypatch.setattr(nn, "_WORKERS", workers)
            shares.clear()
            results[workers] = _kernel_outputs(*args)
            assert bool(shares) == (workers == 2)
        for one, two in zip(results[1], results[2]):
            assert one.dtype == two.dtype and np.array_equal(one, two)

    def test_chunks_start_on_aligned_rows_and_cover_each_row_once(self, two_threads):
        x = np.zeros((ROWS, 64))
        base = x.__array_interface__["data"][0]
        seen = []

        def kernel(chunk):
            seen.append(((chunk.__array_interface__["data"][0] - base) // x.strides[0], len(chunk)))

        nn.map_rows(kernel, (x,), 1)
        assert len(seen) > 2
        assert all(start % nn._ALIGN == 0 for start, _ in seen)
        covered = sorted(seen)
        assert covered[0][0] == 0
        assert all(a + n == b for (a, n), (b, _) in zip(covered, covered[1:]))
        assert covered[-1][0] + covered[-1][1] == ROWS

    def test_small_arrays_run_whole_in_the_caller(self, two_threads):
        calls = []
        x = np.zeros((nn._SPLIT_MIN // 64 - 1, 64))
        nn.map_rows(lambda a: calls.append((threading.get_ident(), len(a))), (x,), 1)
        assert calls == [(threading.get_ident(), len(x))]

    def _race(self, work_in_caller):
        """map_rows over a kernel whose chunks in the worker thread wait
        0.2 s and then finish; the caller's chunks wait for the worker to
        have started one, then run `work_in_caller`.  Returns the chunks
        the worker finished, as filled in by the time map_rows is done."""
        caller = threading.get_ident()
        started = threading.Event()
        finished = []

        def kernel(chunk):
            if threading.get_ident() == caller:
                assert started.wait(10), "the worker thread never ran a chunk"
                work_in_caller()
                return
            started.set()
            time.sleep(0.2)
            finished.append(len(chunk))

        return kernel, finished

    def test_caller_waits_for_the_worker_before_returning(self, two_threads):
        kernel, finished = self._race(lambda: None)
        nn.map_rows(kernel, (np.zeros((ROWS, 64)),), 1)
        assert finished

    def test_caller_waits_for_the_worker_before_raising(self, two_threads):
        def fail():
            raise KeyError("caller chunk")

        kernel, finished = self._race(fail)
        with pytest.raises(KeyError, match="caller chunk"):
            nn.map_rows(kernel, (np.zeros((ROWS, 64)),), 1)
        assert finished

    def test_worker_error_reaches_the_caller(self, two_threads):
        caller = threading.get_ident()

        def kernel(chunk):
            if threading.get_ident() != caller:
                raise ValueError("worker chunk")
            time.sleep(0.05)  # leave the worker time to claim a chunk

        for _ in range(20):  # a run where the worker claimed no chunk raises nothing
            try:
                nn.map_rows(kernel, (np.zeros((ROWS, 64)),), 1)
            except ValueError as exc:
                assert str(exc) == "worker chunk"
                return
        pytest.fail("the worker thread never ran a chunk")

    def test_concurrent_callers_share_the_worker(self, two_threads):
        # more callers than cores, switching threads every microsecond: a
        # chunk claimed twice or lost, or a result written into another
        # caller's array, changes some caller's output
        inputs = [np.random.default_rng(seed).normal(size=(ROWS, 64)) for seed in range(4)]
        want = [nn.gelu(x)[0] for x in inputs]
        got = [None] * len(inputs)

        def call(i):
            for _ in range(5):
                got[i] = nn.gelu(inputs[i])[0]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(len(inputs))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for a, b in zip(want, got):
            assert np.array_equal(a, b)

    def test_pool_starts_on_first_split(self):
        script = (
            "import json, threading, numpy as np\n"
            "from seqfilt import nn\n"
            "nn._WORKERS = 2\n"
            "alive = lambda: any(t.name == 'seqfilt-rows' for t in threading.enumerate())\n"
            "seen = [alive()]\n"
            "nn.layer_norm(np.ones((64, 64)), np.ones(64), np.zeros(64))\n"
            "seen.append(alive())\n"
            "nn.layer_norm(np.ones((4096, 64)), np.ones(64), np.zeros(64))\n"
            "seen.append(alive())\n"
            "print(json.dumps(seen))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nn.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [False, False, True]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
    )
    def test_forked_child_starts_its_own_worker(self, two_threads, rng):
        x, gamma, beta = rng.normal(size=(4096, 64)), rng.normal(size=64), rng.normal(size=64)
        want, _ = nn.layer_norm(x, gamma, beta)  # the worker of this process runs
        assert nn._worker[0] == os.getpid()
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=_child_layer_norm, args=(x, gamma, beta, results))
        child.start()
        try:
            pid, pool_pid, got = results.get(timeout=60)
            child.join(timeout=60)
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert pid == pool_pid == child.pid
        assert got == want.tobytes()
