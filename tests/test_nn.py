"""Kernel-level tests: forward values against closed forms, backward
rules against central finite differences, and the pool's batch chunks,
errors and threads."""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from conftest import chunk_sizes, finite_diff, rel_err
from seqfilt import nn, train
from seqfilt.model import ModelConfig, example_flops, freeze_filters, init_params, predict_scores_batch
from seqfilt.train import loss_and_grads


def softmax_xent(logits, target, exclude=()):
    """Cross-entropy of a stable softmax restricted to non-excluded indices.

    Returns (loss, grad) where grad is p - onehot(target) on active
    indices and exactly zero on excluded ones: the one-row oracle for
    `nn.softmax_xent_batch`.
    """
    logits = np.asarray(logits, dtype=float)
    v = logits.shape[0]
    if not 0 <= target < v:
        raise nn.InvalidTarget(f"target {target} out of range for {v} logits")
    active = np.ones(v, dtype=bool)
    for i in exclude:
        active[i] = False
    if not active[target]:
        raise nn.InvalidTarget(f"target {target} is excluded")
    a = logits[active]
    m = a.max()
    exp = np.exp(a - m)
    z = exp.sum()
    loss = m + np.log(z) - logits[target]
    grad = np.zeros(v)
    grad[active] = exp / z
    grad[target] -= 1.0
    return loss, grad


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

    def test_draw_without_generator(self):
        with pytest.raises(ValueError, match="needs a random generator"):
            nn.dropout(np.ones((2, 2)), 0.2)
        assert nn.dropout(np.ones((2, 2)), 0.2, training=False)[1] is None


# each backward kernel that takes a `dy`, with a forward making its cache
BACKWARDS = {
    "layer_norm": (lambda x: nn.layer_norm(x, np.linspace(0.5, 2.0, 5), np.ones(5))[1], nn.layer_norm_backward),
    "gelu": (lambda x: nn.gelu(x)[1], nn.gelu_backward),
    "dropout": (lambda x: nn.dropout(x, 0.3, np.random.default_rng(4))[1], nn.dropout_backward),
}


class TestBackwardContract:
    @pytest.mark.parametrize("name", sorted(BACKWARDS))
    def test_dy_is_left_unchanged(self, name, rng):
        # a caller may read dy again, as the gradient checks above do
        forward, backward = BACKWARDS[name]
        dy = rng.normal(size=(6, 5))
        before = dy.copy()
        dx = backward(forward(rng.normal(size=(6, 5))), dy)
        dx = dx[0] if isinstance(dx, tuple) else dx
        assert np.array_equal(dy, before)
        assert not np.shares_memory(dx, dy)

    def test_layer_norm_dx_into_dy_is_the_same_bits(self, rng):
        x, dy = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        forward = BACKWARDS["layer_norm"][0]
        want = nn.layer_norm_backward(forward(x), dy)
        got = nn.layer_norm_backward(forward(x), dy, out=dy)
        assert got[0] is dy
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss, _ = softmax_xent(np.zeros(20), target=3)
        assert abs(loss - np.log(20.0)) <= 1e-12

    def test_saturated_target(self):
        logits = np.zeros(10)
        logits[4] = 1000.0
        loss, _ = softmax_xent(logits, target=4)
        assert loss <= 1e-6

    def test_gradient(self, rng):
        logits = rng.normal(size=12)
        target = 5
        exclude = {0, 7}

        def loss():
            return softmax_xent(logits, target, exclude)[0]

        _, grad = softmax_xent(logits, target, exclude)
        assert rel_err(grad, finite_diff(loss, logits)) <= 1e-5

    def test_gradient_sums_to_zero_and_respects_exclusions(self, rng):
        logits = rng.normal(size=15)
        _, grad = softmax_xent(logits, 2, exclude={0, 9})
        assert grad[0] == 0.0 and grad[9] == 0.0
        assert abs(grad.sum()) <= 1e-12

    def test_invalid_targets(self):
        with pytest.raises(nn.InvalidTarget):
            softmax_xent(np.zeros(5), 2, exclude={2})
        with pytest.raises(nn.InvalidTarget):
            softmax_xent(np.zeros(5), 7)

    def test_batch_matches_single(self, rng):
        logits = rng.normal(size=(6, 9))
        targets = rng.integers(1, 9, size=6)
        loss, grad = nn.softmax_xent_batch(logits, targets)
        singles = [softmax_xent(logits[i], targets[i], {0}) for i in range(6)]
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


# the benchmark's two model shapes
LONG_WINDOW = ModelConfig(num_items=685, max_len=50, dim=64, layers=2, num_bases=8)
LONG_HISTORY = ModelConfig(num_items=294, max_len=10, dim=16, layers=1, num_bases=4)
# model shapes (N, D, L, V) from ones whose batches never split to ones
# that split a batch of two
CHUNK_GRID = [
    ModelConfig(num_items=v, max_len=n, dim=d, layers=layers, num_bases=4)
    for n in (5, 50, 200) for d in (16, 64, 256) for layers in (1, 2, 3) for v in (100, 20_000)
]


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

    def test_rebound_entry_is_rejected(self):
        # adam_init packs the groups into one vector; an entry rebound
        # after that would silently leave the vector Adam updates
        params = {"a": np.zeros(3), "b": np.ones((2, 2))}
        state = nn.adam_init(params, lr=0.1)
        grads = {"a": np.ones(3), "b": np.ones((2, 2))}
        params["b"][...] = 2.0  # written through the view: still packed
        nn.adam_step(params, grads, state)
        assert np.all(params["b"] < 2.0)
        params["b"] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="parameter b "):
            nn.adam_step(params, grads, state)

    @pytest.mark.parametrize("cfg", [LONG_WINDOW, LONG_HISTORY], ids=["long-window", "long-history"])
    def test_flat_update_equals_per_group(self, cfg):
        rng = np.random.default_rng(5)
        params = init_params(cfg, rng)
        ref = {key: value.copy() for key, value in params.items()}
        ref_m = {key: np.zeros_like(value) for key, value in ref.items()}
        ref_v = {key: np.zeros_like(value) for key, value in ref.items()}
        state = nn.adam_init(params, lr=3e-3)
        for t in range(1, 21):
            grads = {key: rng.normal(size=value.shape) for key, value in params.items()}
            nn.adam_step(params, grads, state)
            # Adam one group at a time, as it ran before the flat vector
            for key, p in ref.items():
                m, v, g = ref_m[key], ref_v[key], grads[key]
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * (g * g)
                p -= 3e-3 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
        for key in ref:
            assert np.array_equal(params[key], ref[key])
        assert np.array_equal(state.m, nn.flatten(ref_m))
        assert np.array_equal(state.v, nn.flatten(ref_v))


CHUNKS = 8  # jobs per run_chunks call in the race tests
N, D, L = 16, 64, 2  # with 300 examples, ten chunks of 30


def _model():
    cfg = ModelConfig(num_items=20, max_len=N, dim=D, layers=L, num_bases=4)
    return init_params(cfg, np.random.default_rng(4)), cfg


def _rows_thread_alive():
    return any(t.name.startswith("seqfilt-rows") for t in threading.enumerate())


def _child_scores(params, cfg, ids, results):
    scores = predict_scores_batch(params, cfg, ids)
    results.put((os.getpid(), _rows_thread_alive(), scores.tobytes()))


class TestRowPool:
    @pytest.fixture
    def two_threads(self, monkeypatch):
        monkeypatch.setattr(nn, "_WORKERS", 2)

    def test_batch_chunks_cover_each_row_once(self):
        for rows in (119, 256, 300, 2048):
            assert len(chunk_sizes(rows, example_flops(LONG_WINDOW))) == -(-rows // 32)

    def test_batch_chunks_follow_the_work_of_an_example(self):
        def sizes(rows, cfg):
            return [c.stop - c.start for c in nn.batch_chunks(rows, example_flops(cfg))]

        # 2·N²·D + 4·N·D² for the first block, 2·N·D + 4·D² for the last
        # one's row, and 2·D·(V+1) for the head
        assert example_flops(LONG_WINDOW) == 320_000 + 819_200 + 6_400 + 16_384 + 87_808
        assert example_flops(LONG_HISTORY) == 320 + 1_024 + 9_440
        # the benchmark's batches
        assert sizes(16, LONG_WINDOW) == [8, 8]
        assert sizes(256, LONG_WINDOW) == [32] * 8
        assert sizes(119, LONG_WINDOW) == [30, 30, 30, 29]  # an epoch's last batch
        assert sizes(256, LONG_HISTORY) == [256]  # a small model's step

        kinds = set()
        for cfg in CHUNK_GRID:
            work = example_flops(cfg)
            for rows in range(1, 301):
                got = chunk_sizes(rows, work)
                kinds.add("whole" if len(got) == 1 else "capped" if max(got) <= 32 else "floored")
        assert kinds == {"whole", "capped", "floored"}

    def _race(self, work_in_caller):
        """A job whose chunks in the worker thread wait 0.2 s and then
        finish; the caller's chunks wait for the worker to have started
        one, then run `work_in_caller`.  Returns the job and the chunks
        the worker finished, as filled in by the time run_chunks's
        iterator is consumed."""
        caller = threading.get_ident()
        started = threading.Event()
        finished = []

        def job(i):
            if threading.get_ident() == caller:
                assert started.wait(10), "the worker thread never ran a chunk"
                work_in_caller()
                return
            started.set()
            time.sleep(0.2)
            finished.append(i)

        return job, finished

    def test_caller_waits_for_the_worker_before_returning(self, two_threads):
        job, finished = self._race(lambda: None)
        list(nn.run_chunks(job, CHUNKS))
        assert finished

    def test_caller_waits_for_the_worker_before_raising(self, two_threads):
        def fail():
            raise KeyError("caller chunk")

        job, finished = self._race(fail)
        with pytest.raises(KeyError, match="caller chunk"):
            list(nn.run_chunks(job, CHUNKS))
        assert finished

    def test_worker_error_reaches_the_caller(self, two_threads):
        caller = threading.get_ident()

        def job(i):
            if threading.get_ident() != caller:
                raise ValueError("worker chunk")
            time.sleep(0.05)  # leave the worker time to claim a chunk

        for _ in range(20):  # a run where the worker claimed no chunk raises nothing
            try:
                list(nn.run_chunks(job, CHUNKS))
            except ValueError as exc:
                assert str(exc) == "worker chunk"
                return
        pytest.fail("the worker thread never ran a chunk")

    def test_consumer_that_raises_leaves_no_worker_task(self, two_threads):
        # the consumer raises on the first result: the generator is closed
        # as the error leaves the loop, stops the worker claiming chunks
        # and waits for the one it runs, so no chunk runs afterwards
        running, ran = [], []

        def job(i):
            running.append(i)
            time.sleep(0.02)
            ran.append(i)
            running.remove(i)
            return i

        with pytest.raises(KeyError):
            for _ in nn.run_chunks(job, CHUNKS):
                raise KeyError("consumer")
        assert not running
        assert len(ran) < CHUNKS
        time.sleep(0.1)
        assert not running and len(ran) < CHUNKS

    def test_concurrent_callers_share_the_worker(self, two_threads):
        # more callers than cores, switching threads every microsecond: a
        # chunk claimed twice or lost, or a result written into another
        # caller's array, changes some caller's scores
        params, cfg = _model()
        inputs = [np.random.default_rng(seed).integers(0, 21, size=(300, N)) for seed in range(4)]
        want = [predict_scores_batch(params, cfg, ids) for ids in inputs]
        got = [None] * len(inputs)

        def call(i):
            for _ in range(5):
                got[i] = predict_scores_batch(params, cfg, inputs[i])

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

    def test_cancelled_worker_task_keeps_no_chunk_arrays(self, two_threads):
        # while another caller's chunk holds the worker, this caller's task
        # waits in the pool's queue and is cancelled there: the arrays its
        # job binds must still go once the caller drops them
        busy, release = threading.Event(), threading.Event()

        def hold(i):
            if threading.current_thread().name.startswith("seqfilt-rows"):
                busy.set()
                release.wait(10)
            else:
                busy.wait(10)

        holder = threading.Thread(target=lambda: list(nn.run_chunks(hold, 2)))
        holder.start()
        try:
            assert busy.wait(10), "the worker thread never ran a chunk"
            arr = np.ones(1000)
            sums = []
            list(nn.run_chunks(lambda i, a=arr: sums.append(a.sum()), 4))
            assert sums == [1000.0] * 4
            ref = weakref.ref(arr)
            del arr
            assert ref() is None
        finally:
            release.set()
            holder.join(timeout=10)
        assert not holder.is_alive()

    def test_failed_batch_keeps_no_chunk_arrays(self, two_threads):
        # while another caller's chunk holds the worker, this caller's job
        # raises with an array in its frame; the cancelled task waiting in
        # the pool's queue must not keep that error, and the array, alive
        busy, release = threading.Event(), threading.Event()

        def hold(i):
            if threading.current_thread().name.startswith("seqfilt-rows"):
                busy.set()
                release.wait(10)
            else:
                busy.wait(10)

        def fail(i, a):
            raise ValueError(a.sum())

        holder = threading.Thread(target=lambda: list(nn.run_chunks(hold, 2)))
        holder.start()
        try:
            assert busy.wait(10), "the worker thread never ran a chunk"
            arr = np.ones(1000)
            ref = weakref.ref(arr)
            try:
                list(nn.run_chunks(lambda i, a=arr: fail(i, a), 4))
            except ValueError as exc:
                assert str(exc) == "1000.0"
            else:
                pytest.fail("the job's error was not raised")
            del arr
            assert ref() is None
        finally:
            release.set()
            holder.join(timeout=10)
        assert not holder.is_alive()

    def test_split_prediction_matches_on_one_and_two_threads(self, monkeypatch, rng):
        params = init_params(LONG_WINDOW, rng)
        ops = freeze_filters(params, LONG_WINDOW)
        ids = rng.integers(0, LONG_WINDOW.num_items + 1, size=(16, LONG_WINDOW.max_len))
        assert len(nn.batch_chunks(16, example_flops(LONG_WINDOW))) == 2
        got = []
        for workers in (1, 2):
            monkeypatch.setattr(nn, "_WORKERS", workers)
            got.append(predict_scores_batch(params, LONG_WINDOW, ids, frozen_ops=ops).tobytes())
        assert got[0] == got[1]

    @pytest.mark.parametrize(
        ("n", "d", "layers", "v", "rows"),
        [(50, 64, 2, 100, 16), (5, 16, 1, 20_000, 40), (200, 16, 3, 100, 130)],
        ids=["2-chunks", "wide-head", "3-chunks"],
    )
    def test_grid_shapes_match_on_one_and_two_threads(self, monkeypatch, pool_shares, n, d, layers, v, rows):
        cfg = ModelConfig(num_items=v, max_len=n, dim=d, layers=layers, num_bases=4)
        rng = np.random.default_rng(7)
        params = init_params(cfg, rng)
        ids = rng.integers(0, v + 1, size=(rows, n))
        targets = rng.integers(1, v + 1, size=rows)
        assert len(nn.batch_chunks(rows, example_flops(cfg))) > 1
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(nn, "_WORKERS", workers)
            pool_shares.clear()
            scores = predict_scores_batch(params, cfg, ids)
            loss, _, _, grads = loss_and_grads(params, cfg, ids, targets, 1e-3, np.random.default_rng(3))
            runs.append([scores.tobytes(), np.float64(loss).tobytes(), *(grads[k].tobytes() for k in sorted(grads))])
            assert bool(pool_shares) == (workers == 2)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        ("n", "d", "layers", "v", "rows"),
        [
            (50, 64, 2, 100, 96),  # cut into 32-row chunks
            (5, 64, 1, 20_000, 96),  # a wide head, cut into 32-row chunks
            (200, 16, 3, 100, 64),  # a long window, cut into 32-row chunks
            (50, 64, 2, 100, 5),  # too few rows to cut
            (50, 16, 1, 100, 120),  # too little work an example to cut
        ],
        ids=["3x32", "wide-head", "long-window", "few-rows", "light"],
    )
    def test_grid_chunks_match_whole_and_frozen_matches_live(self, monkeypatch, n, d, layers, v, rows):
        # loss and gradients of a batch cut by batch_chunks against the
        # batch run as one chunk, at dropout 0, and frozen prediction
        # against the live spectral path
        cfg = ModelConfig(num_items=v, max_len=n, dim=d, layers=layers, num_bases=4, dropout=0.0)
        rng = np.random.default_rng(9)
        params = init_params(cfg, rng)
        ids = rng.integers(0, v + 1, size=(rows, n))
        targets = rng.integers(1, v + 1, size=rows)
        sizes = chunk_sizes(rows, example_flops(cfg))
        assert sizes == ([32] * (rows // 32) if rows % 32 == 0 else [rows])
        chunked = loss_and_grads(params, cfg, ids, targets, 1e-3)
        monkeypatch.setattr(train, "batch_chunks", lambda rows, work: [slice(0, rows)])
        whole = loss_and_grads(params, cfg, ids, targets, 1e-3)
        errors = {name: rel_err(chunked[i], whole[i], floor=1e-300) for i, name in enumerate(("loss", "ce", "ortho"))}
        errors.update({key: rel_err(chunked[3][key], whole[3][key], floor=1e-300) for key in params})
        live = predict_scores_batch(params, cfg, ids)
        frozen = predict_scores_batch(params, cfg, ids, frozen_ops=freeze_filters(params, cfg))
        errors["frozen"] = rel_err(frozen, live)
        worst = max(errors, key=errors.get)
        assert errors[worst] <= 1e-12, f"worst {worst}: {errors[worst]:.2e}"

    def test_pool_starts_on_first_split(self):
        script = (
            "import json, threading, numpy as np\n"
            "from seqfilt import nn\n"
            "from seqfilt.model import ModelConfig, init_params, predict_scores_batch\n"
            "nn._WORKERS = 2\n"
            f"cfg = ModelConfig(num_items=20, max_len={N}, dim={D}, layers={L}, num_bases=4)\n"
            "params = init_params(cfg, np.random.default_rng(4))\n"
            "alive = lambda: any(t.name.startswith('seqfilt-rows') for t in threading.enumerate())\n"
            "seen = [alive()]\n"
            f"predict_scores_batch(params, cfg, np.ones((8, {N}), dtype=int))\n"
            "seen.append(alive())\n"
            f"predict_scores_batch(params, cfg, np.ones((300, {N}), dtype=int))\n"
            "seen.append(alive())\n"
            "print(json.dumps(seen))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nn.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [False, False, True]

    def test_chunks_run_after_the_main_thread_ended(self):
        # once the main thread has ended the pool takes no task, but a
        # thread still running shares its batches with no one and finishes
        script = (
            "import threading, time\n"
            "from seqfilt import nn\n"
            "nn._WORKERS = 2\n"
            "def late():\n"
            "    threading.main_thread().join()\n"
            "    time.sleep(0.2)\n"
            "    done = []\n"
            "    list(nn.run_chunks(done.append, 4))\n"
            "    print(sorted(done))\n"
            "threading.Thread(target=late).start()\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nn.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert json.loads(done.stdout) == [0, 1, 2, 3]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
    )
    def test_forked_child_starts_its_own_worker(self, two_threads, rng):
        params, cfg = _model()
        ids = rng.integers(0, 21, size=(300, N))
        want = predict_scores_batch(params, cfg, ids)  # the worker of this process runs
        assert _rows_thread_alive()
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=_child_scores, args=(params, cfg, ids, results))
        child.start()
        try:
            pid, alive, got = results.get(timeout=60)
            child.join(timeout=60)
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert pid == child.pid
        assert alive
        assert got == want.tobytes()
