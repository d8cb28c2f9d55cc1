"""Kernel-level tests: forward values against closed forms, backward
rules against central finite differences."""

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
