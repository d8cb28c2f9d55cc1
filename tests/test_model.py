"""Encoder-level tests: filter construction, causality through the stack,
frozen-operator equivalence, parameter counting, checkpoint round trips."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import chunk_sizes, finite_diff, rel_err
from seqfilt import model as mdl
from seqfilt import nn
from seqfilt import spectral as sp
from seqfilt.train import loss_and_grads


def tiny_config(**overrides):
    base = dict(
        num_items=20,
        max_len=8,
        dim=8,
        layers=1,
        num_bases=4,
        filter_order=8,
        dropout=0.0,
    )
    base.update(overrides)
    return mdl.ModelConfig(**base)


class TestConfig:
    def test_order_defaults_to_max_len(self):
        assert tiny_config(filter_order=None).order == 8

    @pytest.mark.parametrize(
        "bad",
        [
            dict(num_bases=0),
            dict(num_bases=9),
            dict(dropout=1.0),
            dict(dropout=-0.1),
            dict(layers=0),
            dict(filter_mode="other"),
        ],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            tiny_config(**bad)

    def test_round_trips_through_dict(self):
        cfg = tiny_config(filter_mode="circular")
        assert mdl.ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestBuildTapMatrix:
    def test_identity_basis_reproduces_coefficients(self, rng):
        coef = rng.normal(size=(6, 4))
        eye = np.eye(4)
        taps, _ = mdl.build_tap_matrix(coef, eye, np.zeros((4, 4)))
        assert np.array_equal(taps.real, coef)
        assert np.abs(taps.imag).max() == 0.0

    def test_row_normalization_closed_form(self):
        coef = np.eye(1)
        taps, _ = mdl.build_tap_matrix(coef, np.array([[3.0, 4.0]]), np.zeros((1, 2)))
        assert np.allclose(taps, [[0.6, 0.8]], atol=1e-15)

    def test_normalized_rows_have_unit_modulus(self, rng):
        br = rng.normal(size=(5, 7))
        bi = rng.normal(size=(5, 7))
        _, (_, _, b_bar, _) = mdl.build_tap_matrix(rng.normal(size=(6, 5)), br, bi)
        norms = np.sqrt((np.abs(b_bar) ** 2).sum(axis=1))
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_zero_row_raises(self, rng):
        br = rng.normal(size=(3, 4))
        bi = rng.normal(size=(3, 4))
        br[1] = 0.0
        bi[1] = 0.0
        with pytest.raises(mdl.NormalizationError):
            mdl.build_tap_matrix(rng.normal(size=(5, 3)), br, bi)

    def test_gradients_through_normalization(self, rng):
        coef = rng.normal(size=(4, 3))
        br = rng.normal(size=(3, 5))
        bi = rng.normal(size=(3, 5))
        w_re = rng.normal(size=(4, 5))
        w_im = rng.normal(size=(4, 5))

        def loss():
            taps, _ = mdl.build_tap_matrix(coef, br, bi)
            return float((taps.real * w_re).sum() + (taps.imag * w_im).sum())

        _, cache = mdl.build_tap_matrix(coef, br, bi)
        d_coef, d_re, d_im = mdl.build_tap_matrix_backward(cache, w_re + 1j * w_im)
        assert rel_err(d_coef, finite_diff(loss, coef)) <= 1e-4
        assert rel_err(d_re, finite_diff(loss, br)) <= 1e-4
        assert rel_err(d_im, finite_diff(loss, bi)) <= 1e-4


def identity_tap_params(cfg, rng):
    """Parameters whose filter layers are exact identities and whose FFNs
    output zero, so each block reduces to two stacked layer norms."""
    params = mdl.init_params(cfg, rng)
    k = cfg.order
    for layer in range(cfg.layers):
        coef = np.zeros((cfg.max_len, cfg.num_bases))
        coef[:, 0] = 1.0
        basis_re = np.zeros((cfg.num_bases, k + 1))
        basis_re[:, 0] = 1.0  # rows already unit norm
        params[mdl.block_key(layer, "coef")] = coef
        params[mdl.block_key(layer, "basis_re")] = basis_re
        params[mdl.block_key(layer, "basis_im")] = np.zeros_like(basis_re)
        params[mdl.block_key(layer, "w1")] = np.zeros_like(params[mdl.block_key(layer, "w1")])
        params[mdl.block_key(layer, "w2")] = np.zeros_like(params[mdl.block_key(layer, "w2")])
    return params


class TestEmbedding:
    def test_eval_mode_deterministic(self, rng):
        cfg = tiny_config(dropout=0.5)
        params = mdl.init_params(cfg, rng)
        ids = rng.integers(0, 21, size=(3, 8))
        a, _ = mdl.model_forward(params, cfg, ids, training=False)
        b, _ = mdl.model_forward(params, cfg, ids, training=False)
        assert np.array_equal(a, b)

    def test_out_of_vocabulary(self, rng):
        cfg = tiny_config()
        params = mdl.init_params(cfg, rng)
        ids = np.full((1, 8), 21)
        with pytest.raises(mdl.OutOfVocabulary):
            mdl.model_forward(params, cfg, ids)

    @pytest.mark.parametrize("mode", mdl.FILTER_MODES)
    def test_band_is_built_once_per_config_and_read_only(self, mode):
        band = mdl._band(tiny_config(filter_mode=mode))
        assert mdl._band(tiny_config(filter_mode=mode)) is band
        for array in band:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, bool, object])
    def test_non_integer_ids_are_type_error(self, rng, dtype):
        # a float array was an IndexError at the first gather, a bool one
        # "too many indices"; an all-False bool array is ids in range
        cfg = tiny_config()
        params = mdl.init_params(cfg, rng)
        ids = np.zeros((2, 8), dtype=dtype)
        with pytest.raises(TypeError, match=f"^item ids must be an integer array, got dtype {ids.dtype}$"):
            mdl.predict_scores_batch(params, cfg, ids)
        with pytest.raises(TypeError, match="got dtype"):
            mdl.predict_scores_batch(params, cfg, ids, frozen_ops=mdl.freeze_filters(params, cfg))

    def test_lookup_locality(self, rng):
        cfg = tiny_config()
        params = mdl.init_params(cfg, rng)
        ids_a = rng.integers(1, 21, size=(1, 8))
        ids_b = ids_a.copy()
        ids_b[0, 0] = (ids_a[0, 0] % 20) + 1
        xa, ca = mdl._embed_forward(params, cfg, ids_a, None, False)
        xb, cb = mdl._embed_forward(params, cfg, ids_b, None, False)
        assert np.abs(xa[0, 1:] - xb[0, 1:]).max() == 0.0
        assert np.abs(xa[0, 0] - xb[0, 0]).max() > 0.0

    def test_all_pad_rows_standardize_pad_embedding(self, rng):
        cfg = tiny_config()
        params = mdl.init_params(cfg, rng)
        ids = np.zeros((1, 8), dtype=int)
        x, _ = mdl._embed_forward(params, cfg, ids, None, False)
        expected, _ = nn.layer_norm(
            np.tile(params["emb"][0], (8, 1)), params["emb_ln_g"], params["emb_ln_b"]
        )
        assert np.abs(x[0] - expected).max() <= 1e-12


    @pytest.mark.parametrize("case", ["repeated-ids", "all-pad-rows", "one-distinct-id"])
    def test_per_id_norm_matches_gather_oracle(self, case):
        """Norm per distinct id then gather, and the per-id backward, equal
        gathering every position, normalising it and scattering with
        np.add.at, at dropout 0.2 under the same seed."""
        cfg = tiny_config(dropout=0.2)
        data = np.random.default_rng(5)
        params = mdl.init_params(cfg, data)
        params["emb_ln_g"] += data.normal(0.0, 0.3, size=cfg.dim)
        params["emb_ln_b"] += data.normal(0.0, 0.3, size=cfg.dim)
        if case == "repeated-ids":
            ids = data.integers(1, 5, size=(6, 8))
            ids[3] = ids[1]
        elif case == "all-pad-rows":
            ids = data.integers(0, 21, size=(6, 8))
            ids[[0, 4]] = 0
        else:
            ids = np.full((6, 8), 7)
        dy = data.normal(size=(6, 8, cfg.dim))

        x, cache = mdl._embed_forward(params, cfg, ids, np.random.default_rng(9), True)
        grads = mdl._embed_backward(cfg, cache, dy, np.zeros_like(params["emb"]))

        eps, gamma, beta = 1e-12, params["emb_ln_g"], params["emb_ln_b"]
        looked = params["emb"][ids].reshape(-1, cfg.dim)
        centred = looked - looked.mean(axis=1, keepdims=True)
        inv_std = 1.0 / np.sqrt((centred**2).mean(axis=1, keepdims=True) + eps)
        x_hat = centred * inv_std
        keep = np.random.default_rng(9).random(x_hat.shape) >= 0.2
        want_x = (x_hat * gamma + beta) * keep / 0.8
        d_normed = dy.reshape(-1, cfg.dim) * keep / 0.8
        d_hat = d_normed * gamma
        d_looked = inv_std * (
            d_hat
            - d_hat.mean(axis=1, keepdims=True)
            - x_hat * (d_hat * x_hat).mean(axis=1, keepdims=True)
        )
        want_emb = np.zeros_like(params["emb"])
        np.add.at(want_emb, ids.ravel(), d_looked)

        assert rel_err(x.reshape(-1, cfg.dim), want_x) <= 1e-12
        assert rel_err(grads["emb"], want_emb) <= 1e-12
        assert rel_err(grads["emb_ln_g"], (d_normed * x_hat).sum(axis=0)) <= 1e-12
        assert rel_err(grads["emb_ln_b"], d_normed.sum(axis=0)) <= 1e-12


class TestEncoder:
    def test_identity_filter_zero_ffn_is_double_layer_norm(self, rng):
        cfg = tiny_config()
        params = identity_tap_params(cfg, rng)
        ids = rng.integers(1, 21, size=(2, 8))
        x0, _ = mdl._embed_forward(params, cfg, ids, None, False)
        out, _ = mdl.model_forward(params, cfg, ids, training=False)
        flat = (2.0 * x0).reshape(-1, cfg.dim)
        inner, _ = nn.layer_norm(flat, params["block0_ln1_g"], params["block0_ln1_b"])
        direct, _ = nn.layer_norm(inner, params["block0_ln2_g"], params["block0_ln2_b"])
        last = direct.reshape(2, 8, cfg.dim)[:, -1]
        assert np.abs(out - last).max() <= 1e-12

    def test_causal_mode_blocks_leakage(self, rng):
        # every block but the last outputs all positions: check each of
        # them through its filter output, recomputed from the block's
        # cached input, and through the next block's input.  Only a
        # training pass keeps the caches; at dropout 0 it is the eval pass.
        cfg = tiny_config(layers=3, num_bases=3)
        params = mdl.init_params(cfg, rng)
        ids = rng.integers(1, 21, size=(1, 8))
        ops = [mdl._tap_operator(cfg, mdl.layer_taps(params, blk)[0]) for blk in range(cfg.layers - 1)]
        frozen = mdl.filter_operators(params, cfg)[0]
        _, (_, base_blocks) = mdl.model_forward(params, cfg, ids, training=True, frozen_ops=frozen)
        for j in (2, 5, 7):
            bumped = ids.copy()
            bumped[0, j] = (ids[0, j] % 20) + 1
            _, (_, blocks) = mdl.model_forward(params, cfg, bumped, training=True, frozen_ops=frozen)
            for blk in range(cfg.layers - 1):
                filt_base, filt_new = (ops[blk] @ b[blk][1] for b in (base_blocks, blocks))
                assert np.abs(filt_new[0, :j] - filt_base[0, :j]).max() <= 1e-12
                out_base, out_new = base_blocks[blk + 1][1], blocks[blk + 1][1]
                assert np.abs(out_new[0, :j] - out_base[0, :j]).max() <= 1e-12

    def test_training_pass_needs_the_operators(self, rng):
        # the live filter has no backward, so a cache built on it could
        # not be differentiated
        cfg = tiny_config()
        params = mdl.init_params(cfg, rng)
        ids = rng.integers(1, 21, size=(2, 8))
        with pytest.raises(ValueError, match="filter_operators"):
            mdl.model_forward(params, cfg, ids, rng, training=True)

    def test_circular_mode_mixes_all_positions(self, rng):
        cfg = tiny_config(layers=2, filter_mode="circular")
        params = mdl.init_params(cfg, rng)
        ids = rng.integers(1, 21, size=(1, 8))
        bumped = ids.copy()
        bumped[0, 7] = (ids[0, 7] % 20) + 1
        block0 = lambda i: mdl._block_forward(
            params, cfg, 0, mdl._embed_forward(params, cfg, i, None, False)[0], None, False
        )[0]
        base, out = block0(ids), block0(bumped)
        assert base.shape == (1, 8, cfg.dim)
        assert np.abs(out[0, :7] - base[0, :7]).max() > 1e-9

    def test_matches_all_positions_oracle(self, rng):
        """Running every block on all positions, the head's row of the
        last one is what `model_forward` returns, frozen and live."""

        def all_positions(params, cfg, ids, ops):
            x, _ = mdl._embed_forward(params, cfg, ids, None, False)
            for layer, op in enumerate(ops):
                p = lambda name: params[mdl.block_key(layer, name)]
                f, _ = nn.layer_norm((x + op @ x).reshape(-1, cfg.dim), p("ln1_g"), p("ln1_b"))
                h = nn.gelu(f @ p("w1") + p("b1"))[0] @ p("w2") + p("b2")
                out, _ = nn.layer_norm(f + h, p("ln2_g"), p("ln2_b"))
                x = out.reshape(x.shape)
            return x[:, -1]

        for mode in ("causal", "circular"):
            for layers in (1, 2, 3):
                cfg = tiny_config(layers=layers, filter_mode=mode, filter_order=5)
                params = mdl.init_params(cfg, rng)
                ids = rng.integers(0, 21, size=(5, 8))
                ids[:2, :4] = 0
                ops = mdl.freeze_filters(params, cfg)
                want = all_positions(params, cfg, ids, ops)
                for frozen in (ops, None):
                    got, _ = mdl.model_forward(params, cfg, ids, frozen_ops=frozen)
                    assert got.shape == (5, cfg.dim)
                    assert np.abs(got - want).max() <= 1e-12, (mode, layers, frozen is None)

    def test_training_step_layer_norm_rows(self, rng, monkeypatch):
        """Embedding one row per distinct id (U of them), 2·B·N per
        earlier block, 2·B for the last."""
        counted = []

        def counting(x, *args, **kwargs):
            counted.append(len(x))
            return nn.layer_norm(x, *args, **kwargs)

        monkeypatch.setattr(mdl, "layer_norm", counting)
        b, n = 6, 8
        for layers in (1, 2, 3):
            cfg = tiny_config(layers=layers, dropout=0.2)
            params = mdl.init_params(cfg, rng)
            ids = rng.integers(0, 21, size=(b, n))
            counted.clear()
            loss_and_grads(params, cfg, ids, rng.integers(1, 21, size=b), 0.0, rng=rng)
            distinct = len(np.unique(ids))
            assert sum(counted) == distinct + b * (2 * (layers - 1) * n + 2)

    def test_training_step_draws_fixed_uniform_count(self):
        """One step at dropout 0.2 draws B·D·((2L-1)·N + 2) float64
        uniforms: B·N·D for the embedding, 2·B·N·D per earlier block and
        2·B·D for the last; the generator's next draw shows it."""
        b, n = 6, 8
        for layers in (1, 2, 3):
            cfg = tiny_config(layers=layers, dropout=0.2)
            data = np.random.default_rng(layers)
            params = mdl.init_params(cfg, data)
            ids = data.integers(0, 21, size=(b, n))
            targets = data.integers(1, 21, size=b)
            rng = np.random.default_rng(44)
            loss_and_grads(params, cfg, ids, targets, 0.0, rng=rng)
            fresh = np.random.default_rng(44)
            fresh.random(b * cfg.dim * ((2 * layers - 1) * n + 2))
            assert rng.random() == fresh.random()

    def test_filter_layer_matches_spectral_causal_filter(self, rng):
        cfg = tiny_config(max_len=6, filter_order=4, num_bases=3, dim=5)
        params = mdl.init_params(cfg, rng)
        taps, _ = mdl.build_tap_matrix(
            params["block0_coef"], params["block0_basis_re"], params["block0_basis_im"]
        )
        x = rng.normal(size=(3, 6, 5))
        out = mdl._tap_operator(cfg, taps) @ x
        for b in range(3):
            ref = sp.causal_filter(6, 4, taps, x[b])
            assert np.abs(out[b] - ref).max() <= 1e-12

    def test_circular_operator_matches_spectral_filter(self, rng):
        # order above max_len, so several shifts wrap onto the same column
        cfg = tiny_config(max_len=5, filter_order=12, num_bases=3, dim=4, filter_mode="circular")
        params = mdl.init_params(cfg, rng)
        taps, _ = mdl.build_tap_matrix(
            params["block0_coef"], params["block0_basis_re"], params["block0_basis_im"]
        )
        x = rng.normal(size=(3, 5, 4))
        out = mdl._tap_operator(cfg, taps) @ x
        basis = sp.make_basis(5, 12)
        mix = sp.nv_mixing_matrix(basis, taps)
        for b in range(3):
            ref = (mix @ basis.gft(x[b])).real
            assert np.abs(out[b] - ref).max() <= 1e-12


class TestPrediction:
    def test_self_aligned_embedding_wins(self, rng):
        cfg = tiny_config()
        params = mdl.init_params(cfg, rng)
        seq = list(rng.integers(1, 21, size=5))
        x, _ = mdl.model_forward(
            params, cfg, mdl.pad_context(seq, cfg.max_len)[None], training=False
        )
        params["emb"][7] = x[0]
        scores = mdl.predict_scores(params, cfg, seq)
        assert int(np.argmax(scores[1:])) + 1 == 7

    def test_scaling_embeddings_scales_scores(self, rng):
        # layer norms make the encoder scale-invariant, so scaling the
        # (tied) table scales the scores through the head alone
        cfg = tiny_config()
        params = mdl.init_params(cfg, rng)
        seq = list(rng.integers(1, 21, size=6))
        base = mdl.predict_scores(params, cfg, seq)
        scaled_params = {k: v.copy() for k, v in params.items()}
        scaled_params["emb"] *= 3.0
        scaled = mdl.predict_scores(scaled_params, cfg, seq)
        assert np.allclose(scaled, 3.0 * base, rtol=1e-7, atol=1e-9)
        assert int(np.argmax(scaled[1:])) == int(np.argmax(base[1:]))

    def test_scores_match_explicit_products(self, rng):
        cfg = tiny_config()
        params = mdl.init_params(cfg, rng)
        seq = list(rng.integers(1, 21, size=4))
        scores = mdl.predict_scores(params, cfg, seq)
        x, _ = mdl.model_forward(
            params, cfg, mdl.pad_context(seq, cfg.max_len)[None], training=False
        )
        final = x[0]
        for v in range(cfg.num_items + 1):
            assert abs(scores[v] - float(params["emb"][v] @ final)) <= 1e-12

    def test_all_pad_context_is_defined(self, rng):
        cfg = tiny_config()
        params = mdl.init_params(cfg, rng)
        scores = mdl.predict_scores(params, cfg, [])
        assert np.all(np.isfinite(scores))


class TestFreeze:
    def test_identity_taps_freeze_to_identity(self, rng):
        cfg = tiny_config()
        params = identity_tap_params(cfg, rng)
        ops = mdl.freeze_filters(params, cfg)
        for op in ops:
            assert np.array_equal(op, np.eye(cfg.max_len))

    @pytest.mark.parametrize("mode", ["causal", "circular"])
    def test_frozen_scores_match_unfrozen(self, mode, rng):
        # the frozen path gathers from the table normed at freeze time,
        # the live one norms its ids' rows; rows are left-padded with id 0
        for layers in (1, 2, 3):
            cfg = tiny_config(layers=layers, filter_mode=mode)
            params = mdl.init_params(cfg, rng)
            params["emb"] = rng.normal(size=params["emb"].shape)
            ops = mdl.freeze_filters(params, cfg)
            ids = rng.integers(1, 21, size=(32, 8))
            ids[np.arange(8) < (np.arange(32) % 9)[:, None]] = 0  # 0 to 8 pads a row
            plain = mdl.predict_scores_batch(params, cfg, ids)
            frozen = mdl.predict_scores_batch(params, cfg, ids, frozen_ops=ops)
            assert np.abs(plain - frozen).max() <= 1e-10, layers

    @pytest.mark.parametrize("layers", [1, 3])
    def test_frozen_iterates_as_the_causal_operators(self, layers, rng):
        # what perfbench's frozen check and `seqfilt bench` read: L real
        # N x N arrays, zero above the diagonal, and nothing else
        cfg = tiny_config(layers=layers)
        params = mdl.init_params(cfg, rng)
        ops = mdl.freeze_filters(params, cfg)
        assert len(list(ops)) == layers
        want = mdl.filter_operators(params, cfg)[0]
        for op, expected in zip(ops, want):
            assert isinstance(op, np.ndarray) and op.dtype == np.float64
            assert op.shape == (cfg.max_len, cfg.max_len)
            assert np.array_equal(np.triu(op, 1), np.zeros_like(op))
            assert np.array_equal(op, expected)

    def test_prediction_keeps_no_block_cache(self, monkeypatch):
        """Prediction runs no backward, so no block's cache outlives the
        block: on one thread, a B=64 prediction at L=3, run in chunks,
        peaks at ≤9 chunk activations (rows·N·D float64 each, for the
        largest chunk's rows), where keeping the caches of every block
        took ~12.5."""
        monkeypatch.setattr(nn, "_WORKERS", 1)
        rng = np.random.default_rng(34)
        cfg = mdl.ModelConfig(num_items=700, max_len=50, dim=64, layers=3, dropout=0.2)
        params = mdl.init_params(cfg, rng)
        ops = mdl.freeze_filters(params, cfg)
        ids = rng.integers(0, 701, size=(64, 50))
        sizes = chunk_sizes(64, mdl.example_flops(cfg))
        assert len(sizes) > 1
        chunk_array = max(sizes) * cfg.max_len * cfg.dim * 8
        mdl.predict_scores_batch(params, cfg, ids, frozen_ops=ops)  # one-time allocations
        tracemalloc.start()
        try:
            mdl.predict_scores_batch(params, cfg, ids, frozen_ops=ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * chunk_array, f"peak {peak / chunk_array:.2f} chunk arrays"


class TestInit:
    @pytest.mark.parametrize(
        "cfg",
        [
            mdl.ModelConfig(num_items=685, max_len=50, dim=64, layers=2, num_bases=8, dropout=0.2),
            mdl.ModelConfig(num_items=294, max_len=10, dim=16, layers=1, num_bases=4, dropout=0.2),
        ],
        ids=["long-window", "long-history"],
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_draws_match_scaled_normal_bitwise(self, cfg, seed):
        """Matrices drawn in place as 0.02 * N(0, 1) equal the reference
        `rng.normal(0.0, 0.02, size)` draws bit for bit, in `param_shapes`
        order from the same stream."""
        params = mdl.init_params(cfg, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        for key, shape in mdl.param_shapes(cfg).items():
            if len(shape) == 2:
                expected = rng.normal(0.0, 0.02, size=shape)
            else:
                expected = np.full(shape, 1.0 if key.endswith("_g") else 0.0)
            assert params[key].tobytes() == expected.tobytes(), key


class TestParamCount:
    def test_matches_closed_form(self, rng):
        cfg = tiny_config(layers=2)
        params = mdl.init_params(cfg, rng)
        d, n, m, k = cfg.dim, cfg.max_len, cfg.num_bases, cfg.order
        expected = (cfg.num_items + 1) * d + 2 * d
        expected += cfg.layers * (n * m + 2 * m * (k + 1) + 2 * d * d + 2 * d + 4 * d)
        assert mdl.count_params(params) == expected

    def test_reference_configuration_reported(self, rng):
        # published total for this shape is 854,208; the enumerated groups
        # below give 801,536, so the delta is reported rather than hidden
        cfg = mdl.ModelConfig(
            num_items=12101, max_len=50, dim=64, layers=2, num_bases=32, filter_order=50
        )
        params = mdl.init_params(cfg, rng)
        count = mdl.count_params(params)
        assert count == 801_536
        delta = count - 854_208
        print(f"\nparameter count {count}, published 854208, delta {delta}")


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        cfg = tiny_config(layers=2)
        params = mdl.init_params(cfg, rng)
        path = tmp_path / "model.bin"
        mdl.save_checkpoint(path, params, cfg, meta={"seed": 1})
        loaded, cfg2, meta = mdl.load_checkpoint(path)
        assert cfg2 == cfg and meta == {"seed": 1}
        assert sorted(loaded) == sorted(params)
        for key in params:
            assert np.array_equal(loaded[key], params[key])
            assert loaded[key].dtype == np.float64

    def test_v1_format_spelled_out(self, tmp_path, rng):
        # the on-disk format, spelled out apart from `save_checkpoint`: the
        # magic line, the header length, a sorted-key JSON header with
        # contiguous offsets, then little-endian float64 in sorted key order
        cfg = tiny_config(num_items=3, max_len=2, dim=2, num_bases=1, filter_order=1)
        params = mdl.init_params(cfg, rng)
        manifest, data = {}, b""
        for key in sorted(params):
            values = params[key].ravel().tolist()
            manifest[key] = {"offset": len(data), "shape": list(params[key].shape)}
            data += struct.pack(f"<{len(values)}d", *values)
        config = {
            "dim": 2, "dropout": 0.0, "filter_mode": "causal", "filter_order": 1,
            "layers": 1, "max_len": 2, "num_bases": 1, "num_items": 3,
        }
        meta = {"alpha": 0.5, "data_sha256": "0f" * 32, "min_interactions": 5, "seed": 7}
        header = {"config": config, "manifest": manifest, "meta": meta, "total_bytes": len(data)}
        blob = json.dumps(header, sort_keys=True, separators=(", ", ": ")).encode("utf-8")
        spelled = b"SEQFILT-CKPT-V1\n" + b"%d\n" % len(blob) + blob + data

        saved = tmp_path / "saved.bin"
        mdl.save_checkpoint(saved, params, cfg, meta=meta)
        assert saved.read_bytes() == spelled
        by_hand = tmp_path / "by_hand.bin"
        by_hand.write_bytes(spelled)
        loaded, cfg2, meta2 = mdl.load_checkpoint(by_hand)
        assert cfg2 == cfg and meta2 == meta
        assert loaded.keys() == params.keys()
        for key, want in params.items():
            assert loaded[key].shape == want.shape and loaded[key].tobytes() == want.tobytes()

    def test_double_save_identical_bytes(self, tmp_path, rng):
        cfg = tiny_config()
        params = mdl.init_params(cfg, rng)
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        mdl.save_checkpoint(a, params, cfg)
        mdl.save_checkpoint(b, params, cfg)
        assert a.read_bytes() == b.read_bytes()

    def test_failed_write_keeps_previous_file(self, tmp_path, rng, monkeypatch):
        cfg = tiny_config()
        path = tmp_path / "checkpoint.bin"
        params = mdl.init_params(cfg, rng)
        mdl.save_checkpoint(path, params, cfg)
        before = path.read_bytes()

        def disk_full(params):
            raise OSError("no space left on device")

        # the header goes out, then the data write fails
        monkeypatch.setattr(mdl, "flatten", disk_full)
        with pytest.raises(OSError, match="no space"):
            mdl.save_checkpoint(path, params, cfg)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin"]

    def test_save_rejects_params_of_another_config(self, tmp_path, rng):
        # a 5-item model's table under a 6-item config: no file is written,
        # since load_checkpoint would reject it
        params = mdl.init_params(tiny_config(num_items=5), rng)
        with pytest.raises(ValueError, match=r"'emb' is .*\[6, 8\].*its config's layout has .*\[7, 8\]"):
            mdl.save_checkpoint(tmp_path / "checkpoint.bin", params, tiny_config(num_items=6))
        del params["emb_ln_b"]
        with pytest.raises(ValueError, match="'emb_ln_b' is null"):
            mdl.save_checkpoint(tmp_path / "checkpoint.bin", params, tiny_config(num_items=5))
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(mdl.CheckpointError):
            mdl.load_checkpoint(path)
