"""Training-loop behaviour: objective composition, learning progress,
early stopping, determinism, and the synthetic corpus generator."""

import json
import os
import platform
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import chunk_sizes, finite_diff, rel_err
from seqfilt.data import Corpus, split_loo
from seqfilt.evaluation import evaluate
from seqfilt import model as mdl, nn
from seqfilt.model import ModelConfig, init_params, save_checkpoint
from seqfilt.nn import NumericError
from seqfilt import train as tr
from seqfilt.train import TrainConfig, TrainLog, _first_non_finite, fit, loss_and_grads, make_synthetic


def small_setup(rng, **cfg_overrides):
    cfg = ModelConfig(
        num_items=20, max_len=8, dim=8, layers=1, num_bases=4, dropout=0.0, **cfg_overrides
    )
    params = init_params(cfg, rng)
    ids = rng.integers(0, 21, size=(6, 8))
    ids[:, :2] = 0
    targets = rng.integers(1, 21, size=6)
    return cfg, params, ids, targets


def run_fresh(script):
    """JSON printed by `script` run in a fresh interpreter, whose malloc
    state is not shaped by what this process allocated and freed before."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tr.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


glibc_only = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the memory policy is set through glibc's mallopt"
)


class TestTrainConfig:
    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("epochs", 2.0),
            ("epochs", True),
            ("batch_size", 4.0),
            ("batch_size", True),
            ("patience", 1.5),
            ("patience", True),
            ("seed", 1.0),
            ("seed", False),
        ],
    )
    def test_non_integer_field_is_type_error(self, field, value):
        # a float reached `range` or `SeedSequence` only inside fit, and a
        # bool or a fractional patience was taken silently
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got {value!r}$"):
            TrainConfig(**{field: value})

    def test_numpy_integers_are_integers(self):
        cfg = TrainConfig(epochs=np.int64(2), batch_size=np.int32(4), patience=np.uint8(1), seed=np.int64(0))
        assert (cfg.epochs, cfg.batch_size, cfg.patience, cfg.seed) == (2, 4, 1, 0)


class TestLossAndGrads:
    def test_alpha_zero_is_pure_cross_entropy(self, rng):
        cfg, params, ids, targets = small_setup(rng)
        loss, ce, ortho, _ = loss_and_grads(params, cfg, ids, targets, alpha=0.0)
        assert ortho == 0.0
        assert loss == ce

    def test_untrained_loss_near_uniform(self, rng):
        cfg, params, ids, targets = small_setup(rng)
        _, ce, _, _ = loss_and_grads(params, cfg, ids, targets, alpha=0.0)
        assert abs(ce - np.log(20.0)) <= 0.5

    def test_alpha_increases_initial_loss(self, rng):
        cfg, params, ids, targets = small_setup(rng)
        losses = [
            loss_and_grads(params, cfg, ids, targets, alpha=a)[0]
            for a in (0.0, 1e-3, 1e-1)
        ]
        assert losses[0] < losses[1] < losses[2]

    def test_circular_gradients_match_finite_differences(self, rng):
        # filter_order == max_len, so the longest shift wraps onto column i
        cfg = ModelConfig(
            num_items=6, max_len=4, dim=3, layers=1, num_bases=2,
            filter_order=4, dropout=0.0, filter_mode="circular",
        )
        params = init_params(cfg, rng)
        ids = rng.integers(0, 7, size=(3, 4))
        targets = rng.integers(1, 7, size=3)
        _, _, _, grads = loss_and_grads(params, cfg, ids, targets, alpha=1e-3)
        objective = lambda: loss_and_grads(params, cfg, ids, targets, alpha=1e-3)[0]
        for key in sorted(params):
            assert rel_err(grads[key], finite_diff(objective, params[key])) <= 1e-4, key

    @pytest.mark.parametrize("mode", ["causal", "circular"])
    def test_two_layer_gradients_match_finite_differences(self, mode, rng):
        # block 0 runs on every position and feeds the last block, which
        # runs on the final position alone; the first two positions are padding
        cfg = ModelConfig(
            num_items=6, max_len=5, dim=3, layers=2, num_bases=2,
            filter_order=5, dropout=0.0, filter_mode=mode,
        )
        params = init_params(cfg, rng)
        ids = rng.integers(0, 7, size=(3, 5))
        ids[:, :2] = 0
        targets = rng.integers(1, 7, size=3)
        _, _, _, grads = loss_and_grads(params, cfg, ids, targets, alpha=1e-3)
        assert grads.keys() == params.keys()
        objective = lambda: loss_and_grads(params, cfg, ids, targets, alpha=1e-3)[0]
        for key in sorted(params):
            assert rel_err(grads[key], finite_diff(objective, params[key])) <= 1e-4, key

    def test_non_finite_loss_aborts(self, rng):
        cfg, params, ids, targets = small_setup(rng)
        params["emb"][3, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match=r"group: emb \(value\)"):
            loss_and_grads(params, cfg, ids, targets, alpha=0.0)


    def test_dropout_without_generator_is_value_error(self, rng):
        # a training step that drops but is given no generator names the
        # missing generator instead of failing on None inside dropout
        cfg, params, ids, targets = small_setup(rng)
        cfg = ModelConfig(**{**cfg.to_dict(), "dropout": 0.2})
        with pytest.raises(ValueError, match="needs a random generator") as info:
            loss_and_grads(params, cfg, ids, targets, 0.0)
        assert len(str(info.value).splitlines()) == 1

    def test_chunked_batch_matches_one_chunk(self, monkeypatch):
        """A 300-row batch at N=50, D=64 runs in chunks; with dropout off,
        it matches the batch run as one chunk to rounding, in the loss and
        in every gradient group."""
        rng = np.random.default_rng(31)
        cfg = ModelConfig(num_items=60, max_len=50, dim=64, dropout=0.0)
        params = init_params(cfg, rng)
        ids = rng.integers(0, 61, size=(300, 50))
        targets = rng.integers(1, 61, size=300)
        assert len(chunk_sizes(300, mdl.example_flops(cfg))) > 1
        chunked = loss_and_grads(params, cfg, ids, targets, 0.1)
        monkeypatch.setattr(tr, "batch_chunks", lambda rows, size: [slice(0, rows)])
        whole = loss_and_grads(params, cfg, ids, targets, 0.1)
        assert chunked[2] > 0
        for got, want in zip(chunked[:3], whole[:3]):
            assert rel_err(got, want, floor=1e-300) <= 1e-12
        for key in params:
            assert rel_err(chunked[3][key], whole[3][key], floor=1e-300) <= 1e-12, key

    def test_chunked_step_builds_each_filter_once(self, monkeypatch):
        """The taps and their backward depend on the parameters alone, so
        a step of several chunks builds and differentiates each layer's once."""
        calls = {"build_tap_matrix": 0, "build_tap_matrix_backward": 0}
        for name in calls:
            def counting(*args, _inner=getattr(mdl, name), _name=name):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(mdl, name, counting)
        rng = np.random.default_rng(32)
        cfg = ModelConfig(num_items=60, max_len=50, dim=64, layers=2, dropout=0.2)
        params = init_params(cfg, rng)
        ids = rng.integers(0, 61, size=(300, 50))
        assert len(chunk_sizes(300, mdl.example_flops(cfg))) > 1
        loss_and_grads(params, cfg, ids, rng.integers(1, 61, size=300), 0.0, rng=rng)
        assert calls == {"build_tap_matrix": cfg.layers, "build_tap_matrix_backward": cfg.layers}

    def test_chunked_step_memory_high_water(self, monkeypatch):
        """A chunk keeps only what its backward reads and frees each
        buffer after its last read, and each of the pool's two threads
        holds one chunk at a time: a step of 256 rows in 32-row chunks
        peaks at ≤24 chunk activations (32·N·D float64 each) over both
        threads.  It measured 16.8-19.1; 64-row chunks took 31.5-33.6."""
        monkeypatch.setattr(nn, "_WORKERS", 2)
        rng = np.random.default_rng(33)
        cfg = ModelConfig(num_items=700, max_len=50, dim=64, layers=2, dropout=0.2)
        params = init_params(cfg, rng)
        ids = rng.integers(0, 701, size=(256, 50))
        targets = rng.integers(1, 701, size=256)
        assert len(chunk_sizes(256, mdl.example_flops(cfg))) > 2
        loss_and_grads(params, cfg, ids, targets, 1e-3, rng=rng)  # one-time allocations
        tracemalloc.start()
        try:
            loss_and_grads(params, cfg, ids, targets, 1e-3, rng=rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk_array = 32 * cfg.max_len * cfg.dim * 8
        assert peak <= 24 * chunk_array, f"peak {peak / chunk_array:.2f} chunk arrays"


    def test_chunk_gradients_are_summed_as_they_arrive(self, monkeypatch):
        """Each chunk's gradients are added into the step's once the earlier
        chunks' are in: on one thread, a step of 256 rows in chunks at
        V=12k peaks at ≤6 (V+1)·D tables, where keeping every chunk's
        table gradient to the end of the step took ~7.1 over four chunks."""
        monkeypatch.setattr(nn, "_WORKERS", 1)
        rng = np.random.default_rng(35)
        cfg = ModelConfig(num_items=12000, max_len=50, dim=64, layers=2, dropout=0.2)
        params = init_params(cfg, rng)
        ids = rng.integers(0, 12001, size=(256, 50))
        targets = rng.integers(1, 12001, size=256)
        assert len(chunk_sizes(256, mdl.example_flops(cfg))) > 2
        loss_and_grads(params, cfg, ids, targets, 1e-3, rng=rng)  # one-time allocations
        tracemalloc.start()
        try:
            loss_and_grads(params, cfg, ids, targets, 1e-3, rng=rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = params["emb"].nbytes
        assert peak <= 6 * table, f"peak {peak / table:.2f} tables"

    def test_chunk_sum_keeps_chunk_order_across_threads(self, monkeypatch):
        """`run_chunks` hands chunks back in chunk order on two threads:
        chunk 1 finishes before chunk 0 and still comes back second, and
        the parts sum, as `loss_and_grads` sums them, to the bits of the
        in-order loop; their magnitudes differ, so another order would
        round otherwise."""
        monkeypatch.setattr(nn, "_WORKERS", 2)
        rng = np.random.default_rng(36)
        count = 24
        parts = [
            (float(rng.normal()) * 10.0 ** i, {"w": rng.normal(size=(40, 8)) * 10.0 ** (i % 7 - 3)})
            for i in range(count)
        ]
        ce, w = parts[0][0], parts[0][1]["w"].copy()
        for part_ce, part in parts[1:]:
            ce += part_ce
            w += part["w"]
        second_done = threading.Event()
        finished = []

        def job(i):
            if i == 0:
                assert second_done.wait(10), "chunk 1 never finished"
            finished.append(i)
            if i == 1:
                second_done.set()
            return parts[i][0], {"w": parts[i][1]["w"].copy()}

        order, total_ce, total = [], None, None
        for part_ce, part in nn.run_chunks(job, count):
            order.append(part_ce)
            if total is None:
                total_ce, total = part_ce, part
            else:
                total_ce += part_ce
                total["w"] += part["w"]
        assert finished.index(1) < finished.index(0)
        assert order == [part_ce for part_ce, _ in parts]
        assert total_ce == ce and np.array_equal(total["w"], w)


class TestMakeSynthetic:
    def test_successor_sequence(self):
        rng = np.random.default_rng(0)
        corpus = make_synthetic(200, 5, 4, rng)
        starts = {seq[0] for seq in corpus.sequences}
        assert 3 in starts  # all starting items appear over 200 users
        for seq in corpus.sequences:
            if seq[0] == 3:
                assert seq == [3, 4, 5, 1]
                break

    def test_all_sequences_obey_rule(self, rng):
        corpus = make_synthetic(50, 9, 6, rng)
        for seq in corpus.sequences:
            for a, b in zip(seq, seq[1:]):
                assert b == (a % 9) + 1

    def test_interaction_count(self, rng):
        corpus = make_synthetic(500, 50, 20, rng)
        assert sum(len(s) for s in corpus.sequences) == 10_000


class TestFit:
    def test_loss_decreases(self):
        rng = np.random.default_rng(4)
        corpus = make_synthetic(100, 12, 8, rng)
        cfg = ModelConfig(num_items=12, max_len=8, dim=16, layers=1, num_bases=4, dropout=0.1)
        tcfg = TrainConfig(lr=1e-3, epochs=20, batch_size=128, patience=20, seed=2)
        _, log = fit(corpus, cfg, tcfg)
        assert log.ce[-1] < log.ce[0]

    def test_same_seed_same_trajectory(self):
        rng = np.random.default_rng(5)
        corpus = make_synthetic(40, 10, 6, rng)
        cfg = ModelConfig(num_items=10, max_len=6, dim=8, layers=1, num_bases=3, dropout=0.2)
        tcfg = TrainConfig(lr=1e-3, epochs=4, batch_size=64, patience=10, seed=9)
        fixed = lambda: 0.0
        params_a, log_a = fit(corpus, cfg, tcfg, timer=fixed)
        params_b, log_b = fit(corpus, cfg, tcfg, timer=fixed)
        assert log_a.to_csv() == log_b.to_csv()
        for key in params_a:
            assert np.array_equal(params_a[key], params_b[key])

    def test_row_pool_size_changes_no_byte(self, monkeypatch, tmp_path, pool_shares):
        # at N=50, D=64 and L=2 every batch of this corpus (256, 256 and
        # 220 rows) is cut into chunks
        corpus = make_synthetic(12, 40, 64, np.random.default_rng(8))
        cfg = ModelConfig(num_items=40, max_len=50, dim=64, dropout=0.2)
        tcfg = TrainConfig(lr=3e-3, epochs=2, batch_size=256, patience=2, seed=8)
        split = split_loo(corpus)
        shares = pool_shares
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(nn, "_WORKERS", workers)
            shares.clear()
            params, log = fit(corpus, cfg, tcfg, timer=lambda: 0.0)
            log.write_csv(tmp_path / "trainlog.csv")
            save_checkpoint(tmp_path / "checkpoint.bin", params, cfg, meta={"seed": tcfg.seed})
            reports = [
                evaluate(split, params, cfg, mode="test", filter_seen=seen).to_csv()
                for seen in (False, True)
            ]
            runs.append((
                (tmp_path / "trainlog.csv").read_bytes(),
                (tmp_path / "checkpoint.bin").read_bytes(),
                reports,
            ))
            assert bool(shares) == (workers == 2)
        assert len(runs[0][0].splitlines()) == 3
        assert runs[0] == runs[1]

    @pytest.mark.skipif(
        nn.pool_size() < 2 or nn.blas_threads() is None,
        reason="needs a pool of two and numpy's bundled OpenBLAS",
    )
    def test_blas_thread_setting_changes_no_byte(self):
        # the pool holds BLAS to one thread a call, so a chunked fit writes
        # the same log and parameters whatever OPENBLAS_NUM_THREADS says
        script = (
            "import hashlib, json, numpy as np\n"
            "from seqfilt import nn\n"
            "from seqfilt.model import ModelConfig\n"
            "from seqfilt.train import TrainConfig, fit, make_synthetic\n"
            "corpus = make_synthetic(12, 40, 64, np.random.default_rng(8))\n"
            "cfg = ModelConfig(num_items=40, max_len=50, dim=64, dropout=0.2)\n"
            "tcfg = TrainConfig(lr=3e-3, epochs=2, batch_size=256, patience=2, seed=8)\n"
            "params, log = fit(corpus, cfg, tcfg, timer=lambda: 0.0)\n"
            "print(json.dumps([log.to_csv(), hashlib.sha256(nn.flatten(params)).hexdigest(), nn.blas_threads()]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tr.__file__)))
        runs = {}
        for threads in ("1", "2", None):
            env.pop("OPENBLAS_NUM_THREADS", None)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
            )
            assert done.returncode == 0, done.stderr
            runs[threads] = json.loads(done.stdout)
        assert len(runs["1"][0].splitlines()) == 3
        assert runs["1"][2] == 1
        assert runs["2"] == runs["1"] and runs[None] == runs["1"]

    def test_early_stop_returns_best_checkpoint(self):
        rng = np.random.default_rng(6)
        corpus = make_synthetic(60, 8, 6, rng)
        cfg = ModelConfig(num_items=8, max_len=6, dim=8, layers=1, num_bases=3, dropout=0.3)
        tcfg = TrainConfig(lr=5e-3, epochs=40, batch_size=64, patience=3, seed=3)
        params, log = fit(corpus, cfg, tcfg)
        split = split_loo(corpus)
        returned = evaluate(split, params, cfg, mode="valid").ndcg[20]
        assert returned == pytest.approx(max(log.valid_ndcg20), abs=1e-12)

    def test_numeric_error_names_epoch_batch_and_group(self, monkeypatch):
        def poisoned(cfg, rng):
            params = init_params(cfg, rng)
            params["block0_w1"][1, 2] = np.nan
            return params

        monkeypatch.setattr(tr, "init_params", poisoned)
        corpus = make_synthetic(20, 8, 6, np.random.default_rng(8))
        cfg = ModelConfig(num_items=8, max_len=6, dim=8, layers=2, num_bases=3)
        tcfg = TrainConfig(epochs=2, batch_size=16, seed=1)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError) as info:
            fit(corpus, cfg, tcfg)
        assert str(info.value).startswith("epoch 1, batch 0: non-finite loss")
        assert "first non-finite group: block0_w1 (value)" in str(info.value)

    def test_non_finite_report_checks_values_then_gradients(self):
        params = {"a": np.ones(2), "b": np.ones(2)}
        grads = {"a": np.array([0.0, np.inf]), "b": np.zeros(2)}
        assert _first_non_finite(params, grads) == "first non-finite group: a (gradient)"
        params["b"][0] = np.nan
        assert _first_non_finite(params, grads) == "first non-finite group: b (value)"
        params["b"][0] = grads["a"][1] = 0.0
        assert _first_non_finite(params, grads) == "every parameter value and gradient is finite"
        # gradients built last group first are still reported in params order
        reversed_grads = {"b": np.array([np.nan, 0.0]), "a": np.array([np.inf, 0.0])}
        assert _first_non_finite(params, reversed_grads) == "first non-finite group: a (gradient)"

    @glibc_only
    def test_steady_state_epochs_take_no_page_faults(self):
        # the timer counts minor page faults, so log.seconds holds each
        # epoch's faults, and after the first epoch every batch should
        # reuse the memory the one before it freed.  The bound leaves room
        # for one ~1 MB growth of the heap (~260 faults) while
        # fragmentation settles; without the policy each epoch takes ~40k
        script = (
            "import json, resource\n"
            "import numpy as np\n"
            "from seqfilt.model import ModelConfig\n"
            "from seqfilt.train import TrainConfig, fit, make_synthetic\n"
            "faults = lambda: float(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)\n"
            "corpus = make_synthetic(120, 50, 20, np.random.default_rng(7))\n"
            "cfg = ModelConfig(num_items=50, max_len=20, dim=32)\n"
            "tcfg = TrainConfig(epochs=3, patience=3, seed=7)\n"
            "print(json.dumps(fit(corpus, cfg, tcfg, timer=faults)[1].seconds))\n"
        )
        per_epoch = run_fresh(script)
        assert len(per_epoch) == 3
        assert all(faults < 1000 for faults in per_epoch[1:]), per_epoch

    @glibc_only
    def test_prediction_alone_takes_no_page_faults(self):
        # a process that only predicts, with no fit or evaluate, still runs
        # under the policy importing seqfilt sets: after the first call
        # every call reuses the memory the one before it freed; without
        # the policy each call takes ~5k faults
        script = (
            "import json, resource\n"
            "import numpy as np\n"
            "from seqfilt.model import ModelConfig, freeze_filters, init_params, predict_scores_batch\n"
            "faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "rng = np.random.default_rng(7)\n"
            "cfg = ModelConfig(num_items=500, max_len=50, dim=64)\n"
            "params = init_params(cfg, rng)\n"
            "ops = freeze_filters(params, cfg)\n"
            "ids = rng.integers(1, 501, size=(256, 50))\n"
            "per_call = []\n"
            "for _ in range(5):\n"
            "    before = faults()\n"
            "    predict_scores_batch(params, cfg, ids, frozen_ops=ops)\n"
            "    per_call.append(faults() - before)\n"
            "print(json.dumps(per_call))\n"
        )
        per_call = run_fresh(script)
        assert all(faults < 1000 for faults in per_call[1:]), per_call

    def test_trainlog_csv_shape(self):
        log = TrainLog()
        log.append(1, 2.0, 0.1, 0.5, 3.25)
        lines = log.to_csv().strip().splitlines()
        assert lines[0] == "epoch,ce,ortho,valid_ndcg20,seconds"
        assert lines[1].startswith("1,2,")
