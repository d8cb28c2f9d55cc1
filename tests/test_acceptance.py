"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them inline).

Tolerances are fixed here, not tuned.  Criterion 11 needs the real
listening-history dataset, which is not shipped; the test looks for it
at $SEQFILT_LASTFM (or tests/data/lastfm.txt) and skips with a notice
when absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import causal_oracle, finite_diff
from seqfilt import cli
from seqfilt import evaluation as ev
from seqfilt import spectral as sp
from seqfilt.data import Corpus, load_corpus, split_loo
from seqfilt.model import (
    ModelConfig,
    freeze_filters,
    init_params,
    predict_scores_batch,
    save_checkpoint,
)
from seqfilt.nn import ortho_penalty
from seqfilt.train import TrainConfig, fit, loss_and_grads, make_synthetic


def check(ok, label, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {label}{suffix}", flush=True)
    assert ok, f"{label}{suffix}"


def test_c01_frequency_path_matches_time_oracle():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        m = int(rng.choice([4, 8, 16, 32]))
        k = int(rng.integers(0, m))
        h = rng.normal(size=(m, k + 1)) + 1j * rng.normal(size=(m, k + 1))
        x = rng.normal(size=m) + 1j * rng.normal(size=m)
        basis = sp.make_basis(m, k)
        freq = basis.igft(sp.apply_nv_filter_freq(basis, h, basis.gft(x)))
        oracle = sp.apply_nv_filter_time(m, h, x)
        worst = max(worst, np.abs(freq - oracle).max() / np.abs(oracle).max())
    elapsed = time.perf_counter() - started
    check(
        worst <= 1e-9 and elapsed < 5.0,
        "criterion 1: node-variant frequency path vs time-domain oracle",
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_c02_padded_ring_equals_causal_convolution():
    rng = np.random.default_rng(102)
    started = time.perf_counter()
    worst = 0.0
    worst_leak = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(0, n + 1))
        h = rng.normal(size=(n, k + 1)) + 1j * rng.normal(size=(n, k + 1))
        x = rng.normal(size=(n, 2))
        out = sp.causal_filter(n, k, h, x)
        worst = max(worst, np.abs(out - causal_oracle(h, x, k)).max())
        j = int(rng.integers(1, n))
        bumped = x.copy()
        bumped[j:] += rng.normal(size=(n - j, 2))
        out_b = sp.causal_filter(n, k, h, bumped)
        if j > 0:
            worst_leak = max(worst_leak, np.abs(out_b[:j] - out[:j]).max())
    elapsed = time.perf_counter() - started
    check(
        worst <= 1e-12 and worst_leak <= 1e-12 and elapsed < 5.0,
        "criterion 2: padded-ring filtering equals causal convolution",
        f"worst abs err {worst:.2e}, worst leak {worst_leak:.2e}, {elapsed:.2f}s",
    )


def test_c03_identical_rows_reduce_to_fixed_filter():
    rng = np.random.default_rng(103)
    worst = 0.0
    for m in (4, 8, 16):
        k = m // 2
        taps = rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)
        h = np.tile(taps, (m, 1))
        x = rng.normal(size=m) + 1j * rng.normal(size=m)
        basis = sp.make_basis(m, k)
        fixed_time = sp.apply_fixed_filter_time(m, taps, x)
        fixed_freq = sp.apply_fixed_filter_freq(basis, taps, x)
        nv_time = sp.apply_nv_filter_time(m, h, x)
        nv_freq = basis.igft(sp.apply_nv_filter_freq(basis, h, basis.gft(x)))
        worst = max(worst, np.abs(nv_time - fixed_time).max())
        worst = max(worst, np.abs(nv_freq - fixed_freq).max())
    check(
        worst <= 1e-10,
        "criterion 3: identical-row taps reduce to the fixed filter",
        f"worst abs err {worst:.2e}",
    )


def test_c04_basis_unitarity():
    worst = 0.0
    for m in range(2, 257):
        u = sp.make_basis(m).forward
        worst = max(worst, np.abs(u.conj().T @ u - np.eye(m)).max())
    check(
        worst <= 1e-12,
        "criterion 4: Fourier basis unitary for every size 2..256",
        f"worst entry err {worst:.2e}",
    )


def test_c05_full_model_gradient_check():
    rng = np.random.default_rng(105)
    cfg = ModelConfig(
        num_items=20, max_len=8, dim=8, layers=1, num_bases=4, filter_order=8, dropout=0.0
    )
    params = init_params(cfg, rng)
    ids = rng.integers(0, 21, size=(4, 8))
    ids[:, :2] = 0
    targets = rng.integers(1, 21, size=4)
    alpha = 1e-3
    started = time.perf_counter()
    _, _, _, grads = loss_and_grads(params, cfg, ids, targets, alpha)

    def objective():
        return loss_and_grads(params, cfg, ids, targets, alpha)[0]

    failures = []
    worst = 0.0
    for key in sorted(params):
        fd = finite_diff(objective, params[key], h=1e-5)
        scale = max(1e-6, np.abs(grads[key]).max(), np.abs(fd).max())
        rel = np.abs(grads[key] - fd).max() / scale
        worst = max(worst, rel)
        if rel > 1e-4:
            failures.append(f"{key}: {rel:.2e}")
    elapsed = time.perf_counter() - started
    check(
        not failures and elapsed < 60.0,
        "criterion 5: analytic gradients match finite differences for all groups",
        f"worst rel err {worst:.2e}, {elapsed:.1f}s" + (f"; {failures}" if failures else ""),
    )


def test_c06_orthonormal_basis_has_zero_penalty():
    rng = np.random.default_rng(106)
    q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
    b_real = q[:4]
    q2, _ = np.linalg.qr(rng.normal(size=(9, 9)))
    b_imag = q2[:4]
    loss, _, _ = ortho_penalty(b_real, b_imag, alpha=1.0)
    check(
        loss <= 1e-12,
        "criterion 6: orthonormal-row basis gives zero penalty",
        f"penalty {loss:.2e}",
    )


def test_c07_metric_oracle():
    rng = np.random.default_rng(107)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(10_000):
        v = int(rng.integers(4, 60))
        scores = rng.normal(size=v)
        if rng.random() < 0.3:
            scores = np.round(scores, 1)
        target = int(rng.integers(1, v))
        got = ev.rank_of_target(scores, target, exclude={0})
        order = sorted(range(1, v), key=lambda i: (-scores[i], i))
        want = order.index(target) + 1
        if got != want:
            mismatches += 1
            continue
        for r in (5, 10, 20):
            hr, ndcg = ev.metrics_from_rank(got, r)
            if hr != (1.0 if want <= r else 0.0):
                mismatches += 1
            if ndcg != ((1.0 / np.log2(want + 1)) if want <= r else 0.0):
                mismatches += 1
    exact = ev.metrics_from_rank(3, 5)
    elapsed = time.perf_counter() - started
    check(
        mismatches == 0 and exact == (1.0, 0.5),
        "criterion 7: rank/HR/NDCG agree with the full-sort oracle",
        f"10^4 vectors, rank-3@5 ndcg {exact[1]}, {elapsed:.1f}s",
    )


def test_c08_synthetic_learnability():
    rng = np.random.default_rng(108)
    corpus = make_synthetic(500, 50, 20, rng)
    model_cfg = ModelConfig(num_items=50, max_len=20)
    train_cfg = TrainConfig(epochs=200, seed=108)
    started = time.perf_counter()
    params, log = fit(corpus, model_cfg, train_cfg)
    elapsed = time.perf_counter() - started
    report = ev.evaluate(split_loo(corpus), params, model_cfg, mode="valid")
    check(
        report.hr[1] >= 0.95 and len(log.epochs) <= 200 and elapsed < 300.0,
        "criterion 8: successor-rule corpus learned to HR@1 >= 0.95",
        f"HR@1 {report.hr[1]:.3f} after {len(log.epochs)} epochs, {elapsed:.0f}s",
    )


def test_c09_overfit_small_corpus():
    rng = np.random.default_rng(109)
    sequences = [[u] + list(rng.integers(1, 31, size=7)) for u in range(1, 17)]
    corpus = Corpus(list(range(1, 17)), sequences, 30)
    model_cfg = ModelConfig(num_items=30, max_len=8, dropout=0.0)
    train_cfg = TrainConfig(lr=3e-3, epochs=300, batch_size=256, patience=300, seed=109)
    _, log = fit(corpus, model_cfg, train_cfg)
    best = min(log.ce)
    check(
        best <= 0.1,
        "criterion 9: 16-sequence corpus memorized to CE <= 0.1",
        f"best CE {best:.4f} within {len(log.epochs)} epochs",
    )


def test_c10_freeze_equivalence_and_speedup():
    rng = np.random.default_rng(110)
    cfg = ModelConfig(num_items=500, max_len=50, dim=64, layers=2, num_bases=8)
    params = init_params(cfg, rng)
    ids = rng.integers(1, 501, size=(256, 50))
    ops = freeze_filters(params, cfg)
    plain = predict_scores_batch(params, cfg, ids)
    frozen = predict_scores_batch(params, cfg, ids, frozen_ops=ops)
    diff = float(np.abs(plain - frozen).max())

    def seconds(frozen_ops):
        t0 = time.perf_counter()
        predict_scores_batch(params, cfg, ids, frozen_ops=frozen_ops)
        return time.perf_counter() - t0

    seconds(None), seconds(ops)  # warm-up
    # live and frozen calls take turns, so load from other processes on a
    # shared host falls on both; the min is robust to its spikes
    pairs = [(seconds(None), seconds(ops)) for _ in range(15)]
    unfrozen_t, frozen_t = (min(times) for times in zip(*pairs))
    speedup = unfrozen_t / frozen_t
    check(
        diff <= 1e-10 and speedup > 1.0,
        "criterion 10: precomputed operators match and beat the live path",
        f"max |diff| {diff:.2e}, speedup {speedup:.2f}x",
    )


def _lastfm_path():
    env = os.environ.get("SEQFILT_LASTFM")
    if env and Path(env).exists():
        return Path(env)
    bundled = Path(__file__).parent / "data" / "lastfm.txt"
    if bundled.exists():
        return bundled
    return None


def test_c11_lastfm_reproduction():
    path = _lastfm_path()
    if path is None:
        print(
            "[SKIP] criterion 11: listening-history dataset not present "
            "(set SEQFILT_LASTFM to the interaction file to enable)",
            flush=True,
        )
        pytest.skip("dataset not available in this environment")
    corpus = load_corpus(path, min_interactions=5)
    print(corpus.report.summary())
    model_cfg = ModelConfig(
        num_items=corpus.num_items, max_len=50, dim=64, layers=2, num_bases=8, dropout=0.4
    )
    train_cfg = TrainConfig(lr=1e-3, alpha=1e-3, epochs=200, batch_size=256, seed=111)
    params, log = fit(corpus, model_cfg, train_cfg)
    report = ev.evaluate(split_loo(corpus), params, model_cfg, mode="test")
    ndcg20, hr20 = report.ndcg[20], report.hr[20]
    print(f"test NDCG@20 {ndcg20:.4f} (published 0.0572), HR@20 {hr20:.4f} (published 0.1202)")
    check(
        0.045 <= ndcg20 <= 0.065 and 0.100 <= hr20 <= 0.135,
        "criterion 11: listening-history desk-scale reproduction",
        f"NDCG@20 {ndcg20:.4f}, HR@20 {hr20:.4f}",
    )


def test_c12_determinism(tmp_path):
    rng = np.random.default_rng(112)
    corpus = make_synthetic(60, 10, 6, rng)
    model_cfg = ModelConfig(num_items=10, max_len=6, dim=8, layers=1, num_bases=3, dropout=0.2)
    train_cfg = TrainConfig(lr=2e-3, epochs=4, batch_size=64, patience=10, seed=7)
    fixed_timer = lambda: 0.0

    csvs, ckpts = [], []
    for run in ("a", "b"):
        params, log = fit(corpus, model_cfg, train_cfg, timer=fixed_timer)
        csv_path = tmp_path / f"log_{run}.csv"
        log.write_csv(csv_path)
        csvs.append(csv_path.read_bytes())
        ckpt_path = tmp_path / f"ckpt_{run}.bin"
        save_checkpoint(ckpt_path, params, model_cfg, meta={"seed": train_cfg.seed})
        ckpts.append(ckpt_path.read_bytes())
    check(
        csvs[0] == csvs[1] and ckpts[0] == ckpts[1],
        "criterion 12: identical seeds give byte-identical logs and checkpoints",
        f"{len(csvs[0])} log bytes, {len(ckpts[0])} checkpoint bytes",
    )
