"""Run one workload in this process and print its result as JSON.

The run drives `seqfilt`'s public API as `seqfilt train`, `seqfilt eval`
and a serving caller do: `load_corpus` -> `fit` -> `evaluate` on the test
split -> `freeze_filters` -> `predict_scores_batch` at batch 16 and at
batch 1.  Each phase is timed from outside; the outputs are checked
outside the timed phases.  `run.py` starts this script in a fresh
process; by hand (from the repository root):

    PYTHONPATH=src python3 perfbench/workload.py --workload long-window \
        --data corpus.txt --seed 1 --seconds 50 [--spans spans.jsonl]

With `--spans` the run first trains once untraced, as the baseline of the
tracing overhead, then wraps the public functions of `seqfilt` (see
`tracer.py`) and does everything above traced; the per-layer numbers are
added to the result and every span is written to that file.  Timings
from such a run are not end-to-end numbers.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

import seqfilt.data as sf_data
import seqfilt.evaluation as sf_eval
import seqfilt.model as sf_model
import seqfilt.spectral as sf_spectral
import seqfilt.train as sf_train
from checks import full_sort_ranks, hr_ndcg, popularity_ndcg20, seen_mask
from tracer import Tracer
from workloads import WORKLOADS

# The rounds after the first fit (see Run.rounds): each phase's share of
# the run length, and the length of one turn.  The first fit comes before
# --seconds starts; its epochs count as training turns, not as spent time.
SHARES = {"setup": 0.1, "train": 0.5, "eval": 0.15, "predict_batch": 0.125, "predict1": 0.125}
TURN_SECONDS = 0.05
MIN_ROUNDS = 3
EVAL_BATCH = 256  # evaluate's default
# Batch-256 prediction on long-window allocates ~46 MB of temporaries a
# call, and its time swung 1.5x with the host's memory state for tens of
# seconds at a time (spread 27% between ten seeds); at 64 rows it still
# spread 42% over five seeds while batch 1 spread 3%.  At 16 rows each
# temporary (16 x 50 x 64 floats) stays within a core's 2 MiB L2, out of
# reach of the shared L3 that other tenants contend for.
PREDICT_BATCH = 16
CHECK_USERS = 512
# A training turn is a whole epoch of 1-3 s, so a run has only 10-30 of
# them, and the best one is an extreme of few draws: over ten seeds its
# spread was 11-13%, against 7-8% for the epochs' lower quartile.
TRAIN_QUANTILE = 0.25
clock = time.perf_counter


class _SetupDone(Exception):
    """Raised by the timer hook on `fit`'s first call: setup has ended."""


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_config() -> dict:
    """BLAS library as numpy was built against it, and its live thread count."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return {
        "library": f"{blas.get('name')} {blas.get('version')}",
        "threads": threads,
        "cpus": len(os.sched_getaffinity(0)),
    }


def trace_targets():
    """Where each public function is looked up, and its span name."""
    rows = lambda x, *a, **k: int(np.shape(x)[0])
    size = lambda x, *a, **k: int(np.size(x))
    draws = lambda x, rate, rng=None, training=True: (
        int(np.size(x)) if training and rate > 0 else 0
    )
    valid = {"phase": {"train": "valid"}}  # fit's own validation pass
    D, T, M, S, E = sf_data, sf_train, sf_model, sf_spectral, sf_eval
    return [
        (D, "load_corpus", "data.load_corpus", {}),
        (T, "split_loo", "data.split_loo", {}),
        (T, "train_examples", "data.train_examples", {}),
        (T, "make_batches", "data.make_batches", {"generator": True}),
        (T, "init_params", "model.init_params", {}),
        (T, "adam_init", "nn.adam_init", {}),
        (T, "loss_and_grads", "train.loss_and_grads", {}),
        (T, "model_forward", "model.model_forward", {}),
        (T, "model_backward", "model.model_backward", {}),
        (T, "score_logits", "model.score_logits", {}),
        (T, "softmax_xent_batch", "nn.softmax_xent_batch", {}),
        (T, "adam_step", "nn.adam_step", {}),
        (T, "evaluate", "evaluation.evaluate", valid),
        (E, "evaluate", "evaluation.evaluate", valid),
        (E, "predict_scores_batch", "model.predict_scores_batch", {}),
        (M, "predict_scores_batch", "model.predict_scores_batch", {}),
        (M, "model_forward", "model.model_forward", {}),
        (M, "score_logits", "model.score_logits", {}),
        (M, "freeze_filters", "model.freeze_filters", {}),
        (M, "build_tap_matrix", "model.build_tap_matrix", {}),
        (M, "build_tap_matrix_backward", "model.build_tap_matrix_backward", {}),
        (M, "layer_norm", "nn.layer_norm", {"count": rows}),
        (M, "layer_norm_backward", "nn.layer_norm_backward", {}),
        (M, "gelu", "nn.gelu", {"count": size}),
        (M, "gelu_backward", "nn.gelu_backward", {}),
        (M, "dropout", "nn.dropout", {"count": draws}),
        (M, "dropout_backward", "nn.dropout_backward", {}),
        (S, "make_basis", "spectral.make_basis", {}),
        (S, "nv_mixing_matrix", "spectral.nv_mixing_matrix", {}),
        (S, "precompute_operator", "spectral.precompute_operator", {}),
    ]


class Run:
    def __init__(self, name, data, seed, seconds, trace=False):
        self.wl = WORKLOADS[name]
        self.data = data
        self.seconds = seconds
        self.trace = trace
        self.tracer = None
        self.train_cfg = sf_train.TrainConfig(
            seed=seed, patience=self.wl.train["epochs"], **self.wl.train
        )
        self.checks = []
        self.setup_rss_mb = None

    def phase(self, name):
        if self.tracer is not None:
            self.tracer.phase = name

    def check(self, name, ok, detail):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def config(self, corpus):
        return sf_model.ModelConfig(num_items=corpus.num_items, **self.wl.model)

    def setup_once(self):
        """Seconds from `load_corpus` to the first epoch of `fit`."""
        started = clock()
        corpus = sf_data.load_corpus(self.data)

        def stop():
            raise _SetupDone(clock())

        try:
            sf_train.fit(corpus, self.config(corpus), self.train_cfg, timer=stop)
        except _SetupDone as done:
            return done.args[0] - started
        raise RuntimeError("fit returned without calling its timer")

    def train(self):
        """Load and fit; the timer hook notes when the first epoch starts."""
        started = []

        def mark():
            if not started:
                if self.setup_rss_mb is None:
                    self.setup_rss_mb = peak_rss_mb()
                self.phase("train")
            started.append(None)
            return clock()

        corpus = sf_data.load_corpus(self.data)
        cfg = self.config(corpus)
        params, log = sf_train.fit(corpus, cfg, self.train_cfg, timer=mark)
        return corpus, cfg, params, log

    def refit(self, corpus, cfg):
        """Seconds of the first epoch of a fresh `fit`: the same work as
        the first fit's first epoch."""
        marks = []

        def mark():
            marks.append(clock())
            return marks[-1]

        one_epoch = dataclasses.replace(self.train_cfg, epochs=1, patience=1)
        sf_train.fit(corpus, cfg, one_epoch, timer=mark)
        return marks[1] - marks[0]

    def rounds(self, calls, done_before):
        """Run rounds of the phases until the run length has passed.

        A phase takes its turn in a round while its time so far is within
        its share of the time elapsed; a turn runs the phase's call at
        least once and until TURN_SECONDS has passed.  Each call returns
        its own seconds.  `done_before` holds calls made before the
        rounds, {phase: [seconds, ...]}, which count as turns but not as
        spent time, so that a long first fit does not starve its phase.
        Returns, per phase, the median seconds of each turn and the
        seconds of every call.

        The phases take turns because the machine's speed is not steady: on
        a shared 2-vCPU VM it moves between a fast state and one up to
        1.8x slower, for a fraction of a second to tens of seconds at a
        time, and how much of a run falls in each differs between runs.
        The run reports each phase's best turn, which a run is likely to
        have caught in the fast state; a mean over turns would track the
        share of slow time instead.  Training is the exception (see
        TRAIN_QUANTILE).
        """
        medians = {name: list(done_before.get(name, [])) for name in calls}
        samples = {name: list(done_before.get(name, [])) for name in calls}
        spent = dict.fromkeys(calls, 0.0)
        begun = clock()
        done = 0
        while done < MIN_ROUNDS or clock() - begun < self.seconds:
            for name, call in calls.items():
                if spent[name] > SHARES[name] * (clock() - begun):
                    continue
                self.phase(name)
                times = []
                started = clock()
                while not times or clock() - started < TURN_SECONDS:
                    times.append(call())
                spent[name] += clock() - started
                medians[name].append(statistics.median(times))
                samples[name] += times
            done += 1
        self.phase("check")
        return medians, samples

    def run(self):
        wl, tcfg = self.wl, self.train_cfg
        if self.trace:
            # an untraced fit first: the baseline of the tracing overhead,
            # and the setup RSS before any epoch has run
            untraced = self.train()[3]
            self.tracer = Tracer()
            self.tracer.install(trace_targets())
        corpus, cfg, params, log = self.train()
        self.phase("check")
        split = sf_data.split_loo(corpus)
        v = corpus.num_items
        users = len(split.users)
        per_epoch = sum(len(p) - 1 for p in split.prefixes)
        epochs = len(log.epochs)
        self.check("epochs", epochs == tcfg.epochs, f"{epochs} of {tcfg.epochs} run")
        finite = all(math.isfinite(ce) for ce in log.ce)
        self.check(
            "cross_entropy",
            finite and log.ce[-1] < math.log(v),
            f"per epoch {[round(float(ce), 4) for ce in log.ce]}, ln V = {math.log(v):.4f}",
        )
        pop = popularity_ndcg20(split.prefixes, split.valid_targets, v + 1)
        best = max(log.valid_ndcg20)
        self.check("beats_popularity", best > pop, f"valid NDCG@20 {best:.4f} vs popularity {pop:.4f}")
        self.check_ranking(split, params, cfg)

        self.phase("freeze")
        ops = sf_model.freeze_filters(params, cfg)
        self.phase("check")
        contexts = [p + [t] for p, t in zip(split.prefixes, split.valid_targets)]
        ids = np.stack([sf_model.pad_context(c, cfg.max_len) for c in contexts])
        tiled = np.resize(ids, (-(-len(ids) // PREDICT_BATCH) * PREDICT_BATCH, cfg.max_len))
        batches = tiled.reshape(-1, PREDICT_BATCH, cfg.max_len)
        singles = ids[:, None, :]
        self.check_frozen(params, cfg, ops, batches[0])

        step = itertools.count()

        def timed(fn, *args, **kwargs):
            started = clock()
            fn(*args, **kwargs)
            return clock() - started

        def predict(rows):
            return timed(sf_model.predict_scores_batch, params, cfg, rows, frozen_ops=ops)

        medians, samples = self.rounds({
            "setup": self.setup_once,
            "train": lambda: self.refit(corpus, cfg),
            "eval": lambda: timed(
                sf_eval.evaluate, split, params, cfg, mode="test",
                batch_size=EVAL_BATCH, filter_seen=wl.filter_seen,
            ),
            "predict_batch": lambda: predict(batches[next(step) % len(batches)]),
            "predict1": lambda: predict(singles[next(step) % len(singles)]),
        }, done_before={"train": list(log.seconds)})
        result = {
            "workload": {
                "users": users,
                "items": v,
                "interactions": corpus.report.num_interactions,
                "examples_per_epoch": per_epoch,
                "epochs": epochs,
            },
            "metrics": {
                "setup_s": min(medians["setup"]),
                "peak_rss_mb": peak_rss_mb(),
                "train_examples_per_s": per_epoch
                / float(np.quantile(medians["train"], TRAIN_QUANTILE)),
                "eval_users_per_s": users / min(medians["eval"]),
                "predict_users_per_s": PREDICT_BATCH / min(medians["predict_batch"]),
                "predict1_ms_p50": 1e3 * min(medians["predict1"]),
            },
            "reference": {
                "turns": {name: len(m) for name, m in medians.items()},
                "calls": {name: len(t) for name, t in samples.items()},
                "predict1_ms_p99": 1e3 * float(np.percentile(samples["predict1"], 99)),
                "turn_medians_s": medians,
                "epoch_seconds": samples["train"],
            },
            "ops": {
                "examples_trained": per_epoch * len(samples["train"]),
                "users_evaluated": users * len(samples["eval"]),
                "predict_calls": len(samples["predict_batch"]) + len(samples["predict1"]),
            },
            "checks": self.checks,
            "blas": blas_config(),
        }
        if self.tracer is not None:
            batches_run = len(samples["train"]) * -(-per_epoch // tcfg.batch_size)
            result["per_layer"] = self.per_layer(
                batches_run, -(-per_epoch // tcfg.batch_size), per_epoch
            )
            result["per_layer"]["trace.overhead_pct"] = 100.0 * (
                sum(log.seconds) / sum(untraced.seconds) - 1.0
            )
            result["missing"] = self.tracer.missing
        return result

    def check_ranking(self, split, params, cfg):
        """`evaluate` on the first users must give the HR and NDCG of the
        benchmark's own full-sort ranking of the same scores."""
        k = min(CHECK_USERS, len(split.users))
        head = sf_data.Split(
            split.users[:k], split.prefixes[:k], split.valid_targets[:k],
            split.test_targets[:k], split.num_items,
        )
        report = sf_eval.evaluate(
            head, params, cfg, mode="test", batch_size=EVAL_BATCH,
            filter_seen=self.wl.filter_seen,
        )
        contexts = [p + [v] for p, v in zip(head.prefixes, head.valid_targets)]
        ids = np.stack([sf_model.pad_context(c, cfg.max_len) for c in contexts])
        items = cfg.num_items + 1
        ranks = []
        for i in range(0, k, EVAL_BATCH):
            rows = slice(i, i + EVAL_BATCH)
            scores = sf_model.predict_scores_batch(params, cfg, ids[rows])
            if self.wl.filter_seen:
                excluded = seen_mask(contexts[rows], items)
            else:
                excluded = np.zeros(scores.shape, dtype=bool)
                excluded[:, 0] = True
            ranks.append(full_sort_ranks(scores, head.test_targets[rows], excluded))
        hr, ndcg = hr_ndcg(np.concatenate(ranks))
        worst = max(
            max(abs(report.hr[r] - hr[r]), abs(report.ndcg[r] - ndcg[r])) for r in hr
        )
        self.check("ranking_oracle", worst <= 1e-12, f"{k} users, max deviation {worst:.1e}")

    def check_frozen(self, params, cfg, ops, ids):
        upper = max(float(np.abs(np.triu(op, 1)).max()) for op in ops)
        self.check("frozen_causal", upper == 0.0, f"largest entry above the diagonal {upper:.1e}")
        live = sf_model.predict_scores_batch(params, cfg, ids)
        frozen = sf_model.predict_scores_batch(params, cfg, ids, frozen_ops=ops)
        gap = float(np.abs(live - frozen).max())
        self.check("frozen_matches_live", gap <= 1e-10, f"max abs difference {gap:.1e}")

    def per_layer(self, batches, batches_per_epoch, per_epoch):
        totals = self.tracer.totals()

        def total(names, phase, field):
            return sum(totals.get((n, phase), (0, 0.0, 0.0, 0))[field] for n in names)

        calls = lambda name, phase: max(total([name], phase, 0), 1)
        per_call = lambda name, phase, scale=1.0: scale * total([name], phase, 1) / calls(name, phase)
        train_ms = lambda *names: 1e3 * total(names, "train", 2) / batches
        train_count = lambda name: total([name], "train", 3) / batches
        predict = "model.predict_scores_batch"
        return {
            "data.load_corpus_s": per_call("data.load_corpus", "setup"),
            "data.split_loo_s": per_call("data.split_loo", "setup"),
            "data.train_examples_s": per_call("data.train_examples", "setup"),
            "data.setup_rss_mb": self.setup_rss_mb,
            "data.make_batches_ms_per_batch": train_ms("data.make_batches"),
            "model.model_forward_ms_per_batch": train_ms("model.model_forward"),
            "model.model_backward_ms_per_batch": train_ms("model.model_backward"),
            "model.build_tap_matrix_ms_per_batch": train_ms(
                "model.build_tap_matrix", "model.build_tap_matrix_backward"
            ),
            "spectral.nv_mixing_matrix_ms_per_batch": train_ms("spectral.nv_mixing_matrix"),
            "spectral.make_basis_ms_per_batch": train_ms("spectral.make_basis"),
            "nn.layer_norm_ms_per_batch": train_ms("nn.layer_norm", "nn.layer_norm_backward"),
            "nn.gelu_ms_per_batch": train_ms("nn.gelu", "nn.gelu_backward"),
            "nn.dropout_ms_per_batch": train_ms("nn.dropout", "nn.dropout_backward"),
            "nn.softmax_xent_batch_ms_per_batch": train_ms("nn.softmax_xent_batch"),
            "model.score_logits_ms_per_batch": train_ms("model.score_logits"),
            "nn.adam_step_ms_per_step": per_call("nn.adam_step", "train", 1e3),
            "train.loss_and_grads_self_ms_per_batch": train_ms("train.loss_and_grads"),
            "model.predict_live_ms_per_batch": per_call(predict, "eval", 1e3),
            "evaluation.evaluate_self_ms_per_batch": 1e3
            * total(["evaluation.evaluate"], "eval", 2)
            / calls(predict, "eval"),
            "model.predict_frozen_ms_per_batch": per_call(predict, "predict_batch", 1e3),
            "model.freeze_filters_ms": per_call("model.freeze_filters", "freeze", 1e3),
            "spectral.precompute_operator_ms": per_call("spectral.precompute_operator", "freeze", 1e3),
            "nn.layer_norm_rows_per_batch": train_count("nn.layer_norm"),
            "nn.dropout_draws_per_batch": train_count("nn.dropout"),
            "nn.gelu_elements_per_batch": train_count("nn.gelu"),
            "data.batches_per_epoch": batches_per_epoch,
            "train.examples_per_epoch": per_epoch,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", help="trace, and write the spans to this file")
    args = parser.parse_args(argv)
    run = Run(args.workload, args.data, args.seed, args.seconds, trace=bool(args.spans))
    result = run.run()
    if args.spans:
        run.tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
