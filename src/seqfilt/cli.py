"""Command-line surface: train, eval, export-filters, bench.

Every run directory gets a manifest recording the full configuration,
the seed, and a checksum of the input data, so a run can be reproduced
bit-for-bit on the same machine at the same BLAS thread count, which the
manifest records.  Every file a command writes goes through
`model.atomic_open`, so a write that fails leaves the previous file as
it was.  Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import MIN_INTERACTIONS, DataError, load_corpus, split_loo
from .evaluation import evaluate
from .model import (
    FILTER_MODES,
    CheckpointError,
    ModelConfig,
    NormalizationError,
    OutOfVocabulary,
    atomic_open,
    count_params,
    freeze_filters,
    layer_taps,
    load_checkpoint,
    predict_scores_batch,
    save_checkpoint,
)
from .nn import NumericError, blas_threads, pool_size
from .train import TrainConfig, fit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _at_least(low):
    """`type=` for an integer flag that must be >= `low`."""
    def parse(text):
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _config(cls, args, **given):
    """`cls` from the parsed flags named after its fields, plus `given`."""
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if f.name not in given}
    try:
        return cls(**flags, **given)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _source_id() -> str:
    """Git revision of the checkout this package runs from, or "unknown"."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _prepare_out_dir(out, force) -> Path:
    out = Path(out)
    if out.exists() and not out.is_dir():
        raise CliUsageError(f"--out {out} is not a directory")
    if out.exists() and any(out.iterdir()) and not force:
        raise CliUsageError(
            f"output directory {out} is not empty; pass --force to overwrite"
        )
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(path, payload) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="seqfilt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("train", help="train a model on an interaction file")
    tr.add_argument("--data", required=True, help="interaction file (user then items per line)")
    # each config flag's dest is its field's name and its default the field's
    tr.add_argument("--max-len", type=int, default=ModelConfig.max_len)
    tr.add_argument("--dim", type=int, default=ModelConfig.dim)
    tr.add_argument("--layers", type=int, default=ModelConfig.layers)
    tr.add_argument("--m", dest="num_bases", type=int, default=ModelConfig.num_bases,
                    help="number of basis vectors")
    tr.add_argument("--filter-order", type=int, default=ModelConfig.filter_order, help="defaults to max-len")
    tr.add_argument("--alpha", type=float, default=TrainConfig.alpha, help="orthogonality penalty weight")
    tr.add_argument("--dropout", type=float, default=ModelConfig.dropout)
    tr.add_argument("--lr", type=float, default=TrainConfig.lr)
    tr.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    tr.add_argument("--batch", dest="batch_size", type=int, default=TrainConfig.batch_size)
    tr.add_argument("--patience", type=int, default=TrainConfig.patience)
    tr.add_argument("--seed", type=int, default=TrainConfig.seed)
    tr.add_argument("--mode", dest="filter_mode", choices=FILTER_MODES, default=ModelConfig.filter_mode)
    tr.add_argument("--min-interactions", type=int, default=MIN_INTERACTIONS)
    tr.add_argument("--out", required=True)
    tr.add_argument("--force", action="store_true")

    ev = sub.add_parser("eval", help="full-ranking evaluation of a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", choices=("valid", "test"), default="test")
    ev.add_argument("--filter-seen", action="store_true")
    ev.add_argument("--batch", type=_at_least(1), default=256)
    ev.add_argument("--out", required=True)
    ev.add_argument("--force", action="store_true")

    ex = sub.add_parser("export-filters", help="write per-layer applied taps Re(H) as CSV")
    ex.add_argument("--checkpoint", required=True)
    ex.add_argument("--out", required=True)
    ex.add_argument("--force", action="store_true")

    be = sub.add_parser("bench", help="compare frozen vs unfrozen inference time")
    be.add_argument("--checkpoint", required=True)
    be.add_argument("--repeats", type=_at_least(1), default=5)
    be.add_argument("--batch", type=_at_least(1), default=256)
    be.add_argument("--seed", type=_at_least(0), default=0)
    be.add_argument("--out", required=True)
    be.add_argument("--force", action="store_true")
    return parser


def cmd_train(args) -> int:
    train_cfg = _config(TrainConfig, args)
    # every model flag is checked before the data file is read; the item
    # count is the corpus's, so the config is built again once it is known
    _config(ModelConfig, args, num_items=1)
    data_path = Path(args.data)
    if not data_path.exists():
        raise DataError(f"data file {data_path} does not exist")
    corpus = load_corpus(data_path, min_interactions=args.min_interactions)
    model_cfg = _config(ModelConfig, args, num_items=corpus.num_items)
    out = _prepare_out_dir(args.out, args.force)
    data_sha = _sha256(data_path)
    manifest = {
        "command": "train",
        "flags": {k: v for k, v in vars(args).items() if k != "command"},
        "model_config": model_cfg.to_dict(),
        "train_config": dataclasses.asdict(train_cfg),
        "loss_averaging": "dense next-item targets over each history prefix",
        "data_sha256": data_sha,
        "source": _source_id(),
        "version": __version__,
        "workers": pool_size(),
        # the thread count BLAS runs a call on: one beside a pool of two,
        # whatever the variables say (None where it cannot be asked)
        "blas_threads": blas_threads(),
        **{
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "started": _now(),
    }
    _write_manifest(out / "manifest.json", manifest)
    print(corpus.report.summary())

    def on_epoch(log):
        print(log.last_line())
        log.write_csv(out / "trainlog.csv")

    params, log = fit(corpus, model_cfg, train_cfg, on_epoch=on_epoch)
    meta = {
        "data_sha256": data_sha,
        "min_interactions": args.min_interactions,
        "seed": train_cfg.seed,
        "alpha": train_cfg.alpha,
    }
    save_checkpoint(out / "checkpoint.bin", params, model_cfg, meta=meta)
    with atomic_open(out / "item_map.json", "w", encoding="utf-8") as fh:
        json.dump({str(k): v for k, v in corpus.item_map.items()}, fh, sort_keys=True)
        fh.write("\n")
    manifest["finished"] = _now()
    manifest["parameters"] = count_params(params)
    manifest["epochs_run"] = len(log.epochs)
    manifest["best_valid_ndcg20"] = max(log.valid_ndcg20)
    _write_manifest(out / "manifest.json", manifest)
    print(f"done: best valid NDCG@20 {max(log.valid_ndcg20):.4f} "
          f"after {len(log.epochs)} epochs -> {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    params, cfg, meta = load_checkpoint(args.checkpoint)
    data_path = Path(args.data)
    if not data_path.exists():
        raise DataError(f"data file {data_path} does not exist")
    if "data_sha256" in meta and meta["data_sha256"] != _sha256(data_path):
        raise DataError(
            "checkpoint was trained on different data (sha256 mismatch); "
            "pass the original file"
        )
    corpus = load_corpus(data_path, min_interactions=meta.get("min_interactions", MIN_INTERACTIONS))
    if corpus.num_items != cfg.num_items:
        raise CheckpointError(
            f"checkpoint expects {cfg.num_items} items, corpus has {corpus.num_items}"
        )
    split = split_loo(corpus)
    out = _prepare_out_dir(args.out, args.force)
    report = evaluate(
        split, params, cfg, mode=args.split, batch_size=args.batch, filter_seen=args.filter_seen
    )
    with atomic_open(out / f"report_{args.split}.csv", "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    table = report.table()
    with atomic_open(out / f"report_{args.split}.txt", "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    print(table)
    return EXIT_OK


def cmd_export_filters(args) -> int:
    params, cfg, _ = load_checkpoint(args.checkpoint)
    out = _prepare_out_dir(args.out, args.force)
    for layer in range(cfg.layers):
        applied = layer_taps(params, layer)[0].real
        path = out / f"filters_layer{layer}.csv"
        with atomic_open(path, "w", encoding="utf-8") as fh:
            for row in applied:
                fh.write(",".join("%.17g" % v for v in row) + "\n")
        print(f"wrote {path} ({applied.shape[0]} x {applied.shape[1]})")
    return EXIT_OK


def cmd_bench(args) -> int:
    params, cfg, _ = load_checkpoint(args.checkpoint)
    out = _prepare_out_dir(args.out, args.force)
    rng = np.random.default_rng(args.seed)
    ids = rng.integers(1, cfg.num_items + 1, size=(args.batch, cfg.max_len))
    ops = freeze_filters(params, cfg)

    plain = predict_scores_batch(params, cfg, ids)
    frozen = predict_scores_batch(params, cfg, ids, frozen_ops=ops)
    max_diff = float(np.abs(plain - frozen).max())
    # written so that a NaN difference fails the gate too
    if not max_diff <= 1e-10:
        raise NumericError(
            f"frozen and unfrozen scores disagree (max abs diff {max_diff:.3e})"
        )

    def time_runs(frozen_ops):
        times = []
        predict_scores_batch(params, cfg, ids, frozen_ops=frozen_ops)  # warm-up
        for _ in range(args.repeats):
            start = time.perf_counter()
            predict_scores_batch(params, cfg, ids, frozen_ops=frozen_ops)
            times.append(time.perf_counter() - start)
        return np.asarray(times)

    unfrozen_times = time_runs(None)
    frozen_times = time_runs(ops)
    speedup = unfrozen_times.mean() / frozen_times.mean()
    with atomic_open(out / "bench.csv", "w", encoding="utf-8") as fh:
        fh.write("path,mean_seconds,std_seconds\n")
        fh.write(f"unfrozen,{unfrozen_times.mean():.6g},{unfrozen_times.std():.6g}\n")
        fh.write(f"frozen,{frozen_times.mean():.6g},{frozen_times.std():.6g}\n")
        fh.write(f"speedup,{speedup:.6g},\n")
        fh.write(f"max_abs_diff,{max_diff:.6g},\n")
    print(
        f"unfrozen {unfrozen_times.mean() * 1e3:.2f} ms  "
        f"frozen {frozen_times.mean() * 1e3:.2f} ms  "
        f"speedup {speedup:.2f}x  max|diff| {max_diff:.2e}"
    )
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "export-filters": cmd_export_filters,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, OutOfVocabulary, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, NormalizationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
