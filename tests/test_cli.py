"""End-to-end command-line tests on a tiny synthetic corpus."""

import dataclasses
import json
import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

from seqfilt import cli
from seqfilt import evaluation as ev
from seqfilt import nn
from seqfilt import spectral as sp
from seqfilt import train as tr
from seqfilt.data import MIN_INTERACTIONS, load_corpus, split_loo
from seqfilt.model import (
    CheckpointError,
    ModelConfig,
    freeze_filters,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from seqfilt.train import TrainConfig, make_synthetic


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    rng = np.random.default_rng(77)
    corpus = make_synthetic(80, 12, 6, rng)
    path = tmp_path_factory.mktemp("data") / "synthetic.txt"
    lines = [
        " ".join(str(v) for v in [user] + seq)
        for user, seq in zip(corpus.users, corpus.sequences)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err


def rewrite_header(path, edit):
    """Re-emit a checkpoint with `edit` applied to its JSON header."""
    with open(path, "rb") as fh:
        magic = fh.readline()
        header = json.loads(fh.read(int(fh.readline())))
        raw = fh.read()
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(magic + f"{len(blob)}\n".encode("ascii") + blob + raw)


TRAIN_FLAGS = [
    "--max-len", "6", "--dim", "8", "--layers", "1", "--m", "3",
    "--epochs", "3", "--batch", "64", "--seed", "11",
    "--min-interactions", "3", "--lr", "5e-3",
]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_file):
    out = tmp_path_factory.mktemp("runs") / "train"
    code = cli.main(["train", "--data", str(corpus_file), "--out", str(out), *TRAIN_FLAGS])
    assert code == cli.EXIT_OK
    return out


@pytest.fixture
def nan_checkpoint(tmp_path, run_dir):
    """The trained checkpoint with every embedding entry NaN, so every
    score comes out NaN."""
    params, cfg, meta = load_checkpoint(run_dir / "checkpoint.bin")
    params["emb"][:] = np.nan
    path = tmp_path / "nan.bin"
    save_checkpoint(path, params, cfg, meta=meta)
    return path


class TestTrain:
    def test_outputs_exist(self, run_dir):
        for name in ("checkpoint.bin", "trainlog.csv", "manifest.json", "item_map.json"):
            assert (run_dir / name).exists()

    def test_manifest_contents(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["flags"]["seed"] == 11
        # keyed by the config fields the flags set
        assert manifest["flags"]["num_bases"] == 3 and manifest["flags"]["batch_size"] == 64
        assert manifest["flags"]["filter_mode"] == "causal"
        assert len(manifest["data_sha256"]) == 64
        assert "started" in manifest and "finished" in manifest
        assert manifest["model_config"]["dim"] == 8
        assert manifest["parameters"] > 0
        assert manifest["workers"] == nn.pool_size()
        assert manifest["blas_threads"] == nn.blas_threads()
        if nn.pool_size() == 2 and nn.blas_threads() is not None:
            assert manifest["blas_threads"] == 1  # the pool owns the cores
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            assert manifest[name] == os.environ.get(name), name

    def test_refuses_overwrite_without_force(self, run_dir, corpus_file):
        code = cli.main(
            ["train", "--data", str(corpus_file), "--out", str(run_dir), *TRAIN_FLAGS]
        )
        assert code == cli.EXIT_USAGE

    def test_determinism_across_runs(self, tmp_path, corpus_file, run_dir):
        out = tmp_path / "again"
        code = cli.main(["train", "--data", str(corpus_file), "--out", str(out), *TRAIN_FLAGS])
        assert code == cli.EXIT_OK
        assert (out / "checkpoint.bin").read_bytes() == (run_dir / "checkpoint.bin").read_bytes()
        strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
        assert strip((out / "trainlog.csv").read_text()) == strip(
            (run_dir / "trainlog.csv").read_text()
        )

    def test_missing_data_flag_is_usage_error(self, tmp_path):
        assert cli.main(["train", "--out", str(tmp_path / "x")]) == cli.EXIT_USAGE

    def test_missing_data_file_is_data_error(self, tmp_path):
        code = cli.main(
            ["train", "--data", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "y")]
        )
        assert code == cli.EXIT_DATA

    def test_source_is_the_package_checkout(self, tmp_path, monkeypatch):
        package = Path(cli.__file__).parent
        try:
            rev = subprocess.run(
                ["git", "-C", str(package), "rev-parse", "HEAD"], capture_output=True, text=True
            )
        except OSError:
            pytest.skip("git is not installed")
        if rev.returncode != 0:
            pytest.skip("the package is not in a git checkout")
        # the run starts outside any checkout, yet records the code's revision
        monkeypatch.chdir(tmp_path)
        assert cli._source_id() == rev.stdout.strip()

    def test_numeric_error_keeps_finished_epochs(self, tmp_path, corpus_file, capsys, monkeypatch):
        # the first batch of epoch 3 fails: epochs 1 and 2 stay on disk
        evaluated = []
        real_evaluate, real_loss = tr.evaluate, tr.loss_and_grads

        def counting_evaluate(*args, **kwargs):
            evaluated.append(1)
            return real_evaluate(*args, **kwargs)

        def failing_loss(*args, **kwargs):
            if len(evaluated) == 2:
                raise nn.NumericError("injected")
            return real_loss(*args, **kwargs)

        monkeypatch.setattr(tr, "evaluate", counting_evaluate)
        monkeypatch.setattr(tr, "loss_and_grads", failing_loss)
        out = tmp_path / "crash"
        code = cli.main(
            ["train", "--data", str(corpus_file), "--out", str(out), *TRAIN_FLAGS, "--epochs", "5"]
        )
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "epoch 3, batch 0: injected" in err and err.count("\n") == 1
        lines = (out / "trainlog.csv").read_text().splitlines()
        assert lines[0] == "epoch,ce,ortho,valid_ndcg20,seconds"
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]


class TestEval:
    def test_eval_trained_checkpoint(self, tmp_path, corpus_file, run_dir):
        out = tmp_path / "eval"
        code = cli.main(
            [
                "eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
                "--data", str(corpus_file), "--out", str(out),
            ]
        )
        assert code == cli.EXIT_OK
        assert (out / "report_test.csv").exists()
        assert "HR" in (out / "report_test.txt").read_text()

    def test_failed_report_write_keeps_previous_report(
        self, tmp_path, corpus_file, run_dir, capsys, monkeypatch
    ):
        out = tmp_path / "eval"
        argv = [
            "eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
            "--data", str(corpus_file), "--out", str(out), "--force",
        ]
        assert cli.main(argv) == cli.EXIT_OK
        before = (out / "report_test.csv").read_bytes()

        def failing_to_csv(self):
            raise OSError("disk full")

        # the report file is open for writing when its content fails
        monkeypatch.setattr(ev.EvalReport, "to_csv", failing_to_csv)
        assert cli.main(argv) == cli.EXIT_DATA
        assert_one_line_error(capsys)
        assert (out / "report_test.csv").read_bytes() == before
        assert not list(out.glob("*.tmp"))

    def test_non_finite_scores_are_numeric_error(self, tmp_path, corpus_file, nan_checkpoint, capsys):
        # a NaN target score compares neither greater nor equal to any
        # other, so it used to rank first and report HR = NDCG = 1
        out = tmp_path / "eval"
        code = cli.main(
            ["eval", "--checkpoint", str(nan_checkpoint), "--data", str(corpus_file), "--out", str(out)]
        )
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert "(batch 0, row 0): target score is not finite" in err
        assert not (out / "report_test.csv").exists()

    def test_nan_item_score_is_numeric_error(self, tmp_path, corpus_file, run_dir, capsys):
        # one item's NaN embedding makes its score NaN for every user whose
        # history lacks it; it used to drop out of their rankings unreported
        params, cfg, meta = load_checkpoint(run_dir / "checkpoint.bin")
        split = split_loo(load_corpus(corpus_file, min_interactions=3))
        first = {*split.prefixes[0], split.valid_targets[0], split.test_targets[0]}
        item = min(set(range(1, cfg.num_items + 1)) - first)
        params["emb"][item] = np.nan
        save_checkpoint(tmp_path / "nan_item.bin", params, cfg, meta=meta)
        out = tmp_path / "eval"
        code = cli.main(
            ["eval", "--checkpoint", str(tmp_path / "nan_item.bin"), "--data", str(corpus_file), "--out", str(out)]
        )
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert f"(batch 0, row 0): score of item {item} is NaN" in err
        assert not (out / "report_test.csv").exists()

    def test_non_finite_context_row_is_numeric_error(self, tmp_path, corpus_file, run_dir, capsys):
        # an infinite embedding row in the first user's context: the
        # frozen table holds its layer norm as NaN, and the user's scores
        params, cfg, meta = load_checkpoint(run_dir / "checkpoint.bin")
        split = split_loo(load_corpus(corpus_file, min_interactions=3))
        params["emb"][split.valid_targets[0], 0] = np.inf
        save_checkpoint(tmp_path / "inf_row.bin", params, cfg, meta=meta)
        out = tmp_path / "eval"
        code = cli.main(
            ["eval", "--checkpoint", str(tmp_path / "inf_row.bin"), "--data", str(corpus_file), "--out", str(out)]
        )
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert "(batch 0, row 0): target score is not finite" in err
        assert not (out / "report_test.csv").exists()

    def test_fresh_random_checkpoint_near_uniform(self, tmp_path):
        rng = np.random.default_rng(5)
        corpus = make_synthetic(500, 50, 6, rng)
        data_path = tmp_path / "synth50.txt"
        lines = [
            " ".join(str(v) for v in [user] + seq)
            for user, seq in zip(corpus.users, corpus.sequences)
        ]
        data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = ModelConfig(num_items=50, max_len=6, dim=8, layers=1, num_bases=3)
        ckpt = tmp_path / "random.bin"
        save_checkpoint(ckpt, init_params(cfg, rng), cfg, meta={"min_interactions": 3})
        out = tmp_path / "eval_random"
        code = cli.main(
            ["eval", "--checkpoint", str(ckpt), "--data", str(data_path), "--out", str(out)]
        )
        assert code == cli.EXIT_OK
        lines = (out / "report_test.csv").read_text().splitlines()
        hr10 = float([l for l in lines if l.startswith("HR,10")][0].split(",")[2])
        assert abs(hr10 - 0.2) <= 0.06

    def test_missing_checkpoint(self, tmp_path, corpus_file):
        out = tmp_path / "out"
        code = cli.main(
            [
                "eval", "--checkpoint", str(tmp_path / "missing.bin"),
                "--data", str(corpus_file), "--out", str(out),
            ]
        )
        assert code == cli.EXIT_DATA
        assert not out.exists()

    def test_directory_checkpoint_is_data_error(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "out"
        code = cli.main(
            [
                "eval", "--checkpoint", str(tmp_path),
                "--data", str(corpus_file), "--out", str(out),
            ]
        )
        assert code == cli.EXIT_DATA
        assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda header: header.pop("total_bytes"),
            lambda header: header["config"].update(unknown_key=1),
            lambda header: header["manifest"]["emb"].update(offset=10**6),
            lambda header: header["config"].update(ln_eps=1e-5),
            lambda header: header.update(meta=[]),
        ],
        ids=[
            "missing-total-bytes", "unknown-config-key", "offset-past-data",
            "retired-key-other-value", "meta-not-object",
        ],
    )
    def test_malformed_header_is_data_error(self, tmp_path, corpus_file, run_dir, capsys, edit):
        ckpt = tmp_path / "checkpoint.bin"
        ckpt.write_bytes((run_dir / "checkpoint.bin").read_bytes())
        rewrite_header(ckpt, edit)
        with pytest.raises(CheckpointError):
            load_checkpoint(ckpt)
        out = tmp_path / "out"
        code = cli.main(
            [
                "eval", "--checkpoint", str(ckpt),
                "--data", str(corpus_file), "--out", str(out),
            ]
        )
        assert code == cli.EXIT_DATA
        assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "value", ["x", None, True, 2.5], ids=["string", "null", "bool", "float"]
    )
    def test_non_integer_min_interactions_is_data_error(
        self, tmp_path, corpus_file, run_dir, capsys, value
    ):
        ckpt = tmp_path / "checkpoint.bin"
        ckpt.write_bytes((run_dir / "checkpoint.bin").read_bytes())
        rewrite_header(ckpt, lambda header: header["meta"].update(min_interactions=value))
        out = tmp_path / "out"
        code = cli.main(
            [
                "eval", "--checkpoint", str(ckpt),
                "--data", str(corpus_file), "--out", str(out),
            ]
        )
        assert code == cli.EXIT_DATA
        assert_one_line_error(capsys)
        assert not out.exists()

    def test_header_with_retired_keys_loads(self, tmp_path, run_dir):
        # checkpoints written while the layer-norm epsilon and the FFN
        # width were config fields carry them with these values
        ckpt = tmp_path / "checkpoint.bin"
        ckpt.write_bytes((run_dir / "checkpoint.bin").read_bytes())
        rewrite_header(ckpt, lambda header: header["config"].update(ln_eps=1e-12, ffn_hidden=None))
        params, cfg, meta = load_checkpoint(ckpt)
        want_params, want_cfg, want_meta = load_checkpoint(run_dir / "checkpoint.bin")
        assert cfg == want_cfg and meta == want_meta
        assert params.keys() == want_params.keys()
        for key, want in want_params.items():
            assert params[key].tobytes() == want.tobytes()

    def test_wrong_data_rejected(self, tmp_path, run_dir):
        other = tmp_path / "other.txt"
        other.write_text("1 1 2 3\n2 2 3 1\n3 3 1 2\n", encoding="utf-8")
        out = tmp_path / "out2"
        code = cli.main(
            [
                "eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
                "--data", str(other), "--out", str(out),
            ]
        )
        assert code == cli.EXIT_DATA
        assert not out.exists()


# One generated table of bad values for every numeric flag of every
# command: 0 and -1 where the flag's floor forbids them, a float for an
# integer flag, text that is no number, and nan and inf for a float flag
INT_FLAGS = {  # (command, flag): floor, or None where any integer is taken
    ("train", "--max-len"): 1,
    ("train", "--dim"): 1,
    ("train", "--layers"): 1,
    ("train", "--m"): 1,
    ("train", "--filter-order"): 0,
    ("train", "--epochs"): 1,
    ("train", "--batch"): 1,
    ("train", "--patience"): 1,
    ("train", "--seed"): 0,
    ("train", "--min-interactions"): None,
    ("eval", "--batch"): 1,
    ("bench", "--repeats"): 1,
    ("bench", "--batch"): 1,
    ("bench", "--seed"): 0,
}
FLOAT_FLAGS = {("train", "--alpha"): ["-1"], ("train", "--dropout"): ["-1", "1.0"], ("train", "--lr"): ["0", "-1"]}
BAD_ARGS = [
    (command, [flag, value])
    for (command, flag), floor in INT_FLAGS.items()
    for value in [v for v in ("0", "-1") if floor is not None and int(v) < floor] + ["1.5", "x"]
] + [
    (command, [flag, value])
    for (command, flag), below in FLOAT_FLAGS.items()
    for value in below + ["x", "nan", "inf"]
] + [("train", ["--m", "100", "--max-len", "10"])]


def command_argv(command, corpus_file, run_dir, out):
    """A run of `command` that succeeds as it stands."""
    if command == "train":
        return ["train", "--data", str(corpus_file), "--out", str(out), *TRAIN_FLAGS]
    extra = ["--data", str(corpus_file)] if command == "eval" else []
    return [command, "--checkpoint", str(run_dir / "checkpoint.bin"), "--out", str(out), *extra]


@pytest.mark.parametrize(
    ("command", "flags"), BAD_ARGS, ids=[" ".join([c, *f]) for c, f in BAD_ARGS]
)
def test_bad_flag_value_is_one_line_usage_error(tmp_path, corpus_file, run_dir, capsys, command, flags):
    out = tmp_path / "out"
    assert cli.main([*command_argv(command, corpus_file, run_dir, out), *flags]) == cli.EXIT_USAGE
    assert_one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    ("flags", "data", "code"),
    [
        (["--epochs", "0"], None, cli.EXIT_USAGE),
        # the model flags are checked with a placeholder item count first
        (["--max-len", "0"], b"1 4 x 6\n", cli.EXIT_USAGE),
    ],
    ids=["train-config-before-read", "model-config-before-read"],
)
def test_flag_checks_and_data_read_order(tmp_path, capsys, flags, data, code):
    path = tmp_path / "data.txt"
    if data is not None:
        path.write_bytes(data)
    out = tmp_path / "out"
    assert cli.main(["train", "--data", str(path), "--out", str(out), *flags]) == code
    assert_one_line_error(capsys)
    assert not out.exists()


def test_train_defaults_are_the_config_fields():
    args = cli._build_parser().parse_args(["train", "--data", "d.txt", "--out", "out"])
    for cls in (ModelConfig, TrainConfig):
        for field in dataclasses.fields(cls):
            if field.name != "num_items":
                assert getattr(args, field.name) == field.default, field.name
    assert args.min_interactions == MIN_INTERACTIONS


@pytest.mark.parametrize("command", ["train", "eval", "export-filters", "bench"])
def test_out_naming_a_file_is_usage_error(tmp_path, corpus_file, run_dir, capsys, command):
    out = tmp_path / "afile"
    out.write_text("kept\n", encoding="utf-8")
    assert cli.main(command_argv(command, corpus_file, run_dir, out)) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "--out" in err and err.count("\n") == 1 and "Traceback" not in err, err
    assert out.read_text(encoding="utf-8") == "kept\n"


# One table of data files the grammar rejects, each with the line that
# must be named: ids are ASCII decimal integers of at most 18 digits,
# separated by ASCII whitespace, items >= 1, each user on one line
BAD_DATA = {  # case: (file bytes, 1-based line reported, reason)
    "non-digit": (b"1 4 5 6\n2 4 x 6\n", 2, "non-integer token"),
    "plus-sign": (b"1 4 5 6\n2 4 +5 6\n", 2, "non-integer token"),
    "negative-user": (b"1 4 5 6\n\n-3 4 5 6\n", 3, "non-integer token"),
    "underscore": (b"1 4 1_000 6\n2 4 5 6\n", 1, "non-integer token"),
    "non-ascii-digit": ("1 4 5 6\n2 4 \u0665 6\n".encode(), 2, "non-integer token"),
    "non-ascii-space": ("1 4 5 6\r\n2 4\u00a05 6\r\n".encode(), 2, "non-integer token"),
    "19-digit-id": (b"1 4 5 6\n2 4 1000000000000000000 6\n", 2, "id longer than 18 digits"),
    "item-zero": (b"1 4 5 6\n2 4 0 6\n", 2, "item ids must be >= 1"),
    "duplicate-user": (b"1 4 5 6\n2 4 5 6\r1 4 5 6\n", 3, "duplicate user 1"),
    "non-utf8": (b"1 \xff\xfe 2 3 4 5\n2 1 2 3 4 5\n", 1, "not UTF-8 text"),
}


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("case", sorted(BAD_DATA))
def test_bad_data_file_is_one_line_data_error(tmp_path, capsys, command, case):
    text, line, reason = BAD_DATA[case]
    data = tmp_path / "data.txt"
    data.write_bytes(text)
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--data", str(data), "--out", str(out), *TRAIN_FLAGS]
    else:
        cfg = ModelConfig(num_items=5, max_len=6, dim=8, layers=1, num_bases=3)
        ckpt = tmp_path / "model.bin"
        save_checkpoint(ckpt, init_params(cfg, np.random.default_rng(0)), cfg)
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {data}:{line}: {reason}"), err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert not out.exists()


# One generated table of bad header values: two manifest entries' fields
# (`block0_b1` lies at offset 0, `emb_ln_g` last), total_bytes and every
# meta key `seqfilt train` writes, each crossed with every kind of bad
# value.  A kind is a function of the field's current value and of
# another entry's offset.
HEADER_FIELDS = [
    ("manifest", "block0_b1", "shape"),
    ("manifest", "block0_b1", "offset"),
    ("manifest", "emb_ln_g", "shape"),
    ("manifest", "emb_ln_g", "offset"),
    ("total_bytes",),
    ("meta", "data_sha256"),
    ("meta", "min_interactions"),
    ("meta", "seed"),
    ("meta", "alpha"),
]
BAD_VALUES = {
    "wrong-type": lambda current, offset: {"x": 1},
    "null": lambda current, offset: None,
    "nan": lambda current, offset: float("nan"),
    "inf": lambda current, offset: float("inf"),
    "-inf": lambda current, offset: float("-inf"),
    "negative": lambda current, offset: -1,
    "empty": lambda current, offset: "",
    "huge": lambda current, offset: 2**64,
    # false where the value is 0, which Python's 0 == False would pass
    "bool": lambda current, offset: bool(current),
    "numeric-string": lambda current, offset: str(
        current if isinstance(current, (int, float)) else offset
    ),
    # for `emb_ln_g`'s offset: an alias of `emb_ln_b`, in bounds
    "other-offset": lambda current, offset: offset,
}
# cells whose value the meta table accepts: any integer is a
# min_interactions, and a seed or an alpha has no upper bound
IN_RANGE = {
    (("meta", "min_interactions"), "negative"),
    (("meta", "min_interactions"), "huge"),
    (("meta", "min_interactions"), "other-offset"),
    (("meta", "seed"), "huge"),
    (("meta", "seed"), "other-offset"),
    (("meta", "alpha"), "huge"),
    (("meta", "alpha"), "other-offset"),
}
HEADER_CELLS = [
    (field, kind, command)
    for field in HEADER_FIELDS
    for kind in BAD_VALUES
    for command in ("eval", "export-filters", "bench")
]


def cell_id(value):
    return ".".join(value) if isinstance(value, tuple) else value


def set_field(header, field, kind):
    """Give `header` the `kind` value at the key path `field`; returns it."""
    *path, last = field
    node = header
    for key in path:
        node = node[key]
    node[last] = BAD_VALUES[kind](node[last], header["manifest"]["emb_ln_b"]["offset"])
    return node[last]


class TestBrokenCheckpoint:
    @pytest.mark.parametrize("command", ["eval", "export-filters", "bench"])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda header: header["manifest"]["emb"].pop("offset"),
            lambda header: header["manifest"]["emb"].pop("shape"),
            lambda header: header["manifest"].pop("emb"),
            lambda header: header["manifest"]["emb"].update(shape=[3, 4]),
        ],
        ids=["entry-without-offset", "entry-without-shape", "missing-parameter", "wrong-shape"],
    )
    def test_malformed_manifest_is_data_error(
        self, tmp_path, corpus_file, run_dir, capsys, command, edit
    ):
        ckpt = tmp_path / "checkpoint.bin"
        ckpt.write_bytes((run_dir / "checkpoint.bin").read_bytes())
        rewrite_header(ckpt, edit)
        with pytest.raises(CheckpointError):
            load_checkpoint(ckpt)
        out = tmp_path / "out"
        extra = ["--data", str(corpus_file)] if command == "eval" else []
        code = cli.main([command, "--checkpoint", str(ckpt), "--out", str(out), *extra])
        assert code == cli.EXIT_DATA
        assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "export-filters"])
    @pytest.mark.parametrize(
        "field", ["num_items", "max_len", "dim", "layers", "num_bases", "filter_order"]
    )
    def test_float_config_field_is_data_error(
        self, tmp_path, corpus_file, run_dir, capsys, command, field
    ):
        # a float equal to the trained integer still matches every array shape
        def to_float(header):
            config = header["config"]
            config[field] = float(config["max_len"] if config[field] is None else config[field])

        ckpt = tmp_path / "checkpoint.bin"
        ckpt.write_bytes((run_dir / "checkpoint.bin").read_bytes())
        rewrite_header(ckpt, to_float)
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(ckpt)
        out = tmp_path / "out"
        extra = ["--data", str(corpus_file)] if command == "eval" else []
        code = cli.main([command, "--checkpoint", str(ckpt), "--out", str(out), *extra])
        assert code == cli.EXIT_DATA
        assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        ("field", "kind", "command"),
        [cell for cell in HEADER_CELLS if cell[:2] not in IN_RANGE],
        ids=cell_id,
    )
    def test_bad_header_value_is_data_error(
        self, tmp_path, corpus_file, run_dir, capsys, field, kind, command
    ):
        ckpt = tmp_path / "checkpoint.bin"
        ckpt.write_bytes((run_dir / "checkpoint.bin").read_bytes())
        rewrite_header(ckpt, lambda header: set_field(header, field, kind))
        name = field[1] if field[0] == "manifest" else field[-1]
        with pytest.raises(CheckpointError, match=name):
            load_checkpoint(ckpt)
        out = tmp_path / "out"
        extra = ["--data", str(corpus_file)] if command == "eval" else []
        code = cli.main([command, "--checkpoint", str(ckpt), "--out", str(out), *extra])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err and name in err, err
        assert not out.exists()

    @pytest.mark.parametrize(("field", "kind"), sorted(IN_RANGE), ids=cell_id)
    def test_in_range_meta_value_loads(self, tmp_path, run_dir, field, kind):
        ckpt = tmp_path / "checkpoint.bin"
        ckpt.write_bytes((run_dir / "checkpoint.bin").read_bytes())
        values = []
        rewrite_header(ckpt, lambda header: values.append(set_field(header, field, kind)))
        meta = load_checkpoint(ckpt)[2]
        assert meta[field[-1]] == values[0] and type(meta[field[-1]]) is type(values[0])

    @pytest.mark.parametrize("command", ["eval", "export-filters", "bench"])
    def test_bad_magic_leaves_no_output(self, tmp_path, corpus_file, capsys, command):
        ckpt = tmp_path / "checkpoint.bin"
        ckpt.write_bytes(b"not a checkpoint\n")
        out = tmp_path / "out"
        extra = ["--data", str(corpus_file)] if command == "eval" else []
        code = cli.main([command, "--checkpoint", str(ckpt), "--out", str(out), *extra])
        assert code == cli.EXIT_DATA
        assert_one_line_error(capsys)
        assert not out.exists()


class TestExportFilters:
    def test_csv_dimensions_and_determinism(self, tmp_path, run_dir):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = cli.main(
                ["export-filters", "--checkpoint", str(run_dir / "checkpoint.bin"), "--out", str(out)]
            )
            assert code == cli.EXIT_OK
        text = (out_a / "filters_layer0.csv").read_text()
        rows = text.strip().splitlines()
        assert len(rows) == 6  # max_len
        assert len(rows[0].split(",")) == 7  # order + 1
        assert text == (out_b / "filters_layer0.csv").read_text()

    def test_identity_taps_export(self, tmp_path):
        cfg = ModelConfig(num_items=5, max_len=4, dim=4, layers=1, num_bases=3, filter_order=2)
        rng = np.random.default_rng(0)
        params = init_params(cfg, rng)
        coef = np.zeros((4, 3))
        coef[:, 0] = 1.0
        basis = np.zeros((3, 3))
        basis[:, 0] = 1.0
        params["block0_coef"] = coef
        params["block0_basis_re"] = basis
        params["block0_basis_im"] = np.zeros_like(basis)
        ckpt = tmp_path / "identity.bin"
        save_checkpoint(ckpt, params, cfg)
        out = tmp_path / "export"
        assert cli.main(["export-filters", "--checkpoint", str(ckpt), "--out", str(out)]) == 0
        rows = (out / "filters_layer0.csv").read_text().strip().splitlines()
        for row in rows:
            values = [float(v) for v in row.split(",")]
            assert values[0] == 1.0 and all(v == 0.0 for v in values[1:])


    @pytest.mark.parametrize("mode", ["causal", "circular"])
    def test_export_rebuilds_frozen_operator(self, tmp_path, mode):
        # order above max_len, so circular mode sums wrapped taps
        cfg = ModelConfig(
            num_items=5, max_len=4, dim=4, layers=2, num_bases=3, filter_order=6, filter_mode=mode
        )
        params = init_params(cfg, np.random.default_rng(3))
        ckpt = tmp_path / "model.bin"
        save_checkpoint(ckpt, params, cfg)
        out = tmp_path / "export"
        assert cli.main(["export-filters", "--checkpoint", str(ckpt), "--out", str(out)]) == 0
        for layer, op in enumerate(freeze_filters(params, cfg)):
            taps = np.loadtxt(out / f"filters_layer{layer}.csv", delimiter=",", ndmin=2)
            if mode == "causal":
                rebuilt = sp.precompute_operator(4, 6, taps)
            else:
                rebuilt = np.zeros((4, 4))
                for i in range(4):
                    for k in range(7):
                        rebuilt[i, (i - k) % 4] += taps[i, k]
            assert np.abs(rebuilt - op).max() <= 1e-15


class TestBench:
    def test_bench_small(self, tmp_path, run_dir):
        out = tmp_path / "bench"
        code = cli.main(
            [
                "bench", "--checkpoint", str(run_dir / "checkpoint.bin"),
                "--repeats", "2", "--batch", "32", "--out", str(out),
            ]
        )
        assert code == cli.EXIT_OK
        text = (out / "bench.csv").read_text()
        assert "speedup" in text and "unfrozen" in text

    def test_non_finite_scores_fail_the_equivalence_gate(self, tmp_path, nan_checkpoint, capsys):
        out = tmp_path / "bench"
        code = cli.main(["bench", "--checkpoint", str(nan_checkpoint), "--repeats", "1", "--out", str(out)])
        assert code == cli.EXIT_NUMERIC
        assert_one_line_error(capsys)
        assert not (out / "bench.csv").exists()
