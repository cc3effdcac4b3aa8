"""End-to-end command-line behavior, exit codes, and output files."""

import errno
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_model, write_idx_pair
from qocnn import cli, data, fileio, layers, metrics, model as model_mod, training
from qocnn import __main__ as qocnn_main, blas_threads
from qocnn.__main__ import BLAS_VARS
from test_conv import dense_m_f
from test_metrics import roc_by_threshold_loop, roc_vertex_oracle
from test_training import negative_seed_checkpoint


SRC = str(Path(cli.__file__).resolve().parents[1])


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def train_args(files, out_dir, extra=()):
    return [
        "train",
        "--train-images", str(files["train_images"]),
        "--train-labels", str(files["train_labels"]),
        "--test-images", str(files["test_images"]),
        "--test-labels", str(files["test_labels"]),
        "--out-dir", str(out_dir),
        *extra,
    ]


@pytest.fixture(scope="module")
def trained_run(synth_idx_files, tmp_path_factory):
    """One qonn training run shared by the evaluate/export tests."""
    out_dir = tmp_path_factory.mktemp("run")
    code = cli.main(
        train_args(
            synth_idx_files,
            out_dir,
            extra=["--arch", "qonn", "--epochs", "2", "--seed", "3"],
        )
    )
    assert code == 0
    return out_dir


def evaluate_args(files, checkpoint, out_dir):
    return [
        "evaluate",
        "--checkpoint", str(checkpoint),
        "--test-images", str(files["test_images"]),
        "--test-labels", str(files["test_labels"]),
        "--out-dir", str(out_dir),
    ]


def relabelled_checkpoint(run_dir, tmp_path, arch):
    """A copy of the run's checkpoint whose architecture id says `arch`."""
    blob = bytearray((run_dir / "model.ckpt").read_bytes())
    blob[8:12] = model_mod.ARCHITECTURES.index(arch).to_bytes(4, "little")
    path = tmp_path / "relabelled.ckpt"
    path.write_bytes(bytes(blob))
    return path


def kind_flipped_checkpoint(tmp_path):
    """A default onn checkpoint with bit 0 of byte 32, the first layer's
    kind id, flipped: complex_linear becomes sinusoid, which has no lam."""
    path = tmp_path / "flipped.ckpt"
    training.save_checkpoint(model_mod.new_model("onn", seed=4), path)
    blob = bytearray(path.read_bytes())
    blob[32] ^= 0x01
    path.write_bytes(bytes(blob))
    return path


def idx_split(dirpath, labels):
    """IDX files of blank images with these labels, keyed like synth_idx_files."""
    labels = np.asarray(labels, dtype=np.uint8)
    images = np.zeros((labels.size, 28, 28), dtype=np.uint8)
    return dict(zip(["images", "labels"], write_idx_pair(dirpath, images, labels, "split")))


def forbid_predict(monkeypatch):
    def forbidden(*args):
        raise AssertionError("predicted before checking the data")

    monkeypatch.setattr(training, "predict_log_probs", forbidden)


KIND_FLIP_ERROR = "error: checkpoint layer 0 (sinusoid) is invalid: sinusoid requires a finite lam > 0\n"


class TestEstimate:
    def test_headline_numbers(self, capsys):
        code, out, _ = run(
            ["estimate", "--layers", "10", "--n", "10000", "--batch", "200"], capsys
        )
        assert code == 0
        assert "classical_ops = 200000000000" in out
        assert "quantum_ops = 1020000000" in out
        assert "classical_params = 1000000000" in out
        assert "qubit_estimate = 220" in out
        assert "input_qubits_mnist = 392" in out
        speedup = float(out.split("speedup = ")[1].splitlines()[0])
        assert 190 <= speedup <= 200

    def test_trivial_case(self, capsys):
        code, out, _ = run(
            ["estimate", "--layers", "1", "--n", "1", "--batch", "1"], capsys
        )
        assert code == 0
        assert "classical_ops = 1" in out
        assert "quantum_ops = 2" in out

    def test_nonpositive_rejected(self, capsys):
        code, _, err = run(
            ["estimate", "--layers", "0", "--n", "5", "--batch", "5"], capsys
        )
        assert code == 2
        assert "L" in err

    def test_missing_parameter_rejected(self, capsys):
        code, _, err = run(["estimate", "--layers", "3"], capsys)
        assert code == 2
        assert "--n" in err

    def test_sweep_file(self, tmp_path, capsys):
        sweep = tmp_path / "sweep_in.csv"
        sweep.write_text("L,n,b\n1,1,1\n10,10000,200\n2,3,4\n")
        code, out, _ = run(
            ["estimate", "--sweep", str(sweep), "--out-dir", str(tmp_path)], capsys
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        assert "wrote 3 rows" in out

    def test_sweep_missing_columns(self, tmp_path, capsys):
        sweep = tmp_path / "bad.csv"
        sweep.write_text("L,n\n1,1\n")
        code, _, err = run(["estimate", "--sweep", str(sweep)], capsys)
        assert code == 2
        assert "b" in err


    def test_sweep_to_an_out_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        sweep = tmp_path / "sweep_in.csv"
        sweep.write_text("L,n,b\n1,1,1\n")
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        argv = ["estimate", "--sweep", str(sweep), "--out-dir", str(taken)]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --out-dir {taken} exists and is not a directory\n"
        assert taken.read_text() == "not a directory"

    def test_sweep_csv_that_is_a_directory_exits_2(self, tmp_path, capsys):
        sweep = tmp_path / "sweep_in.csv"
        sweep.write_text("L,n,b\n1,1,1\n")
        (tmp_path / "out" / "sweep.csv").mkdir(parents=True)
        argv = ["estimate", "--sweep", str(sweep), "--out-dir", str(tmp_path / "out")]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        want = tmp_path / "out" / "sweep.csv"
        assert err == f"error: cannot write outputs: {want} is a directory\n"

    @pytest.mark.parametrize(
        "rows, where",
        [("1,1,1\n2,x,3\n", ":3: column n: 'x'"), ("1,1,0\n", ":2: column b: '0'"),
         ("1,1\n", ":2: column b: None")],
        ids=["not-a-number", "zero", "short-row"],
    )
    def test_bad_sweep_cell_names_file_line_and_column(self, rows, where, tmp_path, capsys):
        sweep = tmp_path / "sweep_in.csv"
        sweep.write_text("L,n,b\n" + rows)
        code, out, err = run(["estimate", "--sweep", str(sweep)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {sweep}{where} is not a positive integer\n"

    def test_sweep_directory_exits_2(self, tmp_path, capsys):
        code, out, err = run(["estimate", "--sweep", str(tmp_path)], capsys)
        assert (code, out, err) == (2, "", f"error: --sweep {tmp_path} is a directory\n")

    def test_sweep_from_a_pipe(self, tmp_path, capsys):
        fifo = tmp_path / "sweep.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=("L,n,b\n1,1,1\n",))
        writer.start()
        try:
            code, out, _ = run(["estimate", "--sweep", str(fifo)], capsys)
        finally:
            if writer.is_alive():  # release a writer whose reader never came
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert code == 0
        assert out.splitlines()[1].startswith("1,1,1,")


class TestTrain:
    def test_missing_file_exits_2(self, synth_idx_files, tmp_path, capsys):
        args = train_args(synth_idx_files, tmp_path)
        args[2] = str(tmp_path / "nope-images")
        code, _, err = run(args, capsys)
        assert code == 2
        assert "nope-images" in err

    def test_missing_flag_exits_2(self, tmp_path, capsys):
        code, _, err = run(["train", "--out-dir", str(tmp_path)], capsys)
        assert code == 2
        assert "--train-images" in err

    def test_writes_outputs_and_echoes_lambda(
        self, synth_idx_files, tmp_path, capsys
    ):
        code, out, _ = run(
            train_args(
                synth_idx_files, tmp_path, extra=["--epochs", "1", "--seed", "0"]
            ),
            capsys,
        )
        assert code == 0
        assert (tmp_path / "model.ckpt").exists()
        assert (tmp_path / "history.csv").exists()
        run_log = (tmp_path / "run.log").read_text()
        assert "lam = 0.2" in run_log  # default echoed
        assert "arch = qonn" in run_log
        assert "final test accuracy" in out

    def test_run_log_config_lines_are_sorted_by_key(
        self, synth_idx_files, trained_run, tmp_path, capsys
    ):
        """run.log's config block is part of the output contract: `command`,
        then every key in sorted order, then `blas_threads`."""
        args = evaluate_args(synth_idx_files, trained_run / "model.ckpt", tmp_path)
        assert run(args, capsys)[0] == 0
        for out_dir, command in ((trained_run, "train"), (tmp_path, "evaluate")):
            lines = (out_dir / "run.log").read_text().splitlines()
            end = next(i for i, line in enumerate(lines) if line.startswith("blas_threads = "))
            keys = [line.split(" = ")[0] for line in lines[1:end]]
            assert lines[0] == f"command = {command}"
            assert len(keys) >= 5 and keys == sorted(keys)

    def test_deterministic_given_seed(self, synth_idx_files, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        extra = ["--epochs", "2", "--seed", "9", "--arch", "qonn"]
        assert cli.main(train_args(synth_idx_files, d1, extra)) == 0
        assert cli.main(train_args(synth_idx_files, d2, extra)) == 0
        capsys.readouterr()
        assert (d1 / "history.csv").read_bytes() == (d2 / "history.csv").read_bytes()
        assert (d1 / "model.ckpt").read_bytes() == (d2 / "model.ckpt").read_bytes()

    def test_divergence_exits_3(self, synth_idx_files, tmp_path, capsys):
        code, _, err = run(
            train_args(
                synth_idx_files,
                tmp_path,
                extra=["--lr", "1e6", "--optimizer", "sgd", "--epochs", "1"],
            ),
            capsys,
        )
        assert code == 3
        assert "diverged" in err

    @pytest.mark.parametrize(
        "arch,first,last",
        [("onn", "layer 3 (mod_squared)", 4), ("qocnn", "layer 4 (complex_linear)", 6)],
        ids=["onn", "qocnn"],
    )
    def test_non_finite_activation_exits_3(
        self, arch, first, last, synth_idx_files, tmp_path, capsys
    ):
        extra = ["--arch", arch, "--optimizer", "sgd", "--lr", "1e100", "--epochs", "1"]
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run(train_args(synth_idx_files, tmp_path, extra), capsys)
        assert (code, err) == (
            3,
            f"error: training diverged at epoch 1, batch 1: {first} is the first "
            f"to output inf or NaN; layer {last} (log_softmax): log_softmax "
            f"requires finite entries\n",
        )

    @pytest.mark.parametrize("arch", ["onn", "qocnn"])
    def test_non_finite_activation_issues_no_warning(
        self, arch, synth_idx_files, tmp_path, capsys
    ):
        extra = ["--arch", arch, "--optimizer", "sgd", "--lr", "1e100", "--epochs", "1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(train_args(synth_idx_files, tmp_path, extra), capsys)
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: training diverged")
        assert [str(w.message) for w in caught] == []

    def test_divergence_leaves_run_log_only(self, synth_idx_files, tmp_path, capsys):
        out_dir = tmp_path / "out"
        extra = ["--arch", "onn", "--optimizer", "sgd", "--lr", "1e100", "--epochs", "1"]
        code, out, err = run(train_args(synth_idx_files, out_dir, extra), capsys)
        assert code == 3
        assert sorted(p.name for p in out_dir.iterdir()) == ["run.log"]
        log = (out_dir / "run.log").read_text().splitlines()
        assert log[0] == "command = train" and "arch = onn" in log
        assert log[-1] == err.strip()  # the error line ends the record
        assert log[:-1] == out.splitlines()  # every line printed so far

    def test_out_dir_that_is_a_file_exits_2(self, synth_idx_files, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        code, out, err = run(train_args(synth_idx_files, taken), capsys)
        assert code == 2
        assert err == f"error: --out-dir {taken} exists and is not a directory\n"
        assert "epoch" not in out  # refused before training
        assert taken.read_text() == "not a directory"

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--arch", "qocnn", "--pool-p", "0"], "pooling stride p must be >= 1, got 0"),
            (["--seed=-1"], "seed must lie in 0..2**63-1, got -1"),
            (
                ["--seed", str(2**63)],
                "seed must lie in 0..2**63-1, got 9223372036854775808",
            ),
            (
                ["--arch", "qocnn", "--pool-p", str(2**32)],
                "pooling stride 4294967296 exceeds input length 392",
            ),
            (
                ["--arch", "qocnn", "--conv-s", "100000000"],
                "stepsize 100000000 exceeds input length 392",
            ),
        ],
        ids=["pool-p", "seed", "seed-2**63", "pool-p-2**32", "conv-s-1e8"],
    )
    def test_bad_integer_option_exits_2(
        self, extra, message, synth_idx_files, tmp_path, capsys
    ):
        code, out, err = run(train_args(synth_idx_files, tmp_path / "out", extra), capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")  # before any data load
        assert not (tmp_path / "out").exists()

    def test_unwritable_checkpoint_exits_2(self, synth_idx_files, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        extra = ["--epochs", "1", "--checkpoint", str(taken / "model.ckpt")]
        code, out, err = run(train_args(synth_idx_files, tmp_path / "out", extra), capsys)
        assert (code, out) == (2, "")  # refused before training
        assert err.startswith("error: cannot write outputs: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("target", ["checkpoint-dir", "out-dir-under-file"])
    def test_unwritable_output_exits_2_before_training(
        self, target, synth_idx_files, tmp_path, capsys
    ):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        if target == "checkpoint-dir":
            argv = train_args(synth_idx_files, tmp_path / "out", ["--checkpoint", str(tmp_path)])
            want = f"error: --checkpoint {tmp_path} is a directory\n"
        else:
            argv = train_args(synth_idx_files, taken / "sub")
            want = (
                f"error: cannot write outputs: --out-dir {taken / 'sub'}: "
                f"{taken} is not a directory\n"
            )
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", want)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    @pytest.mark.parametrize("name", ["model.ckpt", "history.csv", "run.log"])
    def test_derived_output_that_is_a_directory_exits_2_before_training(
        self, name, synth_idx_files, tmp_path, capsys
    ):
        out_dir = tmp_path / "out"
        (out_dir / name).mkdir(parents=True)
        code, out, err = run(train_args(synth_idx_files, out_dir, ["--epochs", "1"]), capsys)
        assert (code, out) == (2, "")  # no epoch line: refused before training
        assert err == f"error: cannot write outputs: {out_dir / name} is a directory\n"
        assert [p.name for p in out_dir.iterdir()] == [name]

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_empty_split_exits_2_naming_its_file(self, split, synth_idx_files, tmp_path, capsys):
        empty = idx_split(tmp_path, [])
        files = {**synth_idx_files, f"{split}_images": empty["images"],
                 f"{split}_labels": empty["labels"]}
        code, _, err = run(train_args(files, tmp_path / "out"), capsys)
        assert (code, err) == (2, f"error: --{split}-images {empty['images']} holds no images\n")
        assert not (tmp_path / "out").exists()

    def test_divergence_with_an_unwritable_run_log_exits_3(
        self, synth_idx_files, tmp_path, capsys, monkeypatch
    ):
        """run.log becomes a directory while the run trains, after the
        output checks."""
        out_dir = tmp_path / "out"
        real_train = training.train

        def train_then_take_run_log(*args, **kwargs):
            (out_dir / "run.log").mkdir(parents=True)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(training, "train", train_then_take_run_log)
        extra = ["--arch", "onn", "--optimizer", "sgd", "--lr", "1e100", "--epochs", "1"]
        code, _, err = run(train_args(synth_idx_files, out_dir, extra), capsys)
        assert code == 3 and len(err.splitlines()) == 1
        assert err.startswith("error: training diverged at epoch 1, batch 1: ")
        assert err.endswith(
            f"; cannot write outputs: [Errno 21] Is a directory: '{out_dir / 'run.log'}'\n"
        )

    def test_config_file_precedence(self, synth_idx_files, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "epochs = 1\n"
            "lambda = 0.3\n"
            "seed = 4\n"
            "batch-size = 32\n"
        )
        code, _, _ = run(
            train_args(
                synth_idx_files,
                tmp_path,
                extra=["--config", str(cfg), "--seed", "7"],
            ),
            capsys,
        )
        assert code == 0
        log = (tmp_path / "run.log").read_text()
        assert "epochs = 1" in log  # config beats default
        assert "lam = 0.3" in log  # lambda alias accepted
        assert "batch_size = 32" in log
        assert "seed = 7" in log  # flag beats config

    @pytest.mark.parametrize(
        "line, error",
        [
            ("arch = onnx", "config key 'arch': 'onnx' is not one of onn, qonn, qocnn"),
            ("optimizer = adamw", "config key 'optimizer': 'adamw' is not one of sgd, adam"),
            ("epochs 3", "{cfg}:1: expected key = value"),
            ("epochs = x", "config key 'epochs': cannot parse 'x' as int"),
            ("lr = fast", "config key 'lr': cannot parse 'fast' as float"),
        ],
        ids=["arch", "optimizer", "no_equals", "int", "float"],
    )
    def test_config_value_outside_choices_exits_2(
        self, line, error, synth_idx_files, tmp_path, capsys
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(
            train_args(synth_idx_files, tmp_path / "out", extra=["--config", str(cfg)]),
            capsys,
        )
        assert code == 2
        assert err == f"error: {error.format(cfg=cfg)}\n"
        assert out == ""  # refused before any config line is printed

    def test_missing_config_file_exits_2(self, synth_idx_files, tmp_path, capsys):
        cfg = tmp_path / "missing.cfg"
        code, out, err = run(
            train_args(synth_idx_files, tmp_path / "out", extra=["--config", str(cfg)]),
            capsys,
        )
        assert code == 2
        assert err == f"error: no such config file: {cfg}\n"
        assert out == ""

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "key,value,arch,names",
        [
            ("lr", "nan", "qonn", "learning_rate"),
            ("lr", "inf", "qocnn", "learning_rate"),
            ("lambda", "nan", "qocnn", "lam"),
            ("lambda", "inf", "qonn", "lam"),
        ],
    )
    def test_non_finite_rate_exits_2(
        self, source, key, value, arch, names, synth_idx_files, tmp_path, capsys
    ):
        if source == "flag":
            extra = [f"--{key}", value]
        else:
            cfg = tmp_path / "rate.cfg"
            cfg.write_text(f"{key} = {value}\n")
            extra = ["--config", str(cfg)]
        code, _, err = run(
            train_args(synth_idx_files, tmp_path / "out", extra=["--arch", arch, *extra]),
            capsys,
        )
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and names in err
        assert not (tmp_path / "out" / "run.log").exists()

    def test_config_directory_exits_2(self, tmp_path, capsys):
        argv = ["estimate", "--config", str(tmp_path), "--layers", "1", "--n", "1", "--batch", "1"]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_unknown_config_key_exits_2(self, synth_idx_files, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("momentum = 0.9\n")
        code, _, err = run(
            train_args(synth_idx_files, tmp_path, extra=["--config", str(cfg)]),
            capsys,
        )
        assert code == 2
        assert "momentum" in err


class TestEvaluate:
    def test_reproduces_training_accuracy_exactly(self, synth_idx_files, trained_run, tmp_path, capsys):
        history = (trained_run / "history.csv").read_text().strip().splitlines()
        final_acc = float(history[-1].split(",")[-1])
        code, out, _ = run(
            [
                "evaluate",
                "--checkpoint", str(trained_run / "model.ckpt"),
                "--test-images", str(synth_idx_files["test_images"]),
                "--test-labels", str(synth_idx_files["test_labels"]),
                "--out-dir", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        metrics_rows = dict(
            line.split(",")
            for line in (tmp_path / "metrics.csv").read_text().strip().splitlines()[1:]
        )
        assert float(metrics_rows["accuracy"]) == pytest.approx(final_acc, abs=5e-11)
        assert f"accuracy: {final_acc:.4f}" in out

    @pytest.mark.parametrize(
        "name", ["run.log", "confusion.csv", "metrics.csv", "auc_summary.csv", "roc_class_9.csv"]
    )
    def test_derived_output_that_is_a_directory_exits_2_before_predicting(
        self, name, synth_idx_files, trained_run, tmp_path, capsys, monkeypatch
    ):
        def forbidden(*args):
            raise AssertionError("predicted before checking the outputs")

        monkeypatch.setattr(training, "predict_log_probs", forbidden)
        (tmp_path / name).mkdir()
        args = evaluate_args(synth_idx_files, trained_run / "model.ckpt", tmp_path)
        code, out, err = run(args, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write outputs: {tmp_path / name} is a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_output_files_complete(self, synth_idx_files, trained_run, tmp_path, capsys):
        code, _, _ = run(
            [
                "evaluate",
                "--checkpoint", str(trained_run / "model.ckpt"),
                "--test-images", str(synth_idx_files["test_images"]),
                "--test-labels", str(synth_idx_files["test_labels"]),
                "--out-dir", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        confusion = (tmp_path / "confusion.csv").read_text().strip().splitlines()
        assert len(confusion) == 11
        # row sums equal the per-class label counts of the test set
        labels = data.load_idx_labels(Path(synth_idx_files["test_labels"]).read_bytes())
        for t in range(10):
            row_sum = sum(int(v) for v in confusion[t + 1].split(",")[1:])
            assert row_sum == int((labels == t).sum())
        auc_rows = (tmp_path / "auc_summary.csv").read_text().strip().splitlines()
        assert len(auc_rows) == 11
        for c in range(10):
            assert (tmp_path / f"roc_class_{c}.csv").exists()

    def test_arch_mismatch_exits_4(self, synth_idx_files, trained_run, tmp_path, capsys):
        code, _, err = run(
            [
                "evaluate",
                "--arch", "onn",
                "--checkpoint", str(trained_run / "model.ckpt"),
                "--test-images", str(synth_idx_files["test_images"]),
                "--test-labels", str(synth_idx_files["test_labels"]),
                "--out-dir", str(tmp_path),
            ],
            capsys,
        )
        assert code == 4
        assert "qonn" in err and "onn" in err

    def test_config_arch_outside_choices_exits_2(
        self, synth_idx_files, trained_run, tmp_path, capsys
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("arch = onnx\n")
        argv = evaluate_args(synth_idx_files, trained_run / "model.ckpt", tmp_path / "out")
        code, out, err = run(argv + ["--config", str(cfg)], capsys)
        assert code == 2
        assert err == "error: config key 'arch': 'onnx' is not one of onn, qonn, qocnn\n"
        assert out == ""

    def test_corrupt_checkpoint_exits_4(self, synth_idx_files, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        code, _, err = run(
            [
                "evaluate",
                "--checkpoint", str(bad),
                "--test-images", str(synth_idx_files["test_images"]),
                "--test-labels", str(synth_idx_files["test_labels"]),
                "--out-dir", str(tmp_path),
            ],
            capsys,
        )
        assert code == 4
        assert "magic" in err

    def test_invalid_layer_exits_4(self, synth_idx_files, tmp_path, capsys):
        bad = kind_flipped_checkpoint(tmp_path)
        args = evaluate_args(synth_idx_files, bad, tmp_path / "out")
        code, out, err = run(args, capsys)
        assert (code, out, err) == (4, "", KIND_FLIP_ERROR)
        assert not (tmp_path / "out").exists()

    def test_negative_seed_checkpoint_exits_4(self, synth_idx_files, tmp_path, capsys):
        good = tmp_path / "good.ckpt"
        training.save_checkpoint(tiny_model("onn"), good)
        bad = tmp_path / "negative-seed.ckpt"
        bad.write_bytes(negative_seed_checkpoint(good.read_bytes()))
        code, out, err = run(evaluate_args(synth_idx_files, bad, tmp_path / "out"), capsys)
        assert (code, out) == (4, "")
        assert err == "error: checkpoint model is invalid: seed must lie in 0..2**63-1, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_relabelled_checkpoint_exits_4(self, synth_idx_files, trained_run, tmp_path, capsys):
        bad = relabelled_checkpoint(trained_run, tmp_path, "onn")
        code, _, err = run(
            [
                "evaluate",
                "--checkpoint", str(bad),
                "--test-images", str(synth_idx_files["test_images"]),
                "--test-labels", str(synth_idx_files["test_labels"]),
                "--out-dir", str(tmp_path / "out"),
            ],
            capsys,
        )
        assert code == 4
        assert err.startswith("error: checkpoint labelled onn holds layers complex_linear, sinusoid")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("arch,first", [("onn", "layer 2 (complex_linear)"),
                                            ("qocnn", "layer 0 (quantum_conv)")])
    def test_non_finite_activations_name_the_first_layer(
        self, arch, first, synth_idx_files, tmp_path, capsys
    ):
        """Weights scaled by 1e200 overflow; the 256 test rows are several chunks."""
        m = model_mod.new_model(arch, seed=5)
        for p in m.params:
            for arr in p.values():
                arr *= 1e200
        training.save_checkpoint(m, tmp_path / "big.ckpt")
        args = evaluate_args(synth_idx_files, tmp_path / "big.ckpt", tmp_path / "out")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(args, capsys)
        assert code == 4
        assert err.startswith(
            f"error: checkpoint gives non-finite activations on rows "
            f"0..{training.PREDICT_CHUNK - 1}: "
            f"{first} is the first to output inf or NaN; layer "
        )
        assert "(log_softmax): log_softmax requires finite entries" in err
        assert len(err.splitlines()) == 1
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "out").exists()

    def test_empty_split_exits_2_naming_its_file(
        self, trained_run, tmp_path, capsys, monkeypatch
    ):
        forbid_predict(monkeypatch)
        empty = idx_split(tmp_path, [])
        files = {"test_images": empty["images"], "test_labels": empty["labels"]}
        args = evaluate_args(files, trained_run / "model.ckpt", tmp_path / "out")
        code, out, err = run(args, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --test-images {empty['images']} holds no images\n"
        assert not (tmp_path / "out").exists()

    def test_label_beyond_the_checkpoint_classes_exits_4(
        self, synth_idx_files, tmp_path, capsys, monkeypatch
    ):
        forbid_predict(monkeypatch)
        training.save_checkpoint(model_mod.new_model("onn", classes=3), tmp_path / "m.ckpt")
        args = evaluate_args(synth_idx_files, tmp_path / "m.ckpt", tmp_path / "out")
        code, out, err = run(args, capsys)
        assert (code, out) == (4, "")
        assert err == (
            f"error: checkpoint incompatible with dataset: --test-labels "
            f"{synth_idx_files['test_labels']} holds label 9; the checkpoint "
            f"scores classes 0..2\n"
        )
        assert not (tmp_path / "out").exists()

    def test_label_equal_to_the_class_count_exits_4(self, tmp_path, capsys, monkeypatch):
        forbid_predict(monkeypatch)
        training.save_checkpoint(model_mod.new_model("onn", classes=3), tmp_path / "m.ckpt")
        split = idx_split(tmp_path, [0, 1, 2, 3] * 4)
        files = {"test_images": split["images"], "test_labels": split["labels"]}
        code, out, err = run(evaluate_args(files, tmp_path / "m.ckpt", tmp_path / "out"), capsys)
        assert (code, out) == (4, "")
        assert err == (
            f"error: checkpoint incompatible with dataset: --test-labels "
            f"{split['labels']} holds label 3; the checkpoint scores classes 0..2\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "labels,which,c",
        [(np.arange(50) % 9, "no", 9), (np.zeros(50), "every", 0)],
        ids=["no-row", "every-row"],
    )
    def test_class_in_no_row_or_every_row_exits_2_naming_it(
        self, labels, which, c, trained_run, tmp_path, capsys, monkeypatch
    ):
        forbid_predict(monkeypatch)
        split = idx_split(tmp_path, labels)
        files = {"test_images": split["images"], "test_labels": split["labels"]}
        args = evaluate_args(files, trained_run / "model.ckpt", tmp_path / "out")
        code, out, err = run(args, capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {which} row of --test-labels {split['labels']} is class {c}; "
            f"the ROC curve of class {c} needs rows in and out of it\n"
        )
        assert not (tmp_path / "out").exists()

    def test_missing_checkpoint_exits_2(self, synth_idx_files, tmp_path, capsys):
        code, _, _ = run(
            [
                "evaluate",
                "--checkpoint", str(tmp_path / "absent.ckpt"),
                "--test-images", str(synth_idx_files["test_images"]),
                "--test-labels", str(synth_idx_files["test_labels"]),
            ],
            capsys,
        )
        assert code == 2

    def test_checkpoint_directory_exits_2(self, synth_idx_files, tmp_path, capsys):
        args = evaluate_args(synth_idx_files, tmp_path, tmp_path / "out")
        code, out, err = run(args, capsys)
        assert (code, out, err) == (2, "", f"error: --checkpoint {tmp_path} is a directory\n")
        assert not (tmp_path / "out").exists()

    def test_roc_csvs_list_the_vertices_of_the_full_sweep(
        self, synth_idx_files, trained_run, tmp_path, capsys
    ):
        code, _, _ = run(
            evaluate_args(synth_idx_files, trained_run / "model.ckpt", tmp_path), capsys
        )
        assert code == 0
        model = training.load_checkpoint(trained_run / "model.ckpt")
        ds = data.Dataset.load(
            synth_idx_files["test_images"], synth_idx_files["test_labels"], "test"
        )
        scores = np.exp(training.predict_log_probs(model, ds))
        preds = scores.argmax(axis=1)
        cm = metrics.confusion(preds, ds.labels)
        rows = [("accuracy", metrics.accuracy(preds, ds.labels))]
        rows += [("mcc_macro", metrics.mcc_macro(cm))]
        rows += [(f"mcc_class_{c}", v) for c, v in enumerate(metrics.mcc_per_class(cm))]
        assert (tmp_path / "metrics.csv").read_text() == "metric,value\n" + "".join(
            f"{k},{v:.10g}\n" for k, v in rows
        )
        auc_lines = ["class,auc"]
        for c in range(10):
            thresholds, fp, tp, fpr, tpr, auc = roc_by_threshold_loop(scores, ds.labels, c)
            auc_lines.append(f"{c},{auc:.10g}")
            full = ["%.10g,%.10g,%.10g" % r for r in zip(thresholds, fpr, tpr)]
            got = (tmp_path / f"roc_class_{c}.csv").read_text().splitlines()
            assert got[0] == "threshold,fpr,tpr"
            assert got[1:] == [full[i] for i in roc_vertex_oracle(fp, tp)]
            assert (got[1], got[-1]) == ("inf,0,0", "-inf,1,1")
            assert len(got) - 1 < len(full)
            rest = iter(full)  # an ordered subset of the full rendering
            assert all(line in rest for line in got[1:])
        assert (tmp_path / "auc_summary.csv").read_text() == "\n".join(auc_lines) + "\n"

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_dir_that_is_a_file_exits_2(
        self, below, synth_idx_files, trained_run, tmp_path, capsys
    ):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        code, _, err = run(
            [
                "evaluate",
                "--checkpoint", str(trained_run / "model.ckpt"),
                "--test-images", str(synth_idx_files["test_images"]),
                "--test-labels", str(synth_idx_files["test_labels"]),
                "--out-dir", str(taken / below),
            ],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert taken.read_text() == "not a directory"


class TestGradcheckCommand:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(["gradcheck"], capsys)
        assert code == 0
        for kind in layers.LAYER_KINDS:
            assert kind in out
        assert "gradient check passed" in out

    def test_injected_sign_error_exits_5(self, capsys, monkeypatch):
        original = layers.sinusoid_backward
        monkeypatch.setattr(
            layers, "sinusoid_backward", lambda g, c: -original(g, c)
        )
        code, out, err = run(["gradcheck"], capsys)
        assert code == 5
        assert "FAIL" in out
        assert "gradient check failed" in err


    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--eps", "0", "error: eps must be finite and > 0, got 0.0\n"),
            ("--eps", "nan", "error: eps must be finite and > 0, got nan\n"),
            ("--tol", "nan", "error: tol must be finite and >= 0, got nan\n"),
        ],
    )
    def test_bad_eps_or_tol_exits_2(self, flag, value, message, capsys):
        code, out, err = run(["gradcheck", flag, value], capsys)
        assert (code, err) == (2, message)
        assert "[onn]" not in out

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run(["gradcheck", "--seed=-1"], capsys)
        assert (code, out, err) == (2, "", "error: seed must lie in 0..2**63-1, got -1\n")

    def test_overflowing_eps_exits_2_naming_the_layer(self, capsys):
        code, out, err = run(["gradcheck", "--eps", "1e300"], capsys)
        assert (code, err) == (
            2,
            "error: gradient check on onn: layer 0 (complex_linear) parameter M "
            "moved by eps=1e+300: layer 3 (mod_squared) is the first to output "
            "inf or NaN; layer 4 (log_softmax): log_softmax requires finite entries\n",
        )
        assert "[onn]" not in out


class TestExport:
    def test_json_structure(self, trained_run, tmp_path, capsys):
        out_path = tmp_path / "model.json"
        code, _, _ = run(
            [
                "export",
                "--checkpoint", str(trained_run / "model.ckpt"),
                "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["arch"] == "qonn"
        assert payload["lam"] == 0.2
        assert [l["kind"] for l in payload["layers"]] == [
            "complex_linear", "sinusoid", "complex_linear",
            "mod_squared", "log_softmax",
        ]
        assert payload["num_real_params"] == 2 * (392 * 128 + 128 * 10)

    def test_complex_linear_entries_carry_beta(self, trained_run, tmp_path, capsys):
        out_path = tmp_path / "model.json"
        checkpoint = trained_run / "model.ckpt"
        code, _, _ = run(
            ["export", "--checkpoint", str(checkpoint), "--out", str(out_path)], capsys
        )
        assert code == 0
        records = json.loads(out_path.read_text())["layers"]
        model = training.load_checkpoint(checkpoint)
        for record, params in zip(records, model.params, strict=True):
            if record["kind"] != "complex_linear":
                assert "beta" not in record and "sigma_min_over_max" not in record
                continue
            norm = np.linalg.norm(params["M"], 2)
            assert abs(record["beta"] - norm) <= 1e-12 * norm
            assert 0 < record["sigma_min_over_max"] <= 1

    def test_tall_layer_exports_through_the_thin_svd(self, tmp_path, capsys):
        """An in_dim-5000, hidden-1 onn: the full SVD's 5000 x 5000 V would
        take 400 MB, the thin one 80 KB."""
        m = model_mod.new_model("onn", seed=8, in_dim=5000, hidden=1)
        training.save_checkpoint(m, tmp_path / "tall.ckpt")
        out_path = tmp_path / "model.json"
        tracemalloc.start()
        try:
            argv = ["export", "--checkpoint", str(tmp_path / "tall.ckpt")]
            code, _, _ = run(argv + ["--out", str(out_path)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 16 * 2**20
        records = json.loads(out_path.read_text())["layers"]
        for i in (0, 2):  # the two complex_linear layers
            norm = np.linalg.norm(m.params[i]["M"], 2)
            assert abs(records[i]["beta"] - norm) <= 1e-12 * norm

    def test_non_finite_matrix_exits_4(self, tmp_path, capsys):
        m = model_mod.new_model("qonn", seed=5)
        m.params[2]["M"][0, 0] = np.nan
        training.save_checkpoint(m, tmp_path / "nan.ckpt")
        out_path = tmp_path / "model.json"
        code, out, err = run(
            ["export", "--checkpoint", str(tmp_path / "nan.ckpt"), "--out", str(out_path)],
            capsys,
        )
        assert (code, out) == (4, "")
        assert err == (
            "error: checkpoint layer 2 (complex_linear): matrix entries must be finite\n"
        )
        assert not out_path.exists()

    @pytest.mark.parametrize("small", [False, True], ids=["default", "tiny"])
    def test_quantum_conv_entry_carries_beta_of_m_f(self, small, tmp_path, capsys):
        m = tiny_model("qocnn", seed=6) if small else model_mod.new_model("qocnn", seed=6)
        training.save_checkpoint(m, tmp_path / "qocnn.ckpt")
        out_path = tmp_path / "model.json"
        code, _, _ = run(
            ["export", "--checkpoint", str(tmp_path / "qocnn.ckpt"), "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        record = json.loads(out_path.read_text())["layers"][0]
        spec = m.specs[0]
        assert record["kind"] == "quantum_conv"
        sigma = np.linalg.svd(
            dense_m_f(m.params[0]["K"], spec.in_dim, spec.k, spec.s), compute_uv=False
        )
        assert abs(record["beta"] - sigma[0]) <= 1e-12 * sigma[0]
        # a ratio to sigma_max, so 1e-12 relative to sigma_max
        assert abs(record["sigma_min_over_max"] - sigma[-1] / sigma[0]) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kernel_exits_4(self, bad, tmp_path, capsys):
        m = model_mod.new_model("qocnn", seed=5)
        m.params[0]["K"][1, 2] = bad
        training.save_checkpoint(m, tmp_path / "bad.ckpt")
        out_path = tmp_path / "model.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                ["export", "--checkpoint", str(tmp_path / "bad.ckpt"), "--out", str(out_path)],
                capsys,
            )
        assert (code, out) == (4, "")
        assert err == (
            "error: checkpoint layer 0 (quantum_conv): matrix entries must be finite\n"
        )
        assert [str(w.message) for w in caught] == []
        assert not out_path.exists()

    @pytest.mark.parametrize("target", ["out-dir", "out-file", "out-under-file"])
    def test_unwritable_output_exits_2(self, target, trained_run, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        args = ["export", "--checkpoint", str(trained_run / "model.ckpt")]
        if target == "out-dir":
            args += ["--out", str(tmp_path)]
            want = f"error: --out {tmp_path} is a directory\n"
        elif target == "out-file":
            args += ["--out-dir", str(taken)]
            want = f"error: --out-dir {taken} exists and is not a directory\n"
        else:
            args += ["--out", str(taken / "model.json")]
            want = "error: cannot write outputs: "
        code, out, err = run(args, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(want) and len(err.splitlines()) == 1
        assert taken.read_text() == "not a directory"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_model_json_that_is_a_directory_exits_2(self, trained_run, tmp_path, capsys):
        (tmp_path / "model.json").mkdir()
        args = ["export", "--checkpoint", str(trained_run / "model.ckpt"), "--out-dir", str(tmp_path)]
        code, out, err = run(args, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write outputs: {tmp_path / 'model.json'} is a directory\n"

    def test_conv_wider_than_an_image_exits_4_before_forming_m_f(
        self, tmp_path, capsys, monkeypatch
    ):
        """Exporting this 616-byte checkpoint would form a 5000 x 5000 M_f."""
        m = model_mod.new_model(
            "qocnn", seed=0, in_dim=5000, hidden=1, classes=2,
            conv_k=4, conv_s=2, pool_w=5000, pool_p=1,
        )
        training.save_checkpoint(m, tmp_path / "wide.ckpt")
        assert (tmp_path / "wide.ckpt").stat().st_size == 616

        def no_eye(*args, **kwargs):
            raise AssertionError("np.eye ran")

        monkeypatch.setattr(np, "eye", no_eye)
        out_path = tmp_path / "model.json"
        argv = ["export", "--checkpoint", str(tmp_path / "wide.ckpt"), "--out", str(out_path)]
        code, out, err = run(argv, capsys)
        assert (code, out) == (4, "")
        assert err == (
            "error: checkpoint layer 0 (quantum_conv): in_dim 5000 exceeds the 392 "
            "inputs of a folded image\n"
        )
        assert not out_path.exists()

    def test_negative_seed_checkpoint_exits_4(self, synth_idx_files, tmp_path, capsys):
        good = tmp_path / "good.ckpt"
        training.save_checkpoint(tiny_model("onn"), good)
        bad = tmp_path / "negative-seed.ckpt"
        bad.write_bytes(negative_seed_checkpoint(good.read_bytes()))
        code, out, err = run(evaluate_args(synth_idx_files, bad, tmp_path / "out"), capsys)
        assert (code, out) == (4, "")
        assert err == "error: checkpoint model is invalid: seed must lie in 0..2**63-1, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_relabelled_checkpoint_exits_4(self, trained_run, tmp_path, capsys):
        bad = relabelled_checkpoint(trained_run, tmp_path, "onn")
        out_path = tmp_path / "model.json"
        code, _, err = run(["export", "--checkpoint", str(bad), "--out", str(out_path)], capsys)
        assert code == 4
        assert "labelled onn" in err and "sinusoid" in err
        assert not out_path.exists()

    def test_invalid_layer_exits_4(self, tmp_path, capsys):
        bad = kind_flipped_checkpoint(tmp_path)
        out_path = tmp_path / "model.json"
        code, out, err = run(["export", "--checkpoint", str(bad), "--out", str(out_path)], capsys)
        assert (code, out, err) == (4, "", KIND_FLIP_ERROR)
        assert not out_path.exists()

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        code, _, _ = run(["export", "--checkpoint", str(tmp_path / "x.ckpt")], capsys)
        assert code == 2

    def test_checkpoint_directory_exits_2(self, tmp_path, capsys):
        code, out, err = run(["export", "--checkpoint", str(tmp_path)], capsys)
        assert (code, out, err) == (2, "", f"error: --checkpoint {tmp_path} is a directory\n")
        assert list(tmp_path.iterdir()) == []


class TestThreadCap:
    def test_env_var_applies_before_numpy(self, monkeypatch):
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("QOCNN_THREADS", "2")
        qocnn_main.cap_threads()
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_unset_caps_at_one(self, monkeypatch):
        for var in ("QOCNN_THREADS",) + BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")  # overridden too
        assert qocnn_main.cap_threads() == "1"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_importing_the_cli_leaves_blas_alone(self):
        """Only the entry point caps the threads; a library caller that
        imports qocnn.cli keeps its own BLAS settings."""
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env.pop("QOCNN_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        script = (
            "import json, os\n"
            "import qocnn.cli\n"
            f"print(json.dumps([v for v in {BLAS_VARS!r} if v in os.environ]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_run_log_records_the_cap(self, synth_idx_files, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QOCNN_THREADS", "3")
        code, _, _ = run(train_args(synth_idx_files, tmp_path, ["--epochs", "1"]), capsys)
        assert code == 0
        log = (tmp_path / "run.log").read_text().splitlines()
        assert "blas_threads = 3" in log

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
    def test_checkpoints_do_not_depend_on_the_host(self, synth_idx_files, tmp_path):
        """With QOCNN_THREADS unset the cap is 1, so the bytes are those of
        QOCNN_THREADS=1 whatever the core count.  A cap of 2 is another
        cap: its bytes may differ (qocnn's do on a 2-CPU host), and its
        run.log says so.  Each run goes through `python -m qocnn`, the
        entry point that applies the cap."""
        archs = ("qocnn", "qonn", "onn")
        outputs = {}
        for cap in (None, "1", "2"):
            env = dict(os.environ)
            env.pop("QOCNN_THREADS", None)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
            if cap is not None:
                env["QOCNN_THREADS"] = cap
            runs = {arch: tmp_path / f"{arch}-{cap}" for arch in archs}
            extra = ["--epochs", "1", "--seed", "2", "--arch"]
            for arch, d in runs.items():
                proc = subprocess.run(
                    [sys.executable, "-m", "qocnn",
                     *train_args(synth_idx_files, d, extra + [arch])],
                    env=env, capture_output=True, text=True, timeout=300,
                )
                assert proc.returncode == 0, proc.stderr
            outputs[cap] = {
                arch: ((d / "model.ckpt").read_bytes(), (d / "history.csv").read_bytes())
                for arch, d in runs.items()
            }
        assert [a for a in archs if outputs[None][a] != outputs["1"][a]] == []
        for cap in (None, "1", "2"):
            for arch in archs:
                log = (tmp_path / f"{arch}-{cap}" / "run.log").read_text().splitlines()
                assert f"blas_threads = {cap or 1}" in log

    @pytest.mark.parametrize("raw", ["two", "1.5"])
    def test_a_cap_that_is_not_a_whole_number_is_one(self, raw, monkeypatch):
        monkeypatch.setenv("QOCNN_THREADS", raw)
        assert blas_threads() == "1"

    def test_zero_means_default(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("QOCNN_THREADS", "0")
        assert qocnn_main.cap_threads() == "library default"
        assert "OMP_NUM_THREADS" not in os.environ

    def test_checkpoint_atomicity_leaves_no_temp_files(self, tmp_path):
        from conftest import tiny_model

        m = tiny_model("onn")
        training.save_checkpoint(m, tmp_path / "m.ckpt")
        leftovers = [p for p in tmp_path.iterdir() if p.name != "m.ckpt"]
        assert leftovers == []


class TestAtomicWrite:
    def test_failed_write_names_the_output_not_its_temporary_file(self, tmp_path):
        target = tmp_path / "model.ckpt"
        target.mkdir()
        messages = []
        for _ in range(2):
            with pytest.raises(IsADirectoryError) as info:
                fileio.atomic_write_bytes(target, b"blob")
            messages.append(str(info.value))
        want = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{target}'"
        assert messages == [want, want]
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]  # no temporary left
