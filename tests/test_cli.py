"""End-to-end command-line behavior, exit codes, and output files."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qocnn import cli, layers, model as model_mod, training


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


KIND_FLIP_ERROR = "error: checkpoint layer 0 (sinusoid) is invalid: sinusoid requires lam > 0\n"


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

    @pytest.mark.parametrize("arch", ["onn", "qocnn"])
    def test_non_finite_activation_exits_3(self, arch, synth_idx_files, tmp_path, capsys):
        extra = ["--arch", arch, "--optimizer", "sgd", "--lr", "1e100", "--epochs", "1"]
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run(train_args(synth_idx_files, tmp_path, extra), capsys)
        assert code == 3
        assert err.startswith("error: training diverged at epoch 1, batch 1: layer ")
        assert "(log_softmax)" in err and len(err.splitlines()) == 1

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

    def test_unwritable_checkpoint_exits_2(self, synth_idx_files, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        extra = ["--epochs", "1", "--checkpoint", str(taken / "model.ckpt")]
        code, _, err = run(train_args(synth_idx_files, tmp_path / "out", extra), capsys)
        assert code == 2
        assert err.startswith("error: cannot write outputs: ")
        assert len(err.splitlines()) == 1

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
        from qocnn import data

        labels = data.read_idx_labels(synth_idx_files["test_labels"])
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


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class TestThreadCap:
    def test_env_var_applies_before_numpy(self, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("QOCNN_THREADS", "2")
        cli._cap_threads()
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_unset_caps_at_one(self, monkeypatch):
        for var in ("QOCNN_THREADS",) + BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")  # overridden too
        assert cli._cap_threads() == "1"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        assert os.environ["OMP_NUM_THREADS"] == "1"

    def test_run_log_records_the_cap(self, synth_idx_files, tmp_path, capsys):
        code, _, _ = run(train_args(synth_idx_files, tmp_path, ["--epochs", "1"]), capsys)
        assert code == 0
        log = (tmp_path / "run.log").read_text().splitlines()
        assert f"blas_threads = {cli.BLAS_THREADS}" in log

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
    def test_checkpoints_do_not_depend_on_the_host(self, synth_idx_files, tmp_path):
        """With QOCNN_THREADS unset the cap is 1, so the bytes are those of
        QOCNN_THREADS=1 whatever the core count.  A cap of 2 is another
        cap: its bytes may differ (qocnn's do on a 2-CPU host), and its
        run.log says so."""
        src = str(Path(cli.__file__).resolve().parents[1])
        script = (
            "import json, sys\n"
            "from qocnn import cli\n"  # before numpy, as `qocnn` does
            "sys.exit(max(cli.main(argv) for argv in json.loads(sys.argv[1])))\n"
        )
        archs = ("qocnn", "qonn", "onn")
        outputs = {}
        for cap in (None, "1", "2"):
            # importing qocnn.cli here set the BLAS variables; start clean
            env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
            env.pop("QOCNN_THREADS", None)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            if cap is not None:
                env["QOCNN_THREADS"] = cap
            runs = {arch: tmp_path / f"{arch}-{cap}" for arch in archs}
            extra = ["--epochs", "1", "--seed", "2", "--arch"]
            argvs = [train_args(synth_idx_files, d, extra + [arch]) for arch, d in runs.items()]
            proc = subprocess.run(
                [sys.executable, "-c", script, json.dumps(argvs)],
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

    def test_zero_means_default(self, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("QOCNN_THREADS", "0")
        assert cli._cap_threads() == "library default"
        assert "OMP_NUM_THREADS" not in os.environ

    def test_checkpoint_atomicity_leaves_no_temp_files(self, tmp_path):
        from conftest import tiny_model

        m = tiny_model("onn")
        training.save_checkpoint(m, tmp_path / "m.ckpt")
        leftovers = [p for p in tmp_path.iterdir() if p.name != "m.ckpt"]
        assert leftovers == []
