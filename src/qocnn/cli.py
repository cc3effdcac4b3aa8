"""The `qocnn` commands: train, evaluate, gradcheck, estimate, export.

`qocnn.__main__` caps the BLAS threads and then runs `main`; importing
this module leaves the BLAS settings alone.

Exit codes are stable for scripting: 0 success, 2 missing or empty files,
bad parameters, or a test split in which a class holds no row or every
row, 3 training divergence, 4 checkpoint mismatch (a test label the
checkpoint does not score included) or a checkpoint whose activations
overflow, 5 gradient-check failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import inspect
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import data, fileio, layers, linalg, metrics, model as model_mod, resources, training
from . import blas_threads

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3
EXIT_CHECKPOINT = 4
EXIT_GRADCHECK = 5


class Option(NamedTuple):
    """One option: its type, its default in each command that takes it, the
    values it may take (None for any) and its help text."""

    type: type
    defaults: dict
    choices: tuple | None = None
    help: str | None = None


def _defaults(fn) -> dict:
    """The default of each keyword parameter of fn, by name."""
    return {k: p.default for k, p in inspect.signature(fn).parameters.items()}


TRAIN_DEFAULTS = training.TrainConfig()
ARCH_DEFAULTS = _defaults(model_mod.architecture_specs)
GRAD_CHECK_DEFAULTS = _defaults(training.grad_check)

# The flag of key is --key with dashes, and the config key is key, except
# for lam, whose flag and config key are "lambda".  Each command's --help
# lists its flags in this order.
OPTIONS = {
    "arch": Option(str, {"train": "qonn", "evaluate": None}, model_mod.ARCHITECTURES),
    "train_images": Option(str, {"train": None}),
    "train_labels": Option(str, {"train": None}),
    "test_images": Option(str, {"train": None, "evaluate": None}),
    "test_labels": Option(str, {"train": None, "evaluate": None}),
    "epochs": Option(int, {"train": TRAIN_DEFAULTS.epochs}),
    "batch_size": Option(int, {"train": TRAIN_DEFAULTS.batch_size}),
    "lr": Option(float, {"train": TRAIN_DEFAULTS.learning_rate}),
    "optimizer": Option(str, {"train": TRAIN_DEFAULTS.optimizer}, tuple(training.OPTIMIZERS)),
    "seed": Option(int, {"train": TRAIN_DEFAULTS.seed, "gradcheck": 0}),
    "lam": Option(float, {"train": model_mod.DEFAULT_LAM}),
    "conv_k": Option(int, {"train": ARCH_DEFAULTS["conv_k"]}),
    "conv_s": Option(int, {"train": ARCH_DEFAULTS["conv_s"]}),
    "pool_w": Option(int, {"train": ARCH_DEFAULTS["pool_w"]}),
    "pool_p": Option(int, {"train": ARCH_DEFAULTS["pool_p"]}),
    "patience": Option(int, {"train": TRAIN_DEFAULTS.patience}),
    "eps": Option(float, {"gradcheck": GRAD_CHECK_DEFAULTS["eps"]}),
    "tol": Option(float, {"gradcheck": GRAD_CHECK_DEFAULTS["tol"]}),
    "checkpoint": Option(str, {"train": None, "evaluate": None, "export": None}),
    "out": Option(str, {"export": None}),
    "layers": Option(int, {"estimate": None}),
    "n": Option(int, {"estimate": None}),
    "batch": Option(int, {"estimate": None}),
    "sweep": Option(str, {"estimate": None}, help="CSV with columns L,n,b"),
    "out_dir": Option(
        str, {"train": "runs", "evaluate": "runs", "estimate": None, "export": "runs"}
    ),
}


def _flag(key: str) -> str:
    return "--lambda" if key == "lam" else "--" + key.replace("_", "-")


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


class Exit(Exception):
    """Ends a command with an exit code; `main` prints `error: <message>`."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _exits(code: int, *types: type, prefix: str = ""):
    """Turns an exception of one of types into Exit(code, prefix + message)."""
    try:
        yield
    except types as exc:
        raise Exit(code, prefix + str(exc)) from exc


def _writing():
    """An OSError while writing outputs exits 2."""
    return _exits(EXIT_USAGE, OSError, prefix="cannot write outputs: ")


def read_config_file(path) -> dict[str, str]:
    """Parse key = value lines; blank lines and # comments are skipped."""
    raw = Path(path).read_text(encoding="utf-8")
    out: dict[str, str] = {}
    for lineno, line in enumerate(raw.splitlines(), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, value = text.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        if key == "lambda":
            key = "lam"
        out[key] = value.strip()
    return out


def effective_config(args) -> dict:
    """The defaults of args.command, overridden by the config file, overridden
    by explicit flags.  Config values meet the types and choices of the flags."""
    cmd = args.command
    eff = {k: opt.defaults[cmd] for k, opt in OPTIONS.items() if cmd in opt.defaults}
    if args.config:
        if not Path(args.config).exists():
            raise FileNotFoundError(f"no such config file: {args.config}")
        for key, value in read_config_file(args.config).items():
            if key not in eff:
                raise ValueError(f"unknown config key {key!r}")
            opt = OPTIONS[key]
            try:
                eff[key] = opt.type(value)
            except ValueError:
                raise ValueError(
                    f"config key {key!r}: cannot parse {value!r} as "
                    f"{opt.type.__name__}"
                ) from None
            if opt.choices is not None and eff[key] not in opt.choices:
                raise ValueError(
                    f"config key {key!r}: {value!r} is not one of "
                    f"{', '.join(opt.choices)}"
                )
    for key in eff:
        if getattr(args, key) is not None:
            eff[key] = getattr(args, key)
    return eff


def config_lines(command: str, eff: dict) -> list[str]:
    lines = [f"command = {command}"]
    for key in sorted(eff):
        lines.append(f"{key} = {eff[key]}")
    lines.append(f"blas_threads = {blas_threads()}")
    return lines


def _require_files(eff: dict, *keys: str) -> None:
    """Exit 2 if any required input path is absent, missing or a directory.
    Pipes and other readable non-regular files pass."""
    for key in keys:
        if eff[key] is None:
            raise Exit(EXIT_USAGE, f"{_flag(key)} is required")
        path = Path(eff[key])
        if not path.exists():
            raise Exit(EXIT_USAGE, f"no such file: {eff[key]}")
        if path.is_dir():
            raise Exit(EXIT_USAGE, f"{_flag(key)} {eff[key]} is a directory")


def _check_outputs(eff: dict, *keys: str, files=()) -> None:
    """Exit 2 unless each set output path can be written: --out-dir must not
    name a non-directory, any other output must not name a directory, and
    the nearest existing ancestor of either must be a directory.  files are
    the names a command writes inside --out-dir; none may be a directory."""
    for key in keys:
        if not eff[key]:
            continue
        path = Path(eff[key])
        if key == "out_dir" and path.exists() and not path.is_dir():
            raise Exit(EXIT_USAGE, f"--out-dir {path} exists and is not a directory")
        if key != "out_dir" and path.is_dir():
            raise Exit(EXIT_USAGE, f"{_flag(key)} {path} is a directory")
        base = next((p for p in path.parents if p.exists()), None)
        if base is not None and not base.is_dir():
            raise Exit(
                EXIT_USAGE,
                f"cannot write outputs: {_flag(key)} {path}: {base} is not a directory",
            )
    for name in files:
        path = Path(eff["out_dir"]) / name
        if path.is_dir():
            raise Exit(EXIT_USAGE, f"cannot write outputs: {path} is a directory")


def _load_split(eff: dict, split: str) -> data.Dataset:
    """The split of --<split>-images and --<split>-labels; exit 2 if either
    cannot be read or they hold no images."""
    images = eff[f"{split}_images"]
    with _exits(EXIT_USAGE, OSError, ValueError):
        ds = data.Dataset.load(images, eff[f"{split}_labels"], split)
    if len(ds) == 0:
        raise Exit(EXIT_USAGE, f"{_flag(split + '_images')} {images} holds no images")
    return ds


def _write_run_log(out_dir: Path, lines: list[str]) -> None:
    fileio.atomic_write_text(out_dir / "run.log", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands: each returns on success and raises Exit on failure


def cmd_train(eff: dict) -> None:
    _require_files(eff, "train_images", "train_labels", "test_images", "test_labels")
    derived = ["history.csv", "run.log"] + ([] if eff["checkpoint"] else ["model.ckpt"])
    _check_outputs(eff, "checkpoint", "out_dir", files=derived)
    with _exits(EXIT_USAGE, ValueError):
        model = model_mod.new_model(
            seed=eff["seed"], **{k: eff[k] for k in ARCH_DEFAULTS if k in eff}
        )
        config = training.TrainConfig(
            epochs=eff["epochs"],
            batch_size=eff["batch_size"],
            learning_rate=eff["lr"],
            optimizer=eff["optimizer"],
            seed=eff["seed"],
            patience=eff["patience"],
        )
    log_lines = config_lines("train", eff)

    def log(msg: str) -> None:
        print(msg)
        log_lines.append(msg)

    for line in log_lines:
        print(line)
    train_ds = _load_split(eff, "train")
    test_ds = _load_split(eff, "test")
    out_dir = Path(eff["out_dir"])
    try:
        _, history = training.train(model, train_ds, test_ds, config, log=log)
    except training.DivergenceError as exc:
        # the record of a failed run: run.log only, no checkpoint or history
        log_lines.append(f"error: {exc}")
        with _exits(EXIT_DIVERGENCE, OSError, prefix=f"{exc}; cannot write outputs: "):
            _write_run_log(out_dir, log_lines)
        raise Exit(EXIT_DIVERGENCE, str(exc)) from exc
    checkpoint = Path(eff["checkpoint"]) if eff["checkpoint"] else out_dir / "model.ckpt"
    with _writing():
        training.save_checkpoint(model, checkpoint)
        fileio.atomic_write_text(out_dir / "history.csv", history.to_csv())
        log(f"checkpoint: {checkpoint}")
        log(f"final test accuracy: {history.test_accuracy[-1]:.4f}")
        _write_run_log(out_dir, log_lines)


def cmd_evaluate(eff: dict) -> None:
    _require_files(eff, "checkpoint", "test_images", "test_labels")
    _check_outputs(
        eff, "out_dir", files=["run.log", "confusion.csv", "metrics.csv", "auc_summary.csv"]
    )
    with _exits(EXIT_CHECKPOINT, training.CheckpointError):
        model = training.load_checkpoint(eff["checkpoint"])
    if eff["arch"] is not None and eff["arch"] != model.arch:
        raise Exit(
            EXIT_CHECKPOINT,
            f"checkpoint holds a {model.arch} model but --arch {eff['arch']} "
            f"was requested",
        )
    _check_outputs(eff, files=[f"roc_class_{c}.csv" for c in range(model.out_dim)])
    ds = _load_split(eff, "test")
    labels_file = eff["test_labels"]
    counts = np.bincount(ds.labels, minlength=model.out_dim)
    if counts.size > model.out_dim:
        raise Exit(
            EXIT_CHECKPOINT,
            f"checkpoint incompatible with dataset: --test-labels {labels_file} holds "
            f"label {counts.size - 1}; the checkpoint scores classes 0..{model.out_dim - 1}",
        )
    for c, n in enumerate(counts.tolist()):
        if n in (0, len(ds)):
            raise Exit(
                EXIT_USAGE,
                f"{'no' if n == 0 else 'every'} row of --test-labels {labels_file} is "
                f"class {c}; the ROC curve of class {c} needs rows in and out of it",
            )
    with _exits(EXIT_CHECKPOINT, ValueError, prefix="checkpoint incompatible with dataset: "):
        try:
            log_probs = training.predict_log_probs(model, ds)
        except layers.NonFiniteError as exc:
            raise Exit(
                EXIT_CHECKPOINT,
                f"checkpoint gives non-finite activations on rows "
                f"{exc.rows.start}..{exc.rows.stop - 1}: {exc}",
            ) from exc
    report = metrics.evaluate_predictions(np.exp(log_probs), ds.labels)
    out_dir = Path(eff["out_dir"])
    rows = [("accuracy", report.accuracy), ("mcc_macro", report.mcc_macro)]
    rows += [(f"mcc_class_{c}", v) for c, v in enumerate(report.mcc_per_class)]
    metrics_csv = "metric,value\n" + "".join(f"{k},{v:.10g}\n" for k, v in rows)
    lines = config_lines("evaluate", eff) + report.summary().splitlines()
    with _writing():
        fileio.atomic_write_text(
            out_dir / "confusion.csv", metrics.confusion_csv(report.confusion)
        )
        for curve in report.roc:
            fileio.atomic_write_text(
                out_dir / f"roc_class_{curve.class_id}.csv", metrics.roc_csv(curve)
            )
        fileio.atomic_write_text(
            out_dir / "auc_summary.csv", metrics.auc_summary_csv(report.roc)
        )
        fileio.atomic_write_text(out_dir / "metrics.csv", metrics_csv)
        _write_run_log(out_dir, lines)
    print(report.summary())


def tiny_instance(arch: str, seed: int) -> tuple[model_mod.ModelGraph, data.Batch]:
    """Small model plus a random batch, sized for the gradient checker."""
    if arch == "qocnn":
        model = model_mod.new_model(
            arch, seed=seed, in_dim=8, hidden=4, classes=3,
            conv_k=3, conv_s=2, pool_w=2, pool_p=2,
        )
    else:
        model = model_mod.new_model(arch, seed=seed, in_dim=8, hidden=6, classes=4)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    labels = rng.integers(0, model.out_dim, size=4)
    return model, data.Batch(x=x, labels=labels)


def cmd_gradcheck(eff: dict) -> None:
    with _exits(EXIT_USAGE, ValueError):  # a seed out of range, before any output
        instances = [tiny_instance(arch, eff["seed"]) for arch in model_mod.ARCHITECTURES]
    print("\n".join(config_lines("gradcheck", eff)))
    all_ok = True
    for arch, (model, batch) in zip(model_mod.ARCHITECTURES, instances):
        with _exits(EXIT_USAGE, ValueError):  # eps or tol out of range
            try:
                report = training.grad_check(model, batch, eps=eff["eps"], tol=eff["tol"])
            except layers.NonFiniteError as exc:
                raise Exit(EXIT_USAGE, f"gradient check on {arch}: {exc}") from exc
        print(f"[{arch}]")
        print(report.summary())
        all_ok = all_ok and report.passed
    if not all_ok:
        raise Exit(EXIT_GRADCHECK, "gradient check failed; see per-layer report above")
    print("gradient check passed for all architectures")


def _read_sweep_file(path) -> list[resources.WorkloadSpec]:
    """One workload per row; a bad row's error names the file, line and column."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = {"L", "n", "b"} - set(reader.fieldnames or [])
        if missing:
            raise ValueError(
                f"sweep file needs columns L,n,b; missing {sorted(missing)}"
            )

        def cell(row: dict, col: str) -> int:
            try:
                value = int(row[col])  # a short row gives None
            except (TypeError, ValueError):
                value = 0
            if value < 1:
                raise ValueError(
                    f"{path}:{reader.line_num}: column {col}: {row[col]!r} is not "
                    f"a positive integer"
                )
            return value

        return [resources.WorkloadSpec(**{c: cell(row, c) for c in "Lnb"}) for row in reader]


def cmd_estimate(eff: dict) -> None:
    if eff["sweep"] is not None:
        _require_files(eff, "sweep")
        _check_outputs(eff, "out_dir", files=["sweep.csv"] if eff["out_dir"] else [])
        with _exits(EXIT_USAGE, OSError, ValueError):
            workloads = _read_sweep_file(eff["sweep"])
        text = resources.sweep_csv(workloads)
        if eff["out_dir"]:
            out = Path(eff["out_dir"]) / "sweep.csv"
            with _writing():
                fileio.atomic_write_text(out, text)
            print(f"wrote {len(workloads)} rows to {out}")
        else:
            print(text, end="")
        return
    for key in ("layers", "n", "batch"):
        if eff[key] is None:
            raise Exit(EXIT_USAGE, f"--{key} is required (or pass --sweep)")
    with _exits(EXIT_USAGE, ValueError):
        w = resources.WorkloadSpec(L=eff["layers"], n=eff["n"], b=eff["batch"])
    r = resources.estimate(w)
    print(f"classical_ops = {r.classical_ops}")
    print(f"quantum_ops = {r.quantum_ops}")
    print(f"speedup = {r.speedup:.6g}")
    print(f"classical_params = {r.classical_params}")
    print(f"qubit_estimate = {r.qubit_estimate}")
    print(f"input_qubits_mnist = {resources.input_qubits_mnist()}")


def cmd_export(eff: dict) -> None:
    _require_files(eff, "checkpoint")
    if eff["out"]:
        _check_outputs(eff, "out")
    else:
        _check_outputs(eff, "out_dir", files=["model.json"])
    out = Path(eff["out"]) if eff["out"] else Path(eff["out_dir"]) / "model.json"
    with _exits(EXIT_CHECKPOINT, training.CheckpointError):
        model = training.load_checkpoint(eff["checkpoint"])
    records = []
    for i, (spec, params) in enumerate(zip(model.specs, model.params)):
        record = dataclasses.asdict(spec)  # LayerSpec fields
        where = f"checkpoint layer {i} ({spec.kind}): "
        with _exits(EXIT_CHECKPOINT, ValueError, prefix=where):  # too wide, or inf or NaN
            m = layers.KINDS[spec.kind].matrix(spec, params)
            if m is not None:
                f = linalg.svd(m)
                record.update(beta=f.beta, sigma_min_over_max=float(f.sigma.min()))
        records.append(record)
    payload = {
        "arch": model.arch,
        "seed": model.seed,
        "lam": model.lam,
        "num_real_params": model.num_params(),
        "layers": records,
    }
    with _writing():
        fileio.atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")


# ---------------------------------------------------------------------------
# parser


COMMANDS = {
    "train": (cmd_train, "train a model and write checkpoint + history"),
    "evaluate": (cmd_evaluate, "evaluate a checkpoint on a test set"),
    "gradcheck": (cmd_gradcheck, "finite-difference check on tiny models"),
    "estimate": (cmd_estimate, "quantum-vs-classical resource arithmetic"),
    "export": (cmd_export, "dump checkpoint structure as JSON"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qocnn",
        description="Simulate and train ONN/QONN/QOCNN models on folded MNIST.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in COMMANDS.items():
        c = sub.add_parser(command, help=help_text)
        c.add_argument("--config", help="key = value file; flags override it")
        for key, opt in OPTIONS.items():
            if command in opt.defaults:
                c.add_argument(
                    _flag(key), dest=key, type=opt.type, choices=opt.choices,
                    help=opt.help,
                )
    return p


def main(argv=None) -> int:
    """Runs one command and returns its exit code; a failure prints one
    `error:` line."""
    args = build_parser().parse_args(argv)
    try:
        with _exits(EXIT_USAGE, OSError, ValueError):
            eff = effective_config(args)
        # Non-finite values are caught and reported with their exit code, so
        # numpy's overflow and invalid-value warnings would only repeat them.
        with np.errstate(over="ignore", invalid="ignore"):
            COMMANDS[args.command][0](eff)
    except Exit as exc:
        _err(str(exc))
        return exc.code
    return EXIT_OK
