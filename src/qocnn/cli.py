"""Command-line entry point: train, evaluate, gradcheck, estimate, export.

Exit codes are stable for scripting: 0 success, 2 missing files or bad
parameters, 3 training divergence, 4 checkpoint mismatch or a checkpoint
whose activations overflow, 5 gradient-check failure.
"""

from __future__ import annotations

import os


def _cap_threads() -> str:
    """Apply the QOCNN_THREADS cap; must run before numpy first loads.

    Unset (or not a whole number) caps the BLAS pools at one thread, which
    makes checkpoints independent of the host's core count; k > 0 caps them
    at k; 0 or less leaves the library defaults.  Returns the cap for
    run.log.
    """
    raw = os.environ.get("QOCNN_THREADS", "").strip()
    try:
        n = int(raw) if raw else 1
    except ValueError:
        n = 1
    if n <= 0:
        return "library default"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(n)
    return str(n)


BLAS_THREADS = _cap_threads()

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import data, fileio, layers, linalg, metrics, model as model_mod, resources, training

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


TRAIN_DEFAULTS = training.TrainConfig()

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
    "conv_k": Option(int, {"train": 4}),
    "conv_s": Option(int, {"train": 2}),
    "pool_w": Option(int, {"train": 2}),
    "pool_p": Option(int, {"train": 2}),
    "patience": Option(int, {"train": TRAIN_DEFAULTS.patience}),
    "eps": Option(float, {"gradcheck": 1e-5}),
    "tol": Option(float, {"gradcheck": 1e-4}),
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
    if eff.get("seed", 0) < 0:
        raise ValueError(f"--seed must be >= 0, got {eff['seed']}")
    return eff


def config_lines(command: str, eff: dict) -> list[str]:
    lines = [f"command = {command}"]
    for key in sorted(eff):
        lines.append(f"{key} = {eff[key]}")
    lines.append(f"blas_threads = {BLAS_THREADS}")
    return lines


def _require_files(eff: dict, keys: list[str]) -> str | None:
    """Returns an error message if any required path is absent, missing or a
    directory.  Pipes and other readable non-regular files pass."""
    for key in keys:
        if eff[key] is None:
            return f"{_flag(key)} is required"
        path = Path(eff[key])
        if not path.exists():
            return f"no such file: {eff[key]}"
        if path.is_dir():
            return f"{_flag(key)} {eff[key]} is a directory"
    return None


def _out_dir_problem(eff: dict) -> str | None:
    """Returns an error message if --out-dir names something not a directory."""
    out_dir = Path(eff["out_dir"])
    if out_dir.exists() and not out_dir.is_dir():
        return f"--out-dir {out_dir} exists and is not a directory"
    return None


def _write_run_log(out_dir: Path, lines: list[str]) -> None:
    fileio.atomic_write_text(out_dir / "run.log", "\n".join(lines) + "\n")


def _non_finite_message(model, ds, exc: layers.NonFiniteError) -> str:
    """Names the first layer to output inf or NaN on the chunk that raised."""
    first = model_mod.first_non_finite_layer(model, ds.complex_rows(exc.rows))
    return (
        f"checkpoint gives non-finite activations on rows {exc.rows.start}.."
        f"{exc.rows.stop - 1}: layer {first} ({model.specs[first].kind}) is "
        f"the first to output inf or NaN; {exc}"
    )


# ---------------------------------------------------------------------------
# commands


# Non-finite values are caught and reported with their exit code, so numpy's
# overflow and invalid-value warnings would only repeat them on stderr.
@np.errstate(over="ignore", invalid="ignore")
def cmd_train(eff: dict) -> int:
    problem = _require_files(
        eff, ["train_images", "train_labels", "test_images", "test_labels"]
    ) or _out_dir_problem(eff)
    if problem:
        _err(problem)
        return EXIT_USAGE
    log_lines = config_lines("train", eff)

    def log(msg: str) -> None:
        print(msg)
        log_lines.append(msg)

    for line in log_lines:
        print(line)
    try:
        train_ds = data.Dataset.load(eff["train_images"], eff["train_labels"], "train")
        test_ds = data.Dataset.load(eff["test_images"], eff["test_labels"], "test")
    except (OSError, ValueError) as exc:
        _err(str(exc))
        return EXIT_USAGE
    try:
        model = model_mod.new_model(
            eff["arch"],
            seed=eff["seed"],
            lam=eff["lam"],
            conv_k=eff["conv_k"],
            conv_s=eff["conv_s"],
            pool_w=eff["pool_w"],
            pool_p=eff["pool_p"],
        )
        config = training.TrainConfig(
            epochs=eff["epochs"],
            batch_size=eff["batch_size"],
            learning_rate=eff["lr"],
            optimizer=eff["optimizer"],
            seed=eff["seed"],
            patience=eff["patience"],
        )
    except ValueError as exc:
        _err(str(exc))
        return EXIT_USAGE
    out_dir = Path(eff["out_dir"])
    try:
        _, history = training.train(model, train_ds, test_ds, config, log=log)
    except training.DivergenceError as exc:
        # the record of a failed run: run.log only, no checkpoint or history
        _err(str(exc))
        log_lines.append(f"error: {exc}")
        try:
            _write_run_log(out_dir, log_lines)
        except OSError as write_exc:
            _err(f"cannot write outputs: {write_exc}")
        return EXIT_DIVERGENCE
    checkpoint = Path(eff["checkpoint"]) if eff["checkpoint"] else out_dir / "model.ckpt"
    try:
        training.save_checkpoint(model, checkpoint)
        fileio.atomic_write_text(out_dir / "history.csv", history.to_csv())
        log(f"checkpoint: {checkpoint}")
        log(f"final test accuracy: {history.test_accuracy[-1]:.4f}")
        _write_run_log(out_dir, log_lines)
    except OSError as exc:
        _err(f"cannot write outputs: {exc}")
        return EXIT_USAGE
    return EXIT_OK


@np.errstate(over="ignore", invalid="ignore")
def cmd_evaluate(eff: dict) -> int:
    problem = _require_files(
        eff, ["checkpoint", "test_images", "test_labels"]
    ) or _out_dir_problem(eff)
    if problem:
        _err(problem)
        return EXIT_USAGE
    try:
        model = training.load_checkpoint(eff["checkpoint"])
    except training.CheckpointError as exc:
        _err(str(exc))
        return EXIT_CHECKPOINT
    if eff["arch"] is not None and eff["arch"] != model.arch:
        _err(
            f"checkpoint holds a {model.arch} model but --arch {eff['arch']} "
            f"was requested"
        )
        return EXIT_CHECKPOINT
    try:
        ds = data.Dataset.load(eff["test_images"], eff["test_labels"], "test")
    except (OSError, ValueError) as exc:
        _err(str(exc))
        return EXIT_USAGE
    try:
        log_probs = training.predict_log_probs(model, ds)
    except layers.NonFiniteError as exc:
        _err(_non_finite_message(model, ds, exc))
        return EXIT_CHECKPOINT
    except ValueError as exc:
        _err(f"checkpoint incompatible with dataset: {exc}")
        return EXIT_CHECKPOINT
    report = metrics.evaluate_predictions(np.exp(log_probs), ds.labels)
    out_dir = Path(eff["out_dir"])
    rows = [("accuracy", report.accuracy), ("mcc_macro", report.mcc_macro)]
    rows += [(f"mcc_class_{c}", v) for c, v in enumerate(report.mcc_per_class)]
    metrics_csv = "metric,value\n" + "".join(f"{k},{v:.10g}\n" for k, v in rows)
    lines = config_lines("evaluate", eff) + report.summary().splitlines()
    try:
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
    except OSError as exc:
        _err(f"cannot write outputs: {exc}")
        return EXIT_USAGE
    print(report.summary())
    return EXIT_OK


def tiny_instance(arch: str, seed: int) -> tuple[model_mod.ModelGraph, data.Batch]:
    """Small model plus a random batch, sized for the gradient checker."""
    if arch == "qocnn":
        model = model_mod.new_model(
            arch, seed=seed, in_dim=8, hidden=4, classes=3,
            conv_k=2, conv_s=2, pool_w=2, pool_p=2,
        )
    else:
        model = model_mod.new_model(arch, seed=seed, in_dim=8, hidden=6, classes=4)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    labels = rng.integers(0, model.out_dim, size=4)
    return model, data.Batch(x=x, labels=labels)


@np.errstate(over="ignore", invalid="ignore")
def cmd_gradcheck(eff: dict) -> int:
    for line in config_lines("gradcheck", eff):
        print(line)
    all_ok = True
    for arch in model_mod.ARCHITECTURES:
        model, batch = tiny_instance(arch, eff["seed"])
        try:
            report = training.grad_check(model, batch, eps=eff["eps"], tol=eff["tol"])
        except layers.NonFiniteError as exc:
            _err(f"gradient check on {arch}: {exc}")
            return EXIT_USAGE
        except ValueError as exc:  # eps or tol out of range
            _err(str(exc))
            return EXIT_USAGE
        print(f"[{arch}]")
        print(report.summary())
        all_ok = all_ok and report.passed
    if not all_ok:
        _err("gradient check failed; see per-layer report above")
        return EXIT_GRADCHECK
    print("gradient check passed for all architectures")
    return EXIT_OK


def _read_sweep_file(path) -> list[resources.WorkloadSpec]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = {"L", "n", "b"} - set(reader.fieldnames or [])
        if missing:
            raise ValueError(
                f"sweep file needs columns L,n,b; missing {sorted(missing)}"
            )
        return [
            resources.WorkloadSpec(L=int(row["L"]), n=int(row["n"]), b=int(row["b"]))
            for row in reader
        ]


def cmd_estimate(eff: dict) -> int:
    if eff["sweep"] is not None:
        problem = _require_files(eff, ["sweep"])
        if problem:
            _err(problem)
            return EXIT_USAGE
        try:
            workloads = _read_sweep_file(eff["sweep"])
        except ValueError as exc:
            _err(str(exc))
            return EXIT_USAGE
        text = resources.sweep_csv(workloads)
        if eff["out_dir"]:
            out = Path(eff["out_dir"]) / "sweep.csv"
            fileio.atomic_write_text(out, text)
            print(f"wrote {len(workloads)} rows to {out}")
        else:
            print(text, end="")
        return EXIT_OK
    for key in ("layers", "n", "batch"):
        if eff[key] is None:
            _err(f"--{key} is required (or pass --sweep)")
            return EXIT_USAGE
    try:
        w = resources.WorkloadSpec(L=eff["layers"], n=eff["n"], b=eff["batch"])
    except ValueError as exc:
        _err(str(exc))
        return EXIT_USAGE
    r = resources.estimate(w)
    print(f"classical_ops = {r.classical_ops}")
    print(f"quantum_ops = {r.quantum_ops}")
    print(f"speedup = {r.speedup:.6g}")
    print(f"classical_params = {r.classical_params}")
    print(f"qubit_estimate = {r.qubit_estimate}")
    print(f"input_qubits_mnist = {resources.input_qubits_mnist()}")
    return EXIT_OK


@np.errstate(over="ignore", invalid="ignore")
def cmd_export(eff: dict) -> int:
    if eff["out"]:
        out = Path(eff["out"])
        out_problem = f"--out {out} is a directory" if out.is_dir() else None
    else:
        out = Path(eff["out_dir"]) / "model.json"
        out_problem = _out_dir_problem(eff)
    problem = _require_files(eff, ["checkpoint"]) or out_problem
    if problem:
        _err(problem)
        return EXIT_USAGE
    try:
        model = training.load_checkpoint(eff["checkpoint"])
    except training.CheckpointError as exc:
        _err(str(exc))
        return EXIT_CHECKPOINT
    records = []
    for i, (spec, params) in enumerate(zip(model.specs, model.params)):
        record = dataclasses.asdict(spec)  # LayerSpec fields
        if spec.kind == "complex_linear":
            m = params["M"]
        elif spec.kind == "quantum_conv":
            # the block path applied to I gives M_f = M_1 ... M_n
            eye = np.eye(spec.in_dim, dtype=np.complex128)
            m, _ = layers.layer_forward(spec, params, eye)
        else:
            m = None
        if m is not None:
            try:
                f = linalg.amplification_normalize(
                    linalg.svd(linalg.ComplexMatrix.from_complex(m))
                )
            except ValueError as exc:  # inf or NaN in M or M_f
                _err(f"checkpoint layer {i} ({spec.kind}): {exc}")
                return EXIT_CHECKPOINT
            record.update(beta=f.beta, sigma_min_over_max=float(f.sigma.min()))
        records.append(record)
    payload = {
        "arch": model.arch,
        "seed": model.seed,
        "lam": model.meta.get("lam"),
        "num_real_params": model.num_params(),
        "layers": records,
    }
    try:
        fileio.atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
    except OSError as exc:
        _err(f"cannot write outputs: {exc}")
        return EXIT_USAGE
    print(f"wrote {out}")
    return EXIT_OK


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
    args = build_parser().parse_args(argv)
    try:
        eff = effective_config(args)
    except (ValueError, FileNotFoundError) as exc:
        _err(str(exc))
        return EXIT_USAGE
    return COMMANDS[args.command][0](eff)


def entrypoint() -> None:
    sys.exit(main())
