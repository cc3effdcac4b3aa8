"""Command-line entry point: train, evaluate, gradcheck, estimate, export.

Exit codes are stable for scripting: 0 success, 2 missing files or bad
parameters, 3 training divergence, 4 checkpoint mismatch, 5 gradient-check
failure.
"""

from __future__ import annotations

import os


def _cap_threads() -> None:
    """Apply the QOCNN_THREADS cap; must run before numpy first loads."""
    raw = os.environ.get("QOCNN_THREADS", "").strip()
    if not raw:
        return
    try:
        n = int(raw)
    except ValueError:
        return
    if n > 0:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ[var] = str(n)


_cap_threads()

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import data, fileio, metrics, model as model_mod, resources, training

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3
EXIT_CHECKPOINT = 4
EXIT_GRADCHECK = 5

OPTION_TYPES = {
    "arch": str,
    "train_images": str,
    "train_labels": str,
    "test_images": str,
    "test_labels": str,
    "epochs": int,
    "batch_size": int,
    "lr": float,
    "optimizer": str,
    "seed": int,
    "lam": float,
    "conv_k": int,
    "conv_s": int,
    "pool_w": int,
    "pool_p": int,
    "patience": int,
    "checkpoint": str,
    "out_dir": str,
    "out": str,
    "layers": int,
    "n": int,
    "batch": int,
    "sweep": str,
    "eps": float,
    "tol": float,
}

TRAIN_DEFAULTS = {
    "arch": "qonn",
    "train_images": None,
    "train_labels": None,
    "test_images": None,
    "test_labels": None,
    "epochs": 10,
    "batch_size": 64,
    "lr": 1e-3,
    "optimizer": "adam",
    "seed": 0,
    "lam": 0.2,
    "conv_k": 4,
    "conv_s": 2,
    "pool_w": 2,
    "pool_p": 2,
    "patience": 3,
    "checkpoint": None,
    "out_dir": "runs",
}

EVALUATE_DEFAULTS = {
    "arch": None,
    "checkpoint": None,
    "test_images": None,
    "test_labels": None,
    "out_dir": "runs",
}

GRADCHECK_DEFAULTS = {
    "seed": 0,
    "eps": 1e-5,
    "tol": 1e-4,
}

ESTIMATE_DEFAULTS = {
    "layers": None,
    "n": None,
    "batch": None,
    "sweep": None,
    "out_dir": None,
}

EXPORT_DEFAULTS = {
    "checkpoint": None,
    "out": None,
    "out_dir": "runs",
}


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


def effective_config(args, defaults: dict) -> dict:
    """Defaults, overridden by the config file, overridden by explicit flags."""
    eff = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        if not Path(config_path).exists():
            raise FileNotFoundError(f"no such config file: {config_path}")
        for key, value in read_config_file(config_path).items():
            if key not in eff:
                raise ValueError(f"unknown config key {key!r}")
            try:
                eff[key] = OPTION_TYPES[key](value)
            except ValueError:
                raise ValueError(
                    f"config key {key!r}: cannot parse {value!r} as "
                    f"{OPTION_TYPES[key].__name__}"
                ) from None
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            eff[key] = value
    return eff


def config_lines(command: str, eff: dict) -> list[str]:
    lines = [f"command = {command}"]
    for key in sorted(eff):
        lines.append(f"{key} = {eff[key]}")
    return lines


def _require_files(eff: dict, keys: list[str]) -> str | None:
    """Returns an error message if any required path is absent or missing."""
    for key in keys:
        flag = "--" + key.replace("_", "-")
        if eff[key] is None:
            return f"{flag} is required"
        if not Path(eff[key]).exists():
            return f"no such file: {eff[key]}"
    return None


def _out_dir_problem(eff: dict) -> str | None:
    """Returns an error message if --out-dir names something not a directory."""
    out_dir = Path(eff["out_dir"])
    if out_dir.exists() and not out_dir.is_dir():
        return f"--out-dir {out_dir} exists and is not a directory"
    return None


# ---------------------------------------------------------------------------
# commands


# Non-finite values are caught and reported with their exit code, so numpy's
# overflow and invalid-value warnings would only repeat them on stderr.
@np.errstate(over="ignore", invalid="ignore")
def cmd_train(args) -> int:
    try:
        eff = effective_config(args, TRAIN_DEFAULTS)
    except (ValueError, FileNotFoundError) as exc:
        _err(str(exc))
        return EXIT_USAGE
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
    try:
        _, history = training.train(model, train_ds, test_ds, config, log=log)
    except training.DivergenceError as exc:
        _err(str(exc))
        return EXIT_DIVERGENCE
    out_dir = Path(eff["out_dir"])
    checkpoint = Path(eff["checkpoint"]) if eff["checkpoint"] else out_dir / "model.ckpt"
    try:
        training.save_checkpoint(model, checkpoint)
        fileio.atomic_write_text(out_dir / "history.csv", history.to_csv())
        log(f"checkpoint: {checkpoint}")
        log(f"final test accuracy: {history.test_accuracy[-1]:.4f}")
        fileio.atomic_write_text(out_dir / "run.log", "\n".join(log_lines) + "\n")
    except OSError as exc:
        _err(f"cannot write outputs: {exc}")
        return EXIT_USAGE
    return EXIT_OK


@np.errstate(over="ignore", invalid="ignore")
def cmd_evaluate(args) -> int:
    try:
        eff = effective_config(args, EVALUATE_DEFAULTS)
    except (ValueError, FileNotFoundError) as exc:
        _err(str(exc))
        return EXIT_USAGE
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
        fileio.atomic_write_text(out_dir / "run.log", "\n".join(lines) + "\n")
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


def cmd_gradcheck(args) -> int:
    try:
        eff = effective_config(args, GRADCHECK_DEFAULTS)
    except (ValueError, FileNotFoundError) as exc:
        _err(str(exc))
        return EXIT_USAGE
    for line in config_lines("gradcheck", eff):
        print(line)
    all_ok = True
    for arch in model_mod.ARCHITECTURES:
        model, batch = tiny_instance(arch, eff["seed"])
        report = training.grad_check(model, batch, eps=eff["eps"], tol=eff["tol"])
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


def cmd_estimate(args) -> int:
    try:
        eff = effective_config(args, ESTIMATE_DEFAULTS)
    except (ValueError, FileNotFoundError) as exc:
        _err(str(exc))
        return EXIT_USAGE
    if eff["sweep"] is not None:
        if not Path(eff["sweep"]).exists():
            _err(f"no such file: {eff['sweep']}")
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


def cmd_export(args) -> int:
    try:
        eff = effective_config(args, EXPORT_DEFAULTS)
    except (ValueError, FileNotFoundError) as exc:
        _err(str(exc))
        return EXIT_USAGE
    problem = _require_files(eff, ["checkpoint"])
    if problem:
        _err(problem)
        return EXIT_USAGE
    try:
        model = training.load_checkpoint(eff["checkpoint"])
    except training.CheckpointError as exc:
        _err(str(exc))
        return EXIT_CHECKPOINT
    payload = {
        "arch": model.arch,
        "seed": model.seed,
        "lam": model.meta.get("lam"),
        "num_real_params": model.num_params(),
        "layers": [
            {
                "kind": s.kind,
                "in_dim": s.in_dim,
                "out_dim": s.out_dim,
                "lam": s.lam,
                "k": s.k,
                "s": s.s,
                "w": s.w,
                "p": s.p,
            }
            for s in model.specs
        ],
    }
    out = Path(eff["out"]) if eff["out"] else Path(eff["out_dir"]) / "model.json"
    fileio.atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qocnn",
        description="Simulate and train ONN/QONN/QOCNN models on folded MNIST.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model and write checkpoint + history")
    _add_common(t)
    t.add_argument("--arch", choices=model_mod.ARCHITECTURES)
    t.add_argument("--train-images")
    t.add_argument("--train-labels")
    t.add_argument("--test-images")
    t.add_argument("--test-labels")
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--optimizer", choices=("sgd", "adam"))
    t.add_argument("--seed", type=int)
    t.add_argument("--lambda", dest="lam", type=float)
    t.add_argument("--conv-k", type=int)
    t.add_argument("--conv-s", type=int)
    t.add_argument("--pool-w", type=int)
    t.add_argument("--pool-p", type=int)
    t.add_argument("--patience", type=int)
    t.add_argument("--checkpoint")
    t.add_argument("--out-dir")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("evaluate", help="evaluate a checkpoint on a test set")
    _add_common(e)
    e.add_argument("--arch", choices=model_mod.ARCHITECTURES)
    e.add_argument("--checkpoint")
    e.add_argument("--test-images")
    e.add_argument("--test-labels")
    e.add_argument("--out-dir")
    e.set_defaults(func=cmd_evaluate)

    g = sub.add_parser("gradcheck", help="finite-difference check on tiny models")
    _add_common(g)
    g.add_argument("--seed", type=int)
    g.add_argument("--eps", type=float)
    g.add_argument("--tol", type=float)
    g.set_defaults(func=cmd_gradcheck)

    s = sub.add_parser("estimate", help="quantum-vs-classical resource arithmetic")
    _add_common(s)
    s.add_argument("--layers", type=int)
    s.add_argument("--n", type=int)
    s.add_argument("--batch", type=int)
    s.add_argument("--sweep", help="CSV with columns L,n,b")
    s.add_argument("--out-dir")
    s.set_defaults(func=cmd_estimate)

    x = sub.add_parser("export", help="dump checkpoint structure as JSON")
    _add_common(x)
    x.add_argument("--checkpoint")
    x.add_argument("--out")
    x.add_argument("--out-dir")
    x.set_defaults(func=cmd_export)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())
