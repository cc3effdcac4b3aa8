"""Benchmark of the qocnn simulation: training and evaluation throughput.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-qocnn --seed 1 --seconds 25 --trace 0

Workloads (inputs are generated from --seed and reach the program only as
IDX files read by `data.Dataset.load`):

- train-qocnn: `training.train` on qocnn at its default geometry (k=4, s=2,
  batch 64, Adam).  The dense conv composition is most of each step, and
  the kernel changes every step, so caching across steps cannot help.
- train-onn: the same loop on onn: no conv, a 392x128 complex linear layer,
  mod_softplus, and Adam over 100k complex parameters.  A conv change must
  leave it unchanged.
- eval-qocnn: the `qocnn evaluate` path through library calls on 10k test
  rows: forward only at batch 256 with a fixed kernel, a conv plan per
  chunk, and the ROC sweep.

A train unit is one `training.train` call of one epoch (`patience >=
epochs`, so early stopping never changes the work), test pass included.
An eval unit is predict, `evaluate_predictions` and the CSVs written
through `fileio`.  Units repeat until --seconds have passed.

Every workload reports both rates.  On eval-qocnn, evaluate_rows_per_s is
the eval unit's rate: eval units of the fixed checkpoint fill the first
three quarters of the run, back to back.  Then, in one block, train units
go on training the checkpoint's model on its 2,048-row split, which gives
train_samples_per_s.  On the train
workloads, evaluate_rows_per_s is the rate of the test pass each epoch ends
with (`training.evaluate_loss_accuracy`, no ROC sweep), timed three times
after each train unit; it must repeat the epoch's test loss and accuracy.

A rate is taken from the run's median unit.  On a shared 2-vCPU Xeon host
(105 MiB L3) the CPU speed drifted by up to ~40% over seconds to minutes
because of other tenants; across two sets of ten runs the median unit
spread less than the fastest one, which follows rare fast bursts.  setup_s
is the median of several set-ups in a row.

success_rate is 1 - failed/attempted over train steps, predict chunks and
evaluate calls.  A failed operation also fails the run, so a printed result
always reads 1.0; failures show as exit 1 with `correct: false` and the
`attempted`/`failed` counts.

With --trace 0 the end-to-end metrics are printed.  With --trace 1 units
alternate untraced and traced (wrappers from tracing.py), and the
per-layer metrics come from the traced units.  A layer's fwd_ms_p50,
bwd_ms_p50 and share are self times: a conv forward's plan build is a
child span, counted in plan_ms_p50 instead.  Every run checks the
program's outputs and exits 1 with a message if a check fails.
"""

from __future__ import annotations

import os

# One BLAS thread, the cap QOCNN_THREADS=1 applies; set before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "qocnn" / "__init__.py").is_file():
    sys.exit(f"perfbench: {SRC / 'qocnn'} not found; run from the root of a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np

from qocnn import data, fileio, layers, metrics, model as model_mod, training

import synth
import tracing
from tracing import ATTRS, END, NAME, PARENT, START

WORK_DIR = ROOT / ".perfbench_work"
WORKLOADS = {"train-qocnn": "qocnn", "train-onn": "onn", "eval-qocnn": "qocnn"}
BATCH = 64
PREDICT_BATCH = 256  # predict_log_probs default
MODEL_SEED = 0
CHECKPOINT_UNITS = 2  # eval-qocnn's train units before its checkpoint is saved
EVAL_SHARE = 0.75  # of an eval-qocnn run spent on eval units; train units get the rest
TEST_PASSES = 3  # timed after each train unit on the train workloads
LSE_TOL = 1e-9

END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "evaluate_rows_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "success_rate": "ratio",
}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for kind in layers.LAYER_KINDS:
        units[f"layers.{kind}.fwd_ms_p50"] = "ms"
        units[f"layers.{kind}.bwd_ms_p50"] = "ms"
        units[f"layers.{kind}.share"] = "ratio"
    units.update({
        "layers.quantum_conv.plan_ms_p50": "ms",
        "layers.quantum_conv.plan_builds": "count",
        "layers.quantum_conv.computed_cmacs": "count",
        "layers.quantum_conv.ns_per_model_op": "ns",
        "layers.complex_linear.ns_per_model_op": "ns",
        "training.step_ms_p50": "ms",
        "training.step_ms_p90": "ms",
        "training.forward_loss_ms_p50": "ms",
        "training.backward_ms_p50": "ms",
        "training.optimizer_ms_p50": "ms",
        "training.test_pass_s": "s",
        "training.predict_rows_per_s": "1/s",
        "training.checkpoint_load_ms": "ms",
        "model.unattributed_ms_p50": "ms",
        "model.attributed_share": "ratio",
        "data.load_s": "s",
        "data.batch_ms_p50": "ms",
        "metrics.evaluate_predictions_s": "s",
        "metrics.roc_ms_p50": "ms",
        "metrics.roc_thresholds": "count",
        "metrics.csv_render_ms": "ms",
        "fileio.write_ms": "ms",
        "fileio.bytes_written": "bytes",
        "trace.overhead_pct": "%",
        "trace.spans": "count",
    })
    return units


PER_LAYER = _per_layer_units()


@dataclass(frozen=True)
class Sizes:
    train: int = 20_000  # re + im float64 = 119.6 MiB, above the 105 MiB L3
    test: int = 10_000
    checkpoint_train: int = 2_048  # eval-qocnn trains its checkpoint on this split
    setup_repeats: int = 7


@dataclass
class Tally:
    """Operations: train steps, predict chunks and evaluate calls."""

    attempted: int = 0
    failed: int = 0


class CheckFailed(Exception):
    """An output of the program is wrong, or an operation failed."""


@dataclass
class Units:
    """Wall seconds of each unit, split by whether it was traced."""

    plain: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)


def _chunks(n: int, size: int) -> int:
    return -(-n // size)


def _median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


# ---------------------------------------------------------------------------
# inputs and set-up


def write_inputs(dirpath: Path, workload: str, seed: int, sizes: Sizes) -> dict:
    """Write the workload's IDX files; returns split -> (images path, labels path)."""
    train_seed, test_seed = np.random.SeedSequence(seed).spawn(2)
    n_train = sizes.checkpoint_train if workload == "eval-qocnn" else sizes.train
    return {
        "train": synth.write_idx_pair(dirpath, *synth.images(n_train, train_seed), "train"),
        "test": synth.write_idx_pair(dirpath, *synth.images(sizes.test, test_seed), "t10k"),
    }


def timed_setup(repeats: int, tracer: tracing.Tracer, step):
    """Median wall time of `step()` over repeats; returns it and the last result.

    The previous result is dropped before each repeat, so the process never
    holds two copies of the data and peak RSS is the program's own.
    """
    times = []
    out = None
    for _ in range(repeats):
        out = None
        with tracer.span("bench.setup"):
            t0 = time.perf_counter()
            out = step()
            times.append(time.perf_counter() - t0)
    return _median(times), out


def load_split(paths: dict, split: str, tracer: tracing.Tracer) -> data.Dataset:
    with tracer.span("data.load"):
        return data.Dataset.load(*paths[split], split)


# ---------------------------------------------------------------------------
# units and output checks


def train_unit(model, train_ds, test_ds, index: int, tally: Tally):
    """One epoch through `training.train`; returns seconds and the history."""
    cfg = training.TrainConfig(
        epochs=1, patience=1, batch_size=BATCH, optimizer="adam", seed=index
    )
    tally.attempted += _chunks(len(train_ds), BATCH) + _chunks(len(test_ds), PREDICT_BATCH)
    t0 = time.perf_counter()
    try:
        _, history = training.train(model, train_ds, test_ds, cfg)
    except (training.DivergenceError, ValueError) as exc:
        tally.failed += 1
        raise CheckFailed(f"train unit {index}: {exc}") from exc
    return time.perf_counter() - t0, history


def test_pass(model, test_ds, history, tally: Tally) -> float:
    """Time the test pass each epoch ends with; it must repeat the epoch's result."""
    tally.attempted += _chunks(len(test_ds), PREDICT_BATCH)
    t0 = time.perf_counter()
    try:
        result = training.evaluate_loss_accuracy(model, test_ds)
    except ValueError as exc:
        tally.failed += 1
        raise CheckFailed(f"test pass: {exc}") from exc
    seconds = time.perf_counter() - t0
    if result != (history.test_loss[-1], history.test_accuracy[-1]):
        raise CheckFailed(
            f"test pass gave {result}, the epoch gave "
            f"{(history.test_loss[-1], history.test_accuracy[-1])}"
        )
    return seconds


def check_losses(losses: list[float]) -> None:
    if not all(math.isfinite(x) for x in losses):
        raise CheckFailed(f"non-finite train loss in {losses}")
    if len(losses) < 2 or not losses[-1] < losses[0]:
        raise CheckFailed(f"last epoch's train loss is not below the first: {losses}")


def eval_unit(model, test_ds, out_dir: Path, tally: Tally):
    """Predict, report and write the evaluate CSVs; returns seconds, log-probs, report."""
    tally.attempted += _chunks(len(test_ds), PREDICT_BATCH) + 1
    t0 = time.perf_counter()
    try:
        log_probs = training.predict_log_probs(model, test_ds)
        report = metrics.evaluate_predictions(np.exp(log_probs), test_ds.labels)
    except ValueError as exc:
        tally.failed += 1
        raise CheckFailed(f"evaluate: {exc}") from exc
    fileio.atomic_write_text(out_dir / "confusion.csv", metrics.confusion_csv(report.confusion))
    for curve in report.roc:
        fileio.atomic_write_text(
            out_dir / f"roc_class_{curve.class_id}.csv", metrics.roc_csv(curve)
        )
    fileio.atomic_write_text(out_dir / "auc_summary.csv", metrics.auc_summary_csv(report.roc))
    seconds = time.perf_counter() - t0
    check_eval(log_probs, report, test_ds.labels)
    return seconds, log_probs, report


def check_eval(log_probs: np.ndarray, report, labels: np.ndarray) -> None:
    if not np.all(np.isfinite(log_probs)):
        raise CheckFailed("predict_log_probs returned non-finite values")
    peak = log_probs.max(axis=1)
    lse = peak + np.log(np.exp(log_probs - peak[:, None]).sum(axis=1))
    worst = float(np.abs(lse).max())
    if not worst <= LSE_TOL:
        raise CheckFailed(f"a log-probability row's log-sum-exp is {worst:.3e}, not 0")
    accuracy = float((log_probs.argmax(axis=1) == labels).mean())
    if report.accuracy != accuracy:
        raise CheckFailed(
            f"EvalReport.accuracy {report.accuracy!r} != argmax accuracy {accuracy!r}"
        )
    for curve in report.roc:
        if not 0.0 <= curve.auc <= 1.0:
            raise CheckFailed(f"class {curve.class_id} AUC {curve.auc!r} outside [0, 1]")


def check_same_params(saved, loaded) -> None:
    if loaded.arch != saved.arch or loaded.specs != saved.specs:
        raise CheckFailed("checkpoint did not round-trip the architecture")
    for i, (p, q) in enumerate(zip(saved.params, loaded.params)):
        for name in p:
            if p[name].tobytes() != q[name].tobytes():
                raise CheckFailed(f"checkpoint changed layer {i} parameter {name}")


def repeat_units(seconds: float, trace: bool, tracer, run_one, minimum: int) -> Units:
    """Run units until `seconds` pass and at least `minimum` were counted.

    With tracing, a first untraced unit is run and not counted, because a
    fresh model's first epoch runs slower than later ones; then units come
    in pairs, one traced and one not, alternating which goes first, so the
    overhead compares like with like.
    """
    units = Units()
    deadline = time.perf_counter() + seconds
    i = 0
    if trace:
        run_one(i)
        i += 1
    while (
        (n := len(units.plain) + len(units.traced)) < minimum
        or time.perf_counter() < deadline
        or (trace and n % 2)
    ):
        if trace and (n + n // 2) % 2 == 1:
            with tracing.installed(tracer), tracer.span("bench.unit", index=i):
                units.traced.append(run_one(i))
        else:
            units.plain.append(run_one(i))
        i += 1
    return units


# ---------------------------------------------------------------------------
# workloads


def run_train(arch, paths, sizes, seconds, trace, tracer, tally, tmp):
    def setup():
        return (
            load_split(paths, "train", tracer),
            load_split(paths, "test", tracer),
            model_mod.new_model(arch, seed=MODEL_SEED),
        )

    with tracing.installed(tracer) if trace else nullcontext():
        setup_s, (train_ds, test_ds, model) = timed_setup(sizes.setup_repeats, tracer, setup)
    losses, test_s = [], []

    def one(i):
        dt, history = train_unit(model, train_ds, test_ds, i, tally)
        losses.extend(history.train_loss)
        if not trace:
            test_s.extend(test_pass(model, test_ds, history, tally) for _ in range(TEST_PASSES))
        return dt

    units = repeat_units(seconds, trace, tracer, one, minimum=2)
    check_losses(losses)
    with tracing.installed(tracer) if trace else nullcontext():
        training.save_checkpoint(model, tmp / "model.ckpt")
        check_same_params(model, training.load_checkpoint(tmp / "model.ckpt"))
    inputs = {
        "train_images": len(train_ds),
        "test_images": len(test_ds),
        "batch_size": BATCH,
        "train_re_im_mib": (train_ds.re.nbytes + train_ds.im.nbytes) / 2**20,
        "train_unit_seconds": units.plain + units.traced,
        "test_pass_seconds": test_s,
        "train_loss_per_unit": losses,
    }
    out = {"setup_s": setup_s, "units": units, "inputs": inputs}
    if not trace:
        out["train_samples_per_s"] = len(train_ds) / _median(units.plain)
        out["evaluate_rows_per_s"] = len(test_ds) / _median(test_s)
    return model, out


def run_eval(paths, sizes, seconds, trace, tracer, tally, tmp):
    # The checkpoint is the benchmark's own set-up, outside setup_s.  Its
    # model goes on training on the small split after the eval units.
    ckpt_ds = load_split(paths, "train", tracer)
    model = model_mod.new_model("qocnn", seed=MODEL_SEED)
    train_s, losses = [], []

    def train_more(i):
        dt, history = train_unit(model, ckpt_ds, ckpt_ds, i, tally)
        train_s.append(dt)
        losses.extend(history.train_loss)
        return dt

    for i in range(CHECKPOINT_UNITS):
        train_more(i)
    ckpt = tmp / "model.ckpt"
    training.save_checkpoint(model, ckpt)

    def setup():
        return load_split(paths, "test", tracer), training.load_checkpoint(ckpt)

    with tracing.installed(tracer) if trace else nullcontext():
        setup_s, (test_ds, loaded) = timed_setup(sizes.setup_repeats, tracer, setup)
    check_same_params(model, loaded)
    distinct = []

    def one(i):
        dt, log_probs, _ = eval_unit(loaded, test_ds, tmp, tally)
        if not distinct:
            scores = np.exp(log_probs)
            distinct.extend(len(np.unique(scores[:, c])) for c in range(scores.shape[1]))
        return dt

    eval_seconds = seconds if trace else EVAL_SHARE * seconds
    units = repeat_units(eval_seconds, trace, tracer, one, minimum=1)
    if not trace:
        more = repeat_units(
            seconds - eval_seconds, False, tracer,
            lambda i: train_more(CHECKPOINT_UNITS + i), minimum=2,
        )
    check_losses(losses)
    inputs = {
        "test_images": len(test_ds),
        "predict_batch": PREDICT_BATCH,
        "train_images": len(ckpt_ds),
        "distinct_scores_per_class": distinct,
        "eval_unit_seconds": units.plain + units.traced,
        "train_unit_seconds": train_s,
        "train_loss_per_unit": losses,
    }
    out = {"setup_s": setup_s, "units": units, "inputs": inputs}
    if not trace:
        out["train_samples_per_s"] = len(ckpt_ds) / _median(more.plain)
        out["evaluate_rows_per_s"] = len(test_ds) / _median(units.plain)
    return loaded, out


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of the traced units


def model_ops(spec: layers.LayerSpec, b: int) -> int:
    """The paper's dense cost b*n^2 (resources.classical_ops) as b*in*out."""
    return b * spec.in_dim * spec.out_dim


def conv_cmacs(spans, members, spec) -> int:
    """Complex multiply-adds of the dense conv, computed from (d, k, s).

    A plan costs (n-1) d^3 to compose; a forward costs b d^2; a backward
    costs 2 b d^2 for grad_x and g_mf, plus its prefix and suffix products:
    2 max(n-2, 0) d^3 to build them and 2 (n-1) d^3 to apply them.
    """
    d = spec.in_dim
    n = -(-spec.k // spec.s)
    total = 0
    for i in members:
        name, attrs = spans[i][NAME], spans[i][ATTRS]
        if name == "layers.build_conv_plan":
            total += (n - 1) * d**3
        elif attrs.get("kind") == "quantum_conv" and name == "layers.forward":
            total += attrs["b"] * d * d
        elif attrs.get("kind") == "quantum_conv" and name == "layers.backward":
            total += 2 * attrs["b"] * d * d + (2 * max(n - 2, 0) + 2 * (n - 1)) * d**3
    return total


def per_layer_metrics(tracer, model, units: Units) -> dict[str, float]:
    spans = tracer.spans
    ms = [(s[END] - s[START]) / 1e6 for s in spans]
    self_ms = [ns / 1e6 for ns in tracer.self_ns()]
    root = []
    for s in spans:
        root.append(len(root) if s[PARENT] < 0 else root[s[PARENT]])

    def owner(i, names):
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        return p

    def named(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    unit_ids = named("bench.unit")
    in_units = set(unit_ids)
    first = [i for i in range(len(spans)) if root[i] == unit_ids[0]]
    train = any(spans[i][NAME] == "training.forward_loss" for i in first)
    step_names = (
        {"training.forward_loss", "training.backward"} if train else {"model.forward"}
    )
    # A step is a train step (forward_loss through the optimizer step) or, on
    # eval, one predict chunk (a model.forward under predict_log_probs).
    # step_of maps the span that owns a step's layer spans to the step.
    steps: list[dict] = []
    step_of: dict[int, dict] = {}
    for i, s in enumerate(spans):
        if root[i] not in in_units:
            continue
        name = s[NAME]
        if name == ("training.forward_loss" if train else "model.forward"):
            step = {"start": s[START], "end": s[END], "fwd": defaultdict(float),
                    "bwd": defaultdict(float), "plan": 0.0, "fl": ms[i], "bw": 0.0,
                    "opt": 0.0}
            steps.append(step)
            step_of[i] = step
        elif train and name == "training.backward" and steps:
            step_of[i] = steps[-1]
            steps[-1]["bw"] = ms[i]
        elif train and name == "training.optimizer_step" and steps:
            steps[-1]["opt"] = ms[i]
            steps[-1]["end"] = s[END]
        elif name in ("layers.forward", "layers.backward", "layers.build_conv_plan"):
            step = step_of.get(owner(i, step_names))
            if step is None:
                continue
            if name == "layers.build_conv_plan":
                step["plan"] += ms[i]
            else:
                # Self time: a conv forward's plan build is its child span.
                side = "fwd" if name == "layers.forward" else "bwd"
                step[side][s[ATTRS]["kind"]] += self_ms[i]
    step_ms = [(st["end"] - st["start"]) / 1e6 for st in steps]
    total_ms = sum(step_ms) or 1.0
    out: dict[str, float] = {}
    for kind in layers.LAYER_KINDS:
        out[f"layers.{kind}.fwd_ms_p50"] = _median(st["fwd"][kind] for st in steps)
        out[f"layers.{kind}.bwd_ms_p50"] = _median(st["bwd"][kind] for st in steps)
        out[f"layers.{kind}.share"] = (
            sum(st["fwd"][kind] + st["bwd"][kind] for st in steps) / total_ms
        )
    covered = [
        sum(st["fwd"].values()) + sum(st["bwd"].values()) + st["plan"] + st["opt"]
        for st in steps
    ]
    batch = BATCH if train else PREDICT_BATCH
    for kind in ("quantum_conv", "complex_linear"):
        ops = sum(model_ops(spec, batch) for spec in model.specs if spec.kind == kind)
        out[f"layers.{kind}.ns_per_model_op"] = (
            out[f"layers.{kind}.fwd_ms_p50"] * 1e6 / ops if ops else 0.0
        )
    conv = [spec for spec in model.specs if spec.kind == "quantum_conv"]
    out["layers.quantum_conv.plan_ms_p50"] = _median(st["plan"] for st in steps)
    out["layers.quantum_conv.plan_builds"] = sum(
        spans[i][NAME] == "layers.build_conv_plan" for i in first
    )
    out["layers.quantum_conv.computed_cmacs"] = (
        conv_cmacs(spans, first, conv[0]) if conv else 0
    )
    out["training.step_ms_p50"] = _median(step_ms) if train else 0.0
    out["training.step_ms_p90"] = float(np.percentile(step_ms, 90)) if train else 0.0
    out["training.forward_loss_ms_p50"] = _median(st["fl"] for st in steps) if train else 0.0
    out["training.backward_ms_p50"] = _median(st["bw"] for st in steps) if train else 0.0
    out["training.optimizer_ms_p50"] = _median(st["opt"] for st in steps) if train else 0.0
    out["training.test_pass_s"] = _median(
        ms[i] / 1e3 for i in named("training.evaluate_loss_accuracy")
    )
    predicts = named("training.predict_log_probs")
    predict_s = _median(ms[i] / 1e3 for i in predicts)
    out["training.predict_rows_per_s"] = (
        spans[predicts[0]][ATTRS]["rows"] / predict_s if predicts else 0.0
    )
    out["training.checkpoint_load_ms"] = _median(ms[i] for i in named("training.load_checkpoint"))
    out["model.unattributed_ms_p50"] = _median(t - c for t, c in zip(step_ms, covered))
    out["model.attributed_share"] = sum(covered) / total_ms
    loads = defaultdict(float)
    for i in named("data.load"):
        loads[spans[i][PARENT]] += ms[i] / 1e3
    out["data.load_s"] = _median(loads.values())
    out["data.batch_ms_p50"] = _median(ms[i] for i in named("data.batch"))
    out["metrics.evaluate_predictions_s"] = _median(
        ms[i] / 1e3 for i in named("metrics.evaluate_predictions")
    )
    out["metrics.roc_ms_p50"] = _median(ms[i] for i in named("metrics.roc_curve"))
    out["metrics.roc_thresholds"] = sum(
        spans[i][ATTRS]["thresholds"] for i in first if spans[i][NAME] == "metrics.roc_curve"
    )

    def per_unit_ms(name):
        per = dict.fromkeys(unit_ids, 0.0)
        for i in named(name):
            if root[i] in per:
                per[root[i]] += ms[i]
        return _median(per.values())

    out["metrics.csv_render_ms"] = per_unit_ms("metrics.csv_render")
    out["fileio.write_ms"] = per_unit_ms("fileio.atomic_write_bytes")
    out["fileio.bytes_written"] = sum(
        spans[i][ATTRS]["bytes"] for i in first if spans[i][NAME] == "fileio.atomic_write_bytes"
    )
    out["trace.overhead_pct"] = 100.0 * (_median(units.traced) / _median(units.plain) - 1.0)
    out["trace.spans"] = len(first)
    return out


# ---------------------------------------------------------------------------
# environment and entry point


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpuinfo = _read("/proc/cpuinfo") or ""
    cpu = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    l3 = _read("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_caps": {
            v: os.environ[v] for v in THREAD_VARS + ("QOCNN_THREADS",) if v in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "l3": l3.strip() if l3 else "unknown",
        "git_revision": _git_revision(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tally: Tally,
        sizes: Sizes, work_dir: Path) -> tuple[dict, dict]:
    """Run one workload; returns (metrics as name -> value, inputs)."""
    tracer = tracing.Tracer()
    work_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        tmp = Path(tmp)
        paths = write_inputs(tmp, workload, seed, sizes)
        if workload == "eval-qocnn":
            model, out = run_eval(paths, sizes, seconds, trace, tracer, tally, tmp)
        else:
            model, out = run_train(
                WORKLOADS[workload], paths, sizes, seconds, trace, tracer, tally, tmp
            )
    if trace:
        values = per_layer_metrics(tracer, model, out["units"])
        tracer.dump(
            work_dir / f"trace-{workload}-seed{seed}.jsonl",
            {"workload": workload, "seed": seed, "inputs": out["inputs"]},
        )
    else:
        values = {
            "setup_s": out["setup_s"],
            "train_samples_per_s": out["train_samples_per_s"],
            "evaluate_rows_per_s": out["evaluate_rows_per_s"],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": 1.0 - tally.failed / tally.attempted,
        }
    return values, out["inputs"]


def main(argv=None, sizes: Sizes = Sizes(), work_dir: Path = WORK_DIR) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    tally = Tally()
    env = environment()
    print("env: " + json.dumps(env))
    try:
        values, inputs = run(
            args.workload, args.seed, args.seconds, bool(args.trace), tally, sizes, work_dir
        )
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(tally.attempted, 1),
                          "failed": tally.failed, "metrics": {}}))
        return 1
    print("inputs: " + json.dumps(inputs))
    units = PER_LAYER if args.trace else END_TO_END
    result_metrics = {}
    for name, unit in units.items():
        print(f"{name:<42} {values[name]:>16.6g} {unit}")
        result_metrics[name] = {"value": values[name], "unit": unit}
    result = {"correct": True, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": result_metrics}
    (work_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "inputs": inputs, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
