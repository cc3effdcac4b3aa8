"""Self-test of the benchmark at tiny sizes.

Checks that every metric BENCHMARK.json names is printed with its unit, and
that corrupted program outputs fail the run.  From the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

TINY = run.Sizes(train=512, test=256, checkpoint_train=256, setup_repeats=2)
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
ARGS = ["--seed", "5", "--seconds", "0"]


def bench(capsys, tmp_path, workload: str, trace: int):
    rc = run.main(
        ["--workload", workload, *ARGS, "--trace", str(trace)], sizes=TINY, work_dir=tmp_path
    )
    captured = capsys.readouterr()
    return rc, captured.out.splitlines(), captured.err


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(capsys, tmp_path, workload, trace):
    rc, lines, err = bench(capsys, tmp_path, workload, trace)
    assert rc == 0, err
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.strip()}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0


def _nan_row(monkeypatch):
    real = run.training.predict_log_probs

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        out[0, 0] = np.nan
        return out

    monkeypatch.setattr(run.training, "predict_log_probs", corrupted)


def _unnormalised(monkeypatch):
    real = run.training.predict_log_probs
    monkeypatch.setattr(
        run.training, "predict_log_probs", lambda *a, **k: real(*a, **k) + 1e-6
    )


def _changed_checkpoint(monkeypatch):
    real = run.training.load_checkpoint

    def corrupted(path):
        model = real(path)
        kernel = model.params[0]["K"]
        kernel.real[0, 0] = np.nextafter(kernel.real[0, 0], np.inf)  # one ulp
        return model

    monkeypatch.setattr(run.training, "load_checkpoint", corrupted)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_nan_row, "non-finite"),
        (_unnormalised, "log-sum-exp"),
        (_changed_checkpoint, "checkpoint changed"),
    ],
)
def test_corrupted_output_fails_the_run(capsys, tmp_path, monkeypatch, corrupt, message):
    corrupt(monkeypatch)
    rc, lines, err = bench(capsys, tmp_path, "eval-qocnn", 0)
    assert rc == 1
    assert json.loads(lines[-1])["correct"] is False
    assert message in err


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-onn", *ARGS, "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
