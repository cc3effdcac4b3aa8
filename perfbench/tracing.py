"""In-memory spans around qocnn's public functions, attached from outside.

The program is not edited.  `installed` replaces module attributes that
model.py, training.py, metrics.py and fileio.py look up at call time, and
puts the originals back on exit, so code run outside it is untraced.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

from qocnn import data, fileio, layers, metrics, training

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """Spans kept as [name, start_ns, end_ns, parent_index, attrs].

    A span's parent is the span open when it began, or -1.  Spans are
    appended when they begin, so a parent always precedes its children.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._open: list[int] = []

    def begin(self, name: str, attrs: dict | None = None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, attrs or {}])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._open.pop()

    def leaf(self, name: str, start: int, end: int, attrs: dict) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent, attrs])

    @contextmanager
    def span(self, name: str, **attrs):
        """A span when tracing is on; nothing at all when it is off."""
        if not self.enabled:
            yield
            return
        idx = self.begin(name, attrs)
        try:
            yield
        finally:
            self.end(idx)

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def dump(self, path, header: dict) -> None:
        """Write a header line, then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s, self_ns in zip(self.spans, self.self_ns()):
                rec = {
                    "name": s[NAME],
                    "start_ns": s[START],
                    "end_ns": s[END],
                    "parent": s[PARENT],
                    "self_ns": self_ns,
                }
                rec.update(s[ATTRS])
                fh.write(json.dumps(rec) + "\n")


def _layer_attrs(args, out):
    spec, _, x = args
    return {"kind": spec.kind, "b": x.shape[0]}


# (owner, attribute, span name, attrs from (args, result) or None)
WRAPPED = (
    (layers, "layer_forward", "layers.forward", _layer_attrs),
    (layers, "layer_backward", "layers.backward", _layer_attrs),
    (layers, "build_conv_plan", "layers.build_conv_plan", None),
    (training, "model_forward", "model.forward", None),
    (training, "model_backward", "model.backward", None),
    (training, "forward_loss", "training.forward_loss", None),
    (training, "backward", "training.backward", None),
    (training.AdamOptimizer, "step", "training.optimizer_step", None),
    (training, "evaluate_loss_accuracy", "training.evaluate_loss_accuracy", None),
    (training, "predict_log_probs", "training.predict_log_probs",
     lambda args, out: {"rows": out.shape[0]}),
    (training, "load_checkpoint", "training.load_checkpoint", None),
    (metrics, "evaluate_predictions", "metrics.evaluate_predictions", None),
    (metrics, "roc_curve", "metrics.roc_curve",
     lambda args, out: {"thresholds": out.thresholds.shape[0]}),
    (metrics, "confusion_csv", "metrics.csv_render", None),
    (metrics, "roc_csv", "metrics.csv_render", None),
    (metrics, "auc_summary_csv", "metrics.csv_render", None),
    (fileio, "atomic_write_bytes", "fileio.atomic_write_bytes",
     lambda args, out: {"bytes": len(args[1])}),
)


def _wrap(tracer: Tracer, fn, name: str, attrs_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if attrs_of is not None:
            tracer.spans[idx][ATTRS].update(attrs_of(args, out))
        return out

    return wrapper


def _wrap_batches(tracer: Tracer, fn):
    """batch_iter is a generator: time each batch it yields, not the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        batches = fn(*args, **kwargs)
        while True:
            start = time.perf_counter_ns()
            try:
                batch = next(batches)
            except StopIteration:
                return
            tracer.leaf("data.batch", start, time.perf_counter_ns(), {"b": len(batch)})
            yield batch

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Trace every call in WRAPPED and every batch while the block runs."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in WRAPPED]
    saved.append((data, "batch_iter", data.batch_iter))
    try:
        for owner, attr, name, attrs_of in WRAPPED:
            setattr(owner, attr, _wrap(tracer, getattr(owner, attr), name, attrs_of))
        data.batch_iter = _wrap_batches(tracer, data.batch_iter)
        tracer.enabled = True
        yield tracer
    finally:
        tracer.enabled = False
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
