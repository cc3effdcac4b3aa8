"""Evaluation metrics: accuracy, confusion matrix, MCC, ROC curves."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CLASSES, as_int, class_labels


@dataclass
class ConfusionMatrix:
    """Counts with rows indexed by true class, columns by predicted class."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.counts)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"confusion matrix must be square, got {c.shape}")
        if (c < 0).any():
            raise ValueError("confusion matrix entries must be >= 0")
        self.counts = c.astype(np.int64)

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _paired(preds, labels, width: int) -> tuple[np.ndarray, np.ndarray]:
    preds = class_labels(preds, width, "prediction")
    labels = class_labels(labels, width, "label")
    if preds.shape[0] != labels.shape[0]:
        raise ValueError(
            f"length mismatch: {preds.shape[0]} predictions vs "
            f"{labels.shape[0]} labels"
        )
    return preds, labels


def accuracy(preds, labels) -> float:
    """Share of predictions equal to their labels; each a whole number >= 0."""
    preds, labels = _paired(preds, labels, 2**63)  # no width: any int64 >= 0
    if preds.shape[0] == 0:
        raise ValueError("cannot compute accuracy of zero samples")
    return float((preds == labels).mean())


def confusion(preds, labels, n_classes: int = CLASSES) -> ConfusionMatrix:
    preds, labels = _paired(preds, labels, n_classes)
    counts = np.bincount(labels * n_classes + preds, minlength=n_classes * n_classes)
    return ConfusionMatrix(counts.reshape(n_classes, n_classes))


def binary_counts(cm: ConfusionMatrix, c: int) -> tuple[int, int, int, int]:
    """One-vs-rest reduction of class c to (TP, FP, TN, FN)."""
    if not 0 <= c < cm.n_classes:
        raise ValueError(f"class {c} out of range 0..{cm.n_classes - 1}")
    counts = cm.counts
    tp = int(counts[c, c])
    fp = int(counts[:, c].sum()) - tp
    fn = int(counts[c, :].sum()) - tp
    tn = cm.total - tp - fp - fn
    return tp, fp, tn, fn


def mcc_binary(tp: int, fp: int, tn: int, fn: int) -> float:
    """Matthews correlation; degenerate tables (a zero factor) return 0."""
    for v in (tp, fp, tn, fn):
        as_int(v, "counts must be integers >= 0", 0)
    denom_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom_sq == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom_sq)


def mcc_per_class(cm: ConfusionMatrix) -> list[float]:
    return [mcc_binary(*binary_counts(cm, c)) for c in range(cm.n_classes)]


def mcc_macro(cm: ConfusionMatrix) -> float:
    """Unweighted mean of the one-vs-rest MCC values."""
    per_class = mcc_per_class(cm)
    return float(sum(per_class) / len(per_class))


@dataclass
class RocCurve:
    """One-vs-rest curve for a single class, swept over score thresholds.

    thresholds, fpr and tpr list the curve's vertices, its first and last
    points included; auc is the trapezoid over every threshold."""

    class_id: int
    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def roc_curve(scores, labels, c: int) -> RocCurve:
    """Threshold sweep for class c; a sample is predicted positive when its
    class-c score is >= the threshold.  Thresholds are the distinct observed
    scores bracketed by +-inf so the curve runs from (0,0) to (1,1).  Every
    class-c score must be finite, and each label one of the score columns."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = class_labels(labels, scores.shape[1] if scores.ndim == 2 else 2**63, "label")
    if scores.ndim != 2 or scores.shape[0] != labels.shape[0]:
        raise ValueError(
            f"scores of shape {scores.shape} do not match {labels.shape[0]} labels"
        )
    if not 0 <= c < scores.shape[1]:
        raise ValueError(f"class {c} out of range 0..{scores.shape[1] - 1}")
    s = scores[:, c]
    bad = np.flatnonzero(~np.isfinite(s))
    if bad.size:
        raise ValueError(f"class {c} has a non-finite score in row {bad[0]}")
    pos = labels == c
    n_pos = int(pos.sum())
    n_neg = int(labels.shape[0] - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"class {c} needs both positives and negatives, got "
            f"{n_pos} positive and {n_neg} negative samples"
        )
    thresholds = np.concatenate(
        ([np.inf], np.unique(s)[::-1], [-np.inf])
    )
    # Count s >= t by binary search in each side's sorted scores.
    pos_sorted = np.sort(s[pos])
    neg_sorted = np.sort(s[~pos])
    tp = pos_sorted.size - np.searchsorted(pos_sorted, thresholds, "left")
    fp = neg_sorted.size - np.searchsorted(neg_sorted, thresholds, "left")
    tpr = tp / n_pos
    fpr = fp / n_neg
    auc = float(((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0).sum())
    keep = _vertices(fp, tp)
    return RocCurve(
        class_id=c, thresholds=thresholds[keep], fpr=fpr[keep], tpr=tpr[keep], auc=auc
    )


def _vertices(fp: np.ndarray, tp: np.ndarray) -> np.ndarray:
    """Rows where the polyline through the integer points (fp, tp) turns,
    with its first and last rows; a turn is a nonzero cross product of the
    steps in and out.  With finite scores tp and fp never decrease, and only
    the last row can repeat the point before it: the zero-length step then
    drops that earlier row."""
    dx = np.diff(fp)
    dy = np.diff(tp)
    turns = np.ones(fp.shape[0], dtype=bool)
    turns[1:-1] = dx[:-1] * dy[1:] != dy[:-1] * dx[1:]
    return np.flatnonzero(turns)


@dataclass
class EvalReport:
    accuracy: float
    confusion: ConfusionMatrix
    mcc_per_class: list[float]
    mcc_macro: float
    roc: list[RocCurve]

    def summary(self) -> str:
        lines = [
            f"accuracy: {self.accuracy:.4f}",
            f"macro MCC: {self.mcc_macro:.4f}",
        ]
        for c, (m, curve) in enumerate(zip(self.mcc_per_class, self.roc)):
            lines.append(f"class {c}: mcc={m:.4f} auc={curve.auc:.4f}")
        return "\n".join(lines)


def evaluate_predictions(scores, labels) -> EvalReport:
    """Full report from per-sample probability rows and true labels."""
    scores = np.asarray(scores, dtype=np.float64)
    preds = scores.argmax(axis=1)
    labels = class_labels(labels, scores.shape[1], "label")
    cm = confusion(preds, labels, n_classes=scores.shape[1])
    return EvalReport(
        accuracy=accuracy(preds, labels),
        confusion=cm,
        mcc_per_class=mcc_per_class(cm),
        mcc_macro=mcc_macro(cm),
        roc=[roc_curve(scores, labels, c) for c in range(scores.shape[1])],
    )


# ---------------------------------------------------------------------------
# CSV renderings


def confusion_csv(cm: ConfusionMatrix) -> str:
    header = "true\\pred," + ",".join(str(c) for c in range(cm.n_classes))
    lines = [header]
    for t in range(cm.n_classes):
        lines.append(f"{t}," + ",".join(str(int(v)) for v in cm.counts[t]))
    return "\n".join(lines) + "\n"


def roc_csv(curve: RocCurve) -> str:
    # %-formatting of Python floats, one call per row, is the same text as
    # an f-string per numpy scalar at about half the cost
    rows = zip(curve.thresholds.tolist(), curve.fpr.tolist(), curve.tpr.tolist())
    body = "".join("%.10g,%.10g,%.10g\n" % row for row in rows)
    return "threshold,fpr,tpr\n" + body


def auc_summary_csv(curves: list[RocCurve]) -> str:
    lines = ["class,auc"]
    for curve in curves:
        lines.append(f"{curve.class_id},{curve.auc:.10g}")
    return "\n".join(lines) + "\n"
