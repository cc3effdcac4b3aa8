"""Accuracy, confusion, MCC, and ROC/AUC against hand and counting oracles."""

import math

import numpy as np
import pytest

from qocnn import metrics
from qocnn.metrics import (
    ConfusionMatrix,
    accuracy,
    auc_summary_csv,
    binary_counts,
    confusion,
    confusion_csv,
    evaluate_predictions,
    mcc_binary,
    mcc_macro,
    roc_curve,
)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_all_wrong(self):
        assert accuracy([1, 2, 3], [2, 3, 4]) == 0.0

    def test_fraction(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 10, 10000)
        preds = labels.copy()
        wrong = rng.choice(10000, size=300, replace=False)
        preds[wrong] = (preds[wrong] + 1) % 10
        assert accuracy(preds, labels) == pytest.approx(0.97, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            accuracy([1, 2], [1, 2, 3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        labels = np.repeat(np.arange(10), 3)
        cm = confusion(labels, labels)
        assert np.all(cm.counts == np.diag(np.full(10, 3)))

    def test_single_sample(self):
        cm = confusion([5], [3])
        assert cm.counts[3, 5] == 1
        assert cm.total == 1

    def test_row_sums_match_label_counts(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 10, 1000)
        preds = rng.integers(0, 10, 1000)
        cm = confusion(preds, labels)
        expected = np.bincount(labels, minlength=10)
        np.testing.assert_array_equal(cm.counts.sum(axis=1), expected)
        assert cm.total == 1000

    def test_trace_over_total_is_accuracy(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 10, 500)
        preds = rng.integers(0, 10, 500)
        cm = confusion(preds, labels)
        assert np.trace(cm.counts) / cm.total == accuracy(preds, labels)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            confusion([10], [0])
        with pytest.raises(ValueError):
            confusion([0], [-1])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.array([[1, -1], [0, 2]]))


class TestBinaryCounts:
    def test_diagonal_has_no_errors(self):
        cm = ConfusionMatrix(np.diag(np.arange(1, 11)))
        for c in range(10):
            tp, fp, tn, fn = binary_counts(cm, c)
            assert fp == 0 and fn == 0
            assert tp == c + 1

    def test_partition_sums_to_total(self):
        rng = np.random.default_rng(3)
        cm = ConfusionMatrix(rng.integers(0, 50, (10, 10)))
        for c in range(10):
            assert sum(binary_counts(cm, c)) == cm.total

    def test_matches_per_sample_tally(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 10, 400)
        preds = rng.integers(0, 10, 400)
        cm = confusion(preds, labels)
        for c in range(10):
            tp = int(np.sum((labels == c) & (preds == c)))
            fp = int(np.sum((labels != c) & (preds == c)))
            tn = int(np.sum((labels != c) & (preds != c)))
            fn = int(np.sum((labels == c) & (preds != c)))
            assert binary_counts(cm, c) == (tp, fp, tn, fn)


class TestMccBinary:
    def test_perfect_classifier(self):
        assert mcc_binary(50, 0, 50, 0) == 1.0

    def test_chance_level(self):
        assert mcc_binary(25, 25, 25, 25) == 0.0

    def test_mixed_case_direct_formula(self):
        got = mcc_binary(90, 15, 85, 10)
        direct = (90 * 85 - 15 * 10) / math.sqrt(105 * 100 * 100 * 95)
        assert got == pytest.approx(direct, abs=1e-15)
        assert got == pytest.approx(0.7507, abs=5e-4)

    def test_zero_denominator_convention(self):
        assert mcc_binary(0, 0, 10, 0) == 0.0
        assert mcc_binary(5, 0, 0, 0) == 0.0

    def test_symmetry_under_tp_tn_exchange(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            tp, fp, tn, fn = (int(v) for v in rng.integers(0, 40, 4))
            assert mcc_binary(tp, fp, tn, fn) == pytest.approx(
                mcc_binary(tn, fn, tp, fp), abs=1e-15
            )

    def test_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            tp, fp, tn, fn = (int(v) for v in rng.integers(0, 100, 4))
            assert -1.0 <= mcc_binary(tp, fp, tn, fn) <= 1.0

    def test_anticorrelated_is_minus_one(self):
        assert mcc_binary(0, 10, 0, 10) == -1.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            mcc_binary(-1, 0, 0, 0)


class TestMccMacro:
    def test_diagonal_is_one(self):
        cm = ConfusionMatrix(np.diag(np.full(10, 7)))
        assert mcc_macro(cm) == 1.0

    def test_random_predictions_near_zero(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 10, 10000)
        preds = rng.integers(0, 10, 10000)
        assert abs(mcc_macro(confusion(preds, labels))) < 0.05

    def test_is_unweighted_mean(self):
        rng = np.random.default_rng(8)
        cm = confusion(rng.integers(0, 10, 300), rng.integers(0, 10, 300))
        per_class = [mcc_binary(*binary_counts(cm, c)) for c in range(10)]
        assert mcc_macro(cm) == pytest.approx(np.mean(per_class), abs=1e-15)


def two_class_scores(pos_scores, neg_scores):
    """Rows of (1 - s, s) score vectors with labels 1 for positives."""
    s = np.array(list(pos_scores) + list(neg_scores))
    labels = np.array([1] * len(pos_scores) + [0] * len(neg_scores))
    return np.column_stack([1.0 - s, s]), labels


def auc_by_threshold_enumeration(s, pos) -> float:
    """Exhaustive sweep oracle: trapezoid over all distinct thresholds."""
    points = []
    for t in [np.inf] + sorted(set(s), reverse=True) + [-np.inf]:
        predicted = s >= t
        points.append(
            (
                (predicted & ~pos).sum() / (~pos).sum(),
                (predicted & pos).sum() / pos.sum(),
            )
        )
    auc = 0.0
    for (f0, t0), (f1, t1) in zip(points, points[1:]):
        auc += (f1 - f0) * (t0 + t1) / 2.0
    return auc


def roc_by_threshold_loop(scores, labels, c):
    """The sweep with one full pass over the samples per threshold."""
    s = scores[:, c]
    pos = labels == c
    n_pos = int(pos.sum())
    n_neg = int(labels.shape[0] - n_pos)
    thresholds = np.concatenate(([np.inf], np.unique(s)[::-1], [-np.inf]))
    fpr = np.empty(thresholds.shape[0])
    tpr = np.empty(thresholds.shape[0])
    for i, t in enumerate(thresholds):
        predicted = s >= t
        tpr[i] = (predicted & pos).sum() / n_pos
        fpr[i] = (predicted & ~pos).sum() / n_neg
    auc = float(((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0).sum())
    return thresholds, fpr, tpr, auc


class TestRocCurve:
    def test_matches_loop_oracle_bitwise(self):
        rng = np.random.default_rng(14)
        for trial in range(4):
            n = 2000
            labels = rng.integers(0, 10, n)
            scores = rng.dirichlet(np.ones(10), n)
            if trial % 2:
                scores = np.round(scores, 2)  # heavy ties
            if trial == 3:
                scores[:5, 0] = [np.nan, np.inf, -np.inf, np.nan, 0.5]
            for c in range(10):
                curve = roc_curve(scores, labels, c)
                thresholds, fpr, tpr, auc = roc_by_threshold_loop(scores, labels, c)
                assert curve.thresholds.tobytes() == thresholds.tobytes()
                assert curve.fpr.tobytes() == fpr.tobytes()
                assert curve.tpr.tobytes() == tpr.tobytes()
                assert curve.auc == auc

    def test_hand_case_auc(self):
        scores, labels = two_class_scores([0.9, 0.4], [0.6, 0.1])
        curve = roc_curve(scores, labels, c=1)
        assert curve.auc == pytest.approx(0.75, abs=1e-12)
        oracle = auc_by_threshold_enumeration(scores[:, 1], labels == 1)
        assert curve.auc == pytest.approx(oracle, abs=1e-15)

    def test_perfect_separation(self):
        scores, labels = two_class_scores([0.9, 0.8, 0.7], [0.3, 0.2, 0.1])
        assert roc_curve(scores, labels, c=1).auc == 1.0

    def test_reversed_separation_is_zero(self):
        scores, labels = two_class_scores([0.1, 0.2], [0.8, 0.9])
        assert roc_curve(scores, labels, c=1).auc == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(9)
        s = rng.uniform(size=2000)
        scores = np.column_stack([1.0 - s, s])
        labels = rng.integers(0, 2, 2000)
        auc = roc_curve(scores, labels, c=1).auc
        assert abs(auc - 0.5) < 0.03

    def test_matches_enumeration_oracle_with_ties(self):
        rng = np.random.default_rng(10)
        s = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=60)
        labels = rng.integers(0, 2, 60)
        scores = np.column_stack([1.0 - s, s])
        curve = roc_curve(scores, labels, c=1)
        oracle = auc_by_threshold_enumeration(s, labels == 1)
        assert curve.auc == pytest.approx(oracle, abs=1e-15)

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(11)
        s = rng.uniform(size=100)
        scores = np.column_stack([1.0 - s, s])
        labels = rng.integers(0, 2, 100)
        curve = roc_curve(scores, labels, c=1)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)

    def test_auc_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(12)
        s = rng.uniform(size=200)
        labels = rng.integers(0, 2, 200)
        base = roc_curve(np.column_stack([1.0 - s, s]), labels, c=1).auc
        for transform in (lambda v: v**3, lambda v: np.exp(4 * v), lambda v: 2 * v - 7):
            t = transform(s)
            auc = roc_curve(np.column_stack([-t, t]), labels, c=1).auc
            assert auc == pytest.approx(base, abs=1e-12)

    def test_single_class_rejected(self):
        scores = np.array([[0.5, 0.5], [0.4, 0.6]])
        with pytest.raises(ValueError, match="positives"):
            roc_curve(scores, np.array([1, 1]), c=1)
        with pytest.raises(ValueError, match="negative"):
            roc_curve(scores, np.array([0, 0]), c=1)


class TestEvalReport:
    def make_scores(self, n=200, seed=13):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 10, n)
        logits = rng.normal(size=(n, 10))
        logits[np.arange(n), labels] += 2.5
        scores = np.exp(logits)
        scores /= scores.sum(axis=1, keepdims=True)
        return scores, labels

    def test_report_is_internally_consistent(self):
        scores, labels = self.make_scores()
        report = evaluate_predictions(scores, labels)
        preds = scores.argmax(axis=1)
        assert report.accuracy == accuracy(preds, labels)
        assert report.mcc_macro == pytest.approx(
            np.mean(report.mcc_per_class), abs=1e-15
        )
        assert len(report.roc) == 10
        assert np.trace(report.confusion.counts) / report.confusion.total == (
            report.accuracy
        )

    def test_summary_mentions_every_class(self):
        scores, labels = self.make_scores()
        text = evaluate_predictions(scores, labels).summary()
        for c in range(10):
            assert f"class {c}:" in text


class TestCsvRenderings:
    def test_confusion_csv_shape(self):
        rng = np.random.default_rng(14)
        cm = confusion(rng.integers(0, 10, 100), rng.integers(0, 10, 100))
        lines = confusion_csv(cm).strip().splitlines()
        assert len(lines) == 11
        assert lines[0].split(",")[1:] == [str(c) for c in range(10)]
        total = sum(
            int(v) for line in lines[1:] for v in line.split(",")[1:]
        )
        assert total == 100

    def test_roc_csv_rows(self):
        scores, labels = two_class_scores([0.9, 0.4], [0.6, 0.1])
        curve = roc_curve(scores, labels, c=1)
        lines = metrics.roc_csv(curve).strip().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert len(lines) == 1 + len(curve.thresholds)

    def test_auc_summary_rows(self):
        scores, labels = two_class_scores([0.9, 0.4], [0.6, 0.1])
        curves = [roc_curve(scores, labels, c=c) for c in range(2)]
        lines = auc_summary_csv(curves).strip().splitlines()
        assert lines[0] == "class,auc"
        assert len(lines) == 3
