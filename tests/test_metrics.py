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

    def test_two_dimensional_labels_rejected(self):
        with pytest.raises(ValueError) as info:
            accuracy([1, 2], [[1], [2]])
        assert str(info.value) == "labels must be one-dimensional"


class TestConfusion:
    def test_length_mismatch_names_both_lengths(self):
        with pytest.raises(ValueError) as info:
            confusion([1, 2], [1, 2, 3])
        assert str(info.value) == "length mismatch: 2 predictions vs 3 labels"

    def test_a_non_square_matrix_rejected(self):
        with pytest.raises(ValueError) as info:
            ConfusionMatrix(np.zeros((2, 3), dtype=np.int64))
        assert str(info.value) == "confusion matrix must be square, got (2, 3)"

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

    def test_matches_add_at_oracle(self):
        def add_at_confusion(preds, labels, n):
            counts = np.zeros((n, n), dtype=np.int64)
            rows, cols = np.asarray(labels, np.int64), np.asarray(preds, np.int64)
            np.add.at(counts, (rows, cols), 1)
            return counts

        rng = np.random.default_rng(3)
        cases = [
            (rng.integers(0, 10, 1000), rng.integers(0, 10, 1000), 10),
            (rng.integers(0, 3, 200), rng.integers(5, 10, 200), 10),  # empty classes
            ([7], [2], 10),  # one sample
            ([], [], 10),
            (rng.integers(0, 4, 50), rng.integers(0, 4, 50), 4),
        ]
        for preds, labels, n in cases:
            cm = confusion(preds, labels, n_classes=n)
            want = add_at_confusion(preds, labels, n)
            assert cm.counts.dtype == np.int64
            np.testing.assert_array_equal(cm.counts, want)


class TestBinaryCounts:
    @pytest.mark.parametrize("c", [-1, 10])
    def test_class_out_of_range(self, c):
        with pytest.raises(ValueError) as info:
            binary_counts(ConfusionMatrix(np.eye(10, dtype=np.int64)), c)
        assert str(info.value) == f"class {c} out of range 0..9"

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

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, np.float64(3.0)])
    def test_non_integer_counts_rejected(self, bad):
        with pytest.raises(ValueError) as info:
            mcc_binary(5, 0, bad, 0)
        assert str(info.value) == f"counts must be integers >= 0, got {bad!r}"

    def test_numpy_integer_counts_accepted(self):
        assert mcc_binary(*np.array([50, 0, 50, 0], dtype=np.int64)) == 1.0


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
    """The full sweep with one pass over the samples per threshold; returns
    the thresholds, the integer counts fp and tp, fpr, tpr and the AUC."""
    s = scores[:, c]
    pos = labels == c
    n_pos = int(pos.sum())
    n_neg = int(labels.shape[0] - n_pos)
    thresholds = np.concatenate(([np.inf], np.unique(s)[::-1], [-np.inf]))
    fp = [int((s >= t)[~pos].sum()) for t in thresholds]
    tp = [int((s >= t)[pos].sum()) for t in thresholds]
    fpr = np.array(fp) / n_neg
    tpr = np.array(tp) / n_pos
    auc = float(((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0).sum())
    return thresholds, fp, tp, fpr, tpr, auc


def roc_vertex_oracle(fp, tp) -> list[int]:
    """Rows of the full sweep that are vertices of its polyline, in Python
    integers: a row at the point of the row before it is skipped, the last
    row stands for the rows at its point just before it, and an inner row
    is kept when its incoming and outgoing steps, reduced by their gcd,
    point in different directions."""
    points = list(zip(fp, tp))
    last = len(points) - 1
    rows = [i for i in range(last) if i == 0 or points[i] != points[i - 1]]
    while len(rows) > 1 and points[rows[-1]] == points[last]:
        rows.pop()
    rows.append(last)

    def direction(a, b):
        dx, dy = points[b][0] - points[a][0], points[b][1] - points[a][1]
        g = math.gcd(dx, dy)
        return dx // g, dy // g

    inner = [
        j for i, j, k in zip(rows, rows[1:], rows[2:])
        if direction(i, j) != direction(j, k)
    ]
    return [rows[0]] + inner + [rows[-1]]


def roc_trials():
    """(scores, labels) with distinct scores, heavy ties, and extreme finite
    scores (huge, signed zeros, subnormal) in class 0."""
    rng = np.random.default_rng(14)
    for trial in range(4):
        n = 2000
        labels = rng.integers(0, 10, n)
        scores = rng.dirichlet(np.ones(10), n)
        if trial % 2:
            scores = np.round(scores, 2)  # heavy ties
        if trial == 3:
            scores[:5, 0] = [1e308, -1e308, 0.0, -0.0, 5e-324]
        yield scores, labels


def on_segment(a, b, p) -> bool:
    """Whether the integer point p lies on the closed segment a-b."""
    cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    return cross == 0 and all(min(u, v) <= w <= max(u, v) for u, v, w in zip(a, b, p))


class TestRocCurve:
    def test_scores_that_do_not_match_the_labels_rejected(self):
        with pytest.raises(ValueError) as info:
            roc_curve(np.zeros((3, 2)), [0, 1], 0)
        assert str(info.value) == "scores of shape (3, 2) do not match 2 labels"

    @pytest.mark.parametrize("c", [-1, 2])
    def test_class_out_of_range(self, c):
        with pytest.raises(ValueError) as info:
            roc_curve(np.zeros((2, 2)), [0, 1], c)
        assert str(info.value) == f"class {c} out of range 0..1"

    def test_matches_loop_oracle_bitwise(self):
        for scores, labels in roc_trials():
            for c in range(10):
                curve = roc_curve(scores, labels, c)
                thresholds, fp, tp, fpr, tpr, auc = roc_by_threshold_loop(scores, labels, c)
                rows = roc_vertex_oracle(fp, tp)
                assert curve.thresholds.tobytes() == thresholds[rows].tobytes()
                assert curve.fpr.tobytes() == fpr[rows].tobytes()
                assert curve.tpr.tobytes() == tpr[rows].tobytes()
                assert curve.auc == auc

    def test_every_threshold_lies_on_the_kept_polyline(self):
        for scores, labels in roc_trials():
            for c in range(10):
                curve = roc_curve(scores, labels, c)
                _, fp, tp, _, _, _ = roc_by_threshold_loop(scores, labels, c)
                n_pos, n_neg = int((labels == c).sum()), int((labels != c).sum())
                kept = list(
                    zip(np.rint(curve.fpr * n_neg).astype(int).tolist(),
                        np.rint(curve.tpr * n_pos).astype(int).tolist())
                )
                assert [f / n_neg for f, _ in kept] == curve.fpr.tolist()
                assert [t / n_pos for _, t in kept] == curve.tpr.tolist()
                assert kept[0] == (fp[0], tp[0]) and kept[-1] == (fp[-1], tp[-1])
                # walk the full sweep in order along the kept segments
                j = 0
                for point in zip(fp, tp):
                    while not on_segment(kept[j], kept[j + 1], point):
                        j += 1
                        assert j < len(kept) - 1, f"class {c}: {point} is off the curve"

    def test_perfect_separation_keeps_three_rows(self):
        scores, labels = two_class_scores([0.9, 0.8, 0.7], [0.3, 0.2, 0.1])
        curve = roc_curve(scores, labels, c=1)
        assert curve.thresholds.tolist() == [np.inf, 0.7, -np.inf]
        assert curve.fpr.tolist() == [0.0, 0.0, 1.0]
        assert curve.tpr.tolist() == [0.0, 1.0, 1.0]

    def test_repeated_points_are_dropped_before_the_turn_test(self):
        # the appended -inf repeats the point of the lowest score, 0.1, whose
        # row is dropped; the rows at 0.9 and 0.5 are turns
        scores, labels = two_class_scores([0.9, 0.1], [0.1, 0.5])
        curve = roc_curve(scores, labels, c=1)
        assert curve.thresholds.tolist() == [np.inf, 0.9, 0.5, -np.inf]
        assert curve.fpr.tolist() == [0.0, 0.0, 0.5, 1.0]
        assert curve.tpr.tolist() == [0.0, 0.5, 0.5, 1.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        scores, labels = next(roc_trials())
        scores[[3, 7], 4] = bad
        message = "^class 4 has a non-finite score in row 3$"
        with pytest.raises(ValueError, match=message):
            roc_curve(scores, labels, 4)
        with pytest.raises(ValueError, match=message):
            evaluate_predictions(scores, labels)
        roc_curve(scores, labels, 5)  # other classes are unaffected

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


def roc_csv_oracle(curve) -> str:
    """The renderer that formatted numpy scalars one f-string at a time."""
    lines = ["threshold,fpr,tpr"]
    for t, f, r in zip(curve.thresholds, curve.fpr, curve.tpr):
        lines.append(f"{t:.10g},{f:.10g},{r:.10g}")
    return "\n".join(lines) + "\n"


class TestCsvRenderings:
    def test_roc_csv_matches_fstring_oracle_bytewise(self):
        rng = np.random.default_rng(15)
        n = 600
        labels = rng.integers(0, 10, n)
        scores = rng.random((n, 10))
        scores[:40] = np.round(scores[:40], 1)  # tied scores
        scores[40:60, 3] = 5e-324 * rng.integers(1, 1000, 20)  # subnormals
        scores[60:70, 4] = -0.0
        scores[70:75, 5] = 1.7976931348623157e308
        scores[75:80, 5] = -1e300
        curves = [roc_curve(scores, labels, c) for c in range(10)]
        curves.append(
            metrics.RocCurve(
                class_id=0,
                thresholds=np.array(
                    [np.inf, 1e300, 1.0 / 3.0, 2.2250738585072014e-308, -0.0, -np.inf]
                ),
                fpr=np.array([0.0, 1e-17, 0.123456789012345, 0.5, np.nan, 1.0]),
                tpr=np.array([0.0, 0.1, 0.2, 2.0 / 3.0, 0.99999999999, 1.0]),
                auc=0.5,
            )
        )
        for curve in curves:
            got = metrics.roc_csv(curve)
            assert got.encode() == roc_csv_oracle(curve).encode()
            assert got.splitlines()[1].startswith("inf,")
            assert got.splitlines()[-1].startswith("-inf,")

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
