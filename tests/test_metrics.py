"""Evaluation metrics: masked errors, binary classification, clustering scores."""

import math
import warnings

import numpy as np
import pytest

from potsmine import (
    binary_classification_metrics,
    masked_mae,
    masked_mre,
    masked_mse,
    masked_rmse,
    purity,
    rand_index,
)
from potsmine.errors import InvalidInputError
from potsmine.metrics import _SquareSum


# ---------------------------------------------------------------------------
# masked imputation errors

def test_masked_mae_example():
    assert masked_mae([1.0, 2.0, 3.0], [2.0, 4.0, 3.0], [1, 1, 0]) == 1.5


def test_perfect_prediction_scores_zero():
    pred = np.array([[1.0, 2.0], [3.0, 4.0]])
    mask = np.array([[1, 0], [1, 1]])
    for fn in (masked_mae, masked_mse, masked_rmse, masked_mre):
        assert fn(pred, pred, mask) == 0.0


def test_rmse_squares_to_mse():
    rng = np.random.default_rng(2)
    for _ in range(5):
        pred = rng.normal(size=100)
        target = rng.normal(size=100)
        mask = (rng.random(100) < 0.7).astype(float)
        mask[0] = 1.0
        assert abs(masked_rmse(pred, target, mask) ** 2
                   - masked_mse(pred, target, mask)) < 1e-12


def test_masked_metrics_ignore_hidden_cells():
    rng = np.random.default_rng(4)
    pred = rng.normal(size=(3, 5))
    target = rng.normal(size=(3, 5))
    mask = (rng.random((3, 5)) < 0.5).astype(float)
    mask[0, 0] = 1.0
    baseline = [fn(pred, target, mask)
                for fn in (masked_mae, masked_mse, masked_rmse, masked_mre)]
    for _ in range(10):
        fuzzed_pred = np.where(mask != 0, pred, rng.normal(size=(3, 5)) * 100)
        fuzzed_target = np.where(mask != 0, target, rng.normal(size=(3, 5)) * 100)
        got = [fn(fuzzed_pred, fuzzed_target, mask)
               for fn in (masked_mae, masked_mse, masked_rmse, masked_mre)]
        assert got == baseline


def test_masked_metrics_reject_empty_mask():
    for fn in (masked_mae, masked_mse, masked_rmse, masked_mre):
        with pytest.raises(InvalidInputError):
            fn([1.0], [2.0], [0.0])


@pytest.mark.parametrize("shapes", [((2,), (3,), (2,)), ((2,), (2,), (2, 1))])
def test_masked_metrics_reject_shapes_that_differ(shapes):
    pred, target, mask = (np.ones(s) for s in shapes)
    for fn in (masked_mae, masked_mse, masked_rmse, masked_mre):
        with pytest.raises(InvalidInputError, match="shapes differ"):
            fn(pred, target, mask)


def test_mre_needs_nonzero_target_mass():
    with pytest.raises(InvalidInputError):
        masked_mre([1.0, 2.0], [0.0, 0.0], [1.0, 1.0])


def test_masked_metrics_brute_force_oracle():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(1, 30))
        pred = rng.normal(size=n)
        target = rng.normal(size=n) + 1.0
        mask = (rng.random(n) < 0.6).astype(float)
        if mask.sum() == 0:
            mask[int(rng.integers(n))] = 1.0
        idx = mask != 0
        diff = np.abs(pred[idx] - target[idx])
        assert abs(masked_mae(pred, target, mask) - diff.mean()) < 1e-12
        assert abs(masked_mse(pred, target, mask) - (diff ** 2).mean()) < 1e-12
        assert abs(masked_mre(pred, target, mask)
                   - diff.sum() / np.abs(target[idx]).sum()) < 1e-12


def test_finite_masked_metrics_are_the_direct_computation_bitwise():
    rng = np.random.default_rng(9)
    pred = rng.normal(size=200) * 1e3
    target = rng.normal(size=200) + 1.0
    mask = rng.random(200) < 0.6
    d = pred[mask] - target[mask]
    mse = (d * d).mean()
    assert masked_mae(pred, target, mask) == float(np.abs(d).mean())
    assert masked_mse(pred, target, mask) == float(mse)
    assert masked_rmse(pred, target, mask) == float(np.sqrt(mse))
    assert masked_mre(pred, target, mask) == float(
        np.abs(d).sum() / np.abs(target[mask]).sum())


@pytest.mark.parametrize("fn, pred, target, want", [
    (masked_mae, [1e308] * 3, [0.0] * 3, 1e308),
    (masked_mae, [1.5e308, -1.5e308], [0.0, 0.0], 1.5e308),
    (masked_mae, [1e308, 5e307], [-5e307, -5e307], 1.25e308),
    (masked_rmse, [1e200] * 3, [0.0] * 3, 1e200),
    (masked_rmse, [1e200, 2e200, -3e200], [0.0] * 3, math.sqrt(14 / 3) * 1e200),
    (masked_mse, [1e154, -1e154], [0.0, 0.0], 1e308),
    (masked_mre, [1e308, 1e308], [1e308, 1.5e308], 0.2),
    (masked_mre, [-1e308, 1e308], [1e308, 1e308], 1.0),
    # differences whose squares underflow
    (masked_rmse, [1e-200] * 3, [0.0] * 3, 1e-200),
    (masked_rmse, [1e-160] * 3, [0.0] * 3, 1e-160),
    (masked_rmse, [1e-300, -2e-300, 0.0], [0.0] * 3, math.sqrt(5 / 3) * 1e-300),
    (masked_mse, [1e-160] * 3, [0.0] * 3, 1e-320),
])
def test_masked_metrics_of_finite_inputs_near_the_float64_limit(fn, pred, target, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        have = fn(pred, target, [1.0] * len(pred))
    assert abs(have - want) <= 1e-15 * want


@pytest.mark.parametrize("fn, pred, target", [
    (masked_mae, [1e308], [-1e308]),
    (masked_mse, [1e200] * 3, [0.0] * 3),
    (masked_rmse, [1.7e308, -1.7e308], [-1.7e308, 1.7e308]),
    (masked_mre, [1e300], [1e-300]),
])
def test_masked_metrics_whose_value_exceeds_float64_are_refused(fn, pred, target):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError,
                           match=f"{fn.__name__}: the value exceeds the float64 range"):
            fn(pred, target, [1.0] * len(pred))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_masked_metrics_refuse_a_non_finite_selected_cell(bad):
    for fn in (masked_mae, masked_mse, masked_rmse, masked_mre):
        for pred, target in (([bad, 1.0], [0.0, 2.0]), ([0.0, 1.0], [bad, 2.0])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidInputError, match="non-finite value"):
                    fn(pred, target, [1.0, 1.0])


@pytest.mark.parametrize("batches", [
    # a scaled batch after a direct one, and a direct one after a scaled one
    ([1.0, -2.0, 0.5], [3e200, -1e200]),
    ([3e200, -1e200], [1.0, -2.0, 0.5]),
    # tiny differences, scaled, before and after a direct batch
    ([1e-200, 2e-200], [0.5]),
    ([0.5], [1e-200, 2e-200]),
    # two direct sums of squares within float64 whose total is not
    ([1e154], [-1e154]),
])
def test_square_sum_over_batches_is_the_rmse_over_all_their_cells(batches):
    squares = _SquareSum()
    for p in batches:
        squares.add(np.asarray(p), np.zeros(len(p)))
    whole = np.concatenate(batches)
    assert squares.n == whole.size
    want = masked_rmse(whole, np.zeros(whole.size), np.ones(whole.size))
    assert abs(math.sqrt(squares.total / squares.n) * squares.scale - want) <= 1e-15 * want


@pytest.mark.parametrize("pred, target", [
    ([5e-324], [0.0]),
    ([5e-324, 0.0], [0.0, 5e-324]),
])
def test_differences_of_the_smallest_subnormal_keep_their_scale(pred, target):
    # each halved difference rounds to 0, which once made the scale 0 and
    # every scaled difference 0/0
    mask = [1.0] * len(pred)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert masked_rmse(pred, target, mask) == 5e-324
        assert masked_mse(pred, target, mask) == 0.0
        squares = _SquareSum().add(np.asarray(pred), np.asarray(target))
        assert (squares.total, squares.scale) == (len(pred), 5e-324)
        assert squares.mean_square() == 0.0


def test_subnormal_differences_of_two_sizes_keep_every_bit():
    # halved, 5e-324 rounds to 0 while 1e-323 is kept; the RMSE,
    # sqrt(1.25 / 2) * 1e-323, rounds to 1e-323, not to 5e-324
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert masked_rmse([1e-323, 0.0], [0.0, 5e-324], [1.0, 1.0]) == 1e-323


def test_mre_of_equal_values_whose_target_sum_overflows_is_zero():
    # the scaled path once divided the all-zero differences by their
    # largest, 0, and refused the NaN as out of range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert masked_mre([1e308, 1e308], [1e308, 1e308], [1.0, 1.0]) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_square_sum_is_nan_for_good_after_a_non_finite_cell(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        squares = _SquareSum().add(np.array([bad, 1.0]), np.zeros(2))
        assert math.isnan(squares.add(np.ones(3), np.zeros(3)).mean_square())


# ---------------------------------------------------------------------------
# binary classification

def test_roc_auc_pair_example():
    report = binary_classification_metrics([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    assert report.roc_auc == 0.75


def test_roc_auc_extremes():
    sep = binary_classification_metrics([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
    assert sep.roc_auc == 1.0
    ties = binary_classification_metrics([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1])
    assert ties.roc_auc == 0.5


def test_confusion_counts_and_f1():
    report = binary_classification_metrics([0.9, 0.6, 0.4, 0.2], [1, 0, 0, 0])
    assert (report.tp, report.fp, report.tn, report.fn) == (1, 1, 2, 0)
    assert report.accuracy == 0.75
    assert (report.precision, report.recall) == (0.5, 1.0)
    assert abs(report.f1 - 2.0 / 3.0) < 1e-15


def test_labels_outside_01_rejected():
    with pytest.raises(InvalidInputError):
        binary_classification_metrics([0.5, 0.5], [0, 2])


@pytest.mark.parametrize("scores, labels, message", [
    ([0.5, 0.5], [0, 1, 1], "2 scores vs 3 labels"),
    ([], [], "empty input"),
])
def test_binary_metrics_refuse_mismatched_or_empty_input(scores, labels, message):
    with pytest.raises(InvalidInputError, match=message):
        binary_classification_metrics(scores, labels)


def test_single_class_marks_auc_undefined():
    report = binary_classification_metrics([0.6, 0.9], [1, 1])
    assert report.roc_auc is None and report.pr_auc is None
    assert report.accuracy == 1.0
    assert "roc_auc: nan" in report.to_text()


def test_auc_complement_symmetry():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(4, 25))
        scores = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        a = binary_classification_metrics(scores, labels).roc_auc
        b = binary_classification_metrics(1.0 - scores, labels).roc_auc
        assert abs(a + b - 1.0) < 1e-12


def test_binary_metrics_brute_force_oracle():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(2, 21))
        scores = np.round(rng.random(n), 2)  # induce ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[int(rng.integers(n))] = 1 - labels[0]
        report = binary_classification_metrics(scores, labels, threshold=0.5)

        pred = (scores >= 0.5).astype(int)
        tp = int(((pred == 1) & (labels == 1)).sum())
        fp = int(((pred == 1) & (labels == 0)).sum())
        tn = int(((pred == 0) & (labels == 0)).sum())
        fn = int(((pred == 0) & (labels == 1)).sum())
        assert (report.tp, report.fp, report.tn, report.fn) == (tp, fp, tn, fn)
        assert report.tp + report.fp + report.tn + report.fn == n
        assert abs(report.accuracy - (tp + tn) / n) < 1e-12

        # rank-statistic oracle: P(positive outranks negative), ties at 1/2
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        assert abs(report.roc_auc - wins / (pos.size * neg.size)) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_binary_metrics_refuse_non_finite_scores(bad):
    # a NaN counted below the threshold but ranked above every finite
    # score used to get roc_auc 1.0
    with pytest.raises(InvalidInputError, match="position 1 is not finite"):
        binary_classification_metrics([0.1, bad, 0.8, bad], [0, 1, 1, 0])


def test_pr_auc_hand_worked_example():
    # thresholds 0.9, 0.8, 0.3, 0.1 give (recall, precision) steps
    # (1/3, 1), (2/3, 2/3), (2/3, 1/2), (1, 3/5): 1/3 + 2/9 + 0 + 1/5
    report = binary_classification_metrics([0.9, 0.8, 0.3, 0.8, 0.1], [1, 0, 0, 1, 1])
    assert abs(report.pr_auc - 34.0 / 45.0) < 1e-15


def test_pr_auc_equals_a_per_threshold_step_sum():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        scores = np.round(rng.random(n), 1)  # many ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[int(rng.integers(n))] = 1 - labels[0]
        n_pos = int(labels.sum())
        area, prev_recall = 0.0, 0.0
        for t in sorted(set(scores.tolist()), reverse=True):
            hit = scores >= t
            tp = int(labels[hit].sum())
            recall = tp / n_pos
            area += (recall - prev_recall) * (tp / int(hit.sum()))
            prev_recall = recall
        assert binary_classification_metrics(scores, labels).pr_auc == area


# ---------------------------------------------------------------------------
# clustering agreement

def test_identical_labelings_score_one():
    labels = [0, 1, 1, 2, 0]
    assert rand_index(labels, labels) == 1.0
    assert purity(labels, labels) == 1.0


def test_rand_index_permutation_invariance():
    assert rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0


def test_rand_index_enumerated_example():
    assert abs(rand_index([0, 1, 0, 1], [0, 0, 1, 1]) - 1.0 / 3.0) < 1e-15


def test_rand_index_symmetry_and_relabeling():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n = int(rng.integers(2, 20))
        a = rng.integers(0, 3, size=n)
        b = rng.integers(0, 3, size=n)
        assert rand_index(a, b) == rand_index(b, a)
        relabeled = np.array([2, 0, 1])[a]
        assert rand_index(relabeled, b) == rand_index(a, b)


def test_rand_index_brute_force_oracle():
    rng = np.random.default_rng(55)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 4, size=n)
        agree = 0
        total = 0
        for i in range(n):
            for j in range(i + 1, n):
                total += 1
                if (a[i] == a[j]) == (b[i] == b[j]):
                    agree += 1
        assert abs(rand_index(a, b) - agree / total) < 1e-15


def test_purity_oracle():
    pred = [0, 0, 0, 1, 1, 1]
    true = [0, 0, 1, 1, 1, 0]
    # cluster 0 captures 2 of 3; cluster 1 captures 2 of 3
    assert abs(purity(pred, true) - 4.0 / 6.0) < 1e-15


def test_partition_length_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        rand_index([0, 1], [0, 1, 0])
    with pytest.raises(InvalidInputError):
        purity([0], [0])
