"""Evaluation metrics: masked regression errors, binary classification
statistics with rank-based ROC AUC, and clustering agreement scores.

Masked metrics select cells by boolean indexing, so whatever garbage sits
in masked-out cells (including NaN) can never leak into a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


_TINY = np.finfo(np.float64).tiny   # the smallest normal float64
# a direct sum of squares below this leaves room to add 2**23 more
_HUGE = 2.0 ** 1000


def _masked_diff(pred, target, mask, name: str):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if pred.shape != target.shape or pred.shape != mask.shape:
        raise InvalidInputError(
            f"{name}: shapes differ {pred.shape}, {target.shape}, {mask.shape}")
    hit = mask != 0
    if not hit.any():
        raise InvalidInputError(f"{name}: mask selects no cells")
    p, t = pred[hit], target[hit]
    if not (np.isfinite(p).all() and np.isfinite(t).all()):
        raise InvalidInputError(f"{name}: a selected cell holds a non-finite value")
    return p, t


def _finite(value, name: str) -> float:
    if not np.isfinite(value):
        raise InvalidInputError(f"{name}: the value exceeds the float64 range")
    return float(value)


def _scaled_diff(p: np.ndarray, t: np.ndarray):
    """(r, s) with p - t == r * s, s > 0 and every |r| <= 2.

    For a metric whose direct computation left the float64 range, or
    underflowed. When every difference is finite, s is the largest
    |p - t| (1 when all are 0), so subnormal differences keep every bit.
    When one overflows, halving before subtracting keeps the difference
    of any two finite values, and s, finite: s is then half the largest
    |p - t|. Above the subnormals halving is exact, so both give one sum
    of squares times s**2. A non-finite p or t makes r NaN.
    """
    d = p - t
    if np.isfinite(d).all():
        s = np.abs(d).max() or 1.0
        return d / s, s
    half = 0.5 * p - 0.5 * t
    s = np.abs(half).max()
    return (half / s) * 2.0, s


class _SquareSum:
    """A streamed sum of squared differences over n cells, held as a pair
    (total, scale) whose sum is total * scale**2. It starts at (0.0, 0.0).

    add() takes the direct sum of a batch's squares, at scale 1, when it
    is at least the smallest normal float64 (squares of differences below
    about 1e-154 underflow) and below _HUGE, or when it is 0. Otherwise it
    sums the squares of the differences as _scaled_diff scales them, at
    that scale, and each is at most 4. The running pair and the batch's
    meet on the larger scale, so finite inputs near the float64 limit
    keep the sum finite, and one add() of tiny differences keeps their
    digits. After one add() of a direct sum, total / n has the bits of
    the direct mean of the squares. A non-finite p or t makes the sum NaN
    for good.
    """

    total, scale, n = 0.0, 0.0, 0

    def add(self, p: np.ndarray, t: np.ndarray) -> "_SquareSum":
        with np.errstate(over="ignore", invalid="ignore"):
            d = p - t
            total, scale = (d * d).sum(), 1.0
            if not (_TINY <= total < _HUGE or not d.any()):
                r, scale = _scaled_diff(p, t)
                total = (r * r).sum()
            big = np.maximum(self.scale, scale)   # NaN when either scale is
            q, u = self.scale / big, scale / big
            self.total = float(self.total * q * q + total * u * u)
        self.scale = float(big)
        self.n += d.size
        return self

    def mean_square(self) -> float:
        return self.total / self.n * self.scale * self.scale   # inf past float64


# Each masked error returns its direct computation whenever that is
# finite (and, for a mean square, not underflowed). Only when it is not
# does it compute again from differences scaled by the largest one, so
# finite inputs near the float64 limit give a finite result, or
# InvalidInputError when the true value exceeds the range, and tiny
# differences keep their digits.

def masked_mae(pred, target, mask) -> float:
    p, t = _masked_diff(pred, target, mask, "masked_mae")
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.abs(p - t).mean()
        if np.isfinite(value):
            return float(value)
        r, s = _scaled_diff(p, t)
        return _finite(np.abs(r).mean() * s, "masked_mae")


def masked_mse(pred, target, mask) -> float:
    squares = _SquareSum().add(*_masked_diff(pred, target, mask, "masked_mse"))
    return _finite(squares.mean_square(), "masked_mse")


def masked_rmse(pred, target, mask) -> float:
    squares = _SquareSum().add(*_masked_diff(pred, target, mask, "masked_rmse"))
    return _finite(math.sqrt(squares.total / squares.n) * squares.scale, "masked_rmse")


def masked_mre(pred, target, mask) -> float:
    """Sum of absolute errors over the sum of absolute targets, masked."""
    p, t = _masked_diff(pred, target, mask, "masked_mre")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        denom = np.abs(t).sum()
        if denom == 0:
            raise InvalidInputError("masked_mre: target magnitudes sum to zero")
        num = np.abs(p - t).sum()
        if not (np.isfinite(num) and np.isfinite(denom)):
            # both sums over one common scale, which keeps each finite
            r, s = _scaled_diff(p, t)
            c = max(s, np.abs(t).max())
            num = np.abs(r).sum() * (s / c)
            denom = (np.abs(t) / c).sum()
        return _finite(num / denom, "masked_mre")


@dataclass
class BinaryMetricsReport:
    """Threshold metrics plus ranking AUCs for a binary problem.

    roc_auc and pr_auc are None when only one class is present.
    """

    accuracy: float
    precision: float
    recall: float
    f1: float
    roc_auc: float | None
    pr_auc: float | None
    threshold: float
    tp: int
    fp: int
    tn: int
    fn: int

    _KEYS = ("accuracy", "precision", "recall", "f1", "roc_auc", "pr_auc",
             "threshold", "tp", "fp", "tn", "fn")

    def to_text(self) -> str:
        lines = []
        for key in self._KEYS:
            v = getattr(self, key)
            if v is None:
                lines.append(f"{key}: nan")
            elif isinstance(v, int):
                lines.append(f"{key}: {v}")
            else:
                lines.append(f"{key}: {format(float(v), '.10g')}")
        return "\n".join(lines)


def _tie_ends(sorted_scores: np.ndarray) -> np.ndarray:
    """Exclusive end index of each run of equal values in a sorted array."""
    ends = np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1
    return np.append(ends, sorted_scores.size)


def _roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    # Mann-Whitney rank statistic; tied scores share their midrank, which
    # credits ties as half-wins.
    order = np.argsort(scores, kind="stable")
    ends = _tie_ends(scores[order])
    starts = np.append(0, ends[:-1])
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    n_pos = int((labels == 1).sum())
    n_neg = labels.size - n_pos
    pos_rank_sum = ranks[labels == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _pr_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    # Step summation over descending distinct thresholds: sum over steps of
    # (recall_k - recall_{k-1}) * precision_k. The steps are added one by
    # one in threshold order: np.sum adds pairwise, which changes the bits.
    order = np.argsort(-scores, kind="stable")
    ends = _tie_ends(scores[order])
    tp = np.cumsum(labels[order] == 1)[ends - 1]
    recall = tp / int((labels == 1).sum())
    steps = np.diff(recall, prepend=0.0) * (tp / ends)
    return float(np.cumsum(steps)[-1])


def binary_classification_metrics(scores, labels,
                                  threshold: float = 0.5) -> BinaryMetricsReport:
    """Confusion counts at a threshold plus ROC AUC and PR AUC.

    scores are finite probabilities of the positive class; a sample is
    predicted positive when score >= threshold. Undefined ratios (empty
    denominators) are reported as 0.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.shape != labels.shape:
        raise InvalidInputError(
            f"binary metrics: {scores.shape[0]} scores vs {labels.shape[0]} labels")
    if scores.size == 0:
        raise InvalidInputError("binary metrics: empty input")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise InvalidInputError(
            f"binary metrics: score at position {bad[0]} is not finite ({scores[bad[0]]})")
    if not np.all((labels == 0) | (labels == 1)):
        raise InvalidInputError("binary metrics: labels must be 0 or 1")
    labels = labels.astype(np.int64)
    pred = scores >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    tn = int(np.sum(~pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    accuracy = (tp + tn) / scores.size
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if (precision + recall) > 0 else 0.0)
    both_classes = 0 < int((labels == 1).sum()) < labels.size
    roc = _roc_auc(scores, labels) if both_classes else None
    pr = _pr_auc(scores, labels) if both_classes else None
    return BinaryMetricsReport(
        accuracy=float(accuracy), precision=float(precision), recall=float(recall),
        f1=float(f1), roc_auc=roc, pr_auc=pr, threshold=float(threshold),
        tp=tp, fp=fp, tn=tn, fn=fn)


def _contingency(a, b, name: str) -> np.ndarray:
    """Counts of points per (partition a label, partition b label) pair."""
    a = np.asarray(a).reshape(-1)
    b = np.asarray(b).reshape(-1)
    if a.shape != b.shape:
        raise InvalidInputError(f"{name}: label vectors differ in length")
    if a.size < 2:
        raise InvalidInputError(f"{name}: need at least two points")
    _, a_ids = np.unique(a, return_inverse=True)
    _, b_ids = np.unique(b, return_inverse=True)
    table = np.zeros((a_ids.max() + 1, b_ids.max() + 1), dtype=np.int64)
    np.add.at(table, (a_ids, b_ids), 1)
    return table


def rand_index(pred_labels, true_labels) -> float:
    """Fraction of point pairs on which two partitions agree."""
    contingency = _contingency(pred_labels, true_labels, "rand_index")
    comb2 = lambda x: x * (x - 1) // 2
    same_both = comb2(contingency).sum()
    same_a = comb2(contingency.sum(axis=1)).sum()
    same_b = comb2(contingency.sum(axis=0)).sum()
    total = comb2(int(contingency.sum()))
    agreements = total + 2 * same_both - same_a - same_b
    return float(agreements / total)


def purity(pred_labels, true_labels) -> float:
    """Fraction of points in the majority true class of their cluster."""
    contingency = _contingency(pred_labels, true_labels, "purity")
    return float(contingency.max(axis=1).sum() / contingency.sum())
