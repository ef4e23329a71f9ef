"""Two-stage clustering: impute, flatten, standardize, k-means.

The pipeline deliberately optimizes the two stages separately; it is
the reference baseline a joint method would have to beat.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError, ShapeError
from ..core import Batch, NormStats, _iter_batches, _rng
from .artifact import norm_stats_of, register_model
from .base import (AnalyticModel, Clusterer, Imputer, TrainConfig, _check_non_negative,
                   fit as fit_model, impute)

_DIST_CHUNK_BYTES = 1 << 22


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(N, k) squared distances sum((x - c) ** 2), the same bits one broadcast
    gives, from row chunks whose (rows, k, width) blocks fit _DIST_CHUNK_BYTES."""
    step = max(1, _DIST_CHUNK_BYTES // max(1, centroids.nbytes))
    out = np.empty((len(points), len(centroids)), dtype=np.float64)
    for lo in range(0, len(points), step):
        out[lo:lo + step] = ((points[lo:lo + step, None] - centroids) ** 2).sum(axis=2)
    return out


def kmeans_fit(points: np.ndarray, k: int, seed: int, max_iters: int = 100,
               tol: float = 1e-6, history: list | None = None):
    """Lloyd's algorithm with k-means++ seeding; returns (centroids, labels).

    Empty clusters are re-seeded to the point farthest from its current
    centroid. Labels are the nearest-centroid assignment of the final
    centroids. Pass a list as history to record per-iteration inertia.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ShapeError(f"kmeans_fit: points must be rank 2, got {points.shape}")
    n = points.shape[0]
    if k < 1:
        raise InvalidInputError(f"kmeans_fit: k must be positive, got {k}")
    if max_iters < 1:
        raise InvalidInputError(f"kmeans_fit: max_iters must be positive, got {max_iters}")
    if n < k:
        raise InvalidInputError(f"kmeans_fit: {n} points cannot form {k} clusters")
    rng = _rng(seed)

    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[int(rng.integers(n))]
    d2 = _sq_dists(points, centroids[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            pick = int(rng.integers(n))
        centroids[j] = points[pick]
        d2 = np.minimum(d2, _sq_dists(points, centroids[j:j + 1])[:, 0])

    for _ in range(max_iters):
        dist = _sq_dists(points, centroids)
        labels = dist.argmin(axis=1)
        assigned = dist[np.arange(n), labels]
        if history is not None:
            history.append(float(assigned.sum()))
        new = centroids.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new[j] = points[members].mean(axis=0)
        empties = [j for j in range(k) if not (labels == j).any()]
        if empties:
            order = np.argsort(assigned)[::-1]
            for j, pick in zip(empties, order):
                new[j] = points[pick]
        shift = np.sqrt(((new - centroids) ** 2).sum(axis=1)).max()
        centroids = new
        if shift < tol:
            break
    return centroids, _sq_dists(points, centroids).argmin(axis=1)


@register_model
class TwoStageKMeansModel(AnalyticModel, Clusterer):
    """Inner imputer feeding k-means on standardized flattened series.

    n_steps is the series length of the fit, 0 while unfitted; n_features
    defaults to, and must equal, the inner model's. feat_stats standardizes
    each column of the flattened series; the artifact keeps it as the
    tensors feat_mean and feat_std.
    """

    kind = "twostage_kmeans"
    HYPERPARAMS = {"k": int, "max_iters": int, "tol": float, "n_steps": int,
                   "n_features": int}
    takes_inner = True

    def __init__(self, inner: Imputer, k: int, max_iters: int = 100,
                 tol: float = 1e-6, n_steps: int = 0, n_features: int | None = None):
        if not isinstance(inner, Imputer):
            raise InvalidInputError(
                "twostage_kmeans requires an inner model with the impute contract")
        if k < 1:
            raise InvalidInputError(f"k must be positive, got {k}")
        if max_iters < 1:
            raise InvalidInputError(f"max_iters must be positive, got {max_iters}")
        _check_non_negative("tol", tol=tol)
        if n_steps < 0:
            raise InvalidInputError(f"n_steps must be non-negative, got {n_steps}")
        if n_features not in (None, inner.n_features):
            raise InvalidInputError(
                f"twostage_kmeans: n_features {n_features} does not match the "
                f"inner model's {inner.n_features}")
        self.inner_model = inner
        self.k = k
        self.max_iters = max_iters
        self.tol = float(tol)
        self.n_steps = n_steps or None
        self.n_features = inner.n_features
        if not self._unfilled:
            width = n_steps * self.n_features
            self.centroids = np.zeros((k, width), dtype=np.float64)
            self.feat_stats = NormStats(np.zeros(width), np.ones(width))

    def hyperparams(self) -> dict:
        # an unfitted model takes series of any length: n_steps None, stored as 0
        return {**super().hyperparams(), "n_steps": self.n_steps or 0}

    def tensors(self) -> dict[str, np.ndarray]:
        return {"centroids": self.centroids, "feat_mean": self.feat_stats.mean,
                "feat_std": self.feat_stats.std}

    def _shapes(self):
        width = (self.n_steps or 0) * self.n_features
        return [("centroids", (self.k, width)), ("feat_mean", (width,)), ("feat_std", (width,))]

    def _fill(self, tensors: dict[str, np.ndarray]) -> None:
        self.centroids = tensors["centroids"]
        self.feat_stats = norm_stats_of(self.kind, tensors, "feat")

    # -- fitting -----------------------------------------------------------
    def fit_analytic(self, train_set, val_set, config: TrainConfig) -> float:
        if len(train_set) < self.k:
            raise InvalidInputError(
                f"twostage_kmeans: {len(train_set)} training samples cannot "
                f"form {self.k} clusters")
        self.n_steps = train_set.n_steps
        fit_model(self.inner_model, train_set, val_set, config)
        flat = impute(self.inner_model, train_set).reshape(len(train_set), -1)
        # statistics that overflow come out non-finite, which NormStats refuses
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = flat.mean(0), flat.std(0)
        self.feat_stats = NormStats(mean, np.maximum(std, NormStats.STD_FLOOR))
        self.centroids, _ = kmeans_fit(
            self.feat_stats.forward(flat), self.k, seed=config.seed,
            max_iters=self.max_iters, tol=self.tol)
        total = sum(self._distances(b).min(axis=1).sum() for b in _iter_batches(val_set))
        return float(total / len(val_set))

    def _distances(self, batch: Batch) -> np.ndarray:
        """(B, k) squared distances of the imputed, standardized rows to the centroids."""
        flat = self.inner_model.impute_batch(batch).reshape(batch.values.shape[0], -1)
        if flat.shape[1] != self.centroids.shape[1]:
            raise ShapeError(
                f"cluster: flattened width {flat.shape[1]} does not match "
                f"centroids ({self.centroids.shape[1]})")
        return _sq_dists(self.feat_stats.forward(flat), self.centroids)

    # -- inference ----------------------------------------------------------
    def assign_batch(self, batch: Batch) -> np.ndarray:
        return self._distances(batch).argmin(axis=1)
