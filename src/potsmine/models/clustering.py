"""Two-stage clustering: impute, flatten, standardize, k-means.

The pipeline deliberately optimizes the two stages separately; it is
the reference baseline a joint method would have to beat.
"""

from __future__ import annotations

import numpy as np

from ..errors import CorruptionError, InvalidInputError, ShapeError
from ..core import Batch, fetch_all
from .artifact import ModelArtifact, model_from_artifact, register_model
from .base import (AnalyticModel, Clusterer, Imputer, TrainConfig, fit as fit_model,
                   impute)

_STD_FLOOR = 1e-8
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
    if n < k:
        raise InvalidInputError(f"kmeans_fit: {n} points cannot form {k} clusters")
    rng = np.random.Generator(np.random.PCG64(seed))

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
    """Inner imputer feeding k-means on standardized flattened series."""

    kind = "twostage_kmeans"

    def __init__(self, inner: Imputer, k: int, max_iters: int = 100,
                 tol: float = 1e-6):
        if not isinstance(inner, Imputer):
            raise InvalidInputError(
                "twostage_kmeans requires an inner model with the impute contract")
        if k < 1:
            raise InvalidInputError(f"k must be positive, got {k}")
        self.inner_model = inner
        self.k = k
        self.max_iters = max_iters
        self.tol = float(tol)
        self.n_steps: int | None = None
        self.n_features = inner.n_features
        self.centroids = np.zeros((k, 0), dtype=np.float64)
        self.feat_mean = np.zeros(0, dtype=np.float64)
        self.feat_std = np.ones(0, dtype=np.float64)

    # -- serialization ------------------------------------------------------
    def hyperparams(self) -> dict:
        return {"k": self.k, "max_iters": self.max_iters, "tol": self.tol,
                "n_steps": int(self.n_steps or 0), "n_features": self.n_features}

    def tensors(self) -> dict[str, np.ndarray]:
        return {"centroids": self.centroids, "feat_mean": self.feat_mean,
                "feat_std": self.feat_std}

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        width = int(self.n_steps or 0) * self.n_features
        return {"centroids": (self.k, width), "feat_mean": (width,), "feat_std": (width,)}

    @classmethod
    def from_artifact(cls, art: ModelArtifact) -> "TwoStageKMeansModel":
        if art.inner is None:
            raise CorruptionError("twostage_kmeans artifact is missing its inner model")
        hp = art.hyperparams
        model = cls(model_from_artifact(art.inner), int(hp["k"]),
                    max_iters=int(hp["max_iters"]), tol=float(hp["tol"]))
        model.n_steps = int(hp["n_steps"]) or None
        model.centroids = art.tensors["centroids"].copy()
        model.feat_mean = art.tensors["feat_mean"].copy()
        model.feat_std = art.tensors["feat_std"].copy()
        return model

    # -- fitting -----------------------------------------------------------
    def _standardize(self, flat: np.ndarray) -> np.ndarray:
        return (flat - self.feat_mean) / self.feat_std

    def fit_analytic(self, train_set, val_set, config: TrainConfig) -> float:
        if len(train_set) < self.k:
            raise InvalidInputError(
                f"twostage_kmeans: {len(train_set)} training samples cannot "
                f"form {self.k} clusters")
        self.n_steps = train_set.n_steps
        fit_model(self.inner_model, train_set, val_set, config)
        flat = impute(self.inner_model, train_set).reshape(len(train_set), -1)
        self.feat_mean = flat.mean(axis=0)
        self.feat_std = np.maximum(flat.std(axis=0), _STD_FLOOR)
        self.centroids, _ = kmeans_fit(
            self._standardize(flat), self.k, seed=config.seed,
            max_iters=self.max_iters, tol=self.tol)
        return float(self._distances(fetch_all(val_set)).min(axis=1).mean())

    def _distances(self, batch: Batch) -> np.ndarray:
        """(B, k) squared distances of the imputed, standardized rows to the centroids."""
        flat = self.inner_model.impute_batch(batch).reshape(batch.values.shape[0], -1)
        if flat.shape[1] != self.centroids.shape[1]:
            raise ShapeError(
                f"cluster: flattened width {flat.shape[1]} does not match "
                f"centroids ({self.centroids.shape[1]})")
        return _sq_dists(self._standardize(flat), self.centroids)

    # -- inference ----------------------------------------------------------
    def assign_batch(self, batch: Batch) -> np.ndarray:
        return self._distances(batch).argmin(axis=1)
