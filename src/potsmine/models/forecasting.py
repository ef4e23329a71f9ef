"""Temporal matrix factorization with an autoregressive factor penalty.

Each feature's (series x step) slice is factorized as W F^T with the
temporal factors tied by diagonal AR matrices, so missing entries are
reconstructed from low-rank structure and forecasts come from rolling
the factors forward.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError, ShapeError
from ..core import Batch, fetch_all
from .artifact import ModelArtifact, register_model
from .base import AnalyticModel, Forecaster, TrainConfig

# keeps every block subproblem strictly positive definite
_RIDGE_FLOOR = 1e-10


def _check_matrix(mask: np.ndarray, label: str) -> None:
    rows = mask.any(axis=1)
    if not rows.all():
        raise InvalidInputError(
            f"tmf: {label}series row {int(np.flatnonzero(~rows)[0])} has no observations")
    cols = mask.any(axis=0)
    if not cols.all():
        raise InvalidInputError(
            f"tmf: {label}time column {int(np.flatnonzero(~cols)[0])} has no observations")


def _ar_predict(factors: np.ndarray, coeffs: np.ndarray, t: int) -> np.ndarray:
    """Sum of A_l * f_{t-l} with diagonal A_l stored as (L, R) rows."""
    out = np.zeros(factors.shape[1], dtype=np.float64)
    for lag in range(1, coeffs.shape[0] + 1):
        out += coeffs[lag - 1] * factors[t - lag]
    return out


def _objective(y, mask, w, f, a, lam_w, lam_f, lam_a) -> float:
    resid = np.where(mask, y - w @ f.T, 0.0)
    value = float((resid * resid).sum())
    value += lam_w * float((w * w).sum())
    value += lam_a * float((a * a).sum())
    # the F updates carry the ridge floor, so the objective they descend does too
    value += _RIDGE_FLOOR * float((f * f).sum())
    order = a.shape[0]
    for t in range(order, f.shape[0]):
        diff = f[t] - _ar_predict(f, a, t)
        value += lam_f * float(diff @ diff)
    return value


def _tmf_core(y: np.ndarray, mask: np.ndarray, rank: int, ar_order: int,
              lam_w: float, lam_f: float, lam_a: float, iters: int, seed: int,
              history: list | None = None):
    """Alternating ridge updates for one (N, T) matrix; returns (W, F, A)."""
    n, t_len = y.shape
    lam_w += _RIDGE_FLOOR
    lam_f += _RIDGE_FLOOR
    lam_a += _RIDGE_FLOOR
    rng = np.random.Generator(np.random.PCG64(seed))
    w = rng.normal(0.0, 0.1, (n, rank))
    f = rng.normal(0.0, 0.1, (t_len, rank))
    a = np.zeros((ar_order, rank), dtype=np.float64)
    yz = np.where(mask, y, 0.0)
    eye_r = np.eye(rank)

    for _ in range(iters):
        for i in range(n):
            cols = mask[i]
            fi = f[cols]
            w[i] = np.linalg.solve(fi.T @ fi + lam_w * eye_r, fi.T @ yz[i, cols])
        for t in range(t_len):
            rows = mask[:, t]
            wt = w[rows]
            m = wt.T @ wt + _RIDGE_FLOOR * eye_r
            rhs = wt.T @ yz[rows, t]
            if t >= ar_order:
                m = m + lam_f * eye_r
                rhs = rhs + lam_f * _ar_predict(f, a, t)
            for lag in range(1, ar_order + 1):
                target = t + lag
                if target >= t_len or target < ar_order:
                    continue
                # f_t appears inside the AR residual of step t+lag
                m = m + lam_f * np.diag(a[lag - 1] ** 2)
                others = f[target] - (_ar_predict(f, a, target) - a[lag - 1] * f[t])
                rhs = rhs + lam_f * a[lag - 1] * others
            f[t] = np.linalg.solve(m, rhs)
        if t_len > ar_order:
            for r in range(rank):
                design = np.column_stack(
                    [f[ar_order - lag:t_len - lag, r] for lag in range(1, ar_order + 1)])
                targets = f[ar_order:, r]
                m = lam_f * design.T @ design + lam_a * np.eye(ar_order)
                a[:, r] = np.linalg.solve(m, lam_f * design.T @ targets)
        if history is not None:
            history.append(_objective(y, mask, w, f, a, lam_w, lam_f, lam_a))
    return w, f, a


def _roll_factors(f: np.ndarray, a: np.ndarray, horizon: int) -> np.ndarray:
    """Future factor rows f_{T+1} .. f_{T+horizon} from the AR recursion."""
    order = a.shape[0]
    buf = list(f[-order:])
    out = np.empty((horizon, f.shape[1]), dtype=np.float64)
    for j in range(horizon):
        nxt = np.zeros(f.shape[1], dtype=np.float64)
        for lag in range(1, order + 1):
            nxt += a[lag - 1] * buf[-lag]
        out[j] = nxt
        buf.append(nxt)
    return out


def _estimate_w(values: np.ndarray, mask: np.ndarray, f: np.ndarray,
                lam_w: float) -> np.ndarray:
    """Ridge-fit series factors for new rows against fixed temporal factors."""
    rank = f.shape[1]
    eye_r = np.eye(rank)
    yz = np.where(mask, values, 0.0)
    out = np.empty((values.shape[0], rank), dtype=np.float64)
    for i in range(values.shape[0]):
        cols = mask[i]
        fi = f[cols]
        out[i] = np.linalg.solve(
            fi.T @ fi + (lam_w + _RIDGE_FLOOR) * eye_r, fi.T @ yz[i, cols])
    return out


@register_model
class TmfModel(AnalyticModel, Forecaster):
    """One factorization per feature, stacked over the feature axis."""

    kind = "tmf"

    def __init__(self, n_steps: int, n_features: int, rank: int = 2,
                 ar_order: int = 2, lam_w: float = 0.1, lam_f: float = 0.1,
                 lam_a: float = 0.1, iters: int = 20):
        if rank < 1:
            raise InvalidInputError(f"rank must be positive, got {rank}")
        if not 0 < ar_order < n_steps:
            raise InvalidInputError(
                f"ar_order must be in [1, n_steps), got {ar_order} with "
                f"{n_steps} steps")
        if min(lam_w, lam_f, lam_a) < 0:
            raise InvalidInputError("ridge weights must be non-negative")
        if iters < 1:
            raise InvalidInputError(f"iters must be positive, got {iters}")
        self.n_steps = n_steps
        self.n_features = n_features
        self.rank = rank
        self.ar_order = ar_order
        self.lam_w = float(lam_w)
        self.lam_f = float(lam_f)
        self.lam_a = float(lam_a)
        self.iters = iters
        self.n_series = 0
        self.w_list: list[np.ndarray] = []
        self.f_list: list[np.ndarray] = []
        self.a_list: list[np.ndarray] = []
        self.objective_history: list[list[float]] = []

    # -- serialization -------------------------------------------------------
    def hyperparams(self) -> dict:
        return {"n_steps": self.n_steps, "n_features": self.n_features,
                "rank": self.rank, "ar_order": self.ar_order,
                "lam_w": self.lam_w, "lam_f": self.lam_f, "lam_a": self.lam_a,
                "iters": self.iters, "n_series": self.n_series}

    def tensors(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for d in range(len(self.w_list)):
            out[f"w{d}"] = self.w_list[d]
            out[f"f{d}"] = self.f_list[d]
            out[f"a{d}"] = self.a_list[d]
        return out

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        out: dict[str, tuple[int, ...]] = {}
        for d in range(self.n_features):
            out[f"w{d}"] = (self.n_series, self.rank)
            out[f"f{d}"] = (self.n_steps, self.rank)
            out[f"a{d}"] = (self.ar_order, self.rank)
        return out

    @classmethod
    def from_artifact(cls, art: ModelArtifact) -> "TmfModel":
        hp = art.hyperparams
        model = cls(int(hp["n_steps"]), int(hp["n_features"]), rank=int(hp["rank"]),
                    ar_order=int(hp["ar_order"]), lam_w=float(hp["lam_w"]),
                    lam_f=float(hp["lam_f"]), lam_a=float(hp["lam_a"]),
                    iters=int(hp["iters"]))
        model.n_series = int(hp["n_series"])
        for d in range(model.n_features):
            model.w_list.append(art.tensors[f"w{d}"].copy())
            model.f_list.append(art.tensors[f"f{d}"].copy())
            model.a_list.append(art.tensors[f"a{d}"].copy())
        return model

    # -- fitting ----------------------------------------------------------------
    def fit_analytic(self, train_set, val_set, config: TrainConfig) -> float:
        batch = fetch_all(train_set)
        obs = batch.mask != 0
        self.n_series = batch.values.shape[0]
        self.w_list, self.f_list, self.a_list = [], [], []
        self.objective_history = []
        for d in range(self.n_features):
            label = f"feature {d} " if self.n_features > 1 else ""
            _check_matrix(obs[:, :, d], label)
            history: list[float] = []
            w, f, a = _tmf_core(
                batch.values[:, :, d], obs[:, :, d], self.rank, self.ar_order,
                self.lam_w, self.lam_f, self.lam_a, self.iters,
                seed=config.seed + d, history=history)
            self.w_list.append(w)
            self.f_list.append(f)
            self.a_list.append(a)
            self.objective_history.append(history)
        return self._val_metric(val_set)

    def _val_metric(self, view) -> float:
        """Observed-cell MSE with series factors re-fit per validation row."""
        batch = fetch_all(view)
        obs = batch.mask != 0
        err = 0.0
        count = 0
        for d in range(self.n_features):
            w = _estimate_w(batch.values[:, :, d], obs[:, :, d],
                            self.f_list[d], self.lam_w)
            resid = np.where(obs[:, :, d],
                             batch.values[:, :, d] - w @ self.f_list[d].T, 0.0)
            err += float((resid * resid).sum())
            count += int(obs[:, :, d].sum())
        return err / count if count else 0.0

    def reconstruct(self) -> np.ndarray:
        """(n_series, T, D) low-rank reconstruction of the training data."""
        out = np.empty((self.n_series, self.n_steps, self.n_features))
        for d in range(self.n_features):
            out[:, :, d] = self.w_list[d] @ self.f_list[d].T
        return out

    # -- inference -----------------------------------------------------------
    def forecast_batch(self, batch: Batch, horizon: int) -> np.ndarray:
        if not self.w_list:
            raise InvalidInputError("forecast: model has not been fit")
        n = batch.values.shape[0]
        obs = batch.mask != 0
        out = np.empty((n, horizon, self.n_features), dtype=np.float64)
        for d in range(self.n_features):
            w = _estimate_w(batch.values[:, :, d], obs[:, :, d],
                            self.f_list[d], self.lam_w)
            future = _roll_factors(self.f_list[d], self.a_list[d], horizon)
            out[:, :, d] = w @ future.T
        return out


def tmf_fit(y: np.ndarray, mask: np.ndarray, rank: int, ar_order: int = 2,
            lam_w: float = 0.1, lam_f: float = 0.1, lam_a: float = 0.1,
            iters: int = 30, seed: int = 0) -> TmfModel:
    """Factorize one (N, T) matrix with missing entries; returns the model.

    The result is a single-feature TmfModel whose objective_history
    records the penalized objective once per alternating iteration.
    """
    y = np.asarray(y, dtype=np.float64)
    obs = np.asarray(mask) != 0
    if y.ndim != 2 or y.shape != obs.shape:
        raise ShapeError(
            f"tmf_fit: y {y.shape} and mask {obs.shape} must be matching "
            "rank-2 arrays")
    _check_matrix(obs, "")
    model = TmfModel(n_steps=y.shape[1], n_features=1, rank=rank,
                     ar_order=ar_order, lam_w=lam_w, lam_f=lam_f, lam_a=lam_a,
                     iters=iters)
    history: list[float] = []
    w, f, a = _tmf_core(y, obs, rank, ar_order, lam_w, lam_f, lam_a, iters,
                        seed=seed, history=history)
    model.n_series = y.shape[0]
    model.w_list, model.f_list, model.a_list = [w], [f], [a]
    model.objective_history = [history]
    return model


def tmf_forecast(model: TmfModel, horizon: int) -> np.ndarray:
    """Roll the stored factors forward; (n_series, horizon, n_features)."""
    if horizon < 1:
        raise InvalidInputError(f"tmf_forecast: horizon must be at least 1, got {horizon}")
    if not model.w_list:
        raise InvalidInputError("tmf_forecast: model has not been fit")
    out = np.empty((model.n_series, horizon, model.n_features), dtype=np.float64)
    for d in range(model.n_features):
        future = _roll_factors(model.f_list[d], model.a_list[d], horizon)
        out[:, :, d] = model.w_list[d] @ future.T
    return out
