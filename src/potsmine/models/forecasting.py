"""Temporal matrix factorization with an autoregressive factor penalty.

Each feature's (series x step) slice is factorized as W F^T with the
temporal factors tied by diagonal AR matrices, so missing entries are
reconstructed from low-rank structure and forecasts come from rolling
the factors forward.

One core fits all features at once on stacks: values and mask (D, N, T),
W (D, N, R), F (D, T, R), A (D, L, R). Each step builds every feature's
small ridge systems together (a masked Gram matrix is the R*R outer
products times the 0/1 mask, one matmul) and factors them all with one
batched Cholesky. The systems lie along the last axes, (R, R, D, M), so
each column update of the factorization is one ufunc call over every
system. The F step stays Gauss-Seidel in t, as step t's AR right-hand
side reads steps updated earlier in the sweep; its systems and AR
weights depend on W and A only, so each iteration factors all of them
once and turns each step's update into a (D, R, (2L+1)(R+1)) map, and
the loop over t makes one matmul of that map with the step's AR window.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError, ShapeError
from ..core import Batch, _rng, fetch_all
from .artifact import register_model
from .base import (AnalyticModel, Forecaster, TrainConfig, _check_non_negative,
                   _check_shape, imputer_validation_metric)

# keeps every block subproblem strictly positive definite
_RIDGE_FLOOR = 1e-10
# a Cholesky pivot at most this times its diagonal entry is singular
_PIVOT_TOL = 16 * np.finfo(np.float64).eps


def _check_matrix(mask: np.ndarray, label: str) -> None:
    rows = mask.any(axis=1)
    if not rows.all():
        raise InvalidInputError(
            f"tmf: {label}series row {int(np.flatnonzero(~rows)[0])} has no observations")
    cols = mask.any(axis=0)
    if not cols.all():
        raise InvalidInputError(
            f"tmf: {label}time column {int(np.flatnonzero(~cols)[0])} has no observations")


def _feature_stacks(values: np.ndarray, mask: np.ndarray):
    """(N, T, D) values and mask as zero-filled (D, N, T) values and 0/1 weights."""
    hit = np.ascontiguousarray(mask.astype(bool, copy=False).transpose(2, 0, 1))
    return np.where(hit, values.transpose(2, 0, 1), 0.0), hit.astype(float)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _cholesky(systems: np.ndarray) -> np.ndarray:
    """Overwrite (R, R, ...) symmetric systems with their square-root-free
    Cholesky factors L D L^T, the pivots D on the diagonal and the unit
    lower triangle L below it; returns which systems are singular, shaped
    like the trailing axes.

    The upper triangles are left holding scratch. A system is singular
    when its first pivot that is not above _PIVOT_TOL times its diagonal
    entry is finite: a zero or negative pivot, or one lost in rounding. A
    system holding a non-finite entry first meets a NaN or infinite pivot,
    so it is not singular, and its NaN factors reach the caller's own
    finite check.
    """
    rank = systems.shape[0]
    diag = np.einsum("ii...->i...", systems).copy()
    for j in range(rank - 1):
        col = systems[j + 1:, j]
        scaled = col / systems[j, j]
        systems[j + 1:, j + 1:] -= scaled[:, None] * col
        col[...] = scaled
    pivots = np.einsum("ii...->i...", systems)
    ok = pivots > _PIVOT_TOL * diag
    if ok.all():
        return np.zeros(diag.shape[1:], dtype=bool)
    first = np.take_along_axis(pivots, np.argmin(ok, axis=0)[None], axis=0)[0]
    return ~ok.all(axis=0) & np.isfinite(first)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _cho_solve(low: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Overwrite (R, M, ...) right-hand sides x with the solutions of the
    systems whose (R, R, ...) factors _cholesky left in low; returns x."""
    rank = low.shape[0]
    for i in range(rank - 1):
        x[i + 1:] -= low[i + 1:, i, None] * x[i]
    x /= np.einsum("ii...->i...", low)[:, None]
    for i in range(rank - 1, 0, -1):
        x[:i] -= low[i, :i, None] * x[i]
    return x


def _singular(step: str, weight: str, feature: int, at: str = "") -> InvalidInputError:
    return InvalidInputError(f"tmf: the {step} system of feature {feature}{at} is "
                             f"singular; try a larger ridge weight {weight}")


def _solve(systems: np.ndarray, rhs: np.ndarray, step: str, weight: str) -> np.ndarray:
    """(R, D, M) solutions of (R, R, D, M) ridge systems, which it
    overwrites, for (R, D, M) right-hand sides; weight is the ridge weight.

    A singular system is a data error naming the first feature whose
    systems include one.
    """
    singular = _cholesky(systems)
    if singular.any():
        raise _singular(step, weight, int(np.argmax(singular.any(axis=1))))
    return _cho_solve(systems, rhs[:, None])[:, 0]


def _masked_grams(obs: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """(R, R, D, M) sums of f f^T over the rows of (D, K, R) factors that
    each row of the (D, M, K) 0/1 obs selects."""
    d, k, rank = factors.shape
    cols = np.ascontiguousarray(factors.transpose(2, 0, 1))
    outer = (cols[:, None] * cols).reshape(rank * rank, d, k)
    gram = np.empty((rank, rank, d, obs.shape[1]))
    np.matmul(outer.transpose(1, 0, 2), obs.transpose(0, 2, 1),
              out=gram.reshape(rank * rank, d, -1).transpose(1, 0, 2))
    return gram


def _estimate_w(yz: np.ndarray, obs: np.ndarray, f: np.ndarray,
                lam_w: float) -> np.ndarray:
    """(D, N, R) ridge fit of every row of the (D, N, T) stacks to fixed
    (D, T, R) temporal factors; lam_w is the whole ridge weight."""
    rank = f.shape[2]
    gram = _masked_grams(obs, f)
    gram.reshape(rank * rank, -1)[::rank + 1] += lam_w
    rhs = np.empty((rank,) + yz.shape[:2])
    np.matmul(f.transpose(0, 2, 1), yz.transpose(0, 2, 1), out=rhs.transpose(1, 0, 2))
    return _solve(gram, rhs, "W-step", "lam_w").transpose(1, 2, 0)


def _sq(x: np.ndarray) -> np.ndarray:
    return np.einsum("dij,dij->d", x, x)


def _penalty(w, f, a, lam_w, lam_f, lam_a) -> np.ndarray:
    """The ridge and AR terms of every feature's objective, (D,)."""
    order, t_len = a.shape[1], f.shape[1]
    diff = f[:, order:] - sum(a[:, lag - 1, None] * f[:, order - lag:t_len - lag]
                              for lag in range(1, order + 1))
    return lam_w * _sq(w) + lam_a * _sq(a) + lam_f * (_sq(f) + _sq(diff))


def _objective(yz, obs, w, f, a, lam_w, lam_f, lam_a) -> np.ndarray:
    """The penalized objective of every feature, (D,), from the full residual."""
    resid = w @ f.transpose(0, 2, 1)
    np.subtract(yz, resid, out=resid)
    resid *= obs
    return _sq(resid) + _penalty(w, f, a, lam_w, lam_f, lam_a)


def _f_step_maps(gram, data, a, lam_f):
    """Each step's F update as a (T, D, R, (2L+1)(R+1)) map of its AR window.

    Step t's f_t = M_t^-1 (r_t + sum_j c_tj * f_{t-L+j}), for the F step's
    (R, R, D, T) Grams and (R, D, T) data right-hand sides r. f_t enters
    the AR residual e_u = sum_l b_l * f_{u-l} (b_0 = 1, b_l = -a_l) of
    each step u = t+l in [L, T): lam_f b_l^2 joins the ridge of M_t, over
    its own lam_f, and c_tj, for j - L = l - l', gathers -lam_f b_l * b_l'.
    Each window row ends in a constant 1, whose weight in the map is
    M_t^-1 r_t in the centre row and 0 elsewhere. A singular M_t is a
    data error naming the first step in sweep order, then its first
    feature.
    """
    rank, _, n_feat, t_len = gram.shape
    order = a.shape[1]
    b = np.concatenate([np.ones((1, n_feat, rank)), -a.transpose(1, 0, 2)])
    pairs = (lam_f * b[:, None] * b).transpose(0, 1, 3, 2)[..., None]
    # c as (2L+1, R+1, D, T); rows l .. l+L take l' = L .. 0
    coef = np.zeros((2 * order + 1, rank + 1, n_feat, t_len))
    for lag in range(order + 1):
        coef[lag:lag + order + 1, :rank, :, order - lag:t_len - lag] -= pairs[lag, ::-1]
    m = gram.copy()
    m_diag = m.reshape(rank * rank, n_feat, t_len)[::rank + 1]
    m_diag += lam_f
    # the centre row (l' = l) gathered -lam_f b_l^2, which belongs to M_t
    m_diag -= coef[order, :rank]
    coef[order, :rank] = 0.0
    coef[order, rank] = 1.0
    singular = _cholesky(m)
    if singular.any():
        t = int(np.argmax(singular.any(axis=0)))
        raise _singular("F-step", "lam_f", int(np.argmax(singular[:, t])), f" at step {t}")
    # [M^-1 | M^-1 r] as (R, R+1, D, T)
    inv = np.zeros((rank, rank + 1, n_feat, t_len))
    inv.reshape(rank * (rank + 1), n_feat, t_len)[::rank + 2] = 1.0
    inv[:, rank] = data
    _cho_solve(m, inv)
    maps = inv.transpose(3, 2, 0, 1)[:, :, :, None] * coef.transpose(3, 2, 0, 1)[:, :, None]
    return maps.reshape(t_len, n_feat, rank, -1)


@np.errstate(over="ignore", invalid="ignore")
def _tmf_core(yz: np.ndarray, obs: np.ndarray, rank: int, ar_order: int,
              lam_w: float, lam_f: float, lam_a: float, iters: int, seed: int):
    """Alternating ridge updates for (D, N, T) stacks; returns (W, F, A, history).

    Feature d starts from core._rng(seed + d), drawing W and then F. history
    holds one objective list per feature, one entry per iteration. Its
    data term comes from the F step's Gram sums; an iteration where they
    cancel to at most 1e-6 of sum mask y^2, or overflow, takes _objective.
    Finite data near the float64 limit can overflow the updates; such a
    feature's objective is then not finite, which is a data error naming
    it, raised after the iteration without a warning on the way.
    """
    n_feat, n, t_len = yz.shape
    order = ar_order
    lam_w += _RIDGE_FLOOR
    lam_f += _RIDGE_FLOOR
    lam_a += _RIDGE_FLOOR
    rngs = [_rng(seed + d) for d in range(n_feat)]
    w = np.stack([rng.normal(0.0, 0.1, (n, rank)) for rng in rngs])
    # F lives inside zero padding of L steps at each end, so every step's
    # AR window f_{t-L} .. f_{t+L} is one slice; each row ends in a 1,
    # which carries the data term of the step's update
    padded = np.zeros((n_feat, t_len + 2 * order, rank + 1))
    padded[..., rank] = 1.0
    f = padded[:, order:order + t_len, :rank]
    f[:] = np.stack([rng.normal(0.0, 0.1, (t_len, rank)) for rng in rngs])
    a = np.zeros((n_feat, order, rank), dtype=np.float64)
    y_sq = _sq(yz)
    # per step, (D, R, 1) f_t and its (D, (2L+1)(R+1), 1) AR window
    steps = [(f[:, t, :, None], padded[:, t:t + 2 * order + 1].reshape(n_feat, -1, 1))
             for t in range(t_len)]
    history = []

    for _ in range(iters):
        w = _estimate_w(yz, obs, f, lam_w)

        gram = _masked_grams(obs.transpose(0, 2, 1), w)
        data = np.matmul(w.transpose(0, 2, 1), yz)   # (D, R, T)
        maps = _f_step_maps(gram, data.transpose(1, 0, 2), a, lam_f)
        # F step, Gauss-Seidel in t: each window reads the steps updated before it
        for (f_t, window), map_t in zip(steps, maps):
            np.matmul(map_t, window, out=f_t)

        # A step: one (L, L) ridge system per feature and rank component
        design = np.stack([f[:, order - lag:t_len - lag] for lag in range(1, order + 1)],
                          axis=-1).transpose(0, 2, 1, 3)
        scaled = lam_f * design.swapaxes(-1, -2)
        systems = (scaled @ design + lam_a * np.eye(order)).transpose(2, 3, 0, 1)
        rhs = (scaled @ f[:, order:].transpose(0, 2, 1)[..., None])[..., 0]
        a = _solve(systems, rhs.transpose(2, 0, 1), "A-step", "lam_a").transpose(1, 0, 2)

        # the data term from the F-step's sums for the final W and F:
        # |mask * (Y - W F^T)|^2 = sum mask y^2 - 2 sum_t f_t.r_t + sum_t f_t^T G_t f_t;
        # where that cancels, or overflows, it is summed from the residual
        fit = (y_sq - 2 * np.einsum("dtr,drt->d", f, data)
               + np.einsum("dtr,rsdt,dts->d", f, gram, f))
        objective = (fit + _penalty(w, f, a, lam_w, lam_f, lam_a)
                     if ((fit > 1e-6 * y_sq) & (fit < np.inf)).all()
                     else _objective(yz, obs, w, f, a, lam_w, lam_f, lam_a))
        finite = np.isfinite(objective)
        if not finite.all():
            raise InvalidInputError(
                f"tmf: the objective of feature {int(np.argmin(finite))} is not finite after "
                f"iteration {len(history) + 1}; its values are too large to factorize in float64")
        history.append(objective)
    return w, f, a, np.array(history).T.tolist()


def _forecast(w: np.ndarray, f: np.ndarray, a: np.ndarray, horizon: int) -> np.ndarray:
    """(N, horizon, D) forecasts from rolling the factors forward with the AR recursion."""
    order = a.shape[1]
    buf = np.concatenate([f[:, -order:], np.empty((f.shape[0], horizon, f.shape[2]))],
                         axis=1)
    for j in range(order, order + horizon):
        buf[:, j] = (a * buf[:, j - order:j][:, ::-1]).sum(axis=1)
    return (w @ buf[:, order:].transpose(0, 2, 1)).transpose(1, 2, 0)


@register_model
class TmfModel(AnalyticModel, Forecaster):
    """One factorization per feature, stacked over the feature axis.

    The TRMF form of Yu, Rao and Dhillon ("Temporal Regularized Matrix
    Factorization for High-dimensional Time Series Prediction", NeurIPS
    2016): each feature's (series x step) matrix Y is fit as W F^T, with
    the rows f_t of F tied by diagonal AR weights a_1 .. a_L. Alternating
    ridge solves minimize
        |mask * (Y - W F^T)|^2 + lam_w |W|^2 + lam_a |A|^2
        + lam_f (|F|^2 + sum_{t>=L} |f_t - sum_l a_l * f_{t-l}|^2),
    each weight floored at 1e-10. objective_history holds it per feature
    and iteration, its data term from the F step's Gram sums: that agrees
    with the direct residual sum to about 1e-12 relative, and falls back
    to that sum where the two cancel or overflow. Each step factors all
    its ridge systems with one batched Cholesky; one whose pivot falls to
    16 eps of its diagonal entry is singular, a data error that names the
    feature, the step of an F-step system and the ridge weight to raise.

    w_list, f_list and a_list are the (D, N, R), (D, T, R) and (D, L, R)
    factor stacks; indexing one by feature gives that feature's factors.
    They are the tensors w, f and a. n_series is the number of series
    the factors were fit to; 0 means unfitted, with no tensors, and a
    positive value allocates zero factors of that size.
    """

    kind = "tmf"
    HYPERPARAMS = {"n_steps": int, "n_features": int, "rank": int, "ar_order": int,
                   "lam_w": float, "lam_f": float, "lam_a": float, "iters": int,
                   "n_series": int}

    def __init__(self, n_steps: int, n_features: int, rank: int = 2,
                 ar_order: int = 2, lam_w: float = 0.1, lam_f: float = 0.1,
                 lam_a: float = 0.1, iters: int = 20, n_series: int = 0):
        if n_features < 1:
            raise InvalidInputError(f"n_features must be positive, got {n_features}")
        if rank < 1:
            raise InvalidInputError(f"rank must be positive, got {rank}")
        if not 0 < ar_order < n_steps:
            raise InvalidInputError(
                f"ar_order must be in [1, n_steps), got {ar_order} with "
                f"{n_steps} steps")
        _check_non_negative("ridge weights", lam_w=lam_w, lam_f=lam_f, lam_a=lam_a)
        if iters < 1:
            raise InvalidInputError(f"iters must be positive, got {iters}")
        if n_series < 0:
            raise InvalidInputError(f"n_series must be non-negative, got {n_series}")
        self.n_steps = n_steps
        self.n_features = n_features
        self.rank = rank
        self.ar_order = ar_order
        self.lam_w = float(lam_w)
        self.lam_f = float(lam_f)
        self.lam_a = float(lam_a)
        self.iters = iters
        self.n_series = n_series
        self.objective_history: list[list[float]] = []
        if not self._unfilled:
            self._fill({name: np.zeros(shape) for name, shape in self._shapes()})

    def tensors(self) -> dict[str, np.ndarray]:
        return {"w": self.w_list, "f": self.f_list, "a": self.a_list} if self.n_series else {}

    def _shapes(self):
        if not self.n_series:
            return []
        d, rank = self.n_features, self.rank
        return [("w", (d, self.n_series, rank)), ("f", (d, self.n_steps, rank)),
                ("a", (d, self.ar_order, rank))]

    def _fill(self, tensors: dict[str, np.ndarray]) -> None:
        self.w_list, self.f_list, self.a_list = (tensors.get(name) for name in "wfa")

    # -- fitting ----------------------------------------------------------------
    def _fit_stacks(self, yz: np.ndarray, obs: np.ndarray, seed: int) -> None:
        for d in range(self.n_features):
            _check_matrix(obs[d] != 0, f"feature {d} " if self.n_features > 1 else "")
        w, f, a, self.objective_history = _tmf_core(
            yz, obs, self.rank, self.ar_order, self.lam_w, self.lam_f, self.lam_a,
            self.iters, seed)
        self.n_series = yz.shape[1]
        # contiguous, as a loaded model's are; f is a view into the solver's padding
        self.w_list, self.f_list, self.a_list = map(np.ascontiguousarray, (w, f, a))

    def fit_analytic(self, train_set, val_set, config: TrainConfig) -> float:
        batch = fetch_all(train_set)
        self._fit_stacks(*_feature_stacks(batch.values, batch.mask), config.seed)
        return imputer_validation_metric(self._row_fit, val_set)

    def _refit_w(self, batch: Batch) -> np.ndarray:
        """(D, B, R) series factors re-fit to the batch's rows."""
        return _estimate_w(*_feature_stacks(batch.values, batch.mask), self.f_list,
                           self.lam_w + _RIDGE_FLOOR)

    def _row_fit(self, batch: Batch) -> np.ndarray:
        """(B, T, D) low-rank fit of the batch's rows, their series factors re-fit."""
        return np.einsum("dnr,dtr->ntd", self._refit_w(batch), self.f_list)

    def reconstruct(self) -> np.ndarray:
        """(n_series, T, D) low-rank reconstruction of the training data."""
        if not self.n_series:
            raise InvalidInputError("reconstruct: model has not been fit")
        return np.einsum("dnr,dtr->ntd", self.w_list, self.f_list)

    # -- inference -----------------------------------------------------------
    def forecast_batch(self, batch: Batch, horizon: int) -> np.ndarray:
        if not self.n_series:
            raise InvalidInputError("forecast: model has not been fit")
        _check_shape(self, *batch.values.shape[1:], "forecast")
        return _forecast(self._refit_w(batch), self.f_list, self.a_list, horizon)


def tmf_fit(y: np.ndarray, mask: np.ndarray, rank: int, ar_order: int = 2,
            lam_w: float = 0.1, lam_f: float = 0.1, lam_a: float = 0.1,
            iters: int = 30, seed: int = 0) -> TmfModel:
    """Factorize one (N, T) matrix with missing entries; returns the model.

    The result is a single-feature TmfModel whose objective_history
    records the penalized objective once per alternating iteration, from
    the F step's Gram sums (about 1e-12 relative of the direct residual
    sum, which it falls back to where the two cancel).
    """
    y = np.asarray(y, dtype=np.float64)
    obs = np.asarray(mask) != 0
    if y.ndim != 2 or y.shape != obs.shape:
        raise ShapeError(
            f"tmf_fit: y {y.shape} and mask {obs.shape} must be matching "
            "rank-2 arrays")
    model = TmfModel(n_steps=y.shape[1], n_features=1, rank=rank,
                     ar_order=ar_order, lam_w=lam_w, lam_f=lam_f, lam_a=lam_a,
                     iters=iters)
    model._fit_stacks(*_feature_stacks(y[:, :, None], obs[:, :, None]), seed)
    return model


def tmf_forecast(model: TmfModel, horizon: int) -> np.ndarray:
    """Roll the stored factors forward; (n_series, horizon, n_features)."""
    if horizon < 1:
        raise InvalidInputError(f"tmf_forecast: horizon must be at least 1, got {horizon}")
    if not model.n_series:
        raise InvalidInputError("tmf_forecast: model has not been fit")
    return _forecast(model.w_list, model.f_list, model.a_list, horizon)
