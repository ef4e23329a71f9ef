"""Imputation models: LOCF, per-feature mean, and SAITS-lite.

SAITS-lite is a two-block self-attention reconstructor trained with a
joint loss on originally observed cells and artificially removed cells.
Each step is forbidden from attending to itself, so reconstructions are
interpolations from the rest of the series.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidInputError, ShapeError
from ..core import Batch, _iter_index_chunks, fit_norm_stats
from .. import tensor as T
from .artifact import ModelArtifact, register_model
from .base import (_EVAL_CHUNK, AnalyticModel, GradientModel, Imputer, TrainConfig,
                   imputer_validation_metric, xavier)


# ---------------------------------------------------------------------------
# LOCF

def _locf_fill(values: np.ndarray, mask: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Carry observations forward along axis 1 of a (B, T, D) block.

    Leading missing cells take the first later observation; features
    with no observation at all take the fallback value.
    """
    n_steps = values.shape[1]
    obs = mask != 0
    t_idx = np.broadcast_to(np.arange(n_steps)[None, :, None], values.shape)
    last = np.maximum.accumulate(np.where(obs, t_idx, -1), axis=1)
    first = obs.argmax(axis=1)
    has_any = obs.any(axis=1)
    src = np.where(last >= 0, last, first[:, None, :])
    filled = np.take_along_axis(values, src, axis=1)
    filled = np.where(has_any[:, None, :], filled, fallback[None, None, :])
    return np.where(obs, values, filled)


def locf_impute(values: np.ndarray, mask: np.ndarray,
                fallback_values: np.ndarray) -> np.ndarray:
    """Complete one (T, D) sample by last observation carried forward."""
    values = np.asarray(values, dtype=np.float64)
    mask = np.asarray(mask)
    if values.ndim != 2 or values.shape != mask.shape:
        raise ShapeError(
            f"locf_impute: values {values.shape} and mask {mask.shape} "
            "must be matching rank-2 arrays")
    fallback = np.asarray(fallback_values, dtype=np.float64)
    if fallback.shape != (values.shape[1],):
        raise ShapeError(
            f"locf_impute: fallback shape {fallback.shape} does not match "
            f"{values.shape[1]} features")
    return _locf_fill(values[None], mask[None], fallback)[0]


class _AnalyticImputer(AnalyticModel, Imputer):
    """Shared fit for imputers whose only state is per-feature means."""

    values_name = ""   # the artifact tensor holding the per-feature values

    def __init__(self, n_features: int, values: np.ndarray | None = None):
        if n_features < 1:
            raise InvalidInputError(f"n_features must be positive, got {n_features}")
        self.n_features = n_features
        if values is None:
            values = np.zeros(n_features, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (n_features,):
            raise ShapeError(
                f"{self.values_name!r} shape {values.shape} does not match "
                f"{n_features} features")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("per-feature values must be finite")
        self.feature_values = values

    def hyperparams(self) -> dict:
        return {"n_features": self.n_features}

    def fit_analytic(self, train_set, val_set, config: TrainConfig) -> float:
        self.feature_values = fit_norm_stats(train_set).mean
        return imputer_validation_metric(self, val_set)

    @classmethod
    def from_artifact(cls, art: ModelArtifact):
        return cls(int(art.hyperparams["n_features"]),
                   values=art.tensors[cls.values_name])

    def tensors(self) -> dict[str, np.ndarray]:
        return {self.values_name: self.feature_values}


@register_model
class LocfModel(_AnalyticImputer):
    """Last observation carried forward with a training-mean fallback."""

    kind = "locf"
    values_name = "fallback_values"

    def impute_batch(self, batch: Batch) -> np.ndarray:
        return _locf_fill(batch.values, batch.mask, self.feature_values)


@register_model
class MeanImputerModel(_AnalyticImputer):
    """Fill every missing cell with the feature's training mean."""

    kind = "mean"
    values_name = "means"

    def impute_batch(self, batch: Batch) -> np.ndarray:
        fill = np.broadcast_to(self.feature_values, batch.values.shape)
        return np.where(batch.mask != 0, batch.values, fill)


# ---------------------------------------------------------------------------
# SAITS-lite

def saits_loss(xhat, originals: np.ndarray, observed_mask: np.ndarray,
               indicating_mask: np.ndarray, lam_mit: float = 1.0) -> T.Tensor:
    """Joint reconstruction loss over observed and held-out cells.

    masked_mse on observed cells plus lam_mit times masked_mse on
    indicating cells; an all-zero indicating mask contributes 0.
    """
    obs = np.asarray(observed_mask) != 0
    ind = np.asarray(indicating_mask) != 0
    if obs.shape != ind.shape:
        raise ShapeError(
            f"saits_loss: mask shapes differ {obs.shape}, {ind.shape}")
    if np.any(obs & ind):
        raise InvalidInputError("saits_loss: observed and indicating masks overlap")
    target = np.where(obs | ind, np.asarray(originals, dtype=np.float64), 0.0)
    loss = T.masked_mse(xhat, T.constant(target), obs.astype(np.float64))
    if ind.any():
        mit = T.masked_mse(xhat, T.constant(target), ind.astype(np.float64))
        loss = T.add(loss, T.mul(mit, T.constant(float(lam_mit))))
    return loss


@register_model
class SaitsLiteModel(GradientModel, Imputer):
    """Two diagonally-masked self-attention blocks over the step axis.

    Input is the zero-filled series concatenated with its mask, lifted
    by a learned projection plus a per-step bias. Block 2 consumes block
    1's output with observed cells substituted back in; block 2's raw
    reconstruction is the model output.
    """

    kind = "saits_lite"
    N_BLOCKS = 2

    def __init__(self, n_steps: int, n_features: int, d_model: int = 32,
                 d_ff: int = 64, lam_mit: float = 1.0, normalize: bool = True,
                 init_seed: int = 0):
        if n_steps < 2:
            raise InvalidInputError(
                f"saits_lite needs at least 2 steps for off-diagonal attention, "
                f"got {n_steps}")
        if n_features < 1 or d_model < 1 or d_ff < 1:
            raise InvalidInputError("saits_lite sizes must be positive")
        if lam_mit < 0:
            raise InvalidInputError(f"lam_mit must be non-negative, got {lam_mit}")
        self.n_steps = n_steps
        self.n_features = n_features
        self.d_model = d_model
        self.d_ff = d_ff
        self.lam_mit = float(lam_mit)
        self.normalize = bool(normalize)
        self.init_seed = int(init_seed)
        self.norm_stats = None
        self.parameters = self._init_params()

    def _init_params(self) -> dict[str, np.ndarray]:
        rng = np.random.Generator(np.random.PCG64(self.init_seed))
        d, dm, df = self.n_features, self.d_model, self.d_ff
        params: dict[str, np.ndarray] = {}
        for b in range(1, self.N_BLOCKS + 1):
            pre = f"b{b}_"
            params[pre + "w_in"] = xavier(rng, 2 * d, dm)
            params[pre + "b_in"] = np.zeros(dm)
            params[pre + "pos"] = np.zeros((self.n_steps, dm))
            params[pre + "w_q"] = xavier(rng, dm, dm)
            params[pre + "w_k"] = xavier(rng, dm, dm)
            params[pre + "w_v"] = xavier(rng, dm, dm)
            params[pre + "w_f1"] = xavier(rng, dm, df)
            params[pre + "b_f1"] = np.zeros(df)
            params[pre + "w_f2"] = xavier(rng, df, dm)
            params[pre + "b_f2"] = np.zeros(dm)
            params[pre + "w_out"] = xavier(rng, dm, d)
            params[pre + "b_out"] = np.zeros(d)
        return params

    # -- serialization --------------------------------------------------
    def hyperparams(self) -> dict:
        return {"n_steps": self.n_steps, "n_features": self.n_features,
                "d_model": self.d_model, "d_ff": self.d_ff,
                "lam_mit": self.lam_mit, "normalize": self.normalize,
                "init_seed": self.init_seed}

    def tensors(self) -> dict[str, np.ndarray]:
        return dict(self.parameters)

    @classmethod
    def from_artifact(cls, art: ModelArtifact) -> "SaitsLiteModel":
        hp = art.hyperparams
        model = cls(int(hp["n_steps"]), int(hp["n_features"]),
                    d_model=int(hp["d_model"]), d_ff=int(hp["d_ff"]),
                    lam_mit=float(hp["lam_mit"]), normalize=bool(hp["normalize"]),
                    init_seed=int(hp["init_seed"]))
        for name in model.parameters:
            model.parameters[name] = art.tensors[name].copy()
        model.norm_stats = art.norm
        return model

    # -- normalization helpers -------------------------------------------
    def _from_working(self, working: np.ndarray) -> np.ndarray:
        if self.norm_stats is None:
            return working
        return working * self.norm_stats.std + self.norm_stats.mean

    # -- forward graph ----------------------------------------------------
    def _forward(self, params: dict, x0: np.ndarray, mask: np.ndarray):
        """Run both blocks; returns (reconstruction, [attention per block])."""
        m = T.constant(mask)
        keep = T.constant(1.0 - mask)
        diag = np.eye(self.n_steps)
        scale = T.constant(1.0 / math.sqrt(self.d_model))
        cur = T.constant(x0)
        attns = []
        xb = cur
        for b in range(1, self.N_BLOCKS + 1):
            p = {k[len(f"b{b}_"):]: v for k, v in params.items()
                 if k.startswith(f"b{b}_")}
            h = T.concat([cur, m]) @ p["w_in"] + p["b_in"] + p["pos"]
            q, k, v = h @ p["w_q"], h @ p["w_k"], h @ p["w_v"]
            scores = (q @ T.transpose(k)) * scale
            attn = T.softmax(T.masked_fill(scores, diag, -1e9))
            h = h + (attn @ v)
            h = h + (T.relu(h @ p["w_f1"] + p["b_f1"]) @ p["w_f2"] + p["b_f2"])
            xb = h @ p["w_out"] + p["b_out"]
            attns.append(attn)
            if b < self.N_BLOCKS:
                # re-substitute observed cells before the next block
                cur = T.constant(x0) + keep * xb
        return xb, attns

    def _constant_params(self) -> dict:
        return {name: T.constant(arr) for name, arr in self.parameters.items()}

    # -- training ----------------------------------------------------------
    def prepare_fit(self, train_set) -> None:
        if self.normalize:
            self.norm_stats = fit_norm_stats(train_set)

    def batch_loss_sum(self, leaves: dict, batch: Batch) -> T.Tensor:
        maskf = (batch.mask != 0).astype(np.float64)
        x0 = self._to_working(batch.values, batch.mask)
        xhat, _ = self._forward(leaves, x0, maskf)
        originals = batch.values if batch.originals is None else batch.originals
        if batch.indicating is None:
            indf = np.zeros_like(maskf)
        else:
            indf = (batch.indicating != 0).astype(np.float64)
        union = (maskf != 0) | (indf != 0)
        if self.norm_stats is None:
            target = np.where(union, originals, 0.0)
        else:
            target = np.where(
                union, (originals - self.norm_stats.mean) / self.norm_stats.std, 0.0)

        def per_sample_mean(weight: np.ndarray) -> T.Tensor:
            diff = (xhat - T.constant(target)) * T.constant(weight)
            sums = T.reduce_sum(diff * diff, axis=(1, 2))
            counts = weight.sum(axis=(1, 2))
            recip = np.divide(1.0, counts, out=np.zeros_like(counts),
                              where=counts > 0)
            return T.reduce_sum(sums * T.constant(recip))

        loss = per_sample_mean(maskf)
        if indf.any():
            loss = loss + per_sample_mean(indf) * T.constant(self.lam_mit)
        return loss

    def validation_metric(self, val_set, config: TrainConfig) -> float:
        """Masked MSE of the reconstruction on held-out cells.

        Views without indicating cells fall back to the observed-cell
        reconstruction error so election still tracks training.
        """
        ind_err = ind_n = obs_err = obs_n = 0.0
        for idx in _iter_index_chunks(len(val_set), _EVAL_CHUNK):
            batch = val_set.training_batch([int(i) for i in idx])
            xhat = self._reconstruct(batch)
            hit = batch.mask != 0
            diff = xhat[hit] - batch.values[hit]
            obs_err += float(diff @ diff)
            obs_n += diff.size
            if batch.indicating is not None and batch.originals is not None:
                held = batch.indicating != 0
                if held.any():
                    diff = xhat[held] - batch.originals[held]
                    ind_err += float(diff @ diff)
                    ind_n += diff.size
        if ind_n > 0:
            return ind_err / ind_n
        if obs_n > 0:
            return obs_err / obs_n
        return 0.0

    # -- inference ----------------------------------------------------------
    def _reconstruct(self, batch: Batch) -> np.ndarray:
        maskf = (batch.mask != 0).astype(np.float64)
        x0 = self._to_working(batch.values, batch.mask)
        xhat, _ = self._forward(self._constant_params(), x0, maskf)
        return self._from_working(xhat.data)

    def impute_batch(self, batch: Batch) -> np.ndarray:
        return np.where(batch.mask != 0, batch.values, self._reconstruct(batch))


def saits_forward(model: SaitsLiteModel, values: np.ndarray, mask: np.ndarray):
    """Reconstruction and per-block attention maps for a (B, T, D) batch.

    Returned values live in the data space (denormalized); the final
    imputation is mask*values + (1-mask)*reconstruction.
    """
    values = np.asarray(values, dtype=np.float64)
    mask_arr = np.asarray(mask)
    if values.ndim != 3 or values.shape != mask_arr.shape:
        raise ShapeError(
            f"saits_forward: values {values.shape} and mask {mask_arr.shape} "
            "must be matching rank-3 arrays")
    if values.shape[1:] != (model.n_steps, model.n_features):
        raise ShapeError(
            f"saits_forward: batch shape {values.shape[1:]} does not match "
            f"model ({model.n_steps}, {model.n_features})")
    maskf = (mask_arr != 0).astype(np.float64)
    x0 = model._to_working(values, mask_arr)
    xhat, attns = model._forward(model._constant_params(), x0, maskf)
    return model._from_working(xhat.data), [a.data for a in attns]
