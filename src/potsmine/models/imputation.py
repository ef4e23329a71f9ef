"""Imputation models: LOCF, per-feature mean, and SAITS-lite.

SAITS-lite is a two-block self-attention reconstructor trained with a
joint loss on originally observed cells and artificially removed cells.
Each step is forbidden from attending to itself, so reconstructions are
interpolations from the rest of the series.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


# a workspace array holds at most this many samples; a larger batch gets
# fresh arrays that are freed after use
_WORKSPACE_ROWS = _EVAL_CHUNK
# the attention score a step gives itself before the softmax
_SELF_SCORE = -1e9


class _BlockState(NamedTuple):
    """One block's intermediates, as _block_grads reads them back."""

    inp: np.ndarray      # (B, T, 2D) input and mask
    h0: np.ndarray       # (B, T, d_model) lifted input
    qkv: np.ndarray      # (B, T, 3 d_model) queries, keys and values
    w_qkv: np.ndarray    # (d_model, 3 d_model) [w_q | w_k | w_v]
    attn: np.ndarray     # (B, T, T) attention, exactly 0 on the diagonal
    h1: np.ndarray       # (B, T, d_model) after attention
    f1: np.ndarray       # (B, T, d_ff) feed-forward activations
    h2: np.ndarray       # (B, T, d_model) after the feed-forward layer


@register_model
class SaitsLiteModel(GradientModel, Imputer):
    """Two diagonally-masked self-attention blocks over the step axis.

    Input is the zero-filled series concatenated with its mask, lifted
    by a learned projection plus a per-step bias. Block 2 consumes block
    1's output with observed cells substituted back in; block 2's raw
    reconstruction is the model output.

    One plain-numpy forward, _forward, serves training, inference,
    validation and saits_forward. Training records the forward and the
    loss as a single tape node whose backward, _forward_grads, is
    hand-written and runs back through both blocks, so a minibatch adds
    one node whatever the series length. The node holds no tensor, so
    its tape is freed as soon as the step ends.

    The large (B, T, .) intermediates, the (B, T, T) attention among
    them, are written into workspace arrays the model keeps and reuses
    from call to call (see _scratch), so a minibatch does not allocate,
    free and re-fault them. The workspace is bounded by the largest
    batch of at most _WORKSPACE_ROWS samples the model has seen; nothing
    a caller receives aliases it. Because of it, one model instance must
    not be called from two threads at once.
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
        self._workspace: dict[str, np.ndarray] = {}
        # counts the forwards that keep state for a backward, so a
        # backward can tell that a later one overwrote its workspace
        self._kept_forwards = 0

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

    # -- forward and backward ----------------------------------------------
    def _scratch(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """An uninitialized workspace array of the given shape.

        Each name keeps one flat buffer, grown to the largest batch seen,
        and hands out its leading part, so batches of any size up to
        _WORKSPACE_ROWS share it. A larger batch gets a fresh array.
        """
        if shape[0] > _WORKSPACE_ROWS:
            return np.empty(shape)
        size = math.prod(shape)
        buf = self._workspace.get(name)
        if buf is None or buf.size < size:
            buf = self._workspace[name] = np.empty(size)
        return buf[:size].reshape(shape)

    def _block(self, p: dict, pre: str, cur: np.ndarray, maskf: np.ndarray,
               ws: str) -> tuple[np.ndarray, _BlockState]:
        """One attention block over (B, T, D) input; returns (x_b, its state).

        pre selects the block's parameters and ws its workspace arrays.
        Q, K and V come from one matmul; the diagonal fill and the
        softmax run in place on the score array.
        """
        n, steps, d = cur.shape
        dm = self.d_model
        rows = n * steps
        inp = self._scratch(ws + "inp", (n, steps, 2 * d))
        inp[..., :d] = cur
        inp[..., d:] = maskf
        h0 = self._scratch(ws + "h0", (n, steps, dm))
        np.matmul(inp.reshape(rows, 2 * d), p[pre + "w_in"], out=h0.reshape(rows, dm))
        h0 += p[pre + "b_in"]
        h0 += p[pre + "pos"]
        w_qkv = np.concatenate([p[pre + "w_q"], p[pre + "w_k"], p[pre + "w_v"]], axis=1)
        qkv = self._scratch(ws + "qkv", (n, steps, 3 * dm))
        np.matmul(h0.reshape(rows, dm), w_qkv, out=qkv.reshape(rows, 3 * dm))
        q, k, v = qkv[..., :dm], qkv[..., dm:2 * dm], qkv[..., 2 * dm:]
        attn = self._scratch(ws + "attn", (n, steps, steps))
        np.matmul(q, k.swapaxes(1, 2), out=attn)
        attn *= 1.0 / math.sqrt(dm)
        attn.reshape(n, steps * steps)[:, ::steps + 1] = _SELF_SCORE
        attn -= attn.max(axis=2, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=2, keepdims=True)
        h1 = self._scratch(ws + "h1", (n, steps, dm))
        np.matmul(attn, v, out=h1)
        h1 += h0
        f1 = self._scratch(ws + "f1", (n, steps, self.d_ff))
        np.matmul(h1.reshape(rows, dm), p[pre + "w_f1"], out=f1.reshape(rows, self.d_ff))
        f1 += p[pre + "b_f1"]
        np.maximum(f1, 0.0, out=f1)
        h2 = self._scratch(ws + "h2", (n, steps, dm))
        np.matmul(f1.reshape(rows, self.d_ff), p[pre + "w_f2"], out=h2.reshape(rows, dm))
        h2 += p[pre + "b_f2"]
        h2 += h1
        xb = h2.reshape(rows, dm) @ p[pre + "w_out"]
        xb += p[pre + "b_out"]
        return xb.reshape(n, steps, d), _BlockState(inp, h0, qkv, w_qkv, attn, h1, f1, h2)

    def _forward(self, p: dict, x0: np.ndarray, maskf: np.ndarray, keep: bool = False):
        """Reconstruction (B, T, D) in working space from both blocks.

        x0 is the zero-filled working-space batch and maskf its 0/1 mask.
        With keep, also returns what _forward_grads needs, each block's
        intermediates in its own workspace arrays; without it, the blocks
        share one set. The reconstruction is a fresh array.
        """
        keepm = 1.0 - maskf
        cur = x0
        states = []
        for b in range(1, self.N_BLOCKS + 1):
            xb, state = self._block(p, f"b{b}_", cur, maskf, f"b{b}_" if keep else "")
            states.append(state)
            if b < self.N_BLOCKS:
                # re-substitute observed cells before the next block
                cur = keepm * xb
                cur += x0
        if not keep:
            return xb, None
        self._kept_forwards += 1
        return xb, (keepm, states, self._kept_forwards)

    def _block_grads(self, p: dict, pre: str, s: _BlockState, d_xb: np.ndarray,
                     grads: dict, want_input: bool) -> np.ndarray | None:
        """Backward of one block from the gradient of its output x_b.

        Adds the block's parameter gradients to grads (fresh arrays).
        With want_input, returns the gradient of the block's series input
        (the first D columns of inp).
        """
        n, steps, dm = s.h0.shape
        rows = n * steps

        def flat(a):
            return a.reshape(rows, a.shape[-1])

        d_xb = flat(d_xb)
        grads[pre + "w_out"] = flat(s.h2).T @ d_xb
        grads[pre + "b_out"] = d_xb.sum(axis=0)
        d_h2 = self._scratch("d_h2", s.h2.shape)
        np.matmul(d_xb, p[pre + "w_out"].T, out=flat(d_h2))
        grads[pre + "w_f2"] = flat(s.f1).T @ flat(d_h2)
        grads[pre + "b_f2"] = flat(d_h2).sum(axis=0)
        d_f1 = self._scratch("d_f1", s.f1.shape)
        np.matmul(flat(d_h2), p[pre + "w_f2"].T, out=flat(d_f1))
        d_f1 *= s.f1 > 0
        grads[pre + "w_f1"] = flat(s.h1).T @ flat(d_f1)
        grads[pre + "b_f1"] = flat(d_f1).sum(axis=0)
        d_h1 = self._scratch("d_h1", s.h1.shape)
        np.matmul(flat(d_f1), p[pre + "w_f1"].T, out=flat(d_h1))
        d_h1 += d_h2
        # h1 = h0 + attn @ v with attn = softmax(q k^T / sqrt(d_model))
        # off the diagonal; attn is exactly 0 on the diagonal, so the
        # score gradient vanishes there as the fill requires
        q, k, v = s.qkv[..., :dm], s.qkv[..., dm:2 * dm], s.qkv[..., 2 * dm:]
        d_qkv = self._scratch("d_qkv", s.qkv.shape)
        d_q, d_k, d_v = d_qkv[..., :dm], d_qkv[..., dm:2 * dm], d_qkv[..., 2 * dm:]
        np.matmul(s.attn.swapaxes(1, 2), d_h1, out=d_v)
        d_s = self._scratch("d_attn", s.attn.shape)
        np.matmul(d_h1, v.swapaxes(1, 2), out=d_s)
        d_s -= np.einsum("bij,bij->bi", d_s, s.attn)[..., None]
        d_s *= s.attn
        d_s *= 1.0 / math.sqrt(dm)
        np.matmul(d_s, k, out=d_q)
        np.matmul(d_s.swapaxes(1, 2), q, out=d_k)
        d_w_qkv = flat(s.h0).T @ flat(d_qkv)
        for j, name in enumerate(("w_q", "w_k", "w_v")):
            grads[pre + name] = d_w_qkv[:, j * dm:(j + 1) * dm]
        d_h0 = self._scratch("d_h0", s.h0.shape)
        np.matmul(flat(d_qkv), s.w_qkv.T, out=flat(d_h0))
        d_h0 += d_h1
        grads[pre + "w_in"] = flat(s.inp).T @ flat(d_h0)
        grads[pre + "b_in"] = flat(d_h0).sum(axis=0)
        grads[pre + "pos"] = d_h0.sum(axis=0)
        if not want_input:
            return None
        d = self.n_features
        return (flat(d_h0) @ p[pre + "w_in"][:d].T).reshape(n, steps, d)

    def _forward_grads(self, p: dict, saved, d_xhat: np.ndarray) -> list[np.ndarray]:
        """Hand-written backward of _forward: every parameter's gradient.

        Gradients come in the order of self.parameters. Block 2 runs
        first; the gradient of its input reaches block 1's output only
        through the cells the re-substitution left missing.
        """
        keepm, states, kept = saved
        if kept != self._kept_forwards:
            raise InvalidInputError(
                "saits_lite: another training forward ran on this model before the "
                "backward of an earlier one and overwrote the workspace it reads")
        grads: dict[str, np.ndarray] = {}
        d_x = d_xhat
        for b in range(self.N_BLOCKS, 0, -1):
            d_in = self._block_grads(p, f"b{b}_", states[b - 1], d_x, grads,
                                     want_input=b > 1)
            if b > 1:
                d_x = keepm * d_in
        return [grads[name] for name in self.parameters]

    # -- training ----------------------------------------------------------
    def prepare_fit(self, train_set) -> None:
        if self.normalize:
            self.norm_stats = fit_norm_stats(train_set)

    def batch_loss_sum(self, leaves: dict, batch: Batch) -> T.Tensor:
        """Sum over samples of each one's mean squared error.

        Per sample: the mean over observed cells plus lam_mit times the
        mean over indicating cells; a sample without such cells adds 0 to
        that term. The forward and this loss are one tape node.
        """
        names = list(self.parameters)
        inputs = [leaves[name] for name in names]
        p = {name: t.data for name, t in zip(names, inputs)}
        keep = any(t.tape is not None for t in inputs)
        maskf = (batch.mask != 0).astype(np.float64)
        x0 = self._to_working(batch.values, batch.mask)
        xhat, saved = self._forward(p, x0, maskf, keep=keep)
        originals = batch.values if batch.originals is None else batch.originals
        terms = [(maskf, 1.0)]
        union = maskf != 0
        if batch.indicating is not None:
            held = batch.indicating != 0
            if held.any():
                terms.append((held.astype(np.float64), self.lam_mit))
                union |= held
        if self.norm_stats is None:
            target = np.where(union, originals, 0.0)
        else:
            target = np.where(
                union, (originals - self.norm_stats.mean) / self.norm_stats.std, 0.0)
        resid = xhat - target
        loss = 0.0
        d_xhat = np.zeros_like(xhat)
        for weight, lam in terms:
            counts = weight.sum(axis=(1, 2))
            recip = np.divide(1.0, counts, out=np.zeros_like(counts), where=counts > 0)
            diff = resid * weight
            loss += ((diff * diff).sum(axis=(1, 2)) * recip).sum() * lam
            d_xhat += diff * ((2.0 * lam) * recip)[:, None, None]
        return T.record_fused(np.asarray(loss, dtype=np.float64), inputs,
                              lambda g: self._forward_grads(p, saved, g * d_xhat))

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
        return self._from_working(self._forward(self.parameters, x0, maskf)[0])

    def impute_batch(self, batch: Batch) -> np.ndarray:
        return np.where(batch.mask != 0, batch.values, self._reconstruct(batch))


def saits_forward(model: SaitsLiteModel, values: np.ndarray, mask: np.ndarray):
    """Reconstruction and per-block attention maps for a (B, T, D) batch.

    Returned values live in the data space (denormalized); the final
    imputation is mask*values + (1-mask)*reconstruction. The attention
    maps are copies the caller owns.
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
    xhat, (_, states, _) = model._forward(model.parameters, x0, maskf, keep=True)
    return model._from_working(xhat), [s.attn.copy() for s in states]
