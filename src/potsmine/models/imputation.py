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
from ..core import Batch, _carry_forward, _chunks, _rng, fit_norm_stats
from .. import tensor as T
from .artifact import register_model
from .base import (_INFER_BYTES, AnalyticModel, GradientModel, Imputer, TrainConfig,
                   _check_non_negative, imputer_validation_metric, xavier)


# ---------------------------------------------------------------------------
# LOCF

def _locf_fill(values: np.ndarray, mask: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Carry observations forward along axis 1 of a (B, T, D) block.

    Leading missing cells take the first later observation; features
    with no observation at all take the fallback value.

    Runs core._carry_forward on contiguous (T, B, D) copies of the values
    and the observed mask. Its seed row is what leading missing cells
    take: each feature's first observation (argmax over time), or the
    fallback. Every cell is selected, never computed, so the output is
    bitwise that of the index-based fill in tests/, the oracle. Returns a
    (B, T, D) view of rows 1.. of the time-major result.
    """
    obs = np.ascontiguousarray(mask.astype(bool, copy=False).transpose(1, 0, 2))
    vals = np.ascontiguousarray(values.transpose(1, 0, 2))
    first = np.take_along_axis(vals, obs.argmax(axis=0)[None], axis=0)[0]
    seed = np.where(obs.any(axis=0), first, fallback)
    return _carry_forward(vals, obs, seed)[1:].transpose(1, 0, 2)


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

    HYPERPARAMS = {"n_features": int}
    values_name = ""   # the artifact tensor holding the per-feature values

    def __init__(self, n_features: int, values: np.ndarray | None = None):
        if n_features < 1:
            raise InvalidInputError(f"n_features must be positive, got {n_features}")
        self.n_features = n_features
        if self._unfilled:
            return
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

    def fit_analytic(self, train_set, val_set, config: TrainConfig) -> float:
        self.feature_values = fit_norm_stats(train_set).mean
        return imputer_validation_metric(self.impute_batch, val_set)

    def tensors(self) -> dict[str, np.ndarray]:
        return {self.values_name: self.feature_values}

    def _shapes(self):
        return [(self.values_name, (self.n_features,))]

    def _fill(self, tensors: dict[str, np.ndarray]) -> None:
        self.feature_values = tensors[self.values_name]


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
        return np.where(batch.mask.astype(bool, copy=False), batch.values, fill)


# ---------------------------------------------------------------------------
# SAITS-lite

def saits_loss(xhat: np.ndarray, originals: np.ndarray, observed_mask: np.ndarray,
               indicating_mask: np.ndarray,
               lam_mit: float = 1.0) -> tuple[float, np.ndarray]:
    """Joint reconstruction loss over observed and held-out cells.

    Returns (loss, d_loss/d_xhat) for (B, T, D) arrays. The loss sums
    over samples each one's mean squared error on its observed cells
    plus lam_mit times that on its indicating cells; a sample without
    such cells adds 0 to that term. xhat and originals share one space.
    """
    obs = np.asarray(observed_mask) != 0
    ind = np.asarray(indicating_mask) != 0
    if obs.shape != ind.shape:
        raise ShapeError(
            f"saits_loss: mask shapes differ {obs.shape}, {ind.shape}")
    if np.any(obs & ind):
        raise InvalidInputError("saits_loss: observed and indicating masks overlap")
    terms = [(obs, 1.0)]
    if ind.any():
        terms.append((ind, float(lam_mit)))
    resid = xhat - np.where(obs | ind, originals, 0.0)
    loss = 0.0
    d_xhat = np.zeros_like(resid)
    # boolean masks and np.where, not 0/1 float weights: every SAITS-lite
    # minibatch runs this, and the fewer (B, T, D) temporaries, the faster
    for cells, lam in terms:
        counts = cells.sum(axis=(1, 2), dtype=np.float64)
        recip = np.divide(1.0, counts, out=np.zeros_like(counts), where=counts > 0)
        diff = np.where(cells, resid, 0.0)
        loss += ((diff * diff).sum(axis=(1, 2)) * recip).sum() * lam
        d_xhat += diff * ((2.0 * lam) * recip)[:, None, None]
    return loss, d_xhat


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
    from call to call (GradientModel._scratch), so a minibatch does not
    allocate, free and re-fault them. Inference (impute, validation)
    runs both blocks over row blocks of _infer_rows samples, whose
    intermediates fit _INFER_BYTES, so its workspace is one row block
    whatever the batch. Training's is bounded by the largest batch of at
    most _WORKSPACE_ROWS samples the model has seen, and its backward
    writes each gradient over the forward state it has consumed, so a
    forward's state serves one backward. Nothing a caller receives
    aliases the workspace. Because of it, one model instance must not be
    called from two threads at once.
    """

    kind = "saits_lite"
    HYPERPARAMS = {"n_steps": int, "n_features": int, "d_model": int, "d_ff": int,
                   "lam_mit": float, "normalize": bool, "init_seed": int}
    N_BLOCKS = 2

    def __init__(self, n_steps: int, n_features: int, d_model: int = 32,
                 d_ff: int = 64, lam_mit: float = 1.0, normalize: bool = True,
                 init_seed: int = 0):
        super().__init__()
        if n_steps < 2:
            raise InvalidInputError(
                f"saits_lite needs at least 2 steps for off-diagonal attention, "
                f"got {n_steps}")
        if n_features < 1 or d_model < 1 or d_ff < 1:
            raise InvalidInputError("saits_lite sizes must be positive")
        _check_non_negative("lam_mit", lam_mit=lam_mit)
        self.n_steps = n_steps
        self.n_features = n_features
        self.d_model = d_model
        self.d_ff = d_ff
        self.lam_mit = float(lam_mit)
        self.normalize = bool(normalize)
        self.init_seed = int(init_seed)
        if not self._unfilled:
            self.parameters = self._init_params()

    def _shapes(self):
        d, dm, df = self.n_features, self.d_model, self.d_ff
        block = {"w_in": (2 * d, dm), "b_in": (dm,), "pos": (self.n_steps, dm),
                 "w_q": (dm, dm), "w_k": (dm, dm), "w_v": (dm, dm), "w_f1": (dm, df),
                 "b_f1": (df,), "w_f2": (df, dm), "b_f2": (dm,), "w_out": (dm, d),
                 "b_out": (d,)}
        return [(f"b{b}_{name}", shape)
                for b in range(1, self.N_BLOCKS + 1) for name, shape in block.items()]

    def _init_params(self) -> dict[str, np.ndarray]:
        """Glorot-uniform weights (w_*), drawn from init_seed in _shapes
        order; zero biases and step embeddings."""
        rng = _rng(self.init_seed)
        return {name: xavier(rng, *shape) if name[3:5] == "w_" else np.zeros(shape)
                for name, shape in self._shapes()}

    def tensors(self) -> dict[str, np.ndarray]:
        return dict(self.parameters)

    def _fill(self, tensors: dict[str, np.ndarray]) -> None:
        self.parameters = tensors

    # -- forward and backward ----------------------------------------------
    @property
    def _infer_rows(self) -> int:
        """Samples per row block of inference: as many as keep one
        block's float64 intermediates (inp, h0, qkv, attn, h1, f1, h2 and
        x_b) within _INFER_BYTES, at least one."""
        d, dm = self.n_features, self.d_model
        per_sample = 8 * self.n_steps * (3 * d + 6 * dm + self.n_steps + self.d_ff)
        return max(1, _INFER_BYTES // per_sample)

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
        share one set, and run over row blocks of _infer_rows samples.
        Samples are independent, so a row's bits do not depend on the
        rows run with it. The reconstruction is a fresh array.
        """
        if not keep and len(x0) > self._infer_rows:
            xhat = np.empty(x0.shape)
            for part in _chunks(len(x0), self._infer_rows):
                xhat[part] = self._forward(p, x0[part], maskf[part])[0]
            return xhat, None
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
        return xb, (keepm, states, self._claim_workspace())

    def _block_grads(self, p: dict, pre: str, s: _BlockState, d_xb: np.ndarray,
                     grads: dict, want_input: bool) -> np.ndarray | None:
        """Backward of one block from the gradient of its output x_b.

        Adds the block's parameter gradients to grads (fresh arrays).
        With want_input, returns the gradient of the block's series input
        (the first D columns of inp). Each gradient is written over the
        forward array it replaces once that array's last read is done
        (d_h2 over h2, d_f1 over f1, d_h1 over h1, d_q, d_k and d_v over
        qkv, d_h0 over h0), so s serves one backward.
        """
        n, steps, dm = s.h0.shape
        rows = n * steps

        def flat(a):
            return a.reshape(rows, a.shape[-1])

        d_xb = flat(d_xb)
        grads[pre + "w_out"] = flat(s.h2).T @ d_xb
        grads[pre + "b_out"] = d_xb.sum(axis=0)
        d_h2 = s.h2
        np.matmul(d_xb, p[pre + "w_out"].T, out=flat(d_h2))
        grads[pre + "w_f2"] = flat(s.f1).T @ flat(d_h2)
        grads[pre + "b_f2"] = flat(d_h2).sum(axis=0)
        relu_on = s.f1 > 0
        d_f1 = s.f1
        np.matmul(flat(d_h2), p[pre + "w_f2"].T, out=flat(d_f1))
        d_f1 *= relu_on
        grads[pre + "w_f1"] = flat(s.h1).T @ flat(d_f1)
        grads[pre + "b_f1"] = flat(d_f1).sum(axis=0)
        d_h1 = s.h1
        np.matmul(flat(d_f1), p[pre + "w_f1"].T, out=flat(d_h1))
        d_h1 += d_h2
        # h1 = h0 + attn @ v with attn = softmax(q k^T / sqrt(d_model))
        # off the diagonal; attn is exactly 0 on the diagonal, so the
        # score gradient vanishes there as the fill requires
        q, k, v = s.qkv[..., :dm], s.qkv[..., dm:2 * dm], s.qkv[..., 2 * dm:]
        d_s = self._scratch("d_attn", s.attn.shape)
        np.matmul(d_h1, v.swapaxes(1, 2), out=d_s)
        np.matmul(s.attn.swapaxes(1, 2), d_h1, out=v)  # d_v
        d_s -= np.einsum("bij,bij->bi", d_s, s.attn)[..., None]
        d_s *= s.attn
        d_s *= 1.0 / math.sqrt(dm)
        d_q = np.matmul(d_s, k, out=self._scratch("d_q", q.shape))
        np.matmul(d_s.swapaxes(1, 2), q, out=k)  # d_k
        q[...] = d_q
        d_qkv = s.qkv
        d_w_qkv = flat(s.h0).T @ flat(d_qkv)
        for j, name in enumerate(("w_q", "w_k", "w_v")):
            grads[pre + name] = d_w_qkv[:, j * dm:(j + 1) * dm]
        d_h0 = s.h0
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
        through the cells the re-substitution left missing. The blocks'
        backward overwrites the forward's state, so it runs once per
        forward.
        """
        keepm, states, token = saved
        self._check_workspace(token)
        self._claim_workspace()
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
        """saits_loss of the reconstruction in working space.

        Plain batches score the observed cells against their own
        values. The forward and this loss are one tape node.
        """
        names = list(self.parameters)
        inputs = [leaves[name] for name in names]
        p = {name: t.data for name, t in zip(names, inputs)}
        keep = any(t.tape is not None for t in inputs)
        maskf = batch.mask.astype(bool, copy=False).astype(np.float64)
        x0 = self._to_working(batch.values, batch.mask)
        xhat, saved = self._forward(p, x0, maskf, keep=keep)
        originals = self._norm.forward(
            batch.values if batch.originals is None else batch.originals)
        held = np.zeros_like(maskf) if batch.indicating is None else batch.indicating
        loss, d_xhat = saits_loss(xhat, originals, maskf, held, self.lam_mit)
        return T.record_fused(np.asarray(loss, dtype=np.float64), inputs,
                              lambda g: self._forward_grads(p, saved, g * d_xhat))

    def validation_metric(self, val_set, config: TrainConfig) -> float:
        """imputer_validation_metric of the raw reconstruction."""
        return imputer_validation_metric(self._reconstruct, val_set)

    # -- inference ----------------------------------------------------------
    def _reconstruct(self, batch: Batch) -> np.ndarray:
        maskf = batch.mask.astype(bool, copy=False).astype(np.float64)
        x0 = self._to_working(batch.values, batch.mask)
        return self._norm.inverse(self._forward(self.parameters, x0, maskf)[0])

    def impute_batch(self, batch: Batch) -> np.ndarray:
        hit = batch.mask.astype(bool, copy=False)
        return np.where(hit, batch.values, self._reconstruct(batch))


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
    return model._norm.inverse(xhat), [s.attn.copy() for s in states]
