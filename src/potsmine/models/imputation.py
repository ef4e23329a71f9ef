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
from ..core import Batch, NormStats, _carry_forward, _chunks, _observed_moments, _rng
from .. import tensor as T
from .artifact import register_model
from .base import (_INFER_BYTES, AnalyticModel, GradientModel, Imputer, TrainConfig,
                   _check_non_negative, _check_shape, imputer_validation_metric, xavier)


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

    def __init__(self, n_features: int):
        if n_features < 1:
            raise InvalidInputError(f"n_features must be positive, got {n_features}")
        self.n_features = n_features
        if not self._unfilled:
            self.feature_values = np.zeros(n_features, dtype=np.float64)

    def fit_analytic(self, train_set, val_set, config: TrainConfig) -> float:
        # the mean alone: data whose squares overflow float64 still has one
        mean = _observed_moments(train_set)[1]
        self.feature_values = NormStats(mean, np.ones_like(mean)).mean   # refused if not finite
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
        _check_shape(self, *batch.values.shape[1:], "impute")
        return _locf_fill(batch.values, batch.mask, self.feature_values)


@register_model
class MeanImputerModel(_AnalyticImputer):
    """Fill every missing cell with the feature's training mean."""

    kind = "mean"
    values_name = "means"

    def impute_batch(self, batch: Batch) -> np.ndarray:
        _check_shape(self, *batch.values.shape[1:], "impute")
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
# the least row sum of the unshifted exp that a sample's softmax keeps.
# An entry of the exp, or its product with a value, that fell into the
# subnormals is off by at most one subnormal step, 2^-1074; divided by
# the row sum, that is under 2^-114. So the normalized map loses no digit
# its rounding keeps, and (exp @ v) / sums, a sum of T such products, is
# off by at most T 2^-114 beyond its rounding: below the rounding of a
# value column whose largest |v| is T 2^-61 or more
_MIN_ROW_SUM = 2.0 ** -960


class _BlockState(NamedTuple):
    """One block's intermediates, as _block_grads reads them back."""

    inp: np.ndarray      # (B, T, 2D) input and mask
    h0: np.ndarray       # (B, T, d_model) lifted input
    qkv: np.ndarray      # (B, T, 2 d_model) [a | v]: a = h0 w_qk, and the values
    w_qkv: np.ndarray    # (d_model, 2 d_model) [w_qk | w_v], w_qk = w_q w_k^T / sqrt(d_model)
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

    Queries and keys are never formed apart: a block's scores
    q k^T / sqrt(d_model) are (h0 w_qk) h0^T, with the d_model x d_model
    product w_qk = w_q w_k^T / sqrt(d_model) formed on each forward, and
    the backward maps w_qk's gradient onto w_q and w_k. The parameters,
    and so the artifacts, still hold w_q and w_k.

    The softmax takes no row max: it exponentiates the scores as they
    are, multiplies the result by the values, and divides that
    (B, T, d_model) product by the row sums, so the (B, T, T) map is
    divided only when the backward or saits_forward reads it. A sample
    with a row sum that is not finite or is below _MIN_ROW_SUM, or whose
    product of the exp with the values is not finite, has left exp's
    float64 range; it alone computes its scores again and takes the
    max-shifted softmax. Whether a sample does so depends only on
    its own rows, so its bits do not depend on the samples run with it.
    The weights each block derives from the parameters are built once
    per forward, not once per row block.

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
                   "lam_mit": float, "init_seed": int}
    N_BLOCKS = 2

    def __init__(self, n_steps: int, n_features: int, d_model: int = 32,
                 d_ff: int = 64, lam_mit: float = 1.0, init_seed: int = 0):
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
        self.init_seed = int(init_seed)
        super().__init__()

    def _param_shapes(self):
        d, dm, df = self.n_features, self.d_model, self.d_ff
        block = {"w_in": (2 * d, dm), "b_in": (dm,), "pos": (self.n_steps, dm),
                 "w_q": (dm, dm), "w_k": (dm, dm), "w_v": (dm, dm), "w_f1": (dm, df),
                 "b_f1": (df,), "w_f2": (df, dm), "b_f2": (dm,), "w_out": (dm, d),
                 "b_out": (d,)}
        return [(f"b{b}_{name}", shape)
                for b in range(1, self.N_BLOCKS + 1) for name, shape in block.items()]

    def _init_params(self) -> dict[str, np.ndarray]:
        """Glorot-uniform weights (w_*), drawn from init_seed in
        _param_shapes order; zero biases and step embeddings."""
        rng = _rng(self.init_seed)
        return {name: xavier(rng, *shape) if name[3:5] == "w_" else np.zeros(shape)
                for name, shape in self._param_shapes()}

    # -- forward and backward ----------------------------------------------
    def _prepare_batch(self, batch: Batch):
        """The zero-filled working-space values and the 0/1 float mask."""
        maskf = batch.mask.astype(bool, copy=False).astype(np.float64)
        return self.norm_stats.forward(batch.values, batch.mask), maskf

    @property
    def _infer_rows(self) -> int:
        """Samples per row block of inference: as many as keep one
        block's float64 intermediates (inp, h0, qkv, attn, h1, f1, h2 and
        x_b) within _INFER_BYTES, at least one. The count is an upper
        bound: it allows 3 d_model per step for qkv, which holds 2."""
        d, dm = self.n_features, self.d_model
        per_sample = 8 * self.n_steps * (3 * d + 6 * dm + self.n_steps + self.d_ff)
        return max(1, _INFER_BYTES // per_sample)

    def _block(self, p: dict, pre: str, fixed: tuple, cur: np.ndarray, maskf: np.ndarray,
               keep: bool) -> tuple[np.ndarray, _BlockState]:
        """One attention block over (B, T, D) input; returns (x_b, its state).

        pre selects the block's parameters, and with keep its own
        workspace arrays. fixed holds what _forward derives from the
        parameters once per forward: b_in + pos, one (T, d_model) array
        added to h0; [w_qk | w_v]; and a (T, 1) ones column. Queries and
        keys meet only in the scores q k^T / sqrt(d_model) = h0 w_qk h0^T,
        with w_qk = (w_q / sqrt(d_model)) w_k^T, so one matmul projects h0
        onto [w_qk | w_v], giving a = h0 w_qk and the values v, and the
        scores are a h0^T.

        The diagonal fill and the exp of the unshifted scores run in place
        on the score array, the row sums are a matmul with the ones
        column, and h1 starts as exp @ v; the division by the row sums
        comes after that product, on the (B, T, d_model) output:
        h1 = (exp @ v) / sums + h0. One check passes the row block: the
        least and largest row sum, and the sum of squares of exp @ v,
        which is finite only if every entry is. Only if it fails are the samples
        found that have a row sum that is not finite (exp overflowed, or
        a score was NaN) or is below _MIN_ROW_SUM (exp underflowed), or
        an entry of exp @ v that is not finite (an exp within range, but
        its product with v overflowed); they alone recompute their scores
        and take the max-shifted softmax. With keep the map itself is
        divided too, since the backward and saits_forward read it; h1 has
        the same bits either way.
        """
        lift, w_qkv, ones = fixed
        ws = pre if keep else ""
        n, steps, d = cur.shape
        dm = self.d_model
        rows = n * steps
        inp = self._scratch(ws + "inp", (n, steps, 2 * d))
        inp[..., :d] = cur
        inp[..., d:] = maskf
        h0 = self._scratch(ws + "h0", (n, steps, dm))
        np.matmul(inp.reshape(rows, 2 * d), p[pre + "w_in"], out=h0.reshape(rows, dm))
        h0 += lift
        qkv = self._scratch(ws + "qkv", (n, steps, 2 * dm))
        np.matmul(h0.reshape(rows, dm), w_qkv, out=qkv.reshape(rows, 2 * dm))
        a, v = qkv[..., :dm], qkv[..., dm:]
        attn = self._scratch(ws + "attn", (n, steps, steps))
        np.matmul(a, h0.swapaxes(1, 2), out=attn)
        attn.reshape(n, steps * steps)[:, ::steps + 1] = _SELF_SCORE
        h1 = self._scratch(ws + "h1", (n, steps, dm))
        with np.errstate(over="ignore", invalid="ignore"):
            # the exp, its row sums and its product with v may overflow,
            # to inf or to NaN where infinities meet; a sample where one
            # did takes the shifted softmax below
            np.exp(attn, out=attn)
            sums = attn @ ones
            np.matmul(attn, v, out=h1)
            flat = h1.reshape(-1)   # its sum of squares is finite only if every entry is
            in_range = n == 0 or (sums.min() >= _MIN_ROW_SUM and sums.max() < np.inf
                                  and math.isfinite(np.dot(flat, flat)))
        if not in_range:
            # exp, or its product with v, left the float64 range in
            # some samples: find them
            row_sums = sums.reshape(n, steps)
            redo = np.flatnonzero(
                ~(((row_sums >= _MIN_ROW_SUM) & (row_sums < np.inf)).all(axis=1)
                  & np.isfinite(h1).all(axis=(1, 2))))
            shifted = np.matmul(a[redo], h0[redo].swapaxes(1, 2))
            shifted.reshape(redo.size, steps * steps)[:, ::steps + 1] = _SELF_SCORE
            shifted -= shifted.max(axis=2, keepdims=True)
            np.exp(shifted, out=shifted)
            attn[redo] = shifted
            sums[redo] = shifted @ ones
            h1[redo] = shifted @ v[redo]
        h1 /= sums
        h1 += h0
        if keep:   # the backward and saits_forward read the normalized map
            attn /= sums
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

    def _blocks(self, p: dict, fixed: dict, x0: np.ndarray, maskf: np.ndarray, keep: bool):
        """Both blocks over one batch: (x_b of the last block, keepm, states)."""
        keepm = 1.0 - maskf
        cur = x0
        states = []
        for pre, weights in fixed.items():
            xb, state = self._block(p, pre, weights, cur, maskf, keep)
            states.append(state)
            if len(states) < self.N_BLOCKS:
                # re-substitute observed cells before the next block
                cur = keepm * xb
                cur += x0
        return xb, keepm, states

    def _forward(self, p: dict, x0: np.ndarray, maskf: np.ndarray, keep: bool = False):
        """Reconstruction (B, T, D) in working space from both blocks.

        x0 is the zero-filled working-space batch and maskf its 0/1 mask.
        With keep, also returns what _forward_grads needs, each block's
        intermediates in its own workspace arrays; without it, the blocks
        share one set, and run over row blocks of _infer_rows samples.
        Each block's derived weights (b_in + pos and [w_qk | w_v]) and
        the ones column are built once here and serve every row block.
        Samples are independent, so a row's bits do not depend on the
        rows run with it. The reconstruction is a fresh array.
        """
        ones = np.ones((self.n_steps, 1))
        fixed = {}
        for b in range(1, self.N_BLOCKS + 1):
            pre = f"b{b}_"
            w_qk = (p[pre + "w_q"] / math.sqrt(self.d_model)) @ p[pre + "w_k"].T
            fixed[pre] = (p[pre + "b_in"] + p[pre + "pos"],
                          np.concatenate([w_qk, p[pre + "w_v"]], axis=1), ones)
        if keep:
            self._claim_workspace()
            xb, keepm, states = self._blocks(p, fixed, x0, maskf, keep=True)
            return xb, (keepm, states)
        xhat = np.empty(x0.shape)
        for part in _chunks(len(x0), self._infer_rows):
            xhat[part] = self._blocks(p, fixed, x0[part], maskf[part], keep=False)[0]
        return xhat, None

    def _block_grads(self, p: dict, pre: str, s: _BlockState, d_xb: np.ndarray,
                     grads: dict, want_input: bool) -> np.ndarray | None:
        """Backward of one block from the gradient of its output x_b.

        Adds the block's parameter gradients to grads (fresh arrays).
        With want_input, returns the gradient of the block's series input
        (the first D columns of inp). Each gradient is written over the
        forward array it replaces once that array's last read is done
        (d_h2 over h2, d_f1 over f1, d_h1 over h1, d_a and d_v over qkv,
        d_h0 over h0), so s serves one backward. Bias gradients are
        column sums, taken as matmuls with a ones vector.

        Each weight gradient sums over the block's B * T rows through
        tensor.at_b: the products of fixed 256-row blocks, added in block
        order. A single matmul over all rows would let BLAS split that sum
        by its thread count; blocked, the gradients have the same bits at
        any thread count, and the 256-row products run faster.
        """
        n, steps, dm = s.h0.shape
        rows = n * steps
        ones = np.ones(rows)

        def flat(a):
            return a.reshape(rows, a.shape[-1])

        d_xb = flat(d_xb)
        grads[pre + "w_out"] = T.at_b(flat(s.h2), d_xb)
        grads[pre + "b_out"] = ones @ d_xb
        d_h2 = s.h2
        np.matmul(d_xb, p[pre + "w_out"].T, out=flat(d_h2))
        grads[pre + "w_f2"] = T.at_b(flat(s.f1), flat(d_h2))
        grads[pre + "b_f2"] = ones @ flat(d_h2)
        relu_on = s.f1 > 0
        d_f1 = s.f1
        np.matmul(flat(d_h2), p[pre + "w_f2"].T, out=flat(d_f1))
        d_f1 *= relu_on
        grads[pre + "w_f1"] = T.at_b(flat(s.h1), flat(d_f1))
        grads[pre + "b_f1"] = ones @ flat(d_f1)
        d_h1 = s.h1
        np.matmul(flat(d_f1), p[pre + "w_f1"].T, out=flat(d_h1))
        d_h1 += d_h2
        # h1 = h0 + attn @ v with attn = softmax(a h0^T) off the diagonal;
        # attn is exactly 0 on the diagonal, so the score gradient
        # vanishes there as the fill requires
        a, v = s.qkv[..., :dm], s.qkv[..., dm:]
        d_s = self._scratch("d_attn", s.attn.shape)
        np.matmul(d_h1, v.swapaxes(1, 2), out=d_s)
        np.matmul(s.attn.swapaxes(1, 2), d_h1, out=v)  # d_v
        d_s -= np.einsum("bij,bij->bi", d_s, s.attn)[..., None]
        d_s *= s.attn
        # h0 enters the scores twice: through a = h0 w_qk and as the keys
        d_keys = np.matmul(d_s.swapaxes(1, 2), a, out=self._scratch("d_keys", a.shape))
        np.matmul(d_s, s.h0, out=a)  # d_a
        d_qkv = s.qkv
        d_w_qkv = T.at_b(flat(s.h0), flat(d_qkv))
        d_w_qk = d_w_qkv[:, :dm]
        grads[pre + "w_q"] = (d_w_qk @ p[pre + "w_k"]) / math.sqrt(dm)
        grads[pre + "w_k"] = (d_w_qk.T @ p[pre + "w_q"]) / math.sqrt(dm)
        grads[pre + "w_v"] = d_w_qkv[:, dm:]
        d_h0 = s.h0
        np.matmul(flat(d_qkv), s.w_qkv.T, out=flat(d_h0))
        d_h0 += d_keys
        d_h0 += d_h1
        grads[pre + "w_in"] = T.at_b(flat(s.inp), flat(d_h0))
        grads[pre + "b_in"] = ones @ flat(d_h0)
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
        keepm, states = saved
        grads: dict[str, np.ndarray] = {}
        d_x = d_xhat
        for b in range(self.N_BLOCKS, 0, -1):
            d_in = self._block_grads(p, f"b{b}_", states[b - 1], d_x, grads,
                                     want_input=b > 1)
            if b > 1:
                d_x = keepm * d_in
        return [grads[name] for name in self.parameters]

    # -- training ----------------------------------------------------------
    def _loss(self, xhat: np.ndarray, prepared: tuple, batch: Batch):
        """saits_loss of the reconstruction in working space. Plain
        batches score the observed cells against their own values."""
        maskf = prepared[1]
        originals = self.norm_stats.forward(
            batch.values if batch.originals is None else batch.originals)
        held = np.zeros_like(maskf) if batch.indicating is None else batch.indicating
        return saits_loss(xhat, originals, maskf, held, self.lam_mit)

    def validation_metric(self, val_set, config: TrainConfig) -> float:
        """imputer_validation_metric of the raw reconstruction."""
        return imputer_validation_metric(self._reconstruct, val_set)

    # -- inference ----------------------------------------------------------
    def _reconstruct(self, batch: Batch) -> np.ndarray:
        xhat = self._forward(self.parameters, *self._prepare_batch(batch))[0]
        return self.norm_stats.inverse(xhat)

    def impute_batch(self, batch: Batch) -> np.ndarray:
        _check_shape(self, *batch.values.shape[1:], "impute")
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
    _check_shape(model, *values.shape[1:], "saits_forward")
    prepared = model._prepare_batch(Batch(values, mask_arr, None, None))
    xhat, (_, states) = model._forward(model.parameters, *prepared, keep=True)
    return model.norm_stats.inverse(xhat), [s.attn.copy() for s in states]
