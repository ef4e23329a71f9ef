"""GRU-D-lite: a recurrent classifier with trainable temporal decays.

Missing inputs are replaced by a decayed blend of the last observation
and the feature's empirical mean; the hidden state is decayed by the
time gap before each update. The gate input is the repaired value
concatenated with the step's mask (the GRU-D cell of Che et al., Sci.
Rep. 2018).

One plain-numpy forward, _forward, serves training, inference and
validation. Training records it on the tape as a single node whose
backward, _forward_grads, is hand-written backpropagation through time
over the gates the forward saved, so a minibatch adds the same few tape
nodes whatever the series length. grud_step computes one step
independently, with the unfused per-gate formulas, and is kept as the
oracle the tests compare the fused forward against.

The forward writes its (T, B, .) blocks, and with a backward to come
each step's gates, into workspace arrays the model keeps from call to
call, and the backward writes its gradients over them, so no step
allocates. The inference forward keeps no per-step history and runs over
spans of steps whose blocks fit one byte budget.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import InvalidInputError, ShapeError
from ..core import (Batch, _carry_forward, _iter_batches, _rng, _time_since_observed,
                    fit_norm_stats)
from .. import tensor as T
from .artifact import register_model
from .base import _INFER_BYTES, Classifier, GradientModel, TrainConfig, xavier

# the parameters in the order the fused node takes them and
# _forward_grads returns their gradients
_PARAMS = ("w_dx", "b_dx", "w_dh", "b_dh", "w_z", "u_z", "b_z",
           "w_r", "u_r", "b_r", "w_c", "u_c", "b_c", "w_out", "b_out")


class _Recurrence(NamedTuple):
    """A training forward's state, as _forward_grads reads it back.

    The step axis comes first, except in pre, whose gate axis does. All
    but the (T, B, D) arrays are workspace arrays, which the backward
    overwrites.
    """

    delta: np.ndarray    # (T, B, D) time since each feature's last observation
    maskf: np.ndarray    # (T, B, D) 0/1 mask
    x_last: np.ndarray   # (T, B, D) last observation carried forward
    s_x: np.ndarray      # (T, B, D) input decay pre-activation
    gx: np.ndarray       # (T, B, D) input decay
    gh: np.ndarray       # (T, B, H) hidden decay
    gh_on: np.ndarray    # (T, B, H) bool, where the hidden decay's relu is active
    inp: np.ndarray      # (T, B, 2D) repaired values and mask
    pre: np.ndarray      # (3, T, B, H) input side of the z, r and c gates
    h: np.ndarray        # (T + 1, B, H) hidden state before each step, then the last
    hd: np.ndarray       # (T, B, H) decayed hidden state
    zr: np.ndarray       # (T, 2, B, H) update and reset gates
    rhd: np.ndarray      # (T, B, H) reset gate times hd
    c: np.ndarray        # (T, B, H) candidate state
    token: int           # the workspace claim of the forward


def decay(delta_t: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """gamma = exp(-max(0, w*delta + b)); always in (0, 1] for delta >= 0.

    A vector w gives the per-feature input decay; a (D, H) matrix gives
    the hidden decay through delta @ w + b.
    """
    delta_t = np.asarray(delta_t, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if w.ndim == 2:
        z = delta_t @ w + b
    else:
        z = w * delta_t + b
    return np.exp(-np.maximum(0.0, z))


def _all_labeled(batch: Batch) -> bool:
    """Whether every sample of the batch has a label (None: none has)."""
    return batch.labels is not None and np.min(batch.labels) >= 0


@register_model
class GrudLiteModel(GradientModel, Classifier):
    """GRU over [repaired value, mask] with input and hidden decays.

    The fused forward and backward write their intermediates into
    workspace arrays the model keeps and reuses from call to call
    (GradientModel._scratch). Training writes the hidden decays and the
    gates' input side for every step at once, and each step's hidden
    state, decayed state, gates and candidate; its workspace is bounded
    by the largest batch of at most _WORKSPACE_ROWS samples the model
    has trained on. Inference (classify, validation) runs over spans of
    steps whose hidden decays and gate inputs fit _INFER_BYTES, at
    least one step each, and keeps one (B, .) row block per quantity
    instead of the history, so its workspace does not grow with the
    series length. Nothing a caller receives aliases the workspace.
    Because of it, one model instance must not be called from two
    threads at once.
    """

    kind = "grud_lite"
    HYPERPARAMS = {"n_steps": int, "n_features": int, "n_classes": int,
                   "hidden_size": int, "normalize": bool, "init_seed": int}

    def __init__(self, n_steps: int, n_features: int, n_classes: int,
                 hidden_size: int = 256, normalize: bool = True, init_seed: int = 0):
        super().__init__()
        if n_steps < 1 or n_features < 1:
            raise InvalidInputError("grud_lite series dimensions must be positive")
        if n_classes < 2:
            raise InvalidInputError(f"n_classes must be at least 2, got {n_classes}")
        if hidden_size < 1:
            raise InvalidInputError(f"hidden_size must be positive, got {hidden_size}")
        self.n_steps = n_steps
        self.n_features = n_features
        self.n_classes = n_classes
        self.hidden_size = hidden_size
        self.normalize = bool(normalize)
        self.init_seed = int(init_seed)
        if not self._unfilled:
            # empirical feature means in working space; set by prepare_fit
            self.x_bar = np.zeros(n_features, dtype=np.float64)
            self.parameters = self._init_params()

    def _shapes(self):
        d, hid = self.n_features, self.hidden_size
        shapes = {"w_dx": (d,), "b_dx": (d,), "w_dh": (d, hid), "b_dh": (hid,)}
        for gate in ("z", "r", "c"):
            shapes.update({f"w_{gate}": (2 * d, hid), f"u_{gate}": (hid, hid),
                           f"b_{gate}": (hid,)})
        shapes.update(w_out=(hid, self.n_classes), b_out=(self.n_classes,), x_bar=(d,))
        return shapes.items()

    def _init_params(self) -> dict[str, np.ndarray]:
        """The parameters (every tensor but x_bar), drawn from init_seed in
        _shapes order."""
        rng = _rng(self.init_seed)
        params: dict[str, np.ndarray] = {}
        for name, shape in self._shapes():
            if name in ("w_dx", "w_dh"):
                # small positive decay weights: exactly zero would pin the
                # relu at its flat region and freeze the decays
                params[name] = rng.uniform(0.0, 0.1, shape)
            elif name in ("w_z", "u_z", "w_r", "u_r", "w_c", "u_c"):
                params[name] = xavier(rng, *shape)
            elif name != "x_bar":
                # zero biases, and a zero readout, which makes the untrained
                # model exactly uniform
                params[name] = np.zeros(shape)
        return params

    def tensors(self) -> dict[str, np.ndarray]:
        out = dict(self.parameters)
        out["x_bar"] = self.x_bar
        return out

    def _fill(self, tensors: dict[str, np.ndarray]) -> None:
        self.parameters = {name: arr for name, arr in tensors.items() if name != "x_bar"}
        self.x_bar = tensors["x_bar"]

    def supported_metrics(self) -> tuple[str, ...]:
        return ("val_loss", "val_accuracy")

    # -- data preparation ---------------------------------------------------
    def _prepare_batch(self, batch: Batch):
        """Time-major (T, B, D) working values, float mask, deltas, and
        carried last values: compute_delta's deltas and grud_step's carry
        for every sample at once, from the helpers in core. x_last is a
        view of rows 0..T-1 of _carry_forward's block, seeded with x_bar.
        """
        gaps = np.diff(np.asarray(batch.timestamps, dtype=np.float64), axis=1)
        if not np.all(gaps > 0):
            raise InvalidInputError("grud_lite: timestamps must be strictly increasing")
        obs = np.ascontiguousarray(batch.mask.astype(bool, copy=False).transpose(1, 0, 2))
        x_work = self._to_working(batch.values.transpose(1, 0, 2), obs)
        return (x_work, obs.astype(np.float64), _time_since_observed(gaps.T, obs),
                _carry_forward(x_work, obs, self.x_bar)[:-1])

    # -- forward and backward -------------------------------------------------
    def _ws(self, name: str, *shape: int, dtype=np.float64) -> np.ndarray:
        """A workspace array whose batch axis is the second to last."""
        return self._scratch(name, shape, dtype, batch_axis=-2)

    def _infer_steps(self, n: int) -> int:
        """Steps per span of an n-sample inference forward: as many as keep
        the span's float64 blocks (gh, pre and inp) within _INFER_BYTES,
        at least one."""
        per_step = 8 * n * (4 * self.hidden_size + 2 * self.n_features)
        return max(1, _INFER_BYTES // per_step)

    def _gate_inputs(self, p: dict, w: tuple, x_work, maskf, delta, x_last, keep: bool):
        """What the recurrence needs of a run of steps that does not depend
        on h, from (S, B, D) slices of _prepare_batch's blocks: s_x, gx,
        inp, gh, gh_on (None without keep) and pre, for those S steps.

        w is _forward's (w_in, b_in, neg_w_dh). inp, gh, gh_on and pre are
        workspace arrays; each row depends on its own step and sample only.
        """
        w_in, b_in, neg_w_dh = w
        hid, d = self.hidden_size, self.n_features
        n_steps, n = delta.shape[:2]
        rows = n_steps * n
        s_x = delta * p["w_dx"] + p["b_dx"]
        gx = np.exp(-np.maximum(0.0, s_x))
        inp = self._ws("inp", n_steps, n, 2 * d)
        inp[..., :d] = maskf * x_work + (1.0 - maskf) * (gx * x_last + (1.0 - gx) * self.x_bar)
        inp[..., d:] = maskf
        # gh = exp(-max(0, s_h)), as exp(min(0, -s_h)) in place over -s_h
        gh = self._ws("gh", n_steps, n, hid)
        np.matmul(delta.reshape(rows, d), neg_w_dh, out=gh.reshape(rows, hid))
        gh -= p["b_dh"]
        gh_on = np.less(gh, 0.0, out=self._ws("gh_on", *gh.shape, dtype=bool)) if keep else None
        np.minimum(gh, 0.0, out=gh)
        np.exp(gh, out=gh)
        # the input side of the z, r and c gates: (3, S, B, H)
        pre = self._ws("pre", 3, n_steps, n, hid)
        np.matmul(inp.reshape(rows, 2 * d), w_in, out=pre.reshape(3, rows, hid))
        pre += b_in[:, None, None, :]
        return s_x, gx, inp, gh, gh_on, pre

    def _forward(self, p: dict, x_work, maskf, delta, x_last, keep: bool = False):
        """Logits (B, n_classes) of the recurrence over _prepare_batch's
        time-major (T, B, D) blocks.

        Nothing before the gates depends on h, so _gate_inputs computes
        the decays, the repaired inputs and the input side of all three
        gates for a run of steps at once; only the h-dependent terms loop
        over the steps. With keep, that run is the whole series: each
        step writes its own rows of the history _forward_grads reads, and
        the call also returns that state. Without it, the series runs in
        spans of _infer_steps steps, whose blocks fit _INFER_BYTES, h
        carries from one span to the next, and every step reuses one row
        block per quantity. Arrays are time-major, (S, B, .), and the
        gates are a leading axis, so each step reads and writes contiguous
        (B, H) rows of workspace arrays. Every step reads the same rows in
        the same order either way, so the logits are the same bits.

        sigmoid(a) = (tanh(a / 2) + 1) / 2, so the z and r gates run on
        halved copies of their weights and biases, and finish in place
        with tanh, + 1 and * 0.5; -w_dh gives -s_h directly. Scaling by a
        power of two and negating are exact, so each gate gets the bits
        T.sigmoid_array and decay give it, unless an intermediate is
        subnormal (below 2.2e-308), where halving can round.
        """
        token = self._claim_workspace()
        hid = self.hidden_size
        n_steps, n = delta.shape[:2]
        w_in = np.stack([p["w_z"], p["w_r"], p["w_c"]])
        b_in = np.stack([p["b_z"], p["b_r"], p["b_c"]])
        w_in[:2] *= 0.5
        b_in[:2] *= 0.5
        w = (w_in, b_in, -p["w_dh"])
        u_zr = np.stack([p["u_z"], p["u_r"]])
        u_zr *= 0.5
        u_c = p["u_c"]
        span = n_steps if keep else self._infer_steps(n)
        hist = n_steps if keep else 1
        # with keep, h holds the state before each step, then the last one
        h = self._ws("h", n_steps + 1 if keep else 1, n, hid)
        hd, rhd, c = (self._ws(name, hist, n, hid) for name in ("hd", "rhd", "c"))
        zr = self._ws("zr", hist, 2, n, hid)
        tmp = self._ws("tmp", n, hid)
        h[0] = 0.0
        for lo in range(0, n_steps, span):
            part = slice(lo, lo + span)
            s_x, gx, inp, gh, gh_on, pre = self._gate_inputs(
                p, w, x_work[part], maskf[part], delta[part], x_last[part], keep)
            for j in range(len(gh)):
                # with keep, the one span starts at step 0
                i = j if keep else 0
                hd_t, zr_t, c_t = hd[i], zr[i], c[i]
                np.multiply(gh[j], h[i], out=hd_t)
                np.matmul(hd_t, u_zr, out=zr_t)
                zr_t += pre[:2, j]
                np.tanh(zr_t, out=zr_t)
                zr_t += 1.0
                zr_t *= 0.5
                np.multiply(zr_t[1], hd_t, out=rhd[i])
                np.matmul(rhd[i], u_c, out=c_t)
                c_t += pre[2, j]
                np.tanh(c_t, out=c_t)
                # h = (1 - z) hd + z c, as hd + z (c - hd)
                np.subtract(c_t, hd_t, out=tmp)
                tmp *= zr_t[0]
                np.add(hd_t, tmp, out=h[i + 1 if keep else 0])
        logits = h[-1] @ p["w_out"] + p["b_out"]
        if not keep:
            return logits, None
        return logits, _Recurrence(delta, maskf, x_last, s_x, gx, gh, gh_on, inp, pre,
                                   h, hd, zr, rhd, c, token)

    def _forward_grads(self, p: dict, s: _Recurrence, d_logits: np.ndarray) -> list[np.ndarray]:
        """Hand-written BPTT: gradients of every _PARAMS entry, in order.

        One reverse sweep over T carries the hidden-state gradient back
        through the gates and writes each step's gate pre-activation
        gradients over that step's rows of pre; the input and recurrent
        weight gradients are then a few large matmuls. The sweep
        overwrites the forward's state, so it runs once per forward.
        """
        self._check_workspace(s.token)
        self._claim_workspace()
        hid, d = self.hidden_size, self.n_features
        n_steps, n = s.gh.shape[:2]
        rows = n_steps * n
        z, r = s.zr[:, 0], s.zr[:, 1]
        # the gate derivatives that do not depend on the incoming gradient,
        # for every step at once, over pre: the pre-activation gradients
        # at step t are then these rows times dh, d_rhd and dh
        f_z, f_r, f_c = s.pre
        np.multiply(s.c, s.c, out=f_c)
        np.subtract(1.0, f_c, out=f_c)
        f_c *= z                              # z (1 - c^2)
        np.subtract(1.0, r, out=f_r)
        f_r *= r
        f_r *= s.hd                           # hd r (1 - r)
        np.subtract(s.c, s.hd, out=f_z)
        f_z *= z
        omz = np.subtract(1.0, z, out=z)      # z is not read again
        f_z *= omz                            # (c - hd) z (1 - z)

        dh, d_hd, d_rhd, tmp = (self._ws(name, n, hid)
                                for name in ("dh", "d_hd", "d_rhd", "tmp"))
        tmp2 = self._ws("tmp2", 2, n, hid)
        np.matmul(d_logits, p["w_out"].T, out=dh)
        u_zr_t = np.stack([p["u_z"].T, p["u_r"].T])
        u_c_t = p["u_c"].T
        for t in range(n_steps - 1, -1, -1):
            d_z, d_r, d_c = s.pre[:, t]
            d_c *= dh
            np.matmul(d_c, u_c_t, out=d_rhd)
            d_z *= dh
            d_r *= d_rhd
            np.multiply(dh, omz[t], out=d_hd)
            np.multiply(d_rhd, r[t], out=tmp)
            d_hd += tmp
            np.matmul(s.pre[:2, t], u_zr_t, out=tmp2)
            d_hd += tmp2[0]
            d_hd += tmp2[1]
            s.h[t] *= d_hd                    # the gradient of gh[t]
            np.multiply(d_hd, s.gh[t], out=dh)

        d_pre = s.pre.reshape(3, rows, hid)
        d_w_in = np.matmul(s.inp.reshape(rows, 2 * d).T, d_pre)
        d_b_in = d_pre.sum(axis=1)
        d_u_zr = np.matmul(s.hd.reshape(rows, hid).T, d_pre[:2])
        d_u_c = s.rhd.reshape(rows, hid).T @ d_pre[2]
        # only the repaired values' rows of w_in reach a parameter
        w_x = np.stack([p["w_z"][:d].T, p["w_r"][:d].T, p["w_c"][:d].T])
        d_x_hat = np.matmul(d_pre, w_x).sum(axis=0).reshape(n_steps, n, d)
        d_s_x = d_x_hat * (1.0 - s.maskf) * (s.x_last - self.x_bar) * -s.gx * (s.s_x > 0)
        # -d_s_h: the gradient of gh times gh where the relu is active
        d_gh = s.h[:n_steps]
        d_gh *= s.gh
        d_gh *= s.gh_on
        grads = [(d_s_x * s.delta).sum(axis=(0, 1)), d_s_x.sum(axis=(0, 1)),
                 -(s.delta.reshape(rows, d).T @ d_gh.reshape(rows, hid)),
                 -d_gh.sum(axis=(0, 1))]
        for k in range(3):
            grads += [d_w_in[k], d_u_zr[k] if k < 2 else d_u_c, d_b_in[k]]
        return grads + [s.h[n_steps].T @ d_logits, d_logits.sum(axis=0)]

    def grud_step(self, x_t, m_t, delta_t, x_last, h_prev):
        """One recurrence step on plain arrays; the fused forward's oracle.

        Returns (h_t, x_hat, next x_last). x_t is a working-space,
        zero-filled value row.
        """
        p = self.parameters
        x_t = np.asarray(x_t, dtype=np.float64)
        m_t = np.asarray(m_t, dtype=np.float64)
        gx = decay(delta_t, p["w_dx"], p["b_dx"])
        gh = decay(delta_t, p["w_dh"], p["b_dh"])
        x_hat = m_t * x_t + (1.0 - m_t) * (gx * x_last + (1.0 - gx) * self.x_bar)
        h = gh * h_prev
        inp = np.concatenate([x_hat, m_t], axis=-1)
        z = T.sigmoid_array(inp @ p["w_z"] + h @ p["u_z"] + p["b_z"])
        r = T.sigmoid_array(inp @ p["w_r"] + h @ p["u_r"] + p["b_r"])
        cand = np.tanh(inp @ p["w_c"] + (r * h) @ p["u_c"] + p["b_c"])
        h_t = (1.0 - z) * h + z * cand
        x_last_next = np.where(m_t != 0, x_t, x_last)
        return h_t, x_hat, x_last_next

    # -- training --------------------------------------------------------------
    def prepare_fit(self, train_set) -> None:
        stats = fit_norm_stats(train_set)
        self.norm_stats = stats if self.normalize else None
        # normalized, the observed mean lands exactly at the working-space origin
        self.x_bar = self._norm.forward(stats.mean)

    def batch_loss_sum(self, leaves: dict, batch: Batch) -> T.Tensor:
        if not _all_labeled(batch):
            raise InvalidInputError("grud_lite training requires labels on every sample")
        inputs = [leaves[name] for name in _PARAMS]
        p = {name: t.data for name, t in zip(_PARAMS, inputs)}
        keep = any(t.tape is not None for t in inputs)
        logits, saved = self._forward(p, *self._prepare_batch(batch), keep=keep)
        logits = T.record_fused(logits, inputs, lambda g: self._forward_grads(p, saved, g))
        return T.cross_entropy_with_logits(logits, batch.labels)

    def validation_metric(self, val_set, config: TrainConfig) -> float:
        want_acc = config.selection_metric == "val_accuracy"
        total = 0.0
        n = 0
        for batch in _iter_batches(val_set):
            if not _all_labeled(batch):
                raise InvalidInputError("grud_lite validation requires labels")
            logits = self._logits_np(batch)
            if want_acc:
                total += float((logits.argmax(axis=1) == batch.labels).sum())
            else:
                total += float(T.cross_entropy_with_logits(
                    T.constant(logits), batch.labels).data)
            n += logits.shape[0]
        return total / n

    # -- inference ----------------------------------------------------------
    def _logits_np(self, batch: Batch) -> np.ndarray:
        return self._forward(self.parameters, *self._prepare_batch(batch))[0]

    def predict_proba_batch(self, batch: Batch) -> np.ndarray:
        if batch.values.shape[1:] != (self.n_steps, self.n_features):
            raise ShapeError(
                f"classify: batch shape {batch.values.shape[1:]} does not match "
                f"model ({self.n_steps}, {self.n_features})")
        return T.softmax_array(self._logits_np(batch))
