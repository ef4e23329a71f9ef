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
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError, ShapeError
from ..core import Batch, _iter_batches, fit_norm_stats
from .. import tensor as T
from .artifact import ModelArtifact, register_model
from .base import Classifier, GradientModel, TrainConfig, xavier

# the parameters in the order the fused node takes them and
# _forward_grads returns their gradients
_PARAMS = ("w_dx", "b_dx", "w_dh", "b_dh", "w_z", "u_z", "b_z",
           "w_r", "u_r", "b_r", "w_c", "u_c", "b_c", "w_out", "b_out")


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


@register_model
class GrudLiteModel(GradientModel, Classifier):
    """GRU over [repaired value, mask] with input and hidden decays."""

    kind = "grud_lite"

    def __init__(self, n_steps: int, n_features: int, n_classes: int,
                 hidden_size: int = 256, normalize: bool = True, init_seed: int = 0):
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
        self.norm_stats = None
        # empirical feature means in working space; set by prepare_fit
        self.x_bar = np.zeros(n_features, dtype=np.float64)
        self.parameters = self._init_params()

    def _init_params(self) -> dict[str, np.ndarray]:
        rng = np.random.Generator(np.random.PCG64(self.init_seed))
        d, hid = self.n_features, self.hidden_size
        params: dict[str, np.ndarray] = {}
        # small positive decay weights: exactly zero would pin the relu
        # at its flat region and freeze the decays
        params["w_dx"] = rng.uniform(0.0, 0.1, d)
        params["b_dx"] = np.zeros(d)
        params["w_dh"] = rng.uniform(0.0, 0.1, (d, hid))
        params["b_dh"] = np.zeros(hid)
        for gate in ("z", "r", "c"):
            params[f"w_{gate}"] = xavier(rng, 2 * d, hid)
            params[f"u_{gate}"] = xavier(rng, hid, hid)
            params[f"b_{gate}"] = np.zeros(hid)
        # zero readout makes the untrained model exactly uniform
        params["w_out"] = np.zeros((hid, self.n_classes))
        params["b_out"] = np.zeros(self.n_classes)
        return params

    # -- serialization ----------------------------------------------------
    def hyperparams(self) -> dict:
        return {"n_steps": self.n_steps, "n_features": self.n_features,
                "n_classes": self.n_classes, "hidden_size": self.hidden_size,
                "normalize": self.normalize, "init_seed": self.init_seed}

    def tensors(self) -> dict[str, np.ndarray]:
        out = dict(self.parameters)
        out["x_bar"] = self.x_bar
        return out

    @classmethod
    def from_artifact(cls, art: ModelArtifact) -> "GrudLiteModel":
        hp = art.hyperparams
        model = cls(int(hp["n_steps"]), int(hp["n_features"]), int(hp["n_classes"]),
                    hidden_size=int(hp["hidden_size"]), normalize=bool(hp["normalize"]),
                    init_seed=int(hp["init_seed"]))
        for name in model.parameters:
            model.parameters[name] = art.tensors[name].copy()
        model.x_bar = art.tensors["x_bar"].copy()
        model.norm_stats = art.norm
        return model

    def supported_metrics(self) -> tuple[str, ...]:
        return ("val_loss", "val_accuracy")

    # -- data preparation ---------------------------------------------------
    def _prepare_batch(self, batch: Batch):
        """Working values, float mask, deltas, and carried last values.

        The deltas follow compute_delta for every sample at once: the
        loop runs over steps only.
        """
        maskf = (batch.mask != 0).astype(np.float64)
        x_work = self._to_working(batch.values, batch.mask)
        gaps = np.diff(np.asarray(batch.timestamps, dtype=np.float64), axis=1)
        if not np.all(gaps > 0):
            raise InvalidInputError("grud_lite: timestamps must be strictly increasing")
        delta = np.zeros_like(x_work)
        x_last = np.empty_like(x_work)
        x_last[:, 0, :] = self.x_bar
        for t in range(1, x_work.shape[1]):
            prev = maskf[:, t - 1, :] != 0
            delta[:, t, :] = gaps[:, t - 1, None] + np.where(prev, 0.0, delta[:, t - 1, :])
            x_last[:, t, :] = np.where(prev, x_work[:, t - 1, :], x_last[:, t - 1, :])
        return x_work, maskf, delta, x_last

    # -- forward and backward -------------------------------------------------
    def _forward(self, p: dict, x_work, maskf, delta, x_last, keep: bool = False):
        """Logits (B, n_classes) of the recurrence over a (B, T, D) block.

        Nothing before the gates depends on h, so the decays, the repaired
        inputs and the input side of all three gates are computed for
        every step at once; only the h-dependent terms loop over T.
        Arrays are time-major, (T, B, .), so each step reads contiguous
        rows. With keep, also returns what _forward_grads needs.
        """
        hid = self.hidden_size
        x_work, maskf, delta, x_last = (
            a.swapaxes(0, 1) for a in (x_work, maskf, delta, x_last))
        s_x = delta * p["w_dx"] + p["b_dx"]
        s_h = delta @ p["w_dh"] + p["b_dh"]
        gx = np.exp(-np.maximum(0.0, s_x))
        gh = np.exp(-np.maximum(0.0, s_h))
        x_hat = maskf * x_work + (1.0 - maskf) * (gx * x_last + (1.0 - gx) * self.x_bar)
        inp = np.concatenate([x_hat, maskf], axis=-1)
        w_in = np.concatenate([p["w_z"], p["w_r"], p["w_c"]], axis=1)
        pre = inp @ w_in + np.concatenate([p["b_z"], p["b_r"], p["b_c"]])
        u_zr = np.concatenate([p["u_z"], p["u_r"]], axis=1)
        u_c = p["u_c"]
        steps = []
        h = np.zeros((x_work.shape[1], hid))
        for pre_t, gh_t in zip(pre, gh):
            hd = gh_t * h
            zr = T.sigmoid_array(pre_t[:, :2 * hid] + hd @ u_zr)
            z, r = zr[:, :hid], zr[:, hid:]
            c = np.tanh(pre_t[:, 2 * hid:] + (r * hd) @ u_c)
            if keep:
                steps.append((h, hd, zr, c))
            h = (1.0 - z) * hd + z * c
        logits = h @ p["w_out"] + p["b_out"]
        if not keep:
            return logits, None
        per_step = tuple(np.stack(a) for a in zip(*steps))
        return logits, (delta, maskf, x_last, s_x, s_h, gx, gh, inp, w_in, u_zr, h) + per_step

    def _forward_grads(self, p: dict, saved, d_logits: np.ndarray) -> list[np.ndarray]:
        """Hand-written BPTT: gradients of every _PARAMS entry, in order.

        One reverse sweep over T carries the hidden-state gradient back
        through the gates and collects each step's gate pre-activation
        gradients; the input and recurrent weight gradients are then a
        few large matmuls.
        """
        (delta, maskf, x_last, s_x, s_h, gx, gh, inp, w_in, u_zr, h,
         h_prev, hd_all, zr_all, c_all) = saved
        dh = d_logits @ p["w_out"].T
        hid = self.hidden_size
        n_steps = inp.shape[0]
        d_pre = np.empty((n_steps, dh.shape[0], 3 * hid))
        d_gh = np.empty_like(gh)
        u_zr_t, u_c_t = u_zr.T, p["u_c"].T
        for t in range(n_steps - 1, -1, -1):
            hd, zr, c = hd_all[t], zr_all[t], c_all[t]
            z, r = zr[:, :hid], zr[:, hid:]
            d_c = dh * z * (1.0 - c * c)
            d_rhd = d_c @ u_c_t
            d_zr = d_pre[t, :, :2 * hid]
            d_zr[:, :hid] = dh * (c - hd)
            d_zr[:, hid:] = d_rhd * hd
            d_zr *= zr * (1.0 - zr)
            d_pre[t, :, 2 * hid:] = d_c
            d_hd = dh * (1.0 - z) + d_rhd * r + d_zr @ u_zr_t
            d_gh[t] = d_hd * h_prev[t]
            dh = d_hd * gh[t]

        def flat(a):
            return a.reshape(-1, a.shape[-1])

        d_w_in = flat(inp).T @ flat(d_pre)
        d_b_in = d_pre.sum(axis=(0, 1))
        d_u_zr = flat(hd_all).T @ flat(d_pre[:, :, :2 * hid])
        d_u_c = flat(zr_all[:, :, hid:] * hd_all).T @ flat(d_pre[:, :, 2 * hid:])
        d_x_hat = (d_pre @ w_in.T)[:, :, :self.n_features]
        d_s_x = d_x_hat * (1.0 - maskf) * (x_last - self.x_bar) * -gx * (s_x > 0)
        d_s_h = d_gh * -gh * (s_h > 0)
        grads = [(d_s_x * delta).sum(axis=(0, 1)), d_s_x.sum(axis=(0, 1)),
                 flat(delta).T @ flat(d_s_h), d_s_h.sum(axis=(0, 1))]
        for k in range(3):
            cols = slice(k * hid, (k + 1) * hid)
            d_u = d_u_zr[:, cols] if k < 2 else d_u_c
            grads += [d_w_in[:, cols], d_u, d_b_in[cols]]
        return grads + [h.T @ d_logits, d_logits.sum(axis=0)]

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
        if self.normalize:
            self.norm_stats = stats
            # the observed mean lands exactly at the working-space origin
            self.x_bar = (stats.mean - stats.mean) / stats.std
        else:
            self.x_bar = stats.mean.copy()

    def batch_loss_sum(self, leaves: dict, batch: Batch) -> T.Tensor:
        if batch.labels is None:
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
            if batch.labels is None:
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
