"""Task contracts, the training loop, and checkpoint election.

Models fall into two families. Gradient models (SAITS-lite, GRU-D-lite)
train through the tape engine with minibatch Adam steps; analytic models
(LOCF, mean, two-stage k-means, TMF) compute their parameters in closed
form. Both go through the same fit() entry point so the CLI and the
backend-equivalence guarantees treat them uniformly.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import (InvalidInputError, ShapeError, TrainingDivergedError,
                      UnsupportedTaskError)
from ..core import _EVAL_CHUNK, Batch, NormStats, _iter_batches, _rng, fit_norm_stats
from .. import tensor as T
from ..metrics import _SquareSum, _finite
from .artifact import norm_stats_of

# a workspace array holds at most this many samples; a larger batch gets
# fresh arrays that are freed after use
_WORKSPACE_ROWS = _EVAL_CHUNK

# the bytes of the large float64 blocks an inference forward keeps in
# flight, about a per-core L2 cache: SAITS-lite runs row blocks of as many
# samples, GRU-D-lite time spans of as many steps, as fit within it
_INFER_BYTES = 2 << 20


# ---------------------------------------------------------------------------
# configuration and checkpointing

@dataclass
class TrainConfig:
    """Knobs for one fit() run.

    patience counts consecutive epochs without improvement of the
    selection metric; 0 disables early stopping. workers is retired:
    each minibatch is one gradient call, and 1 is its only value.
    """

    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-3
    patience: int = 0
    seed: int = 0
    workers: int = 1
    selection_metric: str = "val_loss"

    def __post_init__(self):
        if self.epochs < 1:
            raise InvalidInputError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size < 1:
            raise InvalidInputError(f"batch_size must be positive, got {self.batch_size}")
        if not 0 < self.learning_rate < math.inf:
            raise InvalidInputError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.patience < 0:
            raise InvalidInputError(f"patience must be non-negative, got {self.patience}")
        if self.workers != 1:
            raise InvalidInputError(
                f"workers is retired: a minibatch is one gradient call, got {self.workers}")
        if self.selection_metric not in ("val_loss", "val_accuracy"):
            raise InvalidInputError(
                f"selection_metric must be val_loss or val_accuracy, got {self.selection_metric!r}")


@dataclass
class Checkpoint:
    """Parameter snapshot from the elected epoch (1-indexed)."""

    epoch: int
    metric: float
    parameters: dict[str, np.ndarray] = field(default_factory=dict)


class ElectionResult(NamedTuple):
    best_epoch: int       # 1-indexed
    best_metric: float
    stopped_after: int    # epoch after which training halted (== len(log) if it ran out)


def _out_of_patience(patience: int, epochs_run: int, best_epoch: int) -> bool:
    return 0 < patience <= epochs_run - best_epoch


def run_election(metrics: Sequence[float], maximize: bool = False,
                 patience: int = 0) -> ElectionResult:
    """Elect the best epoch of a per-epoch metric log.

    An epoch becomes the best only when its metric is strictly better
    than the best so far, so ties keep the earlier epoch. With patience
    > 0, the election stops after the epoch that ends `patience`
    consecutive epochs without a new best. fit elects by calling this on
    the log of its epochs so far. A non-finite entry is refused, as fit
    refuses it when training.
    """
    if len(metrics) == 0:
        raise InvalidInputError("run_election: empty metric log")
    if not np.all(np.isfinite(np.asarray(metrics, dtype=np.float64))):
        raise InvalidInputError(f"run_election: non-finite metric in {list(metrics)}")
    best_epoch, best = 1, float(metrics[0])
    for epoch, m in enumerate(map(float, metrics), start=1):
        if m > best if maximize else m < best:
            best_epoch, best = epoch, m
        if _out_of_patience(patience, epoch, best_epoch):
            return ElectionResult(best_epoch, best, epoch)
    return ElectionResult(best_epoch, best, len(metrics))


# ---------------------------------------------------------------------------
# model base classes and task contracts

class BaseModel(ABC):
    """Common surface for serialization and shape checks.

    kind is the artifact tag. n_steps is None for models that accept any
    series length; n_features is always fixed at construction.

    HYPERPARAMS maps the name of each constructor keyword argument that
    an artifact stores to its type (int or float); the model keeps
    each one as an attribute of that name. A kind that wraps another
    model sets takes_inner and takes that model as its inner argument.

    A registered kind is also loadable. _shapes() gives each tensor's
    (name, shape), in the order of tensors(), computed from the
    hyperparameters alone; the names are fixed by the kind (an unfitted
    TMF has none), and only the shapes follow the hyperparameters.
    _fill(tensors) takes arrays of those shapes as the model's own.
    model_from_artifact sets _unfilled on an instance before running its
    constructor, which then checks its arguments but allocates and draws
    no tensor, for _fill to set.
    """

    kind: str = ""
    HYPERPARAMS: dict[str, type] = {}
    takes_inner = False
    _unfilled = False
    n_steps: int | None = None
    n_features: int = 0
    inner_model: "BaseModel | None" = None

    def hyperparams(self) -> dict:
        """The declared hyperparameters, read off the instance."""
        return {name: getattr(self, name) for name in self.HYPERPARAMS}

    @abstractmethod
    def tensors(self) -> dict[str, np.ndarray]:
        """The model's own parameter arrays, its full numeric state."""

    def supported_metrics(self) -> tuple[str, ...]:
        return ("val_loss",)


class Imputer(BaseModel):
    @abstractmethod
    def impute_batch(self, batch: Batch) -> np.ndarray:
        """Completed (B, T, D) values; observed cells preserved bitwise."""


class Classifier(BaseModel):
    @abstractmethod
    def predict_proba_batch(self, batch: Batch) -> np.ndarray:
        """(B, n_classes) probabilities, rows summing to 1."""


class Clusterer(BaseModel):
    @abstractmethod
    def assign_batch(self, batch: Batch) -> np.ndarray:
        """(B,) integer cluster labels in [0, k)."""


class Forecaster(BaseModel):
    @abstractmethod
    def forecast_batch(self, batch: Batch, horizon: int) -> np.ndarray:
        """(B, horizon, D) predictions past the end of each series."""


class AnalyticModel(BaseModel):
    """Models whose fit is a closed-form computation, not an epoch loop."""

    @abstractmethod
    def fit_analytic(self, train_set, val_set, config: TrainConfig) -> float:
        """Fit in place; return the validation metric value."""


def _check_non_negative(label: str, **values: float) -> None:
    """Refuse a float hyperparameter that is negative, NaN or infinite,
    naming its key: a config file's json reads NaN and Infinity, and NaN
    passes any comparison with 0 that a plain sign check would make."""
    for name, value in values.items():
        if not 0 <= value < math.inf:
            raise InvalidInputError(
                f"{label} must be non-negative and finite, got {name}={value}")


def xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform (fan_in, fan_out) weight matrix."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


class GradientModel(BaseModel):
    """Models trained by minibatch gradient descent on the tape engine.

    A model works on normalized values: norm_stats maps each feature
    between data space and working space. It is the identity (mean 0,
    std 1) until prepare_fit fits it to the training view, and the
    artifact keeps it as the tensors norm_mean and norm_std, after the
    parameters. A subclass lists its parameters' (name, shape) pairs in
    _param_shapes and draws them in _init_params; its constructor sets
    the hyperparameters, init_seed among them, and then runs this one.

    batch_loss_sum is the one training step. A subclass writes only its
    math: _prepare_batch turns a batch into the arrays _forward takes;
    _forward(p, *prepared, keep) gives the output and, with keep, the
    state its backward reads; _loss(out, prepared, batch) gives the loss
    sum and its gradient with respect to out; and _forward_grads(p,
    saved, d_out) gives every parameter's gradient, in the order of
    self.parameters. The forward and the loss are one tape node.

    A model may write its forward's large intermediates into workspace
    arrays it keeps from call to call (_scratch), so a minibatch does not
    allocate, free and re-fault them. A backward reads the state its
    forward left there, and writes its gradients over it. So a forward
    that writes state a backward reads claims the workspace
    (_claim_workspace), and batch_loss_sum's backward runs only while
    the claim its forward made is the latest, and makes a claim of its
    own: a backward after a later forward, or a second backward of one
    forward, is refused. Because of the workspace, one model instance
    must not be called from two threads at once.
    """

    parameters: dict[str, np.ndarray]
    norm_stats: NormStats

    def __init__(self):
        self._workspace: dict[str, np.ndarray] = {}
        # counts the forwards that overwrote state a backward reads
        self._workspace_writes = 0
        if self.init_seed >= 2 ** 63:   # an artifact stores it as an int64
            raise InvalidInputError(f"init_seed must fit in int64, got {self.init_seed}")
        if not self._unfilled:
            d = self.n_features
            self.norm_stats = NormStats(np.zeros(d), np.ones(d))
            self.parameters = self._init_params()

    def _shapes(self):
        d = (self.n_features,)
        return [*self._param_shapes(), ("norm_mean", d), ("norm_std", d)]

    def tensors(self) -> dict[str, np.ndarray]:
        return {**self.parameters, "norm_mean": self.norm_stats.mean,
                "norm_std": self.norm_stats.std}

    def _fill(self, tensors: dict[str, np.ndarray]) -> None:
        self.norm_stats = norm_stats_of(self.kind, tensors, "norm")
        self.parameters = {name: tensors[name] for name, _ in self._param_shapes()}

    def _scratch(self, name: str, shape: tuple[int, ...], dtype=np.float64,
                 batch_axis: int = 0) -> np.ndarray:
        """An uninitialized workspace array of the given shape.

        Each name keeps one flat buffer of one dtype, grown to the largest
        request, and hands out its leading part, so batches of any size up
        to _WORKSPACE_ROWS share it. A batch (shape[batch_axis]) larger
        than that gets a fresh array.
        """
        if shape[batch_axis] > _WORKSPACE_ROWS:
            return np.empty(shape, dtype)
        size = math.prod(shape)
        buf = self._workspace.get(name)
        if buf is None or buf.size < size:
            buf = self._workspace[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def _claim_workspace(self) -> None:
        """Record that the workspace now holds a new forward's state, or
        that a backward has overwritten it: a backward of an earlier
        forward is refused from here on."""
        self._workspace_writes += 1

    def prepare_fit(self, train_set) -> None:
        """Fit norm_stats to the training view's observed cells."""
        self.norm_stats = fit_norm_stats(train_set)

    @abstractmethod
    def _loss(self, out: np.ndarray, prepared: tuple, batch: Batch) -> tuple[float, np.ndarray]:
        """(loss sum over the batch, its gradient with respect to out)."""

    @abstractmethod
    def validation_metric(self, val_set, config: TrainConfig) -> float:
        """Selection metric over the whole validation view."""

    def batch_loss_sum(self, leaves: dict[str, T.Tensor], batch: Batch) -> T.Tensor:
        """Scalar tensor: SUM over the batch of per-sample losses.

        Leaves that are all constants record nothing, and the forward
        keeps no state for a backward.
        """
        _check_shape(self, *batch.values.shape[1:], "train")
        inputs = [leaves[name] for name in self.parameters]
        p = {name: t.data for name, t in zip(self.parameters, inputs)}
        keep = any(t.tape is not None for t in inputs)
        prepared = self._prepare_batch(batch)
        out, saved = self._forward(p, *prepared, keep=keep)
        claim = self._workspace_writes
        loss, d_out = self._loss(out, prepared, batch)

        def backward(g):
            if claim != self._workspace_writes:
                raise InvalidInputError(
                    f"{self.kind}: a later forward ran on this model before the backward "
                    "of an earlier one and overwrote the workspace it reads")
            self._claim_workspace()
            return self._forward_grads(p, saved, g * d_out)

        return T.record_fused(np.asarray(loss, dtype=np.float64), inputs, backward)

    def shard_loss_and_grads(self, view, indices) -> tuple[float, dict]:
        """Loss sum and parameter gradients for one index shard."""
        tape = T.Tape()
        leaves = {name: tape.leaf(arr) for name, arr in self.parameters.items()}
        batch = view.training_batch([int(i) for i in indices])
        loss = self.batch_loss_sum(leaves, batch)
        tape.backward(loss)
        return float(loss.data), {name: lf.grad for name, lf in leaves.items()}


# ---------------------------------------------------------------------------
# task dispatch

def _check_shape(model: BaseModel, n_steps: int, n_features: int, task: str) -> None:
    """Refuse data, a view or a batch, whose series length or feature
    count differs from the model's."""
    if model.n_steps is not None and n_steps != model.n_steps:
        raise ShapeError(
            f"{task}: dataset has {n_steps} steps, model expects {model.n_steps}")
    if n_features != model.n_features:
        raise ShapeError(
            f"{task}: dataset has {n_features} features, model expects {model.n_features}")


def _serve(model: BaseModel, dataset, contract: type, task: str, fn) -> np.ndarray:
    """fn over the dataset's batches, stacked, once the model is found to
    fulfil the task's contract and to fit the dataset's shape."""
    if not isinstance(model, contract):
        raise UnsupportedTaskError(model.kind, task)
    _check_shape(model, dataset.n_steps, dataset.n_features, task)
    # map drops each batch once fn returns, before the next one is read
    return np.concatenate(list(map(fn, _iter_batches(dataset))), axis=0)


def impute(model: BaseModel, dataset) -> np.ndarray:
    """Fill every missing cell; observed cells pass through bitwise."""
    return _serve(model, dataset, Imputer, "impute", lambda b: model.impute_batch(b))


def classify(model: BaseModel, dataset) -> np.ndarray:
    """Per-sample class probability rows, each summing to 1."""
    return _serve(model, dataset, Classifier, "classify",
                  lambda b: model.predict_proba_batch(b))


def cluster(model: BaseModel, dataset) -> np.ndarray:
    """Per-sample cluster labels in [0, k)."""
    return _serve(model, dataset, Clusterer, "cluster", lambda b: model.assign_batch(b))


def forecast(model: BaseModel, dataset, horizon: int) -> np.ndarray:
    """(N, horizon, D) predictions beyond the observed window."""
    if isinstance(model, Forecaster) and horizon < 1:
        raise InvalidInputError(f"forecast: horizon must be at least 1, got {horizon}")
    return _serve(model, dataset, Forecaster, "forecast",
                  lambda b: model.forecast_batch(b, horizon))


# ---------------------------------------------------------------------------
# training loop

def _finite_metric(metric: float, epoch: int) -> float:
    if not np.isfinite(metric):
        raise TrainingDivergedError(epoch, None, metric)
    return metric


def fit(model: BaseModel, train_set, val_set, config: TrainConfig):
    """Train and return (model, Checkpoint) from the best validation epoch.

    Per epoch: a seeded shuffle (seed = config.seed + 0-based epoch
    index), minibatch Adam steps, then the model's selection metric on
    val_set. Each minibatch is one shard_loss_and_grads call, whose
    gradient sums are divided by the batch size before the optimizer
    step.

    After each epoch, run_election over the metrics logged so far elects
    the checkpoint: the parameters are copied when the newest epoch is
    elected, and training stops once the election runs out of patience.

    A non-finite training loss or validation metric raises
    TrainingDivergedError: NaN compares false against everything, so
    letting it into the election would either never elect it or pin it
    forever, depending on the epoch it appeared in. The epochs run with
    numpy's floating-point warnings off, so that error is the one report
    of a divergence.
    """
    if len(train_set) == 0:
        raise InvalidInputError("fit: training set is empty")
    if len(val_set) == 0:
        raise InvalidInputError("fit: validation set is empty")
    for view in (train_set, val_set):
        _check_shape(model, view.n_steps, view.n_features, "fit")
    if config.selection_metric not in model.supported_metrics():
        raise InvalidInputError(
            f"fit: model kind {model.kind!r} does not support "
            f"selection metric {config.selection_metric!r}")

    if isinstance(model, AnalyticModel):
        metric = _finite_metric(model.fit_analytic(train_set, val_set, config), 1)
        snap = {k: v.copy() for k, v in model.tensors().items()}
        return model, Checkpoint(epoch=1, metric=float(metric), parameters=snap)
    if not isinstance(model, GradientModel):
        raise InvalidInputError(f"fit: model kind {model.kind!r} is not trainable")

    model.prepare_fit(train_set)
    params = model.parameters
    state = T.AdamState.for_params(params, lr=config.learning_rate)
    maximize = config.selection_metric == "val_accuracy"
    log: list[float] = []
    best: dict[str, np.ndarray] = {}
    n = len(train_set)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch_idx in range(config.epochs):
            order = _rng(config.seed + epoch_idx).permutation(n)
            for batch_no, start in enumerate(range(0, n, config.batch_size), start=1):
                idx = order[start:start + config.batch_size]
                loss, grads = model.shard_loss_and_grads(train_set, idx)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(epoch_idx + 1, batch_no, loss)
                scale = 1.0 / idx.size
                T.adam_step(params, {k: g * scale for k, g in grads.items()}, state)
            log.append(_finite_metric(model.validation_metric(val_set, config),
                                      epoch_idx + 1))
            election = run_election(log, maximize, config.patience)
            if election.best_epoch == len(log):
                best = {k: v.copy() for k, v in params.items()}
            if _out_of_patience(config.patience, len(log), election.best_epoch):
                break
    for name, snap in best.items():
        params[name][...] = snap
    return model, Checkpoint(epoch=election.best_epoch, metric=election.best_metric,
                             parameters=best)


def imputer_validation_metric(reconstruct, val_set) -> float:
    """Masked MSE of a (B, T, D) reconstruction against the truth.

    reconstruct maps a batch to values for every cell. Scored on the
    artificially removed (indicating) cells against their pre-corruption
    values when the view carries any; otherwise on the observed cells,
    so election still tracks the fit. An imputer that passes observed
    cells through bitwise therefore scores 0.0 on a plain view, and
    election is decided by epoch order alone.

    The mean square is the metrics' masked MSE, summed batch by batch:
    finite differences near the float64 limit keep the sum finite, and
    an MSE beyond float64 raises InvalidInputError. A scored cell whose
    reconstruction is not finite makes it NaN, which fit reports as
    divergence.
    """
    held, observed = _SquareSum(), _SquareSum()
    for batch in _iter_batches(val_set):
        xhat = reconstruct(batch)
        observed.add(xhat[batch.mask], batch.values[batch.mask])   # a view's masks are bool
        if batch.indicating is not None and batch.originals is not None:
            held.add(xhat[batch.indicating], batch.originals[batch.indicating])
    scored = held if held.n else observed
    mse = scored.mean_square() if scored.n else 0.0
    return mse if np.isnan(mse) else _finite(mse, "validation metric")
