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

from ..errors import InvalidInputError, TrainingDivergedError, UnsupportedTaskError
from ..core import _EVAL_CHUNK, Batch, NormStats, _iter_batches, _rng
from .. import tensor as T

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
    selection metric; 0 disables early stopping. workers is the number
    of gradient shards per minibatch; the shards run one after another
    on the calling thread, because a model instance may keep a
    per-model workspace and is not safe for concurrent calls.
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
        if not self.learning_rate > 0:
            raise InvalidInputError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.patience < 0:
            raise InvalidInputError(f"patience must be non-negative, got {self.patience}")
        if self.workers < 1:
            raise InvalidInputError(f"workers must be at least 1, got {self.workers}")
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
    an artifact stores to its type (int, float or bool); the model keeps
    each one as an attribute of that name. A kind that wraps another
    model sets takes_inner and takes that model as its inner argument.

    A registered kind is also loadable. _shapes() iterates over each
    tensor's (name, shape), in the order of tensors(), computed from the
    hyperparameters alone; model_from_artifact reads at most one more of
    them than the artifact holds tensors, so a kind whose tensor count
    grows with a hyperparameter yields them lazily. _fill(tensors) takes arrays of
    those shapes as the model's own. model_from_artifact sets _unfilled
    on an instance before running its constructor, which then checks
    its arguments but allocates and draws no tensor, for _fill to set.
    """

    kind: str = ""
    HYPERPARAMS: dict[str, type] = {}
    takes_inner = False
    _unfilled = False
    n_steps: int | None = None
    n_features: int = 0
    norm_stats: NormStats | None = None
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


class _Identity:
    """NormStats' forward and inverse for a model without norm statistics:
    working space is data space."""

    def forward(self, x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        return x if mask is None else np.where(mask, x, 0.0)

    def inverse(self, w: np.ndarray) -> np.ndarray:
        return w


_IDENTITY = _Identity()


class GradientModel(BaseModel):
    """Models trained by minibatch gradient descent on the tape engine.

    A model may write its forward's large intermediates into workspace
    arrays it keeps from call to call (_scratch), so a minibatch does not
    allocate, free and re-fault them. A backward reads the state its
    forward left there; _claim_workspace and _check_workspace refuse a
    backward whose state a later forward has overwritten. Because of the
    workspace, one model instance must not be called from two threads at
    once.
    """

    parameters: dict[str, np.ndarray]

    def __init__(self):
        self._workspace: dict[str, np.ndarray] = {}
        # counts the forwards that overwrote state a backward reads
        self._workspace_writes = 0

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

    def _claim_workspace(self) -> int:
        """Record that the workspace now holds a new forward's state.

        Returns the token a backward passes to _check_workspace.
        """
        self._workspace_writes += 1
        return self._workspace_writes

    def _check_workspace(self, token: int) -> None:
        """Refuse a backward whose forward state was overwritten since."""
        if token != self._workspace_writes:
            raise InvalidInputError(
                f"{self.kind}: a later forward ran on this model before the backward "
                "of an earlier one and overwrote the workspace it reads")

    @property
    def _norm(self):
        """The map between data space and working space: norm_stats, or
        the identity when the model keeps none (normalize off)."""
        return _IDENTITY if self.norm_stats is None else self.norm_stats

    def _to_working(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Zero-filled working-space values; sentinels never touch math."""
        return self._norm.forward(values, mask)

    @abstractmethod
    def prepare_fit(self, train_set) -> None:
        """Compute data-dependent state (norm stats, feature means)."""

    @abstractmethod
    def batch_loss_sum(self, leaves: dict[str, T.Tensor], batch: Batch) -> T.Tensor:
        """Scalar tensor: SUM over the batch of per-sample losses."""

    @abstractmethod
    def validation_metric(self, val_set, config: TrainConfig) -> float:
        """Selection metric over the whole validation view."""

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

def _check_view_shape(model: BaseModel, dataset, task: str) -> None:
    if model.n_steps is not None and dataset.n_steps != model.n_steps:
        raise InvalidInputError(
            f"{task}: dataset has {dataset.n_steps} steps, model expects {model.n_steps}")
    if dataset.n_features != model.n_features:
        raise InvalidInputError(
            f"{task}: dataset has {dataset.n_features} features, "
            f"model expects {model.n_features}")


def _serve(model: BaseModel, dataset, contract: type, task: str, fn) -> np.ndarray:
    """fn over the dataset's batches, stacked, once the model is found to
    fulfil the task's contract and to fit the dataset's shape."""
    if not isinstance(model, contract):
        raise UnsupportedTaskError(model.kind, task)
    _check_view_shape(model, dataset, task)
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

def _merge_shard_grads(results: Sequence[tuple[float, dict]], scale: float) -> dict:
    merged: dict[str, np.ndarray] = {}
    for _, grads in results:
        for name, g in grads.items():
            cur = merged.get(name)
            merged[name] = g if cur is None else cur + g
    return {name: g * scale for name, g in merged.items()}


def _finite_metric(metric: float, epoch: int) -> float:
    if not np.isfinite(metric):
        raise TrainingDivergedError(epoch, None, metric)
    return metric


def fit(model: BaseModel, train_set, val_set, config: TrainConfig):
    """Train and return (model, Checkpoint) from the best validation epoch.

    Per epoch: a seeded shuffle (seed = config.seed + 0-based epoch
    index), minibatch Adam steps, then the model's selection metric on
    val_set. Each minibatch is split into config.workers near-equal
    shards whose gradient sums are divided by the batch size before the
    optimizer step, so workers=1 and workers=N agree up to float
    summation order. The shards run in order on the calling thread: a
    model instance is not safe for concurrent calls, since it may keep
    a per-model workspace between them.

    After each epoch, run_election over the metrics logged so far elects
    the checkpoint: the parameters are copied when the newest epoch is
    elected, and training stops once the election runs out of patience.

    A non-finite training loss or validation metric raises
    TrainingDivergedError: NaN compares false against everything, so
    letting it into the election would either never elect it or pin it
    forever, depending on the epoch it appeared in.
    """
    if len(train_set) == 0:
        raise InvalidInputError("fit: training set is empty")
    if len(val_set) == 0:
        raise InvalidInputError("fit: validation set is empty")
    _check_view_shape(model, train_set, "fit")
    _check_view_shape(model, val_set, "fit")
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
    for epoch_idx in range(config.epochs):
        order = _rng(config.seed + epoch_idx).permutation(n)
        for batch_no, start in enumerate(range(0, n, config.batch_size), start=1):
            idx = order[start:start + config.batch_size]
            shards = [s for s in np.array_split(idx, config.workers) if s.size]
            results = [model.shard_loss_and_grads(train_set, s) for s in shards]
            loss_total = sum(r[0] for r in results)
            if not np.isfinite(loss_total):
                raise TrainingDivergedError(epoch_idx + 1, batch_no, loss_total)
            grads = _merge_shard_grads(results, 1.0 / idx.size)
            T.adam_step(params, grads, state)
        log.append(_finite_metric(model.validation_metric(val_set, config), epoch_idx + 1))
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
    """
    ind_err = ind_n = obs_err = obs_n = 0.0
    for batch in _iter_batches(val_set):
        xhat = reconstruct(batch)
        hit = batch.mask.astype(bool, copy=False)
        diff = xhat[hit] - batch.values[hit]
        obs_err += float(diff @ diff)
        obs_n += diff.size
        if batch.indicating is not None and batch.originals is not None:
            held = batch.indicating.astype(bool, copy=False)
            if held.any():
                diff = xhat[held] - batch.originals[held]
                ind_err += float(diff @ diff)
                ind_n += diff.size
    if ind_n > 0:
        return ind_err / ind_n
    if obs_n > 0:
        return obs_err / obs_n
    return 0.0
