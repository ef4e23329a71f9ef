"""Task API: config, election, fit loop, dispatch, artifacts, sharding."""

import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import potsmine

from potsmine import (
    Batch,
    Checkpoint,
    LocfModel,
    MeanImputerModel,
    GrudLiteModel,
    PotsDataset,
    SaitsLiteModel,
    TmfModel,
    TrainConfig,
    TwoStageKMeansModel,
    classify,
    cluster,
    fit as fit_model,
    forecast,
    generate_synthetic,
    impute,
    inject_mcar,
    lazy_dataset,
    load_model,
    open_readonly,
    run_election,
    save_model,
    split,
    write_container,
)
from potsmine import tensor as T
from potsmine.models import (MODEL_REGISTRY, decode_artifact, encode_artifact, kmeans_fit,
                             model_from_artifact, model_to_artifact, tmf_fit)
from potsmine.models.base import BaseModel, imputer_validation_metric
from potsmine.errors import (
    CorruptionError,
    FormatError,
    InvalidInputError,
    ShapeError,
    StorageError,
    UnsupportedTaskError,
)


def small_view(n=12, t=6, d=2, seed=0, rate=0.25):
    ds = generate_synthetic(n, t, d, 2, missing_rate=0.1, seed=seed)
    return inject_mcar(ds, rate, seed=seed + 1)


# ---------------------------------------------------------------------------
# TrainConfig

def test_config_defaults():
    cfg = TrainConfig()
    assert (cfg.epochs, cfg.batch_size, cfg.workers) == (10, 32, 1)
    assert cfg.selection_metric == "val_loss"


def test_config_rejects_bad_fields():
    for kwargs in ({"epochs": 0}, {"batch_size": 0}, {"learning_rate": 0.0},
                   {"patience": -1}, {"workers": 0}, {"workers": 2},
                   {"selection_metric": "auc"}):
        with pytest.raises(InvalidInputError):
            TrainConfig(**kwargs)


@pytest.mark.parametrize("lr", [math.inf, math.nan, -math.inf])
def test_config_refuses_a_learning_rate_that_is_not_finite(lr):
    with pytest.raises(InvalidInputError, match="learning_rate must be positive and finite"):
        TrainConfig(learning_rate=lr)


@pytest.mark.parametrize("build", [
    lambda seed: SaitsLiteModel(n_steps=6, n_features=2, d_model=4, d_ff=4, init_seed=seed),
    lambda seed: GrudLiteModel(n_steps=6, n_features=2, n_classes=2, hidden_size=4,
                               init_seed=seed),
], ids=["saits_lite", "grud_lite"])
def test_init_seed_must_fit_the_int64_an_artifact_stores(tmp_path, build):
    for seed in (2 ** 63, 2 ** 64):
        with pytest.raises(InvalidInputError, match=f"init_seed must fit in int64, got {seed}"):
            build(seed)
    model = build(2 ** 63 - 1)
    save_model(model, str(tmp_path / "m.pmdl"))
    assert load_model(str(tmp_path / "m.pmdl")).init_seed == 2 ** 63 - 1


# ---------------------------------------------------------------------------
# checkpoint election

def test_election_argmin_example():
    result = run_election([3.0, 1.0, 2.0])
    assert result.best_epoch == 2
    assert result.best_metric == 1.0
    assert result.stopped_after == 3


def test_election_patience_one_stops_after_three():
    result = run_election([3.0, 2.0, 2.5, 1.0], patience=1)
    assert result.best_epoch == 2
    assert result.stopped_after == 3


def test_election_tie_prefers_earlier_epoch():
    assert run_election([2.0, 1.0, 1.0]).best_epoch == 2


def test_election_maximize():
    result = run_election([0.2, 0.9, 0.9, 0.4], maximize=True)
    assert result.best_epoch == 2


def test_election_patience_zero_never_stops_early():
    result = run_election([5.0, 4.0, 6.0, 7.0, 8.0], patience=0)
    assert result.best_epoch == 2
    assert result.stopped_after == 5


@pytest.mark.parametrize("log", [[float("nan"), 1.0, 0.5], [1.0, float("inf")]])
def test_election_refuses_non_finite_metric(log):
    with pytest.raises(InvalidInputError, match="non-finite"):
        run_election(log)


def test_non_finite_validation_metric_raises_diverged():
    from potsmine.errors import TrainingDivergedError

    class NanOnSecondEpoch(GrudLiteModel):
        epochs_seen = 0

        def validation_metric(self, val_set, config):
            self.epochs_seen += 1
            return float("nan") if self.epochs_seen == 2 else 0.5

    ds = generate_synthetic(8, 4, 2, 2, missing_rate=0.1, seed=0)
    model = NanOnSecondEpoch(n_steps=4, n_features=2, n_classes=2, hidden_size=3)
    with pytest.raises(TrainingDivergedError, match="validation metric nan after epoch 2"):
        fit_model(model, ds, ds, TrainConfig(epochs=3, batch_size=4))


# ---------------------------------------------------------------------------
# fit loop

def test_fit_returns_checkpoint_and_is_deterministic():
    cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3, seed=5)

    def train_once():
        view = small_view()
        model = SaitsLiteModel(n_steps=6, n_features=2, d_model=8, d_ff=12,
                               init_seed=2)
        trained, ckpt = fit_model(model, view, view, cfg)
        return trained, ckpt

    m1, c1 = train_once()
    m2, c2 = train_once()
    assert isinstance(c1, Checkpoint)
    assert 1 <= c1.epoch <= 3
    assert c1.epoch == c2.epoch and c1.metric == c2.metric
    for name, t1 in m1.tensors().items():
        assert np.array_equal(t1, m2.tensors()[name]), name


def test_fit_restores_best_epoch_parameters():
    view = small_view()
    model = SaitsLiteModel(n_steps=6, n_features=2, d_model=8, d_ff=12)
    _, ckpt = fit_model(model, view, view,
                        TrainConfig(epochs=3, batch_size=4, seed=0))
    for name, snap in ckpt.parameters.items():
        assert np.array_equal(model.parameters[name], snap)


def test_fit_rejects_shape_mismatch_and_empty_val():
    view = small_view(t=6)
    other = small_view(t=7, seed=3)
    model = SaitsLiteModel(n_steps=6, n_features=2, d_model=8, d_ff=12)
    with pytest.raises(InvalidInputError):
        fit_model(model, other, other, TrainConfig(epochs=1))
    with pytest.raises(InvalidInputError):
        fit_model(model, view, other, TrainConfig(epochs=1))


def test_fit_refusals_name_their_cause():
    view = small_view()
    model = SaitsLiteModel(n_steps=6, n_features=2, d_model=8, d_ff=12)
    config = TrainConfig(epochs=1)
    with pytest.raises(InvalidInputError, match="training set is empty"):
        fit_model(model, [], view, config)
    with pytest.raises(InvalidInputError, match="validation set is empty"):
        fit_model(model, view, [], config)
    with pytest.raises(InvalidInputError, match="features, model expects 2"):
        fit_model(model, small_view(d=3), view, config)
    with pytest.raises(InvalidInputError, match="does not support selection metric"):
        fit_model(model, view, view, TrainConfig(epochs=1, selection_metric="val_accuracy"))
    with pytest.raises(InvalidInputError, match="empty metric log"):
        run_election([])


def test_fit_stops_once_patience_runs_out():
    class Counted(GrudLiteModel):
        calls = 0

        def validation_metric(self, val_set, config):
            Counted.calls += 1
            return 0.5   # never strictly better than the first epoch

    view = small_view()
    model = Counted(6, 2, 2, hidden_size=3)
    _, ckpt = fit_model(model, view, view, TrainConfig(epochs=6, batch_size=4, patience=2))
    assert (ckpt.epoch, Counted.calls) == (1, 3)


@pytest.mark.parametrize("selection_metric", ["val_loss", "val_accuracy"])
@pytest.mark.parametrize("patience", [0, 1, 2])
def test_fit_elects_what_run_election_elects_on_its_metric_log(selection_metric, patience):
    class Recorded(GrudLiteModel):
        def validation_metric(self, val_set, config):
            metric = super().validation_metric(val_set, config)
            log.append(metric)
            snapshots.append({k: v.copy() for k, v in self.parameters.items()})
            return metric

    log, snapshots = [], []
    view = small_view(n=16, rate=0.5)
    model = Recorded(6, 2, 2, hidden_size=4, init_seed=3)
    config = TrainConfig(epochs=8, batch_size=4, learning_rate=1.0, seed=1,
                         patience=patience, selection_metric=selection_metric)
    _, ckpt = fit_model(model, view, view, config)
    election = run_election(log, selection_metric == "val_accuracy", patience)
    assert (ckpt.epoch, ckpt.metric) == (election.best_epoch, election.best_metric)
    assert len(log) == election.stopped_after
    for name, snap in snapshots[ckpt.epoch - 1].items():
        assert np.array_equal(ckpt.parameters[name], snap)
        assert np.array_equal(model.parameters[name], snap)
        assert not np.shares_memory(ckpt.parameters[name], model.parameters[name])


def test_fit_refuses_a_model_that_is_neither_analytic_nor_gradient():
    class Inert(BaseModel):
        kind = "inert"
        n_features = 2

        def hyperparams(self):
            return {}

        def tensors(self):
            return {}

    view = small_view()
    with pytest.raises(InvalidInputError, match="'inert' is not trainable"):
        fit_model(Inert(), view, view, TrainConfig(epochs=1))


def test_imputer_metric_of_a_view_without_observed_cells_is_zero():
    empty = PotsDataset(Batch(values=np.full((2, 3, 2), np.nan), mask=np.zeros((2, 3, 2)),
                              timestamps=np.tile(np.arange(3.0), (2, 1)), labels=None))
    assert imputer_validation_metric(lambda b: np.zeros_like(b.values), empty) == 0.0


def _filled(cells: str, value: float):
    """A reconstruction: value at the batch's given cells, 0 elsewhere."""
    def reconstruct(batch):
        x = np.zeros_like(batch.values)
        x[getattr(batch, cells)] = value
        return x
    return reconstruct


def test_imputer_metric_is_nan_where_a_scored_reconstruction_is_not_finite():
    view, plain = small_view(), generate_synthetic(12, 6, 2, 2, missing_rate=0.1, seed=0)
    assert np.isnan(imputer_validation_metric(_filled("indicating", np.inf), view))
    assert np.isnan(imputer_validation_metric(_filled("mask", np.nan), plain))
    # the observed cells are not scored where held-out cells are
    assert np.isfinite(imputer_validation_metric(_filled("mask", np.nan), view))


def test_imputer_metric_beyond_float64_is_a_data_error():
    # 1e200 passes every batch through the scaled sum; the MSE is 1e400
    with pytest.raises(InvalidInputError,
                       match="validation metric: the value exceeds the float64 range"):
        imputer_validation_metric(_filled("indicating", 1e200), small_view(n=300))


def test_imputer_metric_bits_at_one_and_two_blas_threads():
    # one 256-sample batch of 48 x 8 scores about 88k observed cells; a
    # BLAS dot product of that length splits by thread count
    if (os.cpu_count() or 1) < 2:
        pytest.skip("needs two CPUs")
    src = str(Path(potsmine.__file__).resolve().parent.parent)
    script = ("import numpy as np; from potsmine import generate_synthetic; "
              "from potsmine.models import imputer_validation_metric; "
              "view = generate_synthetic(256, 48, 8, 2, missing_rate=0.1, seed=1); "
              "print(imputer_validation_metric("
              "lambda b: np.nan_to_num(b.values) * 0.9 + 0.1, view).hex())")
    bits = []
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        bits.append(done.stdout.strip())
    assert bits[0] == bits[1]


def test_analytic_fit_reports_epoch_one():
    view = small_view()
    model = MeanImputerModel(n_features=2)
    _, ckpt = fit_model(model, view, view, TrainConfig(epochs=7))
    assert ckpt.epoch == 1


def test_fit_is_one_gradient_call_per_minibatch():
    # each minibatch is one shard_loss_and_grads call, its gradient sums
    # divided by the batch size
    view = small_view(n=12, seed=5)
    cfg = TrainConfig(epochs=3, batch_size=5, seed=3)

    def build():
        return SaitsLiteModel(n_steps=6, n_features=2, d_model=8, d_ff=12, init_seed=4)

    fitted, calls = build(), []
    shard = fitted.shard_loss_and_grads

    def counted(v, idx):
        calls.append(idx.size)
        return shard(v, idx)

    fitted.shard_loss_and_grads = counted
    fitted, ckpt = fit_model(fitted, view, view, cfg)
    # one call per minibatch: epochs * ceil(12 / 5), with the batches' sizes
    assert calls == [5, 5, 2] * cfg.epochs

    model = build()
    model.prepare_fit(view)
    state = T.AdamState.for_params(model.parameters, lr=cfg.learning_rate)
    snapshots, metrics = [], []
    for epoch in range(cfg.epochs):
        order = np.random.Generator(np.random.PCG64(cfg.seed + epoch)).permutation(12)
        for start in range(0, 12, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            _, grads = model.shard_loss_and_grads(view, idx)
            T.adam_step(model.parameters,
                        {k: g * (1.0 / idx.size) for k, g in grads.items()}, state)
        snapshots.append({k: v.copy() for k, v in model.parameters.items()})
        metrics.append(model.validation_metric(view, cfg))
    assert ckpt.metric == metrics[ckpt.epoch - 1]
    for name, arr in fitted.parameters.items():
        assert np.array_equal(arr, snapshots[ckpt.epoch - 1][name]), name


def test_shard_gradients_sum_to_batch_gradient():
    view = small_view(n=8, seed=4)
    model = SaitsLiteModel(n_steps=6, n_features=2, d_model=8, d_ff=12, init_seed=3)
    model.prepare_fit(view)
    idx = np.arange(8)
    _, whole = model.shard_loss_and_grads(view, idx)
    _, left = model.shard_loss_and_grads(view, idx[:4])
    _, right = model.shard_loss_and_grads(view, idx[4:])
    for name, g in whole.items():
        merged = left[name] + right[name]
        rel = np.abs(merged - g).max() / max(np.abs(g).max(), 1e-30)
        assert rel < 1e-9, name


def test_non_finite_loss_raises_diverged_with_location():
    from potsmine.errors import TrainingDivergedError
    view = small_view(n=12, rate=0.2)
    model = SaitsLiteModel(n_steps=6, n_features=2, d_model=8, d_ff=12)
    with pytest.raises(TrainingDivergedError) as info:
        fit_model(model, view, view,
                  TrainConfig(epochs=3, batch_size=8, learning_rate=1e200, seed=0))
    message = str(info.value)
    assert "epoch" in message and "batch" in message


# ---------------------------------------------------------------------------
# task dispatch

@pytest.mark.parametrize("make", [lambda: SaitsLiteModel(6, 2, d_model=4, d_ff=4),
                                  lambda: GrudLiteModel(6, 2, 2, hidden_size=3)],
                         ids=["saits_lite", "grud_lite"])
def test_backward_after_a_later_training_forward_is_refused(make):
    model = make()
    view = small_view()
    first, second = view.training_batch([0, 1, 2]), view.training_batch([3, 4])
    tapes = [T.Tape(), T.Tape()]
    losses = []
    for tape, batch in zip(tapes, (first, second)):
        leaves = {k: tape.leaf(v) for k, v in model.parameters.items()}
        losses.append(model.batch_loss_sum(leaves, batch))
    with pytest.raises(InvalidInputError, match="overwrote the workspace"):
        tapes[0].backward(losses[0])
    # the later forward's own backward still runs
    tapes[1].backward(losses[1])


def test_impute_fully_observed_is_identity():
    ds = generate_synthetic(5, 6, 2, 2, missing_rate=0.0, seed=1)
    view = inject_mcar(ds, 0.0, seed=0)
    model = LocfModel(n_features=2)
    fit_model(model, view, view, TrainConfig())
    out = impute(model, ds)
    stacked = np.stack([s.values for s in ds.samples])
    assert np.array_equal(out, stacked)


def test_classify_rows_sum_to_one():
    ds = generate_synthetic(10, 6, 2, 2, missing_rate=0.2, seed=3)
    model = GrudLiteModel(n_steps=6, n_features=2, n_classes=2, hidden_size=8)
    probs = classify(model, ds)
    assert probs.shape == (10, 2)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


def test_cluster_labels_in_range():
    view = small_view(n=9)
    model = TwoStageKMeansModel(inner=LocfModel(n_features=2), k=3)
    fit_model(model, view, view, TrainConfig(seed=2))
    labels = cluster(model, view.corrupted)
    assert labels.shape == (9,)
    assert set(np.unique(labels)) <= {0, 1, 2}


def test_forecast_finite_and_horizon_checked():
    view = small_view(n=4, t=8)
    model = TmfModel(n_steps=8, n_features=2, rank=2, iters=5)
    fit_model(model, view, view, TrainConfig(seed=0))
    out = forecast(model, view.corrupted, horizon=3)
    assert out.shape == (4, 3, 2)
    assert np.isfinite(out).all()
    with pytest.raises(InvalidInputError):
        forecast(model, view.corrupted, horizon=0)


def test_unsupported_task_names_kind_and_task():
    model = LocfModel(n_features=2)
    ds = generate_synthetic(3, 4, 2, 2, missing_rate=0.0, seed=0)
    with pytest.raises(UnsupportedTaskError, match="locf"):
        forecast(model, ds, horizon=1)
    with pytest.raises(UnsupportedTaskError, match="locf"):
        forecast(model, ds, horizon=0)  # refused as unsupported before its horizon
    with pytest.raises(UnsupportedTaskError, match="classify"):
        classify(model, ds)
    grud = GrudLiteModel(4, 2, 2, hidden_size=3)
    with pytest.raises(UnsupportedTaskError, match="impute"):
        impute(grud, ds)
    with pytest.raises(UnsupportedTaskError, match="cluster"):
        cluster(grud, ds)


def _loss_sum(model, batch):
    return model.batch_loss_sum({k: T.constant(v) for k, v in model.parameters.items()},
                                batch)


def _fitted_tmf():
    model = TmfModel(n_steps=6, n_features=2, rank=1, iters=2)
    view = small_view(n=4)
    fit_model(model, view, view, TrainConfig())
    return model


@pytest.mark.parametrize("t, d", [(5, 2), (6, 1), (6, 3)],
                         ids=["5_steps", "1_feature", "3_features"])
@pytest.mark.parametrize("make, call", [
    (lambda: SaitsLiteModel(6, 2, d_model=4, d_ff=4), lambda m, b: m.impute_batch(b)),
    (lambda: SaitsLiteModel(6, 2, d_model=4, d_ff=4), _loss_sum),
    (lambda: GrudLiteModel(6, 2, 2, hidden_size=3), lambda m, b: m.predict_proba_batch(b)),
    (lambda: GrudLiteModel(6, 2, 2, hidden_size=3), _loss_sum),
    (lambda: LocfModel(n_features=2), lambda m, b: m.impute_batch(b)),
    (lambda: MeanImputerModel(n_features=2), lambda m, b: m.impute_batch(b)),
    (_fitted_tmf, lambda m, b: m.forecast_batch(b, 2)),
], ids=["saits_impute", "saits_loss", "grud_classify", "grud_loss", "locf_impute",
        "mean_impute", "tmf_forecast"])
def test_batch_methods_refuse_a_batch_of_another_shape(make, call, t, d):
    # the shape rule of views, applied to a batch: a model without a
    # fixed series length takes any, but never another feature count
    model = make()
    batch = small_view(n=4, t=t, d=d).training_batch([0, 1, 2, 3])
    if model.n_steps is None and d == 2:
        assert call(model, batch).shape == (4, t, 2)
    else:
        with pytest.raises(ShapeError, match="model expects"):
            call(model, batch)


# ---------------------------------------------------------------------------
# serialization

def test_save_load_round_trip_bitwise(tmp_path):
    view = small_view()
    model = SaitsLiteModel(n_steps=6, n_features=2, d_model=8, d_ff=12)
    fit_model(model, view, view, TrainConfig(epochs=2, batch_size=4, seed=1))
    path = str(tmp_path / "model.pmdl")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind == model.kind
    a = impute(model, view.corrupted)
    b = impute(loaded, view.corrupted)
    assert np.array_equal(a, b)


# one fresh model per registered kind, for a (12, 6, d) dataset of 2 classes
_KIND_BUILDERS = {
    "locf": lambda d=2: LocfModel(n_features=d),
    "mean": lambda d=2: MeanImputerModel(n_features=d),
    "saits_lite": lambda d=2: SaitsLiteModel(n_steps=6, n_features=d, d_model=4, d_ff=4),
    "grud_lite": lambda d=2: GrudLiteModel(n_steps=6, n_features=d, n_classes=2, hidden_size=3),
    "twostage_kmeans": lambda d=2: TwoStageKMeansModel(inner=MeanImputerModel(n_features=d), k=2),
    "tmf": lambda d=2: TmfModel(n_steps=6, n_features=d, rank=2, iters=2),
}


@pytest.mark.parametrize("kind", sorted(MODEL_REGISTRY))
def test_declared_hyperparameters_rebuild_a_fitted_model(kind):
    ds = generate_synthetic(12, 6, 2, 2, missing_rate=0.1, seed=0)
    model = _KIND_BUILDERS[kind]()
    fit_model(model, ds, ds, TrainConfig(epochs=1, batch_size=4))
    hp = model.hyperparams()
    assert {name: type(v) for name, v in hp.items()} == MODEL_REGISTRY[kind].HYPERPARAMS
    inner = {"inner": model.inner_model} if model.takes_inner else {}
    rebuilt = MODEL_REGISTRY[kind](**inner, **hp)
    assert ({name: a.shape for name, a in rebuilt.tensors().items()}
            == {name: a.shape for name, a in model.tensors().items()})
    assert model.tensors()    # a fitted model of every kind holds some state


@pytest.mark.parametrize("kind", sorted(MODEL_REGISTRY))
def test_tensor_names_of_a_fitted_model_do_not_depend_on_n_features(kind):
    # the loader compares a fixed name set: only the shapes may grow
    names = []
    for d in (2, 3):
        ds = generate_synthetic(12, 6, d, 2, missing_rate=0.1, seed=0)
        model = _KIND_BUILDERS[kind](d)
        fit_model(model, ds, ds, TrainConfig(epochs=1, batch_size=4))
        names.append([name for name, _ in model._shapes()])
    assert names[0] == names[1]


@pytest.mark.parametrize("name, value, stored", [
    ("lam_mit", 1, "int"), ("d_model", 4.0, "float"),
    ("init_seed", False, "bool")])
def test_load_refuses_a_hyperparameter_stored_under_another_type(name, value, stored):
    art = model_to_artifact(SaitsLiteModel(n_steps=6, n_features=2, d_model=4, d_ff=4))
    art.hyperparams[name] = value
    if stored == "bool":   # no kind declares a bool, so the format has no tag for one
        with pytest.raises(FormatError, match=f"'{name}' has unsupported type bool"):
            encode_artifact(art)
        return
    with pytest.raises(FormatError, match=f"'{name}' is stored as {stored}, expected"):
        model_from_artifact(decode_artifact(encode_artifact(art)))


@pytest.mark.parametrize("draw", [
    lambda: SaitsLiteModel(n_steps=6, n_features=2, init_seed=-1),
    lambda: GrudLiteModel(n_steps=6, n_features=2, n_classes=2, init_seed=-1),
    lambda: kmeans_fit(np.zeros((4, 2)), 2, seed=-1),
    lambda: tmf_fit(np.ones((3, 4)), np.ones((3, 4)), rank=1, seed=-1),
    lambda: fit_model(SaitsLiteModel(n_steps=6, n_features=2, d_model=4, d_ff=4),
                      small_view(), small_view(), TrainConfig(seed=-1)),
], ids=["saits_init", "grud_init", "kmeans", "tmf", "epoch_shuffle"])
def test_model_draws_refuse_a_negative_seed(draw):
    with pytest.raises(InvalidInputError, match="seed must be non-negative, got -1"):
        draw()


def _arrays(model):
    """Every array a model holds: its tensors, norm statistics among them,
    and its inner model's."""
    out = list(model.tensors().values())
    return out + (_arrays(model.inner_model) if model.inner_model is not None else [])


@pytest.mark.parametrize("kind", sorted(MODEL_REGISTRY))
def test_a_loaded_model_re_encodes_to_its_file_and_owns_its_arrays(tmp_path, kind):
    ds = generate_synthetic(12, 6, 2, 2, missing_rate=0.1, seed=0)
    model = _KIND_BUILDERS[kind]()
    fit_model(model, ds, ds, TrainConfig(epochs=1, batch_size=4))
    path = tmp_path / "m.pmdl"
    save_model(model, str(path))
    raw = path.read_bytes()
    assert encode_artifact(model_to_artifact(load_model(str(path)))) == raw
    buf = bytearray(raw)
    loaded = model_from_artifact(decode_artifact(buf))
    assert list(loaded._shapes()) == [(name, arr.shape) for name, arr in loaded.tensors().items()]
    for arr in _arrays(loaded):
        assert arr.flags.writeable
        assert not np.shares_memory(arr, np.frombuffer(buf, np.uint8))


@pytest.mark.parametrize("make, name", [
    (lambda: GrudLiteModel(n_steps=6, n_features=2, n_classes=2, hidden_size=3), "hidden_size"),
    (lambda: TmfModel(n_steps=6, n_features=2, rank=2, n_series=5), "n_series"),
    # n_features is the leading dim of each of a fitted TMF's factor stacks
    (lambda: TmfModel(n_steps=6, n_features=2, rank=2, n_series=5), "n_features"),
], ids=["grud_hidden_size", "tmf_n_series", "tmf_n_features"])
def test_load_refuses_an_inflated_size_without_allocating_it(make, name):
    art = model_to_artifact(make())
    art.hyperparams[name] = 2**40
    data = encode_artifact(art)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with pytest.raises(FormatError, match="found shape"):
        model_from_artifact(decode_artifact(data))
    # ru_maxrss counts KiB on Linux
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak < 50 * 1024


# a gradient model's artifact keeps its norm stats as the tensors
# norm_mean and norm_std, which the loader checks as it checks any tensor,
# and then by building a NormStats from them
@pytest.mark.parametrize("kind, name, value, message", [
    ("saits_lite", "norm_mean", [0.0, 0.0, 0.0], ": found shape (3,), expected (2,)"),
    ("saits_lite", "norm_mean", [np.nan, 0.0], " holds a non-finite value"),
    ("saits_lite", "norm_std", [1.0, 0.0], ": norm stats hold a std below 1e-08 at feature 1"),
    ("saits_lite", "norm_std", [np.nan, 1.0], " holds a non-finite value"),
    ("grud_lite", "norm_std", [1.0, np.nan], " holds a non-finite value"),
    ("grud_lite", "norm_std", [0.5e-8, 1.0], ": norm stats hold a std below 1e-08 at feature 0"),
], ids=["width", "nan_mean", "zero_std", "nan_std", "grud_nan_std", "grud_sub_floor_std"])
def test_load_refuses_norm_stats_that_do_not_fit_the_model(kind, name, value, message):
    model = _KIND_BUILDERS[kind]()
    model.prepare_fit(small_view())
    art = model_to_artifact(model)
    art.tensors[name] = np.array(value)
    with pytest.raises(FormatError, match=re.escape(f"{kind} artifact tensor '{name}'{message}")):
        model_from_artifact(decode_artifact(encode_artifact(art)))


def test_load_refuses_a_format_1_artifact(tmp_path):
    # format 1 kept the norm stats in a section of their own, which a
    # format-2 parse would misread
    data = bytearray(encode_artifact(model_to_artifact(LocfModel(n_features=2))))
    data[4:6] = (1).to_bytes(2, "little")
    path = tmp_path / "v1.pmdl"
    path.write_bytes(data)
    with pytest.raises(FormatError, match="unsupported artifact version 1"):
        load_model(str(path))


def test_save_refuses_a_model_that_load_would_refuse_and_writes_nothing(tmp_path):
    model = MeanImputerModel(n_features=2)
    model.feature_values = np.array([1.0, np.inf])
    path = tmp_path / "mean.pmdl"
    with pytest.raises(FormatError, match="mean artifact tensor 'means' holds a non-finite value"):
        save_model(model, str(path))
    assert not path.exists()


@pytest.mark.parametrize("std", [0.0, 0.5e-8])
def test_load_refuses_kmeans_feature_stds_below_the_floor(std):
    view = small_view()
    model = TwoStageKMeansModel(inner=MeanImputerModel(n_features=2), k=2)
    fit_model(model, view, view, TrainConfig())
    art = model_to_artifact(model)
    art.tensors["feat_std"] = art.tensors["feat_std"].copy()
    art.tensors["feat_std"][5] = std
    with pytest.raises(FormatError, match="twostage_kmeans artifact tensor 'feat_std': "
                                          "norm stats hold a std below 1e-08 at feature 5"):
        model_from_artifact(decode_artifact(encode_artifact(art)))


def test_unfitted_tmf_round_trip(tmp_path):
    model = TmfModel(n_steps=8, n_features=2)
    path = str(tmp_path / "tmf.pmdl")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.hyperparams() == model.hyperparams()
    assert loaded.tensors() == {}
    with pytest.raises(InvalidInputError, match="has not been fit"):
        forecast(loaded, generate_synthetic(3, 8, 2, 2, missing_rate=0.0, seed=0),
                 horizon=2)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.pmdl"
    path.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(FormatError, match="not a PMDL artifact"):
        load_model(str(path))


def test_load_rejects_unknown_kind(tmp_path):
    view = small_view()
    model = LocfModel(n_features=2)
    fit_model(model, view, view, TrainConfig())
    path = tmp_path / "m.pmdl"
    save_model(model, str(path))
    raw = bytearray(path.read_bytes())
    at = raw.find(b"locf")
    assert at > 0
    raw[at:at + 4] = b"zorp"
    # keep the checksum consistent so only kind dispatch fails
    import zlib
    payload = bytes(raw[:-4])
    path.write_bytes(payload + zlib.crc32(payload[6:]).to_bytes(4, "little"))
    with pytest.raises(FormatError, match="zorp"):
        load_model(str(path))


def test_load_rejects_truncation_and_bitflips(tmp_path):
    view = small_view()
    model = MeanImputerModel(n_features=2)
    fit_model(model, view, view, TrainConfig())
    path = tmp_path / "m.pmdl"
    save_model(model, str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(CorruptionError):
        load_model(str(path))
    flipped = bytearray(raw)
    flipped[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(flipped))
    with pytest.raises(CorruptionError, match="checksum"):
        load_model(str(path))



def test_artifact_io_faults_and_over_long_strings(tmp_path):
    from potsmine.models import ModelArtifact, encode_artifact
    with pytest.raises(StorageError, match="cannot write model artifact"):
        save_model(LocfModel(n_features=2), str(tmp_path / "missing" / "m.pmdl"))
    with pytest.raises(StorageError, match="cannot read model artifact"):
        load_model(str(tmp_path))    # a directory
    with pytest.raises(FormatError, match="string field too long"):
        encode_artifact(ModelArtifact(kind="k" * 0x10000))


# ---------------------------------------------------------------------------
# backend equivalence

def test_lazy_and_memory_backends_train_identically(tmp_path):
    ds = generate_synthetic(10, 6, 2, 2, missing_rate=0.2, seed=6)
    path = str(tmp_path / "ds.pots")
    write_container(ds, path)
    cfg = TrainConfig(epochs=2, batch_size=4, seed=3)

    mem_model = SaitsLiteModel(n_steps=6, n_features=2, d_model=8, d_ff=12, init_seed=0)
    fit_model(mem_model, ds, ds, cfg)

    with open_readonly(path) as handle:
        lazy = lazy_dataset(handle)
        lazy_model = SaitsLiteModel(n_steps=6, n_features=2, d_model=8, d_ff=12,
                                    init_seed=0)
        fit_model(lazy_model, lazy, lazy, cfg)

    for name, arr in mem_model.tensors().items():
        assert np.array_equal(arr, lazy_model.tensors()[name]), name
