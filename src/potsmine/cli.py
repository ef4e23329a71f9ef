"""Command-line pipeline: generate, pack, corrupt, train, evaluate, predict.

One global --seed drives every stage through fixed offsets, so stages
can be re-run independently and still reproduce:

    +0 synthetic data generation
    +1 artificial corruption (standalone corrupt, or inside train)
    +2 train/val/test split shuffle
    +3 model parameter initialization
    +4 training (per-epoch shuffles, k-means seeding, factor init)
    +5 corruption of the validation split inside train

Exit codes: 0 success, 1 usage error, 2 data or format error,
3 training divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .errors import (FormatError, InvalidInputError, PotsError, TrainingDivergedError,
                     UnsupportedTaskError)
from . import core, metrics, store
from .models import (GrudLiteModel, LocfModel, MeanImputerModel, SaitsLiteModel,
                     TmfModel, TrainConfig, TwoStageKMeansModel, classify, cluster,
                     decode_artifact, fit, forecast, impute, load_model, save_model)

_TASKS = ("impute", "classify", "cluster", "forecast")
_MODEL_TASKS = {
    "locf": "impute", "mean": "impute", "saits_lite": "impute",
    "grud_lite": "classify", "twostage_kmeans": "cluster", "tmf": "forecast",
}

_DEFAULTS = {
    "task": None, "model": None, "data": None, "out": None, "originals": None,
    "truth": None, "seed": 0, "workers": 1, "epochs": 10, "batch_size": 32,
    "lr": 1e-3, "patience": 0, "missing_rate": 0.0, "horizon": 1,
    "selection_metric": "val_loss",
    "n_samples": 200, "n_steps": 24, "n_features": 5, "n_classes": 2,
    "train_frac": 0.8, "val_frac": 0.1, "test_frac": 0.1,
    "d_model": 32, "d_ff": 64, "lam_mit": 1.0, "hidden_size": 64,
    "normalize": True, "k": 2, "kmeans_max_iters": 100, "kmeans_tol": 1e-6,
    "rank": 2, "ar_order": 2, "lam_w": 0.1, "lam_f": 0.1, "lam_a": 0.1,
    "iters": 20,
}


class _UsageError(Exception):
    pass


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _json_types(default) -> tuple[tuple[type, ...], str]:
    """The JSON value types a config key takes, by the type of its default
    (a JSON true is not an integer, though Python's bool is an int)."""
    if isinstance(default, bool):
        return (bool,), "a boolean"
    if isinstance(default, int):
        return (int,), "an integer"
    if isinstance(default, float):
        return (int, float), "a number"
    return (str,), "a string"


def _load_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise _UsageError(f"config file not found: {path} (--config)")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot parse config file {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise FormatError(f"config file {path} must hold a flat JSON object")
    for key, value in loaded.items():
        if key not in _DEFAULTS:
            raise _UsageError(f"unknown config key {key!r} in {path}")
        types, name = _json_types(_DEFAULTS[key])
        if type(value) not in types:
            raise _UsageError(f"config key {key!r} in {path} must be {name}, got {value!r}")
    return loaded


def _resolve(args: argparse.Namespace) -> dict:
    """Merge flag values over config-file values over defaults."""
    cfg = dict(_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        cfg.update(_load_config_file(config_path))
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _require(cfg: dict, key: str, flag: str):
    if cfg.get(key) in (None, ""):
        raise _UsageError(f"missing required value: {flag}")
    return cfg[key]


def _require_file(path: str, flag: str) -> str:
    if not os.path.exists(path):
        raise _UsageError(f"file not found: {path} ({flag})")
    return path


def _positive(cfg: dict, key: str, flag: str) -> None:
    if cfg[key] is not None and cfg[key] <= 0:
        raise _UsageError(f"{flag} must be positive, got {cfg[key]}")


def _load_dataset(path: str, flag: str = "--data") -> core.PotsDataset:
    """Read a dataset file into memory, dispatching on its format."""
    _require_file(path, flag)
    if path.endswith(".csv"):
        return core.ingest_csv(path)
    with store.open_readonly(path) as handle:
        return core.PotsDataset(handle._read_block(np.arange(handle.n_samples)))


def _write_dataset(dataset: core.PotsDataset, path: str) -> None:
    if path.endswith(".csv"):
        core.export_csv(dataset, path)
    else:
        store.write_container(dataset, path)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen_data(args) -> int:
    cfg = _resolve(args)
    out = _require(cfg, "out", "--out")
    for key, flag in (("n_samples", "--n-samples"), ("n_steps", "--n-steps"),
                      ("n_features", "--n-features"), ("n_classes", "--n-classes")):
        _positive(cfg, key, flag)
    dataset = core.generate_synthetic(
        int(cfg["n_samples"]), int(cfg["n_steps"]), int(cfg["n_features"]),
        n_classes=int(cfg["n_classes"]), missing_rate=float(cfg["missing_rate"]),
        seed=int(cfg["seed"]))
    _write_dataset(dataset, out)
    _emit(f"wrote {len(dataset)} samples to {out}")
    return 0


def _cmd_pack(args) -> int:
    cfg = _resolve(args)
    data = _require(cfg, "data", "--data")
    out = _require(cfg, "out", "--out")
    dataset = core.ingest_csv(_require_file(data, "--data"))
    store.write_container(dataset, out)
    _emit(f"packed {len(dataset)} samples into {out}")
    return 0


def _cmd_corrupt(args) -> int:
    cfg = _resolve(args)
    data = _require(cfg, "data", "--data")
    out = _require(cfg, "out", "--out")
    rate = float(cfg["missing_rate"])
    dataset = _load_dataset(data)
    view = core.inject_mcar(dataset, rate, seed=int(cfg["seed"]) + 1)
    originals_path = os.path.splitext(out)[0] + ".originals.pots"
    store.write_container(view.corrupted, out)
    store.write_container(dataset, originals_path)
    removed = int(dataset._block.mask.sum() - view.corrupted._block.mask.sum())
    _emit(f"wrote corrupted data to {out} ({removed} cells removed)")
    _emit(f"wrote pre-corruption data to {originals_path}")
    return 0


def _split_dataset(dataset: core.PotsDataset, cfg: dict):
    fracs = (float(cfg["train_frac"]), float(cfg["val_frac"]), float(cfg["test_frac"]))
    return core.split(dataset, fracs, seed=int(cfg["seed"]) + 2)


def _build_model(kind: str, task: str, dataset: core.PotsDataset, cfg: dict):
    seed = int(cfg["seed"]) + 3
    n_steps, n_features = dataset.n_steps, dataset.n_features
    if kind == "locf":
        return LocfModel(n_features)
    if kind == "mean":
        return MeanImputerModel(n_features)
    if kind == "saits_lite":
        return SaitsLiteModel(
            n_steps, n_features, d_model=int(cfg["d_model"]), d_ff=int(cfg["d_ff"]),
            lam_mit=float(cfg["lam_mit"]), normalize=bool(cfg["normalize"]),
            init_seed=seed)
    if kind == "grud_lite":
        if dataset.n_classes is None:
            raise InvalidInputError(
                "grud_lite needs a labeled dataset with a known class count")
        return GrudLiteModel(
            n_steps, n_features, dataset.n_classes,
            hidden_size=int(cfg["hidden_size"]), normalize=bool(cfg["normalize"]),
            init_seed=seed)
    if kind == "twostage_kmeans":
        return TwoStageKMeansModel(
            LocfModel(n_features), int(cfg["k"]),
            max_iters=int(cfg["kmeans_max_iters"]), tol=float(cfg["kmeans_tol"]))
    # "tmf": _cmd_train admits only the kinds in _MODEL_TASKS
    return TmfModel(
        n_steps, n_features, rank=int(cfg["rank"]), ar_order=int(cfg["ar_order"]),
        lam_w=float(cfg["lam_w"]), lam_f=float(cfg["lam_f"]),
        lam_a=float(cfg["lam_a"]), iters=int(cfg["iters"]))


def _cmd_train(args) -> int:
    cfg = _resolve(args)
    task = _require(cfg, "task", "--task")
    kind = _require(cfg, "model", "--model")
    data = _require(cfg, "data", "--data")
    out = _require(cfg, "out", "--out")
    if task not in _TASKS:
        raise _UsageError(f"unknown task {task!r} (--task)")
    if kind not in _MODEL_TASKS:
        raise _UsageError(f"unknown model kind {kind!r} (--model)")
    if _MODEL_TASKS[kind] != task:
        raise _UsageError(
            f"model kind {kind!r} does not serve task {task!r} (--model/--task)")
    for key, flag in (("epochs", "--epochs"), ("batch_size", "--batch-size"),
                      ("lr", "--lr"), ("workers", "--workers")):
        _positive(cfg, key, flag)
    if cfg["patience"] < 0:
        raise _UsageError(f"--patience must be non-negative, got {cfg['patience']}")

    dataset = _load_dataset(data)
    train_ds, val_ds, _ = _split_dataset(dataset, cfg)
    rate = float(cfg["missing_rate"])
    if task == "impute" and rate > 0:
        train_view = core.inject_mcar(train_ds, rate, seed=int(cfg["seed"]) + 1)
        val_view = core.inject_mcar(val_ds, rate, seed=int(cfg["seed"]) + 5)
    else:
        train_view, val_view = train_ds, val_ds

    model = _build_model(kind, task, dataset, cfg)
    config = TrainConfig(
        epochs=int(cfg["epochs"]), batch_size=int(cfg["batch_size"]),
        learning_rate=float(cfg["lr"]), patience=int(cfg["patience"]),
        seed=int(cfg["seed"]) + 4, workers=int(cfg["workers"]),
        selection_metric=str(cfg["selection_metric"]))
    model, checkpoint = fit(model, train_view, val_view, config)
    save_model(model, out)
    _emit(f"elected epoch: {checkpoint.epoch}")
    _emit(f"validation metric: {checkpoint.metric!r}")
    _emit(f"wrote model to {out}")
    return 0


def _print_report(pairs) -> None:
    for key, value in pairs:
        _emit(f"{key}: {value:.10g}")


def _cmd_evaluate(args) -> int:
    cfg = _resolve(args)
    task = _require(cfg, "task", "--task")
    model_path = _require(cfg, "model", "--model")
    data = _require(cfg, "data", "--data")
    model = load_model(_require_file(model_path, "--model"))
    dataset = _load_dataset(data)

    if task == "impute":
        originals_path = _require(cfg, "originals", "--originals")
        originals = _load_dataset(originals_path, "--originals")
        view = core.CorruptedPairView(originals, dataset)
        batch = core.fetch_all(view)
        filled = impute(model, view)
        if not batch.indicating.any():
            raise InvalidInputError(
                f"no artificially removed cells between {data} and {originals_path}")
        _print_report([
            ("masked_mae", metrics.masked_mae(filled, batch.originals, batch.indicating)),
            ("masked_mse", metrics.masked_mse(filled, batch.originals, batch.indicating)),
            ("masked_rmse", metrics.masked_rmse(filled, batch.originals, batch.indicating)),
            ("masked_mre", metrics.masked_mre(filled, batch.originals, batch.indicating)),
        ])
        return 0
    if task == "classify":
        if not dataset.has_labels:
            raise InvalidInputError(f"classification scoring needs labels in {data}")
        probs = classify(model, dataset)
        labels = dataset.labels_array()
        if probs.shape[1] == 2:
            report = metrics.binary_classification_metrics(probs[:, 1], labels)
            _emit(report.to_text())
        else:
            acc = float((probs.argmax(axis=1) == labels).mean())
            _print_report([("accuracy", acc)])
        return 0
    if task == "cluster":
        if not dataset.has_labels:
            raise InvalidInputError(f"cluster scoring needs labels in {data}")
        pred = cluster(model, dataset)
        truth = dataset.labels_array()
        _print_report([
            ("rand_index", metrics.rand_index(pred, truth)),
            ("purity", metrics.purity(pred, truth)),
        ])
        return 0
    if task == "forecast":
        truth_path = _require(cfg, "truth", "--truth")
        truth_ds = _load_dataset(truth_path, "--truth")
        horizon = int(cfg["horizon"])
        _positive(cfg, "horizon", "--horizon")
        if truth_ds.n_steps < horizon:
            raise InvalidInputError(
                f"--truth {truth_path} holds {truth_ds.n_steps} steps, "
                f"fewer than --horizon {horizon}")
        pred = forecast(model, dataset, horizon)
        truth_batch = core.fetch_all(truth_ds)
        truth_vals = truth_batch.values[:, :horizon, :]
        truth_mask = truth_batch.mask[:, :horizon, :]
        _print_report([
            ("masked_mae", metrics.masked_mae(pred, truth_vals, truth_mask)),
            ("masked_rmse", metrics.masked_rmse(pred, truth_vals, truth_mask)),
        ])
        return 0
    raise _UsageError(f"unknown task {task!r} (--task)")


def _cmd_predict(args) -> int:
    cfg = _resolve(args)
    task = _require(cfg, "task", "--task")
    model_path = _require(cfg, "model", "--model")
    data = _require(cfg, "data", "--data")
    out = _require(cfg, "out", "--out")
    model = load_model(_require_file(model_path, "--model"))
    dataset = _load_dataset(data)
    block = dataset._block
    ids = block.sample_ids.tolist()

    if task == "impute":
        completed = dataclasses.replace(block, values=impute(model, dataset),
                                        mask=np.ones_like(block.mask))
        _write_dataset(core.PotsDataset(completed, n_classes=dataset.n_classes), out)
        _emit(f"wrote predictions to {out}")
        return 0
    # every field below is an int id, a step number or a float repr, none of
    # which holds a comma, a quote or a line break: csv.writer would quote
    # nothing, so the comma-joined lines are its bytes
    if task == "classify":
        probs = classify(model, dataset).tolist()
        header = ["sample_id"] + [f"p{c}" for c in range(len(probs[0]))]
        lines = [f"{sid}," + ",".join(map(repr, row)) for sid, row in zip(ids, probs)]
    elif task == "cluster":
        header = ["sample_id", "cluster"]
        lines = [f"{sid},{lab}" for sid, lab in zip(ids, cluster(model, dataset).tolist())]
    elif task == "forecast":
        horizon = int(cfg["horizon"])
        _positive(cfg, "horizon", "--horizon")
        pred = forecast(model, dataset, horizon)
        header = ["sample_id", "step"] + [f"f{d}" for d in range(pred.shape[2])]
        lines = [f"{sid},{dataset.n_steps + j}," + ",".join(map(repr, row))
                 for sid, series in zip(ids, pred.tolist()) for j, row in enumerate(series)]
    else:
        raise _UsageError(f"unknown task {task!r} (--task)")
    core.write_csv(out, [[",".join(header), *lines]])
    _emit(f"wrote predictions to {out}")
    return 0


def _cmd_inspect(args) -> int:
    path = args.path
    _require_file(path, "path")
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == b"PMDL":
        with open(path, "rb") as fh:
            art = decode_artifact(fh.read(), source=path)
        _emit(f"model artifact: {path}")
        _emit(f"kind: {art.kind}")
        for key in sorted(art.hyperparams):
            _emit(f"hyperparam {key}: {art.hyperparams[key]}")
        _emit(f"normalized: {art.norm is not None}")
        for name in sorted(art.tensors):
            shape = "x".join(str(d) for d in art.tensors[name].shape) or "scalar"
            _emit(f"tensor {name}: {shape}")
        if art.inner is not None:
            _emit(f"inner model kind: {art.inner.kind}")
        return 0
    with store.open_readonly(path) as handle:
        _emit(f"container: {path}")
        _emit(f"n_samples: {handle.n_samples}")
        _emit(f"n_steps: {handle.n_steps}")
        _emit(f"n_features: {handle.n_features}")
        _emit(f"has_labels: {handle.has_labels}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file of flat key-value settings")
    sub.add_argument("--seed", type=int, help="global seed for every stage")
    sub.add_argument("--out", help="output path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="potsmine",
        description="Data mining pipeline for partially observed time series.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-data", help="write a synthetic labeled dataset")
    _add_common(p)
    p.add_argument("--n-samples", type=int, dest="n_samples")
    p.add_argument("--n-steps", type=int, dest="n_steps")
    p.add_argument("--n-features", type=int, dest="n_features")
    p.add_argument("--n-classes", type=int, dest="n_classes")
    p.add_argument("--missing-rate", type=float, dest="missing_rate")
    p.set_defaults(func=_cmd_gen_data)

    p = subs.add_parser("pack", help="convert a CSV dataset to a .pots container")
    _add_common(p)
    p.add_argument("--data", help="input CSV path")
    p.set_defaults(func=_cmd_pack)

    p = subs.add_parser("corrupt", help="artificially remove observed cells")
    _add_common(p)
    p.add_argument("--data", help="input dataset (.pots or .csv)")
    p.add_argument("--missing-rate", type=float, dest="missing_rate")
    p.set_defaults(func=_cmd_corrupt)

    p = subs.add_parser("train", help="fit a model and write a .pmdl artifact")
    _add_common(p)
    p.add_argument("--task", choices=_TASKS)
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--workers", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--missing-rate", type=float, dest="missing_rate")
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("evaluate", help="print a metric report for a trained model")
    _add_common(p)
    p.add_argument("--task", choices=_TASKS)
    p.add_argument("--model", help="path to a .pmdl artifact")
    p.add_argument("--data")
    p.add_argument("--originals", help="pre-corruption dataset (impute task)")
    p.add_argument("--truth", help="future continuation dataset (forecast task)")
    p.add_argument("--horizon", type=int)
    p.set_defaults(func=_cmd_evaluate)

    p = subs.add_parser("predict", help="write task outputs for a dataset")
    _add_common(p)
    p.add_argument("--task", choices=_TASKS)
    p.add_argument("--model", help="path to a .pmdl artifact")
    p.add_argument("--data")
    p.add_argument("--horizon", type=int)
    p.set_defaults(func=_cmd_predict)

    p = subs.add_parser("inspect", help="print container or model headers")
    p.add_argument("path")
    p.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the contract reserves 2 for
        # data errors, so usage maps to 1 (0 passes through for --help)
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (_UsageError, UnsupportedTaskError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    except PotsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
