"""Write a fixed set of potsmine outputs into a directory, for same_bits.py.

Runs with the potsmine under test importable, from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python ci/bits_outputs.py OUTDIR

It writes into OUTDIR, which must be empty or missing:

- every file of a CLI pipeline over all six model kinds, once on a
  `.pots` file and once on a CSV: gen-data, corrupt, train, evaluate and
  predict, at fixed seeds and small shapes, and each kind's train once
  more on the corrupted container;
- `<file>.npz` beside each `.pots` container and `.pmdl` artifact, its
  numeric content as that checkout's potsmine decodes it; an artifact's
  norm statistics are saved under `norm_mean` and `norm_std`, whether
  that checkout decodes them as tensors or, as format 1 did, as a
  section of their own;
- `grads_<kind>_<norm|raw>.npz`: the loss and every parameter gradient
  of SAITS-lite and GRU-D-lite on one minibatch, with norm statistics
  fit to the data and with a model's initial, identity ones (no
  prepare_fit), and `grads_grud_lite_wide_<norm|raw>.npz` the same for
  GRU-D-lite at 32 samples, 48 steps and hidden size 64; GRU-D-lite's
  parameters are perturbed from their initialization, whose zero
  readout makes every recurrent gradient exactly 0;
- `pred_<kind>.npz`: each of the six kinds fit through the library API
  at fixed seeds, and its impute, classify, cluster or forecast output
  on a held-out split; GRU-D-lite's classify runs in several spans, and
  `pred_tmf.npz` also holds the fit's `objective_history`, as does
  `pred_tmf_rank1.npz`, TMF at rank 1, whose ridge systems are 1 x 1;
- `tmf_near_singular.npz`: the factors, forecast and objective history
  of a TMF fit to 1e4-scale series of which one alone observes step 7,
  at `lam_f` 0.1, so that step's F-step systems are near singular;
- `logits_grud_lite_saturated.npz`: GRU-D-lite's logits on that split
  with its z and r weights and biases scaled until their gate inputs
  pass exp's float64 range, which saturates the gates;
- `attention_saits_lite_saturated.npz`: `saits_forward`'s reconstruction
  and attention maps on that split from a SAITS-lite model with `w_q`
  scaled by 1e3 in both blocks, so every score row leaves exp's float64
  range and every sample takes the max-shifted softmax;
- `impute_saits_lite_one_shifted.npz`: `impute` over that split's 48
  series, three row blocks of 16, by a SAITS-lite model at its default
  sizes, with series 24 replaced by one along the most positive
  eigenvector of block 1's score form on the values, with every sixth
  step missing; its unshifted exp overflows, so that series alone takes
  the max-shifted softmax, in the middle row block;
- `log.json`: each CLI command with its exit code, stdout and stderr.

The CLI runs in process; every path it is given is relative to OUTDIR,
which is the working directory while it runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import numpy as np

from potsmine import (Batch, LocfModel, MeanImputerModel, PotsDataset, TmfModel,
                      TrainConfig, TwoStageKMeansModel, classify, cluster, fetch_all, fit,
                      forecast, generate_synthetic, impute, inject_mcar, saits_forward,
                      split, tmf_fit, tmf_forecast)
from potsmine.cli import main as cli_main
from potsmine.models import GrudLiteModel, SaitsLiteModel, decode_artifact
from potsmine.store import LazyDataset, open_readonly

_TRAIN = {
    "locf": ("impute", ["--missing-rate", "0.2"]),
    "mean": ("impute", ["--missing-rate", "0.2"]),
    "saits_lite": ("impute", ["--missing-rate", "0.2", "--epochs", "2",
                              "--batch-size", "16"]),
    "grud_lite": ("classify", ["--epochs", "2", "--batch-size", "16"]),
    "twostage_kmeans": ("cluster", []),
    "tmf": ("forecast", []),
}


def _cli(log: list, *argv: str) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    log.append({"argv": list(argv), "exit": code, "stdout": out.getvalue(),
                "stderr": err.getvalue()})


def _pipeline(log: list, fmt: str) -> None:
    data, truth, corrupted = f"data.{fmt}", f"truth.{fmt}", f"{fmt}_corrupted.pots"
    size = ["--n-samples", "80", "--n-steps", "12", "--n-features", "3"]
    _cli(log, "gen-data", "--out", data, *size, "--missing-rate", "0.1", "--seed", "5")
    _cli(log, "gen-data", "--out", truth, "--n-samples", "80", "--n-steps", "3",
         "--n-features", "3", "--missing-rate", "0.1", "--seed", "6")
    _cli(log, "corrupt", "--data", data, "--out", corrupted, "--missing-rate", "0.2",
         "--seed", "7")
    originals = corrupted.replace(".pots", ".originals.pots")
    for kind, (task, flags) in _TRAIN.items():
        _cli(log, "train", "--task", task, "--model", kind, "--data", corrupted,
             "--out", f"{fmt}_{kind}_on_corrupted.pmdl", "--seed", "3", *flags)
        model = f"{fmt}_{kind}.pmdl"
        _cli(log, "train", "--task", task, "--model", kind, "--data", data,
             "--out", model, "--seed", "3", *flags)
        scored = {"impute": ["--data", corrupted, "--originals", originals],
                  "forecast": ["--data", data, "--truth", truth, "--horizon", "2"]}
        _cli(log, "evaluate", "--task", task, "--model", model,
             *scored.get(task, ["--data", data]))
        target = corrupted if task == "impute" else data
        suffix = fmt if task == "impute" else "csv"
        _cli(log, "predict", "--task", task, "--model", model, "--data", target,
             "--out", f"{fmt}_{kind}_pred.{suffix}", "--horizon", "2")


def _artifact_arrays(art, prefix: str = "") -> dict:
    out = {prefix + name: arr for name, arr in art.tensors.items()}
    norm = getattr(art, "norm", None)   # format 1's (2, D) section, means over stds
    if norm is not None:
        out[prefix + "norm_mean"], out[prefix + "norm_std"] = norm
    if art.inner is not None:
        out.update(_artifact_arrays(art.inner, prefix + "inner."))
    return out


def _decode_files() -> None:
    for name in sorted(os.listdir(".")):
        if name.endswith(".pmdl"):
            with open(name, "rb") as fh:
                arrays = _artifact_arrays(decode_artifact(fh.read(), source=name))
        elif name.endswith(".pots"):
            with open_readonly(name) as handle:
                view = LazyDataset(handle)
                batch = view.training_batch(range(len(view)))
            arrays = {key: value for key, value in vars(batch).items() if value is not None}
            # masks as bool, whichever dtype this version decodes them to
            arrays["mask"] = arrays["mask"].astype(bool)
        else:
            continue
        np.savez(name + ".npz", **arrays)


def _perturbed(model: GrudLiteModel, seed: int) -> GrudLiteModel:
    rng = np.random.default_rng(seed)
    model.parameters = {name: value + rng.normal(0.0, 0.1, value.shape)
                        for name, value in model.parameters.items()}
    return model


def _gradients() -> None:
    ds = generate_synthetic(40, 10, 3, 2, missing_rate=0.15, seed=11)
    view = inject_mcar(ds, 0.2, seed=12)
    wide = generate_synthetic(40, 48, 8, 2, missing_rate=0.3, seed=15)
    idx = list(range(3, 19))
    for tag in ("norm", "raw"):
        models = {
            "saits_lite": (SaitsLiteModel(10, 3, d_model=8, d_ff=16, init_seed=13), view, idx),
            "grud_lite": (_perturbed(GrudLiteModel(10, 3, 2, hidden_size=8, init_seed=14), 16),
                          ds, idx),
            "grud_lite_wide": (_perturbed(GrudLiteModel(48, 8, 2, hidden_size=64,
                                                        init_seed=17),
                                          18), wide, list(range(4, 36))),
        }
        for kind, (model, data, rows) in models.items():
            if tag == "norm":
                model.prepare_fit(data)
            loss, grads = model.shard_loss_and_grads(data, rows)
            np.savez(f"grads_{kind}_{tag}.npz", loss=np.array(loss), **grads)


def _predictions() -> None:
    ds = generate_synthetic(240, 48, 8, 2, missing_rate=0.3, seed=21)
    train, val, test = split(ds, (0.6, 0.2, 0.2), seed=22)
    config = TrainConfig(epochs=1, seed=23)
    models = {
        "locf": (LocfModel(8), impute),
        "mean": (MeanImputerModel(8), impute),
        "saits_lite": (SaitsLiteModel(48, 8, d_model=16, d_ff=32, init_seed=24), impute),
        # the 48 held-out series take three spans of steps
        "grud_lite": (GrudLiteModel(48, 8, 2, hidden_size=64, init_seed=25), classify),
        "twostage_kmeans": (TwoStageKMeansModel(LocfModel(8), 2), cluster),
        "tmf": (TmfModel(48, 8, iters=5), lambda m, data: forecast(m, data, 2)),
        "tmf_rank1": (TmfModel(48, 8, rank=1, iters=5), lambda m, data: forecast(m, data, 2)),
    }
    for kind, (model, serve) in models.items():
        views = ((inject_mcar(train, 0.2, seed=26), inject_mcar(val, 0.2, seed=27))
                 if kind == "saits_lite" else (train, val))
        model, _ = fit(model, *views, config)
        history = ({"objective_history": np.array(model.objective_history)}
                   if isinstance(model, TmfModel) else {})
        np.savez(f"pred_{kind}.npz", pred=serve(model, test), **history)
    _saturated_logits(train, test)
    _saturated_attention(train, test)
    _one_shifted_series(test)
    _near_singular_tmf()


def _near_singular_tmf() -> None:
    batch = generate_synthetic(60, 16, 1, 2, missing_rate=0.0, seed=30).training_batch(
        range(60))
    mask = np.ones((60, 16))
    mask[1:, 7] = 0.0
    model = tmf_fit(batch.values[:, :, 0] * 1e4, mask, rank=4, lam_f=0.1, iters=5, seed=31)
    np.savez("tmf_near_singular.npz", w=model.w_list, f=model.f_list, a=model.a_list,
             forecast=tmf_forecast(model, 2),
             objective_history=np.array(model.objective_history))


def _saturated_logits(train, test) -> None:
    model = _perturbed(GrudLiteModel(48, 8, 2, hidden_size=64, init_seed=28), 29)
    model.prepare_fit(train)
    for name in ("w_z", "w_r", "b_z", "b_r"):
        model.parameters[name] *= 3e3
    # the 48 held-out series take three spans of steps
    np.savez("logits_grud_lite_saturated.npz", logits=model._logits_np(fetch_all(test)))


def _saturated_attention(train, test) -> None:
    model = SaitsLiteModel(48, 8, d_model=16, d_ff=32, init_seed=31)
    model.prepare_fit(train)
    for block in (1, 2):
        model.parameters[f"b{block}_w_q"] *= 1e3
    batch = fetch_all(test)
    xhat, attns = saits_forward(model, batch.values, batch.mask)
    np.savez("attention_saits_lite_saturated.npz", xhat=xhat, attn1=attns[0],
             attn2=attns[1])


def _one_shifted_series(test) -> None:
    model = SaitsLiteModel(48, 8, init_seed=32)
    p = model.parameters
    w_x = p["b1_w_in"][:8]
    form = w_x @ p["b1_w_q"] @ p["b1_w_k"].T @ w_x.T / np.sqrt(model.d_model)
    lam, vec = np.linalg.eigh(form + form.T)
    batch = fetch_all(test)
    values, mask = batch.values.copy(), batch.mask.copy()
    # the form reads +1500 on the observed steps
    values[24] = np.sqrt(3000.0 / lam[-1]) * vec[:, -1]
    mask[24] = True
    values[24, ::6], mask[24, ::6] = np.nan, False
    shifted = PotsDataset(Batch(values, mask, batch.timestamps, batch.labels,
                                sample_ids=batch.sample_ids))
    np.savez("impute_saits_lite_one_shifted.npz", pred=impute(model, shifted))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: bits_outputs.py OUTDIR", file=sys.stderr)
        return 1
    os.makedirs(argv[0], exist_ok=True)
    if os.listdir(argv[0]):
        print(f"bits_outputs.py: {argv[0]} is not empty", file=sys.stderr)
        return 1
    os.chdir(argv[0])
    log: list = []
    for fmt in ("pots", "csv"):
        _pipeline(log, fmt)
    _decode_files()
    _gradients()
    _predictions()
    with open("log.json", "w", encoding="utf-8") as fh:
        json.dump(log, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
