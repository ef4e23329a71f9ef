"""Write a fixed set of potsmine outputs into a directory, for same_bits.py.

Runs with the potsmine under test importable, from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python ci/bits_outputs.py OUTDIR

It writes into OUTDIR, which must be empty or missing:

- every file of a CLI pipeline over all six model kinds, once on a
  `.pots` file and once on a CSV: gen-data, corrupt, train, evaluate and
  predict, at fixed seeds and small shapes;
- `<file>.npz` beside each `.pots` container and `.pmdl` artifact, its
  numeric content as that checkout's potsmine decodes it;
- `grads_<kind>_<norm|raw>.npz`: the loss and every parameter gradient
  of SAITS-lite and GRU-D-lite on one minibatch, with and without
  normalization;
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

from potsmine import generate_synthetic, inject_mcar
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
    norm = art.norm
    if norm is not None:
        # (2, D) means over stds, whether decoded as one array or as a pair
        out[prefix + "norm"] = np.asarray(
            norm if isinstance(norm, np.ndarray) else (norm.mean, norm.std))
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


def _gradients() -> None:
    ds = generate_synthetic(40, 10, 3, 2, missing_rate=0.15, seed=11)
    view = inject_mcar(ds, 0.2, seed=12)
    idx = list(range(3, 19))
    for normalize in (True, False):
        tag = "norm" if normalize else "raw"
        models = {
            "saits_lite": (SaitsLiteModel(10, 3, d_model=8, d_ff=16, normalize=normalize,
                                          init_seed=13), view),
            "grud_lite": (GrudLiteModel(10, 3, 2, hidden_size=8, normalize=normalize,
                                        init_seed=14), ds),
        }
        for kind, (model, data) in models.items():
            model.prepare_fit(data)
            loss, grads = model.shard_loss_and_grads(data, idx)
            np.savez(f"grads_{kind}_{tag}.npz", loss=np.array(loss), **grads)


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
    with open("log.json", "w", encoding="utf-8") as fh:
        json.dump(log, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
