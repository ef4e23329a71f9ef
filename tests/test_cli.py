"""CLI pipeline: subcommand round trips, exit codes, config precedence."""

import json
import os
import re

import numpy as np
import pytest

from potsmine import (
    fetch_batch,
    impute,
    ingest_csv,
    load_model,
    open_readonly,
)
from potsmine.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen(capsys, tmp_path, name="data.pots", **kw):
    path = str(tmp_path / name)
    argv = ["gen-data", "--out", path,
            "--n-samples", str(kw.get("n", 24)),
            "--n-steps", str(kw.get("t", 8)),
            "--n-features", str(kw.get("d", 2)),
            "--n-classes", str(kw.get("classes", 2)),
            "--missing-rate", str(kw.get("rate", 0.1)),
            "--seed", str(kw.get("seed", 0))]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return path


# ---------------------------------------------------------------------------
# pipeline round trips

def test_gen_data_writes_container(capsys, tmp_path):
    path = gen(capsys, tmp_path)
    with open_readonly(path) as h:
        assert h.n_samples == 24
        assert (h.n_steps, h.n_features) == (8, 2)
        assert h.has_labels


def test_gen_data_csv_and_pack_round_trip(capsys, tmp_path):
    csv_path = str(tmp_path / "data.csv")
    code, _, err = run(capsys, "gen-data", "--out", csv_path, "--n-samples", "6",
                       "--n-steps", "5", "--n-features", "2", "--seed", "3")
    assert code == 0, err
    packed = str(tmp_path / "packed.pots")
    code, _, err = run(capsys, "pack", "--data", csv_path, "--out", packed)
    assert code == 0, err
    ds = ingest_csv(csv_path)
    with open_readonly(packed) as h:
        back = fetch_batch(h, list(range(h.n_samples)))
        for a, b in zip(ds.samples, back):
            assert np.array_equal(a.values, b.values, equal_nan=True)
            assert np.array_equal(a.mask, b.mask)


def test_corrupt_writes_pair(capsys, tmp_path):
    data = gen(capsys, tmp_path, rate=0.0)
    out = str(tmp_path / "broken.pots")
    code, printed, err = run(capsys, "corrupt", "--data", data, "--missing-rate", "0.3",
                             "--out", out, "--seed", "5")
    assert code == 0, err
    originals = str(tmp_path / "broken.originals.pots")
    assert os.path.exists(originals)
    with open_readonly(out) as hc, open_readonly(originals) as ho:
        corr = fetch_batch(hc, list(range(hc.n_samples)))
        orig = fetch_batch(ho, list(range(ho.n_samples)))
        removed = int(re.search(r"\((\d+) cells removed\)", printed).group(1))
        assert removed == sum(o.mask.sum() - c.mask.sum() for c, o in zip(corr, orig))
        for c, o in zip(corr, orig):
            assert o.mask.sum() > c.mask.sum()
            assert np.all(o.mask >= c.mask)
            obs = c.mask != 0
            assert np.array_equal(c.values[obs], o.values[obs])


def train_impute(capsys, tmp_path, data, seed=1, name="model.pmdl", model="saits_lite"):
    out = str(tmp_path / name)
    code, _, err = run(capsys, "train", "--task", "impute", "--model", model,
                       "--data", data, "--out", out, "--seed", str(seed),
                       "--epochs", "2", "--batch-size", "8",
                       "--missing-rate", "0.2")
    assert code == 0, err
    return out


def test_train_evaluate_predict_impute(capsys, tmp_path):
    data = gen(capsys, tmp_path, n=30)
    model_path = train_impute(capsys, tmp_path, data)
    assert os.path.exists(model_path)

    corrupted = str(tmp_path / "holdout.pots")
    code, _, err = run(capsys, "corrupt", "--data", data, "--missing-rate", "0.2",
                       "--out", corrupted, "--seed", "1")
    assert code == 0, err
    code, out, err = run(capsys, "evaluate", "--task", "impute",
                         "--model", model_path, "--data", corrupted,
                         "--originals", str(tmp_path / "holdout.originals.pots"))
    assert code == 0, err
    for key in ("masked_mae:", "masked_mse:", "masked_rmse:", "masked_mre:"):
        assert key in out

    pred_path = str(tmp_path / "completed.pots")
    code, _, err = run(capsys, "predict", "--task", "impute",
                       "--model", model_path, "--data", data,
                       "--out", pred_path)
    assert code == 0, err

    # CLI output must agree bitwise with the library route
    model = load_model(model_path)
    with open_readonly(data) as h:
        from potsmine import lazy_dataset, stack_samples
        samples = fetch_batch(h, list(range(h.n_samples)))
    from potsmine import PotsDataset
    ds = PotsDataset(samples)
    want = impute(model, ds)
    with open_readonly(pred_path) as h:
        got = fetch_batch(h, list(range(h.n_samples)))
    stacked = np.stack([s.values for s in got])
    assert np.array_equal(stacked, want)
    assert all(s.mask.all() for s in got)


def test_train_is_byte_deterministic(capsys, tmp_path):
    data = gen(capsys, tmp_path, n=20, classes=2)
    a = train_impute(capsys, tmp_path, data, seed=7, name="a.pmdl")
    b = train_impute(capsys, tmp_path, data, seed=7, name="b.pmdl")
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_classify_pipeline_report_keys(capsys, tmp_path):
    data = gen(capsys, tmp_path, n=30, classes=2, rate=0.1)
    model_path = str(tmp_path / "clf.pmdl")
    code, _, err = run(capsys, "train", "--task", "classify", "--model", "grud_lite",
                       "--data", data, "--out", model_path, "--seed", "2",
                       "--epochs", "1", "--batch-size", "16")
    assert code == 0, err
    code, out, err = run(capsys, "evaluate", "--task", "classify",
                         "--model", model_path, "--data", data, "--seed", "2")
    assert code == 0, err
    for key in ("accuracy", "precision", "recall", "f1", "roc_auc", "pr_auc"):
        assert f"{key}:" in out

    probs_path = str(tmp_path / "probs.csv")
    code, _, err = run(capsys, "predict", "--task", "classify",
                       "--model", model_path, "--data", data, "--out", probs_path)
    assert code == 0, err
    lines = open(probs_path).read().strip().splitlines()
    assert lines[0] == "sample_id,p0,p1"
    assert len(lines) == 31


def test_cluster_and_forecast_pipelines(capsys, tmp_path):
    data = gen(capsys, tmp_path, n=18, classes=3, rate=0.1)
    cl_path = str(tmp_path / "cl.pmdl")
    code, _, err = run(capsys, "train", "--task", "cluster",
                       "--model", "twostage_kmeans", "--data", data,
                       "--out", cl_path, "--seed", "4")
    assert code == 0, err
    code, out, err = run(capsys, "evaluate", "--task", "cluster",
                         "--model", cl_path, "--data", data)
    assert code == 0, err
    assert "rand_index:" in out and "purity:" in out

    fc_path = str(tmp_path / "fc.pmdl")
    code, _, err = run(capsys, "train", "--task", "forecast", "--model", "tmf",
                       "--data", data, "--out", fc_path, "--seed", "4")
    assert code == 0, err
    fc_csv = str(tmp_path / "fc.csv")
    code, _, err = run(capsys, "predict", "--task", "forecast", "--model", fc_path,
                       "--data", data, "--out", fc_csv, "--horizon", "2")
    assert code == 0, err
    lines = open(fc_csv).read().strip().splitlines()
    assert lines[0] == "sample_id,step,f0,f1"
    assert len(lines) == 1 + 18 * 2


def test_inspect_model_and_container(capsys, tmp_path):
    data = gen(capsys, tmp_path, n=12)
    code, out, err = run(capsys, "inspect", data)
    assert code == 0, err
    assert "n_samples: 12" in out
    model_path = train_impute(capsys, tmp_path, data, model="mean")
    code, out, err = run(capsys, "inspect", model_path)
    assert code == 0, err
    assert "kind: mean" in out


# ---------------------------------------------------------------------------
# exit codes

def test_usage_errors_exit_one(capsys, tmp_path):
    code, _, err = run(capsys, "train", "--task", "forecast", "--model", "locf",
                       "--data", "x.pots", "--out", "y.pmdl")
    assert code == 1
    assert "locf" in err and "forecast" in err

    code, _, _ = run(capsys, "gen-data", "--bogus-flag", "1")
    assert code == 1

    code, _, err = run(capsys, "train", "--task", "impute", "--model", "saits_lite")
    assert code == 1
    assert "--data" in err


def test_cached_parser_behaves_as_fresh_ones(capsys, tmp_path):
    assert build_parser() is build_parser()
    data = str(tmp_path / "d.pots")
    bad = ["gen-data", "--bogus-flag", "1"]
    valid = ["gen-data", "--out", data, "--n-samples", "6", "--n-steps", "5",
             "--n-features", "2", "--seed", "3"]
    other = ["inspect", data]
    code, _, err = run(capsys, *bad)
    assert code == 1 and "--bogus-flag" in err
    assert run(capsys, *valid)[0] == 0
    code, out, _ = run(capsys, *other)
    assert code == 0
    assert "n_samples: 6" in out and "n_steps: 5" in out
    # the reused parser yields what a new one does, with nothing left over
    for argv in (valid, other):
        assert vars(build_parser().parse_args(argv)) == \
            vars(build_parser.__wrapped__().parse_args(argv))


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_data_errors_exit_two(capsys, tmp_path):
    csv_path = tmp_path / "plain.csv"
    csv_path.write_text("sample_id,step,f0\n0,0,1.0\n")
    code, _, err = run(capsys, "inspect", str(csv_path))
    assert code == 2
    assert "not a POTS container" in err

    code, _, err = run(capsys, "evaluate", "--task", "impute",
                       "--model", str(tmp_path / "missing.pmdl"),
                       "--data", str(csv_path))
    assert code in (1, 2)

    bad = tmp_path / "bad.pots"
    bad.write_bytes(b"JUNKJUNKJUNKJUNK" * 8)
    code, _, err = run(capsys, "inspect", str(bad))
    assert code == 2


def test_evaluate_rejects_unrelated_originals(capsys, tmp_path):
    data = gen(capsys, tmp_path, n=30)
    model_path = train_impute(capsys, tmp_path, data)
    corrupted = str(tmp_path / "holdout.pots")
    code, _, err = run(capsys, "corrupt", "--data", data, "--missing-rate", "0.2",
                       "--out", corrupted, "--seed", "1")
    assert code == 0, err
    # same shape, other seed: it lacks cells the corrupted data observes
    unrelated = gen(capsys, tmp_path, name="other.pots", n=30, seed=7)
    code, out, err = run(capsys, "evaluate", "--task", "impute",
                         "--model", model_path, "--data", corrupted,
                         "--originals", unrelated)
    assert code == 2, out
    assert "original lacks" in err
    assert "masked_mae" not in out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exits_three(capsys, tmp_path):
    data = gen(capsys, tmp_path, n=12, rate=0.0)
    code, _, err = run(capsys, "train", "--task", "impute", "--model", "saits_lite",
                       "--data", data, "--out", str(tmp_path / "div.pmdl"),
                       "--lr", "1e200", "--epochs", "3", "--batch-size", "8",
                       "--missing-rate", "0.2", "--seed", "0")
    assert code == 3
    assert "diverged" in err
    assert "epoch" in err and "batch" in err


# ---------------------------------------------------------------------------
# config file precedence

def test_config_file_supplies_values_and_flags_override(capsys, tmp_path):
    data = gen(capsys, tmp_path, n=20)
    cfg = {"task": "impute", "model": "saits_lite", "data": data,
           "epochs": 2, "batch_size": 8, "missing_rate": 0.2, "seed": 1}
    cfg_path = str(tmp_path / "run.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)

    by_config = str(tmp_path / "from_config.pmdl")
    code, _, err = run(capsys, "train", "--config", cfg_path, "--out", by_config)
    assert code == 0, err

    by_flags = train_impute(capsys, tmp_path, data, seed=1, name="from_flags.pmdl")
    with open(by_config, "rb") as fa, open(by_flags, "rb") as fb:
        assert fa.read() == fb.read()

    overridden = str(tmp_path / "override.pmdl")
    code, _, err = run(capsys, "train", "--config", cfg_path, "--out", overridden,
                       "--seed", "2")
    assert code == 0, err
    with open(by_config, "rb") as fa, open(overridden, "rb") as fb:
        assert fa.read() != fb.read()


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"task": "impute", "nonsense": 1}))
    code, _, err = run(capsys, "train", "--config", str(cfg_path),
                       "--out", "x.pmdl")
    assert code == 1
    assert "nonsense" in err


# ---------------------------------------------------------------------------
# artifacts that pass their checksum but do not fit their model kind

# per kind: the task it serves, a tensor and a hyperparameter to tamper with
_ARTIFACT_ENTRIES = {
    "locf": ("impute", "fallback_values", "n_features"),
    "mean": ("impute", "means", "n_features"),
    "saits_lite": ("impute", "b2_w_q", "d_model"),
    "grud_lite": ("classify", "u_c", "hidden_size"),
    "twostage_kmeans": ("cluster", "centroids", "n_features"),
    "tmf": ("forecast", "w0", "n_series"),
}


@pytest.fixture(scope="module")
def trained_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    data = str(root / "data.pots")
    assert main(["gen-data", "--out", data, "--n-samples", "24", "--n-steps", "8",
                 "--n-features", "2", "--missing-rate", "0.1", "--seed", "0"]) == 0
    paths = {}
    for kind, (task, _, _) in _ARTIFACT_ENTRIES.items():
        paths[kind] = str(root / f"{kind}.pmdl")
        assert main(["train", "--task", task, "--model", kind, "--data", data,
                     "--out", paths[kind], "--epochs", "1", "--batch-size", "8"]) == 0
    return data, paths


def test_every_kind_has_tamper_entries():
    from potsmine.models import MODEL_REGISTRY
    assert set(_ARTIFACT_ENTRIES) == set(MODEL_REGISTRY)


@pytest.mark.parametrize("kind", sorted(_ARTIFACT_ENTRIES))
@pytest.mark.parametrize("fault", ["missing_tensor", "wrong_shape", "missing_hyperparameter"])
def test_inconsistent_artifact_exits_two(capsys, tmp_path, trained_artifacts, kind, fault):
    from potsmine.models import decode_artifact, encode_artifact
    data, paths = trained_artifacts
    task, tensor, hyper = _ARTIFACT_ENTRIES[kind]
    with open(paths[kind], "rb") as fh:
        art = decode_artifact(fh.read())
    if fault == "missing_tensor":
        del art.tensors[tensor]
        entry = tensor
    elif fault == "wrong_shape":
        shape = art.tensors[tensor].shape
        art.tensors[tensor] = np.zeros(shape[:-1] + (shape[-1] + 1,))
        entry = tensor
    else:
        del art.hyperparams[hyper]
        entry = hyper
    tampered = str(tmp_path / "tampered.pmdl")
    with open(tampered, "wb") as fh:
        fh.write(encode_artifact(art))    # a fresh, valid checksum
    code, _, err = run(capsys, "predict", "--task", task, "--model", tampered,
                       "--data", data, "--out", str(tmp_path / "out.csv"))
    assert code == 2, err
    assert repr(entry) in err
