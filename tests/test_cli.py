"""CLI pipeline: subcommand round trips, exit codes, config precedence."""

import csv
import dataclasses
import io
import json
import os
import re
import struct
import subprocess
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from potsmine import (
    PotsDataset,
    TimeSeriesSample,
    classify,
    cluster,
    fetch_batch,
    forecast,
    generate_synthetic,
    impute,
    ingest_csv,
    load_model,
    masked_mae,
    masked_rmse,
    open_readonly,
    write_container,
)
from potsmine import cli
from potsmine.cli import build_parser, main
from potsmine.errors import CorruptionError, FormatError, InvalidInputError
from potsmine.models.artifact import VERSION


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


def test_corrupt_rewrites_a_container_of_several_read_chunks_unchanged(capsys, tmp_path):
    # 300 samples take two read chunks when the CLI loads the container
    data = gen(capsys, tmp_path, n=300, t=3)
    out = str(tmp_path / "broken.pots")
    code, _, err = run(capsys, "corrupt", "--data", data, "--missing-rate", "0.3",
                       "--out", out, "--seed", "5")
    assert code == 0, err
    with open(data, "rb") as fa, open(str(tmp_path / "broken.originals.pots"), "rb") as fb:
        assert fa.read() == fb.read()


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


def write_partly_labeled(tmp_path, n=10, t=6):
    """A container in which every third sample has no label."""
    base = generate_synthetic(n, t, 2, 3, missing_rate=0.1, seed=2)
    samples = [TimeSeriesSample(sample_id=s.sample_id, timestamps=s.timestamps,
                                values=s.values, mask=s.mask,
                                label=None if s.sample_id % 3 == 0 else s.label)
               for s in base.samples]
    data = str(tmp_path / "partial.pots")
    write_container(PotsDataset(samples), data)
    return data, samples


def test_corrupt_keeps_partial_labels(capsys, tmp_path):
    data, samples = write_partly_labeled(tmp_path)
    out = str(tmp_path / "broken.pots")
    code, _, err = run(capsys, "corrupt", "--data", data, "--missing-rate", "0.3",
                       "--out", out, "--seed", "5")
    assert code == 0, err
    with open(data, "rb") as fa, open(str(tmp_path / "broken.originals.pots"), "rb") as fb:
        assert fa.read() == fb.read()
    with open_readonly(out) as h:
        assert not h.has_labels
        assert [s.label for s in fetch_batch(h, range(10))] == [s.label for s in samples]


def test_predict_impute_keeps_absent_labels_where_the_input_had_them(capsys, tmp_path):
    # 300 samples take two read chunks when the CLI loads the container
    data, samples = write_partly_labeled(tmp_path, n=300)
    model = train_impute(capsys, tmp_path, data, model="mean")
    out = str(tmp_path / "completed.pots")
    code, _, err = run(capsys, "predict", "--task", "impute", "--model", model,
                       "--data", data, "--out", out)
    assert code == 0, err
    with open_readonly(out) as h:
        assert [s.label for s in fetch_batch(h, range(300))] == [s.label for s in samples]


def test_forecast_of_a_container_whose_last_series_is_unlabeled(capsys, tmp_path):
    block = generate_synthetic(2000, 8, 2, 2, 0.1, seed=0)._block
    labels = block.labels.copy()
    labels[-1] = -1
    data = str(tmp_path / "data.pots")
    write_container(PotsDataset(dataclasses.replace(block, labels=labels)), data)
    model = str(tmp_path / "tmf.pmdl")
    code, _, err = run(capsys, "train", "--task", "forecast", "--model", "tmf",
                       "--data", data, "--out", model)
    assert code == 0, err
    code, out, err = run(capsys, "evaluate", "--task", "forecast", "--model", model,
                         "--data", data, "--truth", data)
    assert code == 0, err
    assert set(report_values(out)) == {"masked_mae", "masked_rmse"}


def test_partly_labeled_data_is_refused_where_labels_are_needed(capsys, tmp_path):
    labeled = gen(capsys, tmp_path, n=12, t=6, classes=3)
    partial, _ = write_partly_labeled(tmp_path, n=12)
    code, _, err = run(capsys, "train", "--task", "classify", "--model", "grud_lite",
                       "--data", partial, "--out", str(tmp_path / "never.pmdl"))
    assert code == 2 and "needs a labeled dataset" in err
    for task, kind, message in (("classify", "grud_lite", "classification scoring needs"),
                                ("cluster", "twostage_kmeans", "cluster scoring needs")):
        model = str(tmp_path / f"{kind}.pmdl")
        code, _, err = run(capsys, "train", "--task", task, "--model", kind,
                           "--data", labeled, "--out", model, "--epochs", "1")
        assert code == 0, err
        code, _, err = run(capsys, "evaluate", "--task", task, "--model", model,
                           "--data", partial)
        assert code == 2 and message in err


@pytest.mark.parametrize("task, model, outputs", [
    ("impute", "mean", ["completed.pots", "completed.csv"]),
    ("classify", "grud_lite", ["probs.csv"]),
    ("forecast", "tmf", ["forecast.csv"]),
])
def test_csv_data_gives_the_outputs_of_its_packed_container(capsys, tmp_path, task, model,
                                                            outputs):
    csv_path = str(tmp_path / "data.csv")
    code, _, err = run(capsys, "gen-data", "--out", csv_path, "--n-samples", "20",
                       "--n-steps", "6", "--n-features", "2", "--n-classes", "3",
                       "--missing-rate", "0.2", "--seed", "3")
    assert code == 0, err
    packed = str(tmp_path / "data.pots")
    assert run(capsys, "pack", "--data", csv_path, "--out", packed)[0] == 0
    for source, data in (("csv", csv_path), ("pots", packed)):
        code, printed, err = run(capsys, "train", "--task", task, "--model", model,
                                 "--data", data, "--out", str(tmp_path / f"{source}.pmdl"),
                                 "--epochs", "2", "--batch-size", "8", "--seed", "6",
                                 "--missing-rate", "0.2")
        assert code == 0, err
        for name in outputs:
            code, _, err = run(capsys, "predict", "--task", task,
                               "--model", str(tmp_path / f"{source}.pmdl"), "--data", data,
                               "--out", str(tmp_path / f"{source}-{name}"), "--horizon", "2")
            assert code == 0, err
    for a, b in [("csv.pmdl", "pots.pmdl")] + [(f"csv-{n}", f"pots-{n}") for n in outputs]:
        with open(tmp_path / a, "rb") as fa, open(tmp_path / b, "rb") as fb:
            assert fa.read() == fb.read(), a


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


def test_train_corrupts_train_and_val_with_distinct_seeds(capsys, tmp_path, monkeypatch):
    from potsmine import core
    seeds = []
    real = core.inject_mcar

    def recording(dataset, rate, seed):
        seeds.append(seed)
        return real(dataset, rate, seed)

    monkeypatch.setattr(core, "inject_mcar", recording)
    data = gen(capsys, tmp_path, n=20)
    train_impute(capsys, tmp_path, data, seed=7, model="mean")
    assert seeds == [7 + 1, 7 + 5]


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
    lines = Path(probs_path).read_text().strip().splitlines()
    assert lines[0] == "sample_id,p0,p1"
    assert len(lines) == 31


def test_evaluate_classify_refuses_a_nan_score(capsys, tmp_path, monkeypatch):
    data = gen(capsys, tmp_path, n=30, classes=2, rate=0.1)
    model_path = str(tmp_path / "clf.pmdl")
    code, _, err = run(capsys, "train", "--task", "classify", "--model", "grud_lite",
                       "--data", data, "--out", model_path, "--epochs", "1")
    assert code == 0, err
    probs = np.full((30, 2), 0.5)
    probs[3] = np.nan
    monkeypatch.setattr(cli, "classify", lambda *args: probs)
    code, out, err = run(capsys, "evaluate", "--task", "classify",
                         "--model", model_path, "--data", data)
    assert code == 2 and out == ""
    assert "score at position 3 is not finite" in err


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
    lines = Path(fc_csv).read_text().strip().splitlines()
    assert lines[0] == "sample_id,step,f0,f1"
    assert len(lines) == 1 + 18 * 2


def load_pots(path):
    with open_readonly(path) as h:
        return PotsDataset(fetch_batch(h, list(range(h.n_samples))))


def report_values(out):
    return dict(line.split(": ", 1) for line in out.strip().splitlines())


def test_evaluate_forecast_matches_library_metrics(capsys, tmp_path):
    data = gen(capsys, tmp_path, n=18, classes=3, rate=0.1)
    truth = gen(capsys, tmp_path, name="truth.pots", n=18, t=3, rate=0.3, seed=9)
    fc_path = str(tmp_path / "fc.pmdl")
    code, _, err = run(capsys, "train", "--task", "forecast", "--model", "tmf",
                       "--data", data, "--out", fc_path, "--seed", "4")
    assert code == 0, err
    code, out, err = run(capsys, "evaluate", "--task", "forecast", "--model", fc_path,
                         "--data", data, "--truth", truth, "--horizon", "2")
    assert code == 0, err
    pred = forecast(load_model(fc_path), load_pots(data), 2)
    t = load_pots(truth)
    vals = np.stack([s.values for s in t.samples])[:, :2]
    mask = np.stack([s.mask for s in t.samples])[:, :2]
    assert report_values(out) == {
        "masked_mae": f"{masked_mae(pred, vals, mask):.10g}",
        "masked_rmse": f"{masked_rmse(pred, vals, mask):.10g}",
    }


def _scaled_container(tmp_path, name, scale, n, t, seed, missing_rate):
    ds = generate_synthetic(n, t, 2, 2, missing_rate=missing_rate, seed=seed)
    block = ds.training_batch(range(len(ds)))
    block.values[...] *= scale
    path = str(tmp_path / name)
    write_container(PotsDataset(block), path)
    return path


def test_evaluate_forecast_against_a_truth_near_the_float64_limit(capsys, tmp_path):
    # the squared errors pass float64's range, the errors themselves do not
    data = gen(capsys, tmp_path, n=18, rate=0.1)
    truth = _scaled_container(tmp_path, "truth.pots", 1e200, n=18, t=3, seed=9,
                              missing_rate=0.3)
    fc_path = str(tmp_path / "fc.pmdl")
    code, _, err = run(capsys, "train", "--task", "forecast", "--model", "tmf",
                       "--data", data, "--out", fc_path, "--seed", "4")
    assert code == 0, err
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "evaluate", "--task", "forecast", "--model", fc_path,
                             "--data", data, "--truth", truth, "--horizon", "2")
    assert code == 0, err
    pred = forecast(load_model(fc_path), load_pots(data), 2)
    t = load_pots(truth)
    vals = np.stack([s.values for s in t.samples])[:, :2]
    mask = np.stack([s.mask for s in t.samples])[:, :2]
    rmse = masked_rmse(pred, vals, mask)
    assert 1e199 < rmse < 1e201
    assert report_values(out) == {
        "masked_mae": f"{masked_mae(pred, vals, mask):.10g}",
        "masked_rmse": f"{rmse:.10g}",
    }


def test_evaluate_impute_whose_squared_error_exceeds_float64_exits_two(capsys, tmp_path):
    # the mean imputer fills about 0 where the originals hold about 1e200
    model_path = train_impute(capsys, tmp_path, gen(capsys, tmp_path, n=30), model="mean")
    huge = _scaled_container(tmp_path, "huge.pots", 1e200, n=30, t=8, seed=3,
                             missing_rate=0.0)
    corrupted = str(tmp_path / "holdout.pots")
    code, _, err = run(capsys, "corrupt", "--data", huge, "--missing-rate", "0.2",
                       "--out", corrupted, "--seed", "1")
    assert code == 0, err
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "evaluate", "--task", "impute",
                             "--model", model_path, "--data", corrupted,
                             "--originals", str(tmp_path / "holdout.originals.pots"))
    assert code == 2, out
    assert "masked_mse: the value exceeds the float64 range" in err
    # the report is refused whole, masked_mae included
    assert out == ""


def test_evaluate_classify_multiclass_prints_accuracy(capsys, tmp_path):
    data = gen(capsys, tmp_path, n=24, classes=3, rate=0.1)
    model_path = str(tmp_path / "clf.pmdl")
    code, _, err = run(capsys, "train", "--task", "classify", "--model", "grud_lite",
                       "--data", data, "--out", model_path, "--seed", "2",
                       "--epochs", "1", "--batch-size", "8")
    assert code == 0, err
    code, out, err = run(capsys, "evaluate", "--task", "classify",
                         "--model", model_path, "--data", data)
    assert code == 0, err
    ds = load_pots(data)
    probs = classify(load_model(model_path), ds)
    assert probs.shape[1] == 3
    acc = float((probs.argmax(axis=1) == ds.labels_array()).mean())
    assert report_values(out) == {"accuracy": f"{acc:.10g}"}


def test_predict_cluster_rows_carry_sample_ids(capsys, tmp_path):
    # ids that differ from row positions, so a position cannot pass for an id
    base = generate_synthetic(12, 8, 2, 3, missing_rate=0.1, seed=3)
    samples = [TimeSeriesSample(sample_id=100 + 7 * (11 - i), timestamps=s.timestamps,
                                values=s.values, mask=s.mask, label=s.label)
               for i, s in enumerate(base.samples)]
    data = str(tmp_path / "ids.pots")
    write_container(PotsDataset(samples), data)
    cl_path = str(tmp_path / "cl.pmdl")
    code, _, err = run(capsys, "train", "--task", "cluster", "--model", "twostage_kmeans",
                       "--data", data, "--out", cl_path, "--seed", "4")
    assert code == 0, err
    out_csv = str(tmp_path / "cl.csv")
    code, _, err = run(capsys, "predict", "--task", "cluster", "--model", cl_path,
                       "--data", data, "--out", out_csv)
    assert code == 0, err
    labels = cluster(load_model(cl_path), load_pots(data))
    lines = Path(out_csv).read_text().strip().splitlines()
    assert lines[0] == "sample_id,cluster"
    assert lines[1:] == [f"{s.sample_id},{int(lab)}" for s, lab in zip(samples, labels)]


# ---------------------------------------------------------------------------
# prediction CSV bytes

_PREDICT_KINDS = {"forecast": "tmf", "classify": "grud_lite", "cluster": "twostage_kmeans"}
# floats whose reprs take the signed-zero, subnormal, large and small forms
_SPECIALS = [-0.0, 5e-324, 1e16, 1e-05]


@pytest.fixture(scope="module")
def predict_setup(tmp_path_factory):
    """A container whose ids reach 2**64 - 1, and one model per CSV task."""
    root = tmp_path_factory.mktemp("predict")
    ids = [2**64 - 1, 0, 2**63, 7] + list(range(100, 108))
    base = generate_synthetic(12, 8, 2, 3, missing_rate=0.1, seed=3)
    dataset = PotsDataset([dataclasses.replace(s, sample_id=i)
                           for s, i in zip(base.samples, ids)])
    data = str(root / "ids.pots")
    write_container(dataset, data)
    models = {}
    for task, kind in _PREDICT_KINDS.items():
        models[task] = str(root / f"{kind}.pmdl")
        assert main(["train", "--task", task, "--model", kind, "--data", data,
                     "--out", models[task], "--seed", "4", "--epochs", "1",
                     "--batch-size", "8"]) == 0
    return data, dataset, ids, models


def csv_writer_bytes(task, ids, pred, n_steps):
    """A prediction CSV as csv.writer wrote it, with repr(float(v)) fields."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    if task == "forecast":
        writer.writerow(["sample_id", "step"] + [f"f{d}" for d in range(pred.shape[2])])
        writer.writerows([sid, n_steps + j] + [repr(float(v)) for v in pred[i, j]]
                         for i, sid in enumerate(ids) for j in range(pred.shape[1]))
    elif task == "classify":
        writer.writerow(["sample_id"] + [f"p{c}" for c in range(pred.shape[1])])
        writer.writerows([sid] + [repr(float(p)) for p in row] for sid, row in zip(ids, pred))
    else:
        writer.writerow(["sample_id", "cluster"])
        writer.writerows([sid, int(lab)] for sid, lab in zip(ids, pred))
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("task", list(_PREDICT_KINDS))
def test_predict_csv_bytes_equal_csv_writer_output(capsys, tmp_path, monkeypatch,
                                                   predict_setup, task):
    data, dataset, ids, models = predict_setup
    model = load_model(models[task])
    pred = {"forecast": lambda: forecast(model, dataset, 3),
            "classify": lambda: classify(model, dataset),
            "cluster": lambda: cluster(model, dataset)}[task]()
    out = tmp_path / "pred.csv"
    argv = ["predict", "--task", task, "--model", models[task], "--data", data,
            "--out", str(out), "--horizon", "3"]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert out.read_bytes() == csv_writer_bytes(task, ids, pred, dataset.n_steps)
    assert b"\r\n18446744073709551615," in out.read_bytes()
    if task == "cluster":
        return
    special = pred.copy()
    special.reshape(-1)[:len(_SPECIALS)] = _SPECIALS
    monkeypatch.setattr(cli, task, lambda *args: special)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert out.read_bytes() == csv_writer_bytes(task, ids, special, dataset.n_steps)
    for text in (b",-0.0", b",5e-324", b",1e+16", b",1e-05"):
        assert text in out.read_bytes()


@pytest.mark.parametrize("task", list(_PREDICT_KINDS))
def test_predict_csv_into_a_missing_directory_exits_two(capsys, tmp_path, predict_setup, task):
    data, _, _, models = predict_setup
    missing = tmp_path / "nodir" / "x.csv"
    code, _, err = run(capsys, "predict", "--task", task, "--model", models[task],
                       "--data", data, "--out", str(missing), "--horizon", "2")
    assert code == 2
    assert "cannot write" in err
    assert not missing.parent.exists()


def test_inspect_names_the_inner_model_of_a_two_stage_artifact(capsys, predict_setup):
    models = predict_setup[-1]
    code, out, err = run(capsys, "inspect", models["cluster"])
    assert code == 0, err
    assert "kind: twostage_kmeans" in out and "inner model kind: locf" in out


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

    # train has no --workers option
    code, _, err = run(capsys, "train", "--task", "impute", "--model", "saits_lite",
                       "--data", "x.pots", "--out", "y.pmdl", "--workers", "2")
    assert code == 1
    assert "unrecognized arguments: --workers 2" in err


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


@pytest.mark.parametrize("argv", [
    ["inspect", "{folder}"],
    ["train", "--task", "forecast", "--model", "tmf", "--data", "{folder}", "--out", "{out}"],
    ["corrupt", "--data", "{folder}", "--out", "{out}"],
    ["evaluate", "--task", "forecast", "--model", "{model}", "--data", "{data}",
     "--truth", "{folder}"],
], ids=["inspect", "train", "corrupt", "evaluate"])
def test_a_directory_given_as_an_input_file_exits_two(capsys, tmp_path, predict_setup, argv):
    data, _, _, models = predict_setup
    folder = tmp_path / "folder"
    folder.mkdir()
    code, _, err = run(capsys, *[a.format(folder=folder, out=tmp_path / "out",
                                          model=models["forecast"], data=data) for a in argv])
    assert code == 2
    assert f"{folder}: cannot read" in err
    assert not (tmp_path / "out").exists()


def test_csv_data_that_is_not_utf8_text_exits_two(capsys, tmp_path):
    # a .pots container under a .csv name
    not_text = tmp_path / "x.csv"
    not_text.write_bytes(Path(gen(capsys, tmp_path)).read_bytes())
    code, _, err = run(capsys, "train", "--task", "classify", "--model", "grud_lite",
                       "--data", str(not_text), "--out", str(tmp_path / "m.pmdl"))
    assert code == 2
    assert "not UTF-8 text" in err


@pytest.mark.parametrize("argv", [["gen-data"], ["corrupt", "--data", "d.pots"],
                                  ["train", "--data", "d.pots"]], ids=lambda a: a[0])
def test_a_negative_seed_flag_exits_one(capsys, tmp_path, argv):
    code, _, err = run(capsys, *argv, "--seed", "-1", "--out", str(tmp_path / "out.pots"))
    assert code == 1, err
    assert "--seed must be non-negative, got -1" in err
    assert not (tmp_path / "out.pots").exists()


@pytest.mark.parametrize("kind", ["saits_lite", "grud_lite"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_seed_whose_derived_seeds_leave_int64_exits_one(capsys, tmp_path, kind, source):
    data = gen(capsys, tmp_path, n=20)
    task = {"saits_lite": "impute", "grud_lite": "classify"}[kind]
    out = tmp_path / "model.pmdl"
    argv = ["train", "--task", task, "--model", kind, "--data", data, "--out", str(out),
            "--epochs", "1"]
    largest = 2 ** 63 - 6   # seed + 5 is the largest int64
    for seed, want in ((largest + 1, 1), (2 ** 63 + 7, 1), (largest, 0)):
        if source == "flag":
            extra = ["--seed", str(seed)]
        else:
            cfg_path = tmp_path / "run.json"
            cfg_path.write_text(json.dumps({"seed": seed}))
            extra = ["--config", str(cfg_path)]
        code, _, err = run(capsys, *argv, *extra)
        assert code == want, (seed, err)
        if want:
            assert f"--seed must be at most {largest}" in err
            assert f"got {seed}" in err and not out.exists()
    assert out.exists()


@pytest.mark.parametrize("lr", ["inf", "nan"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_learning_rate_that_is_not_finite_exits_one(capsys, tmp_path, lr, source):
    data = gen(capsys, tmp_path, n=20)
    out = tmp_path / "model.pmdl"
    if source == "flag":
        extra = ["--lr", lr]
    else:
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text('{"lr": %s}' % {"inf": "Infinity", "nan": "NaN"}[lr])
        extra = ["--config", str(cfg_path)]
    code, _, err = run(capsys, "train", "--task", "impute", "--model", "saits_lite",
                       "--data", data, "--out", str(out), "--epochs", "1", *extra)
    assert code == 1, err
    assert "--lr must be" in err and f"got {lr}" in err
    assert not out.exists()


@pytest.mark.parametrize("cell", ["inf", "1e400", "nan"])
def test_pack_of_a_csv_with_a_non_finite_cell_exits_two(capsys, tmp_path, cell):
    path = tmp_path / "cells.csv"
    path.write_text(f"sample_id,step,f0\n4,0,1.0\n4,1,{cell}\n")
    code, _, err = run(capsys, "pack", "--data", str(path), "--out", str(tmp_path / "p.pots"))
    assert code == 2, err
    assert f"row 3: sample 4: feature value {cell!r} is not finite" in err
    assert not (tmp_path / "p.pots").exists()


def test_pack_of_a_csv_label_beyond_int64_exits_two(capsys, tmp_path):
    path = tmp_path / "label.csv"
    path.write_text("sample_id,step,f0,label\n9,0,1.0,99999999999999999999\n")
    code, _, err = run(capsys, "pack", "--data", str(path), "--out", str(tmp_path / "p.pots"))
    assert code == 2, err
    assert "sample 9: label 99999999999999999999" in err


def test_csv_field_over_the_csv_size_limit_exits_two(capsys, tmp_path):
    huge = tmp_path / "huge.csv"
    huge.write_text("sample_id,step,f0\n0,0," + "1" * 200_000 + "\n")
    code, _, err = run(capsys, "pack", "--data", str(huge), "--out", str(tmp_path / "p.pots"))
    assert code == 2
    assert "field larger than field limit" in err


def test_gen_data_csv_into_a_missing_directory_exits_two(capsys, tmp_path):
    missing = tmp_path / "nodir" / "x.csv"
    code, _, err = run(capsys, "gen-data", "--out", str(missing), "--n-samples", "4")
    assert code == 2
    assert "cannot write" in err


def test_predict_impute_csv_into_a_missing_directory_exits_two(capsys, tmp_path):
    missing = tmp_path / "nodir" / "x.csv"
    data = gen(capsys, tmp_path, n=30)
    model_path = train_impute(capsys, tmp_path, data, model="mean")
    code, _, err = run(capsys, "predict", "--task", "impute", "--model", model_path,
                       "--data", data, "--out", str(missing))
    assert code == 2
    assert "cannot write" in err
    assert not missing.parent.exists()


def test_evaluate_impute_with_no_removed_cell_exits_two(capsys, tmp_path):
    data = gen(capsys, tmp_path, n=20)
    model_path = train_impute(capsys, tmp_path, data, model="mean")
    code, _, err = run(capsys, "evaluate", "--task", "impute", "--model", model_path,
                       "--data", data, "--originals", data)
    assert code == 2
    assert "no artificially removed cells" in err


def test_evaluate_forecast_with_truth_shorter_than_horizon_exits_two(capsys, tmp_path,
                                                                     predict_setup):
    data, _, _, models = predict_setup
    truth = gen(capsys, tmp_path, name="truth.pots", n=12, t=2, rate=0.3, seed=9)
    code, _, err = run(capsys, "evaluate", "--task", "forecast", "--model", models["forecast"],
                       "--data", data, "--truth", truth, "--horizon", "3")
    assert code == 2
    assert "holds 2 steps, fewer than --horizon 3" in err


@pytest.mark.parametrize("truth_of, holds", [
    (lambda s: s[::-1], "holds 40 of 2, whose first 0 sample ids match"),
    (lambda s: s[:30], "holds 30 of 2, whose first 30 sample ids match"),
    (lambda s: [dataclasses.replace(x, sample_id=x.sample_id + 1000) for x in s],
     "holds 40 of 2, whose first 0 sample ids match"),
    (lambda s: [dataclasses.replace(x, values=np.repeat(x.values, 2, axis=1),
                                    mask=np.repeat(x.mask, 2, axis=1)) for x in s],
     "holds 40 of 4, whose first 40 sample ids match"),
], ids=["reversed", "fewer_series", "other_ids", "more_features"])
def test_evaluate_forecast_with_a_truth_that_does_not_continue_data_exits_two(
        capsys, tmp_path, truth_of, holds):
    data = gen(capsys, tmp_path, n=40, t=8)
    truth = str(tmp_path / "truth.pots")
    write_container(PotsDataset(truth_of(load_pots(gen(
        capsys, tmp_path, name="future.pots", n=40, t=4, seed=9)).samples)), truth)
    model = str(tmp_path / "tmf.pmdl")
    code, _, err = run(capsys, "train", "--task", "forecast", "--model", "tmf",
                       "--data", data, "--out", model)
    assert code == 0, err
    code, out, err = run(capsys, "evaluate", "--task", "forecast", "--model", model,
                         "--data", data, "--truth", truth, "--horizon", "2")
    assert (code, out) == (2, "")
    assert f"--truth {truth} must continue the 40 series of --data in order, with 2 " \
           f"features; it {holds}" in err


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


def test_evaluate_rejects_originals_with_other_values(capsys, tmp_path):
    data = gen(capsys, tmp_path, n=30, rate=0.0)
    model_path = train_impute(capsys, tmp_path, data, model="mean")
    corrupted = str(tmp_path / "holdout.pots")
    code, _, err = run(capsys, "corrupt", "--data", data, "--missing-rate", "0.2",
                       "--out", corrupted, "--seed", "1")
    assert code == 0, err
    # observes every cell, so only the values tell it apart
    unrelated = gen(capsys, tmp_path, name="other.pots", n=30, rate=0.0, seed=7)
    code, out, err = run(capsys, "evaluate", "--task", "impute",
                         "--model", model_path, "--data", corrupted,
                         "--originals", unrelated)
    assert code == 2, out
    assert "disagree on a value" in err
    assert "masked_mae" not in out


def test_divergence_exits_three(capsys, tmp_path):
    data = gen(capsys, tmp_path, n=12, rate=0.0)
    code, _, err = run(capsys, "train", "--task", "impute", "--model", "saits_lite",
                       "--data", data, "--out", str(tmp_path / "div.pmdl"),
                       "--lr", "1e200", "--epochs", "3", "--batch-size", "8",
                       "--missing-rate", "0.2", "--seed", "0")
    assert code == 3
    assert "diverged" in err
    assert "epoch" in err and "batch" in err


@pytest.mark.parametrize("task,kind", [("impute", "saits_lite"), ("classify", "grud_lite")])
def test_divergence_is_reported_by_its_message_alone(capsys, tmp_path, task, kind):
    # a learning rate near the float64 limit overflows Adam's step; the
    # child prints Python's default warnings, so any RuntimeWarning shows
    data = str(tmp_path / "d.pots")
    code, _, err = run(capsys, "gen-data", "--out", data, "--n-samples", "60",
                       "--n-steps", "12", "--n-features", "3", "--seed", "1")
    assert code == 0, err
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "potsmine.cli", "train", "--task", task, "--model", kind,
         "--data", data, "--out", str(tmp_path / "m.pmdl"), "--epochs", "1",
         "--lr", "1e308"], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 3, done.stderr
    assert "training diverged" in done.stderr
    assert "RuntimeWarning" not in done.stderr and "Traceback" not in done.stderr


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


# a command and a config holding one mistyped value; "models" stands for
# the fixture's forecast model
_TRAIN_TMF = ["train", "--task", "forecast", "--model", "tmf"]
_PREDICT_TMF = ["predict", "--task", "forecast", "--model", "models"]
_MISTYPED_CONFIGS = {
    "horizon_text": (_PREDICT_TMF, {"horizon": "abc"}, "an integer"),
    "horizon_fraction": (_PREDICT_TMF, {"horizon": 0.5}, "an integer"),
    "rank_list": (_TRAIN_TMF, {"rank": [2]}, "an integer"),
    "epochs_text": (_TRAIN_TMF, {"epochs": "3"}, "an integer"),
    "seed_boolean": (_TRAIN_TMF, {"seed": True}, "an integer"),
    "lr_text": (_TRAIN_TMF, {"lr": "0.1"}, "a number"),
    "model_list": (_TRAIN_TMF[:3], {"model": ["tmf"]}, "a string"),
}


@pytest.mark.parametrize("case", list(_MISTYPED_CONFIGS))
def test_config_value_of_the_wrong_type_exits_one(capsys, tmp_path, predict_setup, case):
    data, _, _, models = predict_setup
    argv, cfg, kind = _MISTYPED_CONFIGS[case]
    cfg_path = tmp_path / "typed.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = [models["forecast"] if a == "models" else a for a in argv]
    code, _, err = run(capsys, *argv, "--data", data, "--config", str(cfg_path),
                       "--out", str(tmp_path / "out.csv"))
    assert code == 1, err
    (key,) = cfg
    assert f"config key {key!r}" in err and f"must be {kind}" in err
    assert not (tmp_path / "out.csv").exists()


# a float hyperparameter that json reads from a config file and the model
# refuses: the task, the model kind, the config text and what the message names
_BAD_FLOAT_HYPERPARAMS = {
    "tmf_lam_w_nan": ("forecast", "tmf", '{"lam_w": NaN}', "lam_w=nan"),
    "tmf_lam_f_inf": ("forecast", "tmf", '{"lam_f": Infinity}', "lam_f=inf"),
    "tmf_lam_a_nan": ("forecast", "tmf", '{"lam_a": NaN}', "lam_a=nan"),
    "saits_lam_mit_nan": ("impute", "saits_lite", '{"lam_mit": NaN}', "lam_mit=nan"),
    "kmeans_tol_nan": ("cluster", "twostage_kmeans", '{"kmeans_tol": NaN}', "tol=nan"),
    "kmeans_tol_negative": ("cluster", "twostage_kmeans", '{"kmeans_tol": -1.0}',
                            "tol=-1.0"),
}


@pytest.mark.parametrize("case", sorted(_BAD_FLOAT_HYPERPARAMS))
def test_train_refuses_a_float_hyperparameter_that_is_negative_or_not_finite(
        capsys, tmp_path, case):
    task, kind, text, named = _BAD_FLOAT_HYPERPARAMS[case]
    data = gen(capsys, tmp_path, n=20)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(text)
    out = tmp_path / "model.pmdl"
    code, _, err = run(capsys, "train", "--task", task, "--model", kind, "--data", data,
                       "--config", str(cfg_path), "--out", str(out), "--epochs", "1")
    assert code == 2, err
    assert f"must be non-negative and finite, got {named}" in err
    assert not out.exists()


@pytest.mark.parametrize("iters", [0, -3])
def test_train_refuses_kmeans_max_iters_below_one(capsys, tmp_path, iters):
    data = gen(capsys, tmp_path, n=20)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"kmeans_max_iters": iters}))
    out = tmp_path / "model.pmdl"
    code, _, err = run(capsys, "train", "--task", "cluster", "--model", "twostage_kmeans",
                       "--data", data, "--config", str(cfg_path), "--out", str(out))
    assert code == 2, err
    assert f"max_iters must be positive, got {iters}" in err
    assert not out.exists()


# config file text, the command's exit code and a phrase of its message
_BAD_CONFIG_FILES = {
    "missing": (None, ["train"], 1, "config file not found"),
    "not_json": ("{horizon: 2", ["train"], 2, "cannot parse config file"),
    "not_an_object": ("[1, 2]", ["train"], 2, "must hold a flat JSON object"),
    "train_task": ('{"task": "bogus"}', ["train", "--model", "tmf"], 1, "unknown task"),
    "train_model": ('{"model": "bogus"}', ["train", "--task", "forecast"], 1,
                    "unknown model kind"),
    "patience": ('{"patience": -1}', ["train", "--task", "forecast", "--model", "tmf"], 1,
                 "--patience must be non-negative"),
    "seed": ('{"seed": -5}', ["train", "--task", "forecast", "--model", "tmf"], 1,
             "--seed must be non-negative, got -5"),
    "workers": ('{"workers": 2}', ["train", "--task", "forecast", "--model", "tmf"], 1,
                "unknown config key 'workers'"),
    "val_frac_nan": ('{"val_frac": NaN}', ["train", "--task", "forecast", "--model", "tmf"], 2,
                     "split: fractions must be positive"),
    "evaluate_task": ('{"task": "bogus"}', ["evaluate", "--model", "models"], 1,
                      "unknown task"),
    "predict_task": ('{"task": "bogus"}', ["predict", "--model", "models"], 1,
                     "unknown task"),
}


@pytest.mark.parametrize("case", list(_BAD_CONFIG_FILES))
def test_bad_config_files_and_values_exit_with_their_codes(capsys, tmp_path, predict_setup,
                                                           case):
    data, _, _, models = predict_setup
    text, argv, want, message = _BAD_CONFIG_FILES[case]
    cfg_path = tmp_path / "run.json"
    if text is not None:
        cfg_path.write_text(text)
    argv = [models["forecast"] if a == "models" else a for a in argv]
    code, _, err = run(capsys, *argv, "--data", data, "--config", str(cfg_path),
                       "--out", str(tmp_path / "out.csv"))
    assert code == want, err
    assert message in err


def test_non_positive_size_flag_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "gen-data", "--out", str(tmp_path / "d.pots"),
                       "--n-samples", "0")
    assert code == 1
    assert "--n-samples must be positive, got 0" in err


def test_config_takes_integers_for_floats(capsys, tmp_path):
    data = gen(capsys, tmp_path, n=20)
    cfg_path = tmp_path / "typed.json"
    cfg_path.write_text(json.dumps({"task": "impute", "model": "mean", "data": data,
                                    "lr": 1, "missing_rate": 0,
                                    "epochs": 1, "batch_size": 8}))
    code, _, err = run(capsys, "train", "--config", str(cfg_path),
                       "--out", str(tmp_path / "m.pmdl"))
    assert code == 0, err


# ---------------------------------------------------------------------------
# artifacts that pass their checksum but do not fit their model kind

# per kind: the task it serves, a tensor and a hyperparameter to tamper with
_ARTIFACT_ENTRIES = {
    "locf": ("impute", "fallback_values", "n_features"),
    "mean": ("impute", "means", "n_features"),
    "saits_lite": ("impute", "b2_w_q", "d_model"),
    "grud_lite": ("classify", "u_c", "hidden_size"),
    "twostage_kmeans": ("cluster", "centroids", "n_features"),
    "tmf": ("forecast", "w", "n_series"),
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
@pytest.mark.parametrize("fault", ["missing_tensor", "wrong_shape", "non_finite_tensor",
                                   "missing_hyperparameter", "wrong_type"])
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
    elif fault == "non_finite_tensor":
        art.tensors[tensor].flat[-1] = np.nan
        entry = tensor
    elif fault == "wrong_type":
        # the same number, re-encoded under the float tag
        art.hyperparams[hyper] = float(art.hyperparams[hyper])
        entry = hyper
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


def _write_payload(path, payload):
    """A .pmdl file around payload, with its magic, version and a fresh CRC."""
    with open(path, "wb") as fh:
        fh.write(b"PMDL" + struct.pack("<H", VERSION) + payload
                 + struct.pack("<I", zlib.crc32(payload)))


def _locf_payload(paths):
    with open(paths["locf"], "rb") as fh:
        return fh.read()[6:-4]


def _with_tag(payload, tag):
    """The payload with the n_features hyperparameter's type tag replaced."""
    at = payload.index(b"n_features") + len(b"n_features")
    assert payload[at] == 1    # an int
    return payload[:at] + bytes([tag]) + payload[at + 1:]


def _with_dims(payload, dims):
    """The payload with the fallback_values tensor's rank and dims replaced."""
    at = payload.index(b"fallback_values") + len(b"fallback_values")
    assert payload[at] == 1    # one dim
    return (payload[:at] + struct.pack(f"<B{len(dims)}Q", len(dims), *dims)
            + payload[at + 9:])


_BAD_PAYLOADS = {
    "trailing_bytes": (lambda p: p + b"\x00\x00\x00", "3 trailing payload bytes"),
    "ends_early": (lambda p: p[:-5], "artifact payload ended early"),
    "retired_string_tag": (lambda p: _with_tag(p, 2), "unknown hyperparameter tag 2"),
    "retired_bool_tag": (lambda p: _with_tag(p, 3), "unknown hyperparameter tag 3"),
    "unknown_tag": (lambda p: _with_tag(p, 9), "unknown hyperparameter tag 9"),
    # no data, but more elements than numpy can index
    "impossible_shape": (lambda p: _with_dims(p, (0, 2**62)),
                         "tensor 'fallback_values' has a shape numpy cannot hold"),
}


@pytest.mark.parametrize("case", sorted(_BAD_PAYLOADS))
def test_artifact_payload_faults_under_a_valid_checksum_exit_two(
        capsys, tmp_path, trained_artifacts, case):
    data, paths = trained_artifacts
    edit, message = _BAD_PAYLOADS[case]
    tampered = str(tmp_path / "tampered.pmdl")
    _write_payload(tampered, edit(_locf_payload(paths)))
    code, _, err = run(capsys, "predict", "--task", "impute", "--model", tampered,
                       "--data", data, "--out", str(tmp_path / "out.csv"))
    assert code == 2, err
    assert message in err


@pytest.mark.parametrize("field", [b"locf", b"n_features", b"fallback_values"],
                         ids=["kind", "hyperparameter_key", "tensor_name"])
def test_a_string_field_that_is_not_utf8_exits_two(capsys, tmp_path, trained_artifacts, field):
    data, paths = trained_artifacts
    payload = bytearray(_locf_payload(paths))
    payload[payload.index(field)] = 0xFF
    tampered = str(tmp_path / "tampered.pmdl")
    _write_payload(tampered, bytes(payload))
    with pytest.raises(CorruptionError, match=f"{tampered}: the string at byte .* UTF-8"):
        load_model(tampered)
    for argv in (["inspect", tampered],
                 ["predict", "--task", "impute", "--model", tampered, "--data", data,
                  "--out", str(tmp_path / "out.csv")]):
        code, _, err = run(capsys, *argv)
        assert code == 2, err
        assert "is not valid UTF-8" in err


@pytest.mark.parametrize("kind, key", [("tmf", "lam_w"), ("saits_lite", "lam_mit"),
                                       ("twostage_kmeans", "tol")])
def test_load_refuses_a_float_hyperparameter_that_is_not_finite(
        capsys, tmp_path, trained_artifacts, kind, key):
    from potsmine.models import decode_artifact, encode_artifact
    data, paths = trained_artifacts
    art = decode_artifact(Path(paths[kind]).read_bytes())
    art.hyperparams[key] = float("nan")
    tampered = tmp_path / "tampered.pmdl"
    tampered.write_bytes(encode_artifact(art))    # a fresh, valid checksum
    with pytest.raises(InvalidInputError, match=f"got {key}=nan"):
        load_model(str(tampered))
    task = _ARTIFACT_ENTRIES[kind][0]
    code, _, err = run(capsys, "predict", "--task", task, "--model", str(tampered),
                       "--data", data, "--out", str(tmp_path / "out.csv"))
    assert code == 2, err
    assert f"got {key}=nan" in err


def test_two_stage_artifact_without_its_inner_model_exits_two(
        capsys, tmp_path, trained_artifacts):
    from potsmine.models import decode_artifact, encode_artifact
    data, paths = trained_artifacts
    with open(paths["twostage_kmeans"], "rb") as fh:
        art = decode_artifact(fh.read())
    art.inner = None
    tampered = str(tmp_path / "no_inner.pmdl")
    with open(tampered, "wb") as fh:
        fh.write(encode_artifact(art))
    code, _, err = run(capsys, "predict", "--task", "cluster", "--model", tampered,
                       "--data", data, "--out", str(tmp_path / "out.csv"))
    assert code == 2, err
    assert "missing its inner model" in err


# per case: the kind tampered with, its edit given the two-stage artifact, and a
# phrase of the refusal
_WHOLE_ARTIFACT_FAULTS = {
    "inner_model_in_locf": ("locf", lambda art, kmeans: setattr(art, "inner", kmeans.inner),
                            "locf artifact holds an inner model"),
    "kmeans_features_differ": ("twostage_kmeans",
                               lambda art, _: art.hyperparams.update(n_features=3),
                               "n_features 3 does not match the inner model's 2"),
}


@pytest.mark.parametrize("case", sorted(_WHOLE_ARTIFACT_FAULTS))
def test_artifact_inconsistent_with_its_inner_model_exits_two(
        capsys, tmp_path, trained_artifacts, case):
    from potsmine.models import decode_artifact, encode_artifact
    data, paths = trained_artifacts
    kind, edit, message = _WHOLE_ARTIFACT_FAULTS[case]
    with open(paths[kind], "rb") as fh:
        art = decode_artifact(fh.read())
    with open(paths["twostage_kmeans"], "rb") as fh:
        edit(art, decode_artifact(fh.read()))
    tampered = str(tmp_path / "tampered.pmdl")
    with open(tampered, "wb") as fh:
        fh.write(encode_artifact(art))
    task = _ARTIFACT_ENTRIES[kind][0]
    code, _, err = run(capsys, "predict", "--task", task, "--model", tampered,
                       "--data", data, "--out", str(tmp_path / "out.csv"))
    assert code == 2, err
    assert message in err


def test_string_hyperparameters_are_not_encoded():
    from potsmine.models import ModelArtifact, encode_artifact
    with pytest.raises(FormatError, match="unsupported type str"):
        encode_artifact(ModelArtifact(kind="locf", hyperparams={"name": "x"}))


def _huge_feature_zero(tmp_path) -> str:
    """A container whose feature 0 holds finite values near 1e307."""
    ds = generate_synthetic(20, 6, 2, 2, missing_rate=0.0, seed=1)
    block = ds.training_batch(range(len(ds)))
    block.values[:, :, 0] = 1e307 * (1.0 + np.abs(block.values[:, :, 0]))
    data = str(tmp_path / "huge.pots")
    write_container(PotsDataset(block), data)
    return data


def test_train_refuses_a_model_that_load_would_refuse(capsys, tmp_path):
    # feature 0's statistics overflow float64, which NormStats refuses as a
    # data error naming the feature, without a warning; train writes no model
    data = _huge_feature_zero(tmp_path)
    out = tmp_path / "mean.pmdl"
    code, _, err = run(capsys, "train", "--task", "impute", "--model", "mean",
                       "--data", data, "--out", str(out))
    assert code == 2, err
    assert "norm stats hold a non-finite value at feature 0" in err
    assert not out.exists()


# the test above covers the mean imputer
@pytest.mark.parametrize("kind", ["locf", "saits_lite", "grud_lite", "twostage_kmeans"])
def test_statistics_that_overflow_are_a_data_error_for_every_kind_that_computes_them(
        capsys, tmp_path, kind):
    data = _huge_feature_zero(tmp_path)
    out = tmp_path / "m.pmdl"
    code, _, err = run(capsys, "train", "--task", cli._MODEL_TASKS[kind], "--model", kind,
                       "--data", data, "--out", str(out), "--epochs", "1")
    assert code == 2, err
    assert "norm stats hold a non-finite value at feature 0" in err
    assert not out.exists()


def _squares_overflow_at_feature_zero(tmp_path) -> str:
    """A container whose feature 0 alternates between 1e160 and -1e160,
    with one cell at 3e160: its mean is finite and not 0, but its
    squares, and so its std, overflow."""
    ds = generate_synthetic(20, 6, 2, 2, missing_rate=0.0, seed=1)
    block = ds.training_batch(range(len(ds)))
    block.values[:, :, 0] = 1e160 * (-1.0) ** np.arange(6)
    block.values[0, 0, 0] = 3e160
    data = str(tmp_path / "squares.pots")
    write_container(PotsDataset(block), data)
    return data


@pytest.mark.parametrize("kind", ["mean", "locf"])
def test_mean_and_locf_fit_data_whose_std_overflows(capsys, tmp_path, kind):
    # they use the training mean alone, which stays finite
    data = _squares_overflow_at_feature_zero(tmp_path)
    out = tmp_path / "m.pmdl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "train", "--task", "impute", "--model", kind,
                           "--data", data, "--out", str(out))
    assert code == 0, err
    assert np.isfinite(load_model(str(out)).feature_values).all()


@pytest.mark.parametrize("kind", ["mean", "locf"])
def test_mean_and_locf_validation_mse_beyond_float64_is_a_data_error(capsys, tmp_path, kind):
    # at missing rate 0.2 the held-out cells of feature 0 are scored, and
    # their mean square exceeds float64: a data error, not a divergence
    data = _squares_overflow_at_feature_zero(tmp_path)
    out = tmp_path / "m.pmdl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "train", "--task", "impute", "--model", kind,
                           "--data", data, "--out", str(out), "--missing-rate", "0.2")
    assert code == 2, err
    assert "validation metric: the value exceeds the float64 range" in err
    assert not out.exists()


def test_two_stage_column_statistics_that_overflow_are_a_data_error(capsys, tmp_path):
    # the inner LOCF model fits; the flattened columns' std overflows
    data = _squares_overflow_at_feature_zero(tmp_path)
    out = tmp_path / "m.pmdl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "train", "--task", "cluster", "--model",
                           "twostage_kmeans", "--data", data, "--out", str(out))
    assert code == 2, err
    assert "norm stats hold a non-finite value at feature 0" in err
    assert not out.exists()


def test_tmf_on_data_near_the_float64_limit_is_a_data_error(capsys, tmp_path):
    # tmf computes no statistics that would refuse feature 0 first; its
    # factor updates overflow, and the non-finite objective names the feature
    ds = generate_synthetic(60, 16, 2, 2, missing_rate=0.1, seed=1)
    block = ds.training_batch(range(len(ds)))
    block.values[:, :, 0] = block.values[:, :, 0] * 1e306 + 5e306
    data = str(tmp_path / "huge.pots")
    write_container(PotsDataset(block), data)
    config = tmp_path / "tmf.json"
    config.write_text(json.dumps({"horizon": 2, "rank": 2, "iters": 3}))
    out = tmp_path / "m.pmdl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "train", "--task", "forecast", "--model", "tmf",
                           "--data", data, "--out", str(out), "--config", str(config),
                           "--seed", "1")
    assert code == 2, err
    assert "tmf: the objective of feature 0 is not finite after iteration 1" in err
    assert not out.exists()


def test_a_singular_tmf_system_is_a_data_error(capsys, tmp_path):
    # step 7 is observed in series 0 only; at this scale the 1e-10 ridge
    # floor vanishes in rounding, and without lam_f its F-step system is
    # singular
    ds = generate_synthetic(60, 16, 2, 2, missing_rate=0.0, seed=1)
    block = ds.training_batch(range(len(ds)))
    block.values[...] *= 1e4
    block.mask[1:, 7] = False
    block.values[1:, 7] = np.nan
    data = str(tmp_path / "data.pots")
    write_container(PotsDataset(block), data)
    config = tmp_path / "tmf.json"
    config.write_text(json.dumps({"lam_f": 0, "rank": 4, "iters": 5, "horizon": 2}))
    out = tmp_path / "m.pmdl"
    code, _, err = run(capsys, "train", "--task", "forecast", "--model", "tmf", "--data", data,
                       "--out", str(out), "--config", str(config), "--seed", "1")
    assert code == 2, err
    assert ("tmf: the F-step system of feature 0 at step 7 is singular; "
            "try a larger ridge weight lam_f") in err
    assert not out.exists()


def test_tmf_fits_a_step_before_ar_order_observed_in_one_series(capsys, tmp_path):
    # step 1 comes before ar_order (2), so it has no AR residual of its own;
    # the lam_f ridge on every step still makes its F-step system solvable
    ds = generate_synthetic(60, 16, 2, 2, missing_rate=0.0, seed=1)
    block = ds.training_batch(range(len(ds)))
    block.values[...] *= 1e4
    block.mask[1:, 1] = False
    block.values[1:, 1] = np.nan
    data = str(tmp_path / "data.pots")
    write_container(PotsDataset(block), data)
    config = tmp_path / "tmf.json"
    config.write_text(json.dumps({"rank": 4, "iters": 5, "horizon": 2}))
    out = tmp_path / "m.pmdl"
    code, _, err = run(capsys, "train", "--task", "forecast", "--model", "tmf", "--data", data,
                       "--out", str(out), "--config", str(config), "--seed", "1")
    assert code == 0, err
    assert out.exists()
