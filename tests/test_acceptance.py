"""Acceptance gate: ten checks, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import time
import zlib

import numpy as np
import pytest

from potsmine import (
    GrudLiteModel,
    LocfModel,
    MeanImputerModel,
    PotsDataset,
    SaitsLiteModel,
    TmfModel,
    TrainConfig,
    TwoStageKMeansModel,
    binary_classification_metrics,
    classify,
    cluster,
    fetch_all,
    fetch_batch,
    fit as fit_model,
    forecast,
    generate_synthetic,
    impute,
    inject_mcar,
    lazy_dataset,
    load_model,
    masked_mae,
    open_readonly,
    rand_index,
    run_election,
    save_model,
    split,
    stack_samples,
    tmf_fit,
    tmf_forecast,
    write_container,
)
from potsmine import tensor as T


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------

def test_c01_gradient_correctness():
    t0 = time.time()
    worst = 0.0

    # every builder freezes its random constants per trial so the probe
    # differentiates one fixed function of x
    def loss(t):
        return t if t.data.ndim == 0 else T.reduce_sum(t)

    def weighted(op, x_shape=(3, 4), w_shape=None):
        def build(rng):
            x = rng.normal(size=x_shape)
            w = T.constant(rng.normal(size=w_shape or x_shape))
            return (lambda t: loss(T.mul(op(t), w))), x
        return build

    def binary(op, other_shape, x_shape=(3, 4)):
        def build(rng):
            x = rng.normal(size=x_shape)
            c = T.constant(rng.normal(size=other_shape))
            return (lambda t: loss(op(t, c))), x
        return build

    def elementwise(op, sampler=None):
        def build(rng):
            x = sampler(rng) if sampler else rng.normal(size=(3, 3))
            return (lambda t: loss(op(t))), x
        return build

    def masked_mse_case(rng):
        target = T.constant(rng.normal(size=(4, 4)))
        mask = np.triu(np.ones((4, 4)))
        return (lambda t: T.masked_mse(t, target, mask)), rng.normal(size=(4, 4))

    def cross_entropy_case(rng):
        labels = rng.integers(0, 4, size=4)
        return (lambda t: T.cross_entropy_with_logits(t, labels)), \
            rng.normal(size=(4, 4))

    op_cases = [
        ("add", binary(T.add, (3, 4))),
        ("add_suffix", binary(T.add, (4,))),
        ("sub", binary(lambda t, c: T.sub(c, t), (3, 4))),
        ("mul", binary(T.mul, (3, 4))),
        ("matmul", binary(T.matmul, (4, 2))),
        ("matmul_batched", binary(T.matmul, (4, 3), x_shape=(2, 3, 4))),
        ("transpose", weighted(T.transpose, (3, 4), (4, 3))),
        ("sigmoid", elementwise(T.sigmoid)),
        ("tanh", elementwise(T.tanh)),
        ("relu", elementwise(T.relu, lambda rng: (lambda v: v + np.sign(v) * 0.2)(
            rng.normal(size=(3, 3))))),
        ("exp", elementwise(T.exp)),
        ("log", elementwise(T.log, lambda rng: rng.random((3, 3)) + 0.5)),
        ("softmax", weighted(T.softmax)),
        ("concat", weighted(lambda t: T.slice_axis(T.concat([t, t]), 1, 0, 4),
                            (3, 2), (3, 4))),
        ("slice", weighted(lambda t: T.slice_axis(t, 1, 1, 3), (3, 4), (3, 2))),
        ("reduce_sum", elementwise(lambda t: T.reduce_sum(T.mul(t, t)))),
        ("reduce_mean", elementwise(lambda t: T.reduce_mean(T.mul(t, t)))),
        ("reshape", weighted(lambda t: T.reshape(t, (4, 3)), (3, 4), (4, 3))),
        ("masked_fill", weighted(lambda t: T.masked_fill(t, np.eye(4), 1.5),
                                 (4, 4))),
        ("masked_mse", masked_mse_case),
        ("cross_entropy", cross_entropy_case),
    ]
    for name, build in op_cases:
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(10):
            f, x = build(rng)
            worst = max(worst, T.grad_check(f, x))

    # full SAITS-lite loss through the two-block network
    saits = SaitsLiteModel(n_steps=3, n_features=2, d_model=4, d_ff=6, init_seed=1)
    ds = generate_synthetic(2, 3, 2, 2, missing_rate=0.0, seed=2)
    view = inject_mcar(ds, 0.3, seed=3)
    saits.prepare_fit(view)
    batch = view.training_batch([0, 1])
    consts = {k: T.constant(v) for k, v in saits.parameters.items()}
    for name, value in saits.parameters.items():
        err = T.grad_check(
            lambda t: saits.batch_loss_sum({**consts, name: t}, batch), value, h=1e-6)
        worst = max(worst, err)

    # full GRU-D-lite loss through the unrolled recurrence (2 samples, T=4, D=2, H=3)
    grud = GrudLiteModel(n_steps=4, n_features=2, n_classes=2, hidden_size=3,
                         init_seed=4)
    cls_ds = generate_synthetic(2, 4, 2, 2, 0.25, seed=5)
    grud.prepare_fit(cls_ds)
    # the untrained readout is zero, which zeroes every recurrent gradient
    w_out = grud.parameters["w_out"]
    w_out[:] = np.random.default_rng(4).normal(size=w_out.shape)
    cls_batch = stack_samples(cls_ds.samples)
    gconsts = {k: T.constant(v) for k, v in grud.parameters.items()}
    for name, value in grud.parameters.items():
        err = T.grad_check(
            lambda t: grud.batch_loss_sum({**gconsts, name: t}, cls_batch), value,
            h=1e-6)
        worst = max(worst, err)

    elapsed = time.time() - t0
    report(1, worst < 1e-4 and elapsed < 60.0,
           f"max relative gradient error {worst:.2e} (< 1e-4), {elapsed:.1f}s (< 60s)")


def test_c02_lazy_backend_equivalence(tmp_path):
    ds = generate_synthetic(100, 12, 3, 2, missing_rate=0.2, seed=21)
    path = str(tmp_path / "small.pots")
    write_container(ds, path)

    mismatch = []
    for build in (lambda: MeanImputerModel(n_features=3),
                  lambda: SaitsLiteModel(n_steps=12, n_features=3, d_model=8,
                                         d_ff=12, init_seed=2)):
        cfg = TrainConfig(epochs=2, batch_size=16, seed=6, workers=1)
        in_memory = build()
        fit_model(in_memory, ds, ds, cfg)
        with open_readonly(path) as handle:
            lazy = build()
            fit_model(lazy, lazy_dataset(handle), lazy_dataset(handle), cfg)
        for name, arr in in_memory.tensors().items():
            if not np.array_equal(arr, lazy.tensors()[name]):
                mismatch.append(f"{in_memory.kind}.{name}")

    big = generate_synthetic(10000, 12, 3, 2, missing_rate=0.2, seed=21)
    big_path = str(tmp_path / "big.pots")
    write_container(big, big_path)
    probe = [0, 57, 99]
    with open_readonly(path) as hs, open_readonly(big_path) as hb:
        fetch_batch(hs, probe)
        fetch_batch(hb, probe)
        reads = (hs.payload_bytes_read, hb.payload_bytes_read)

    ok = not mismatch and reads[0] == reads[1]
    report(2, ok,
           f"bitwise parameters mean+saits_lite (mismatches: {mismatch or 'none'}); "
           f"payload bytes per 3-record fetch equal at n=100 and n=10000 "
           f"({reads[0]} vs {reads[1]})")


def test_c03_serialization_round_trips(tmp_path):
    ds = generate_synthetic(20, 8, 2, 2, missing_rate=0.1, seed=31)
    view = inject_mcar(ds, 0.2, seed=32)
    probe = generate_synthetic(6, 8, 2, 2, missing_rate=0.25, seed=33)
    cfg = TrainConfig(epochs=1, batch_size=8, seed=1)

    failures = []

    def check(kind, model, run):
        fit_model(model, view if kind != "grud_lite" else ds,
                  view if kind != "grud_lite" else ds, cfg)
        path = str(tmp_path / f"{kind}.pmdl")
        save_model(model, path)
        loaded = load_model(path)
        if not np.array_equal(run(model), run(loaded)):
            failures.append(kind)

    check("locf", LocfModel(n_features=2), lambda m: impute(m, probe))
    check("mean", MeanImputerModel(n_features=2), lambda m: impute(m, probe))
    check("saits_lite",
          SaitsLiteModel(n_steps=8, n_features=2, d_model=8, d_ff=12, init_seed=3),
          lambda m: impute(m, probe))
    check("grud_lite",
          GrudLiteModel(n_steps=8, n_features=2, n_classes=2, hidden_size=6,
                        init_seed=3),
          lambda m: classify(m, probe))
    check("twostage_kmeans",
          TwoStageKMeansModel(inner=LocfModel(n_features=2), k=3),
          lambda m: cluster(m, probe))
    check("tmf", TmfModel(n_steps=8, n_features=2, rank=2, iters=6),
          lambda m: forecast(m, probe, horizon=2))

    report(3, not failures,
           f"bitwise task outputs after load(save(m)) for all 6 kinds "
           f"(failures: {failures or 'none'})")


def test_c04_imputation_benchmark():
    t0 = time.time()
    ds = generate_synthetic(500, 24, 5, 2, missing_rate=0.0, seed=42)
    train, val, test = split(ds, (0.8, 0.1, 0.1), seed=42)
    train_view = inject_mcar(train, 0.2, seed=43)
    val_view = inject_mcar(val, 0.2, seed=44)
    test_view = inject_mcar(test, 0.2, seed=45)
    batch = fetch_all(test_view)

    def held_out_mae(model):
        filled = impute(model, test_view)
        return masked_mae(filled, batch.originals, batch.indicating)

    locf = LocfModel(n_features=5)
    fit_model(locf, train_view, val_view, TrainConfig(seed=42))
    mean = MeanImputerModel(n_features=5)
    fit_model(mean, train_view, val_view, TrainConfig(seed=42))
    saits = SaitsLiteModel(n_steps=24, n_features=5, init_seed=42)
    fit_model(saits, train_view, val_view,
              TrainConfig(epochs=10, batch_size=32, learning_rate=1e-3, seed=42))

    mae_locf, mae_mean, mae_saits = (held_out_mae(m) for m in (locf, mean, saits))
    elapsed = time.time() - t0
    ok = (mae_saits <= 0.95 * mae_locf and mae_saits <= 0.95 * mae_mean
          and elapsed < 600.0)
    report(4, ok,
           f"masked MAE saits {mae_saits:.4f} vs locf {mae_locf:.4f} and mean "
           f"{mae_mean:.4f} (>=5% better than both), {elapsed:.1f}s (< 600s)")


def test_c05_classification_benchmark():
    t0 = time.time()
    ds = generate_synthetic(300, 24, 5, 2, missing_rate=0.2, seed=7)
    train, val, test = split(ds, (0.8, 0.1, 0.1), seed=7)
    model = GrudLiteModel(n_steps=24, n_features=5, n_classes=2, hidden_size=32,
                          init_seed=7)
    fit_model(model, train, val,
              TrainConfig(epochs=8, batch_size=32, learning_rate=1e-2, seed=7,
                          selection_metric="val_accuracy"))
    probs = classify(model, test)
    labels = np.array([s.label for s in test.samples])
    accuracy = float((probs.argmax(axis=1) == labels).mean())
    auc = binary_classification_metrics(probs[:, 1], labels).roc_auc
    elapsed = time.time() - t0
    ok = accuracy >= 0.90 and auc >= 0.95 and elapsed < 600.0
    report(5, ok,
           f"accuracy {accuracy:.3f} (>= 0.90), roc_auc {auc:.3f} (>= 0.95), "
           f"{elapsed:.1f}s (< 600s)")


def test_c06_clustering_benchmark():
    ds = generate_synthetic(150, 24, 5, 3, missing_rate=0.1, seed=11)
    view = inject_mcar(ds, 0.0, seed=12)
    model = TwoStageKMeansModel(inner=LocfModel(n_features=5), k=3)
    fit_model(model, view, view, TrainConfig(seed=11))
    labels = cluster(model, ds)
    truth = np.array([s.label for s in ds.samples])
    score = rand_index(labels, truth)
    report(6, score >= 0.95, f"rand index {score:.3f} (>= 0.95)")


def test_c07_forecasting_benchmark():
    rng = np.random.default_rng(71)
    w_true = rng.normal(1.0, 0.3, size=(8, 1))
    f_true = np.empty((40, 1))
    f_true[0] = 1.0
    for i in range(1, 40):
        f_true[i] = 0.9 * f_true[i - 1]
    y = w_true @ f_true.T

    hidden = rng.random(y.shape) < 0.3
    hidden[:, 0] = False
    hidden[0, :] = False
    mask = np.where(hidden, 0.0, 1.0)
    held = tmf_fit(y, mask, rank=1, ar_order=1, lam_w=1e-8, lam_f=1e-8,
                   lam_a=1e-8, iters=80, seed=1)
    recon = held.reconstruct()[:, :, 0]
    rmse = float(np.sqrt(((recon[hidden] - y[hidden]) ** 2).mean()))

    full = tmf_fit(y, np.ones_like(y), rank=1, ar_order=1, lam_w=1e-8,
                   lam_f=1e-8, lam_a=1e-8, iters=60, seed=2)
    pred = tmf_forecast(full, horizon=1)[:, 0, 0]
    w, f, a = full.w_list[0], full.f_list[0], full.a_list[0]
    analytic = w[:, 0] * (a[0, 0] * f[-1, 0])
    gap = float(np.abs(pred - analytic).max())

    ok = rmse < 1e-3 and gap < 1e-6
    report(7, ok,
           f"held-out RMSE {rmse:.2e} (< 1e-3); one-step forecast vs analytic "
           f"rollout gap {gap:.2e} (< 1e-6)")


def test_c08_metric_oracles():
    rng = np.random.default_rng(99)
    worst_auc = 0.0
    count_mismatch = 0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[int(rng.integers(n))] = 1 - labels[0]
        got = binary_classification_metrics(scores, labels, threshold=0.5)
        pred = (scores >= 0.5).astype(int)
        want = (int(((pred == 1) & (labels == 1)).sum()),
                int(((pred == 1) & (labels == 0)).sum()),
                int(((pred == 0) & (labels == 0)).sum()),
                int(((pred == 0) & (labels == 1)).sum()))
        if (got.tp, got.fp, got.tn, got.fn) != want:
            count_mismatch += 1
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        worst_auc = max(worst_auc,
                        abs(got.roc_auc - wins / (pos.size * neg.size)))
    ok = count_mismatch == 0 and worst_auc < 1e-12
    report(8, ok,
           f"100 instances: confusion mismatches {count_mismatch} (exact), "
           f"max AUC gap {worst_auc:.2e} (< 1e-12)")


def test_c09_election_rules():
    basic = run_election([3.0, 1.0, 2.0])
    patient = run_election([3.0, 2.0, 2.5], patience=1)
    ok = (basic.best_epoch == 2 and patient.best_epoch == 2
          and patient.stopped_after == 3)
    report(9, ok,
           f"[3,1,2] elects epoch {basic.best_epoch} (want 2); patience 1 on "
           f"[3,2,2.5] stops after epoch {patient.stopped_after} (want 3)")


def test_c10_parallel_shard_contract():
    ds = generate_synthetic(32, 12, 3, 2, missing_rate=0.1, seed=101)
    view = inject_mcar(ds, 0.2, seed=102)
    model = SaitsLiteModel(n_steps=12, n_features=3, d_model=16, d_ff=24,
                           init_seed=5)
    model.prepare_fit(view)
    idx = np.arange(32)
    _, whole = model.shard_loss_and_grads(view, idx)
    shards = np.array_split(idx, 2)
    parts = [model.shard_loss_and_grads(view, s)[1] for s in shards]
    worst = 0.0
    for name, grad in whole.items():
        merged = parts[0][name] + parts[1][name]
        denom = max(float(np.abs(grad).max()), 1e-30)
        worst = max(worst, float(np.abs(merged - grad).max()) / denom)
    report(10, worst < 1e-9,
           f"workers=2 shard-gradient sum vs single-tape gradient: max relative "
           f"gap {worst:.2e} (< 1e-9)")
