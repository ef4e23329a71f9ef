"""Clustering (k-means, two-stage) and forecasting (matrix factorization)."""

import tracemalloc

import numpy as np
import pytest

from potsmine import (
    LocfModel,
    MeanImputerModel,
    TmfModel,
    TrainConfig,
    TwoStageKMeansModel,
    cluster,
    fit as fit_model,
    forecast,
    generate_synthetic,
    impute,
    inject_mcar,
    kmeans_fit,
    tmf_fit,
    tmf_forecast,
)
from potsmine.core import Batch, NormStats
from potsmine.errors import InvalidInputError, ShapeError
from potsmine.models import clustering


# ---------------------------------------------------------------------------
# k-means

def two_groups(n_per=10, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.05, size=(n_per, 2))
    b = rng.normal(10.0, 0.05, size=(n_per, 2))
    return np.vstack([a, b])


def test_kmeans_separates_tight_groups():
    points = two_groups()
    for seed in range(4):
        centroids, labels = kmeans_fit(points, 2, seed=seed)
        assert len(set(labels[:10])) == 1
        assert len(set(labels[10:])) == 1
        assert labels[0] != labels[10]
        # nearest-centroid oracle
        dists = ((points[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        assert np.array_equal(labels, dists.argmin(axis=1))


def test_kmeans_k1_is_mean():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(12, 4))
    centroids, labels = kmeans_fit(points, 1, seed=0)
    assert np.abs(centroids[0] - points.mean(axis=0)).max() < 1e-12
    assert np.array_equal(labels, np.zeros(12, dtype=labels.dtype))


def test_kmeans_k_equals_n_zero_inertia():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(6, 3))
    centroids, labels = kmeans_fit(points, 6, seed=1)
    inertia = ((points - centroids[labels]) ** 2).sum()
    assert inertia == 0.0
    assert sorted(labels.tolist()) == list(range(6))


def test_kmeans_inertia_non_increasing():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(40, 5))
    for seed in range(3):
        history = []
        kmeans_fit(points, 4, seed=seed, history=history)
        assert len(history) >= 1
        for before, after in zip(history, history[1:]):
            assert after <= before + 1e-12


def test_kmeans_deterministic_and_validates():
    points = two_groups()
    a = kmeans_fit(points, 3, seed=9)
    b = kmeans_fit(points, 3, seed=9)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    with pytest.raises(InvalidInputError):
        kmeans_fit(points[:2], 3, seed=0)


def test_kmeans_reseeds_empty_cluster_on_degenerate_data():
    # two distinct points and k = 3: seeding must put two centroids on one
    # value, and the one that loses every tie is re-seeded to a data point
    points = np.array([[0.0], [0.0], [0.0], [0.0], [5.0], [5.0]])
    for seed in range(4):
        history = []
        centroids, labels = kmeans_fit(points, 3, seed=seed, history=history)
        assert sorted(centroids[:, 0].tolist()) == [0.0, 5.0, 5.0]
        assert len(history) == 2 and history[-1] == 0.0
        dists = ((points[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        assert np.array_equal(labels, dists.argmin(axis=1))


def test_chunked_distances_equal_broadcast(monkeypatch):
    rng = np.random.default_rng(4)
    points = rng.normal(size=(1003, 37))
    centroids = rng.normal(size=(7, 37))
    want = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    whole = kmeans_fit(points, 7, seed=2)
    # ten rows per chunk: 101 chunks, the last one ragged
    monkeypatch.setattr(clustering, "_DIST_CHUNK_BYTES", 8 * 7 * 37 * 10)
    assert np.array_equal(clustering._sq_dists(points, centroids), want)
    # the k-means++ seeding form, one centroid at a time
    assert np.array_equal(clustering._sq_dists(points, centroids[:1])[:, 0],
                          ((points - centroids[0]) ** 2).sum(axis=1))
    chunked = kmeans_fit(points, 7, seed=2)
    assert np.array_equal(chunked[0], whole[0])
    assert np.array_equal(chunked[1], whole[1])


def test_distance_memory_does_not_grow_with_n_times_k():
    # a broadcast (N, k, width) block would be 4000 * 10 * 384 * 8 B = 123 MB
    n, t, d, k = 4000, 48, 8, 10
    rng = np.random.default_rng(6)
    values = rng.normal(size=(n, t, d))
    batch = Batch(values=values, mask=np.ones((n, t, d)),
                  timestamps=np.tile(np.arange(t, dtype=np.float64), (n, 1)), labels=None)
    model = TwoStageKMeansModel(inner=LocfModel(n_features=d), k=k)
    model.n_steps = t
    model.centroids = rng.normal(size=(k, t * d))
    model.feat_stats = NormStats(np.zeros(t * d), np.ones(t * d))
    points = values.reshape(n, -1)
    tracemalloc.start()
    try:
        labels = model.assign_batch(batch)
        assign_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        kmeans_fit(points, k, seed=0, max_iters=3)
        fit_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.shape == (n,)
    # assign_batch also holds the imputed and standardized copies (~12 MB each)
    assert assign_peak < 64e6
    assert fit_peak < 32e6


# ---------------------------------------------------------------------------
# two-stage clustering

def clustered_view(seed=0):
    ds = generate_synthetic(24, 8, 2, 3, missing_rate=0.1, seed=seed)
    return ds, inject_mcar(ds, 0.1, seed=seed + 1)


def test_cluster_training_set_consistency():
    ds, view = clustered_view()
    model = TwoStageKMeansModel(inner=LocfModel(n_features=2), k=3)
    fit_model(model, view, view, TrainConfig(seed=7))
    labels = cluster(model, view.corrupted)
    # recompute the assignment from scratch through the same pipeline
    flat = impute(model.inner_model, view.corrupted).reshape(24, -1)
    std = (flat - model.feat_stats.mean) / model.feat_stats.std
    dists = ((std[:, None, :] - model.centroids[None]) ** 2).sum(axis=2)
    assert np.array_equal(labels, dists.argmin(axis=1))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-6])
def test_two_stage_refuses_a_tolerance_that_is_negative_or_not_finite(tol):
    with pytest.raises(InvalidInputError, match=f"tol must be non-negative and finite, got tol={tol}"):
        TwoStageKMeansModel(inner=LocfModel(n_features=2), k=2, tol=tol)


def test_cluster_duplicates_get_same_label():
    ds, view = clustered_view(seed=3)
    model = TwoStageKMeansModel(inner=MeanImputerModel(n_features=2), k=2)
    fit_model(model, view, view, TrainConfig(seed=1))
    base = view.corrupted
    doubled = type(base)(list(base.samples) + list(base.samples))
    labels = cluster(model, doubled)
    assert np.array_equal(labels[:24], labels[24:])


def test_cluster_requires_enough_samples():
    ds = generate_synthetic(2, 6, 2, 2, missing_rate=0.0, seed=0)
    model = TwoStageKMeansModel(inner=LocfModel(n_features=2), k=5)
    with pytest.raises(InvalidInputError):
        fit_model(model, ds, ds, TrainConfig(seed=0))


def test_two_stage_rejects_non_imputer_inner():
    with pytest.raises(InvalidInputError):
        TwoStageKMeansModel(inner="locf", k=2)


@pytest.mark.parametrize("sizes, message", [
    ({"n_steps": -1}, "n_steps must be non-negative, got -1"),
    ({"n_features": 3}, "n_features 3 does not match the inner model's 2"),
])
def test_two_stage_refuses_stored_sizes_that_do_not_fit(sizes, message):
    with pytest.raises(InvalidInputError, match=message):
        TwoStageKMeansModel(inner=LocfModel(n_features=2), k=2, **sizes)


def test_kmeans_and_two_stage_refusals():
    with pytest.raises(ShapeError, match="rank 2"):
        kmeans_fit(np.zeros(4), 2, seed=0)
    with pytest.raises(InvalidInputError, match="k must be positive"):
        kmeans_fit(np.zeros((4, 2)), 0, seed=0)
    with pytest.raises(InvalidInputError, match="k must be positive"):
        TwoStageKMeansModel(inner=LocfModel(n_features=2), k=0)
    _, view = clustered_view()
    model = TwoStageKMeansModel(inner=LocfModel(n_features=2), k=3)
    fit_model(model, view, view, TrainConfig(seed=7))
    shorter = generate_synthetic(4, 6, 2, 3, missing_rate=0.0, seed=0)
    with pytest.raises(ShapeError, match="flattened width 12"):
        model.assign_batch(shorter.training_batch(range(4)))


# ---------------------------------------------------------------------------
# temporal matrix factorization

def rank_one_series(n=6, t=30, coeff=0.9, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(1.0, 0.3, size=(n, 1))
    f = np.empty((t, 1))
    f[0] = 1.0
    for i in range(1, t):
        f[i] = coeff * f[i - 1]
    return w @ f.T, w, f


def test_tmf_recovers_noiseless_rank_one():
    y, _, _ = rank_one_series()
    mask = np.ones_like(y)
    model = tmf_fit(y, mask, rank=1, ar_order=1, lam_w=1e-8, lam_f=1e-8,
                    lam_a=1e-8, iters=60, seed=0)
    recon = model.reconstruct()[:, :, 0]
    rmse = np.sqrt(((recon - y) ** 2).mean())
    assert rmse < 1e-6


def test_tmf_held_out_cells_recovered():
    y, _, _ = rank_one_series(n=8, t=40, seed=2)
    rng = np.random.default_rng(5)
    mask = np.ones_like(y)
    hidden = rng.random(y.shape) < 0.3
    # keep every row and column observable
    hidden[:, 0] = False
    hidden[0, :] = False
    mask[hidden] = 0.0
    model = tmf_fit(y, mask, rank=1, ar_order=1, lam_w=1e-8, lam_f=1e-8,
                    lam_a=1e-8, iters=80, seed=1)
    recon = model.reconstruct()[:, :, 0]
    rmse = np.sqrt(((recon[hidden] - y[hidden]) ** 2).mean())
    assert rmse < 1e-3


def test_tmf_objective_monotone():
    rng = np.random.default_rng(11)
    y = rng.normal(size=(7, 25))
    mask = (rng.random(y.shape) < 0.8).astype(float)
    mask[:, 0] = 1.0
    mask[0, :] = 1.0
    model = tmf_fit(y, mask, rank=3, ar_order=2, iters=25, seed=4)
    history = model.objective_history[0]
    assert len(history) == 25
    for before, after in zip(history, history[1:]):
        assert after <= before * (1 + 1e-9) + 1e-12


def test_tmf_rejects_empty_rows_and_columns():
    y = np.ones((3, 5))
    mask = np.ones((3, 5))
    mask[1, :] = 0.0
    with pytest.raises(InvalidInputError, match="row 1"):
        tmf_fit(y, mask, rank=1)
    mask = np.ones((3, 5))
    mask[:, 2] = 0.0
    with pytest.raises(InvalidInputError, match="column 2"):
        tmf_fit(y, mask, rank=1)


@pytest.mark.parametrize("settings, message", [
    ({"rank": 0}, "rank must be positive, got 0"),
    ({"ar_order": 0}, r"ar_order must be in \[1, n_steps\), got 0 with 4 steps"),
    ({"ar_order": 4}, r"ar_order must be in \[1, n_steps\), got 4 with 4 steps"),
    ({"lam_w": -0.1}, "ridge weights must be non-negative"),
    ({"lam_f": -0.1}, "ridge weights must be non-negative"),
    ({"lam_a": -0.1}, "ridge weights must be non-negative"),
    ({"iters": 0}, "iters must be positive, got 0"),
    ({"n_series": -1}, "n_series must be non-negative, got -1"),
    ({"lam_w": float("nan")}, "ridge weights must be non-negative and finite, got lam_w=nan"),
    ({"lam_f": float("inf")}, "ridge weights must be non-negative and finite, got lam_f=inf"),
    ({"lam_a": float("nan")}, "ridge weights must be non-negative and finite, got lam_a=nan"),
])
def test_tmf_refuses_bad_settings(settings, message):
    with pytest.raises(InvalidInputError, match=message):
        TmfModel(n_steps=4, n_features=1, **settings)


def test_tmf_fit_refuses_mismatched_shapes():
    with pytest.raises(ShapeError, match="must be matching rank-2 arrays"):
        tmf_fit(np.ones((3, 5)), np.ones((3, 4)), rank=1)
    with pytest.raises(ShapeError, match="must be matching rank-2 arrays"):
        tmf_fit(np.ones(5), np.ones(5), rank=1)


def test_tmf_forecast_of_an_unfitted_model_is_refused():
    with pytest.raises(InvalidInputError, match="model has not been fit"):
        tmf_forecast(TmfModel(n_steps=4, n_features=1), horizon=1)


def fabricate_rank_one_model(coeff=0.9, w_value=2.0):
    model = TmfModel(n_steps=4, n_features=1, rank=1, ar_order=1)
    model.n_series = 1
    model.w_list = [np.array([[w_value]])]
    # factor sequence ending at f_T = 1
    model.f_list = [np.array([[coeff ** 3], [coeff ** 2], [coeff], [1.0]])]
    model.a_list = [np.array([[coeff]])]
    return model


def test_tmf_forecast_one_step_arithmetic():
    model = fabricate_rank_one_model()
    out = tmf_forecast(model, horizon=1)
    assert out.shape == (1, 1, 1)
    assert abs(out[0, 0, 0] - 1.8) < 1e-15


def test_tmf_forecast_rejects_zero_horizon():
    model = fabricate_rank_one_model()
    with pytest.raises(InvalidInputError):
        tmf_forecast(model, horizon=0)


def test_tmf_forecast_zero_coefficients_give_zero():
    model = fabricate_rank_one_model()
    model.a_list = [np.zeros((1, 1))]
    out = tmf_forecast(model, horizon=4)
    assert np.array_equal(out, np.zeros((1, 4, 1)))


def test_tmf_forecast_linear_in_w():
    y, _, _ = rank_one_series(n=5, t=20, seed=7)
    mask = np.ones_like(y)
    model = tmf_fit(y, mask, rank=2, ar_order=2, iters=10, seed=2)
    base = tmf_forecast(model, horizon=3)
    # power-of-two scale keeps every float product exact
    model.w_list = [2.0 * model.w_list[0]]
    doubled = tmf_forecast(model, horizon=3)
    assert np.array_equal(doubled, 2.0 * base)
    model.w_list = [1.5 * model.w_list[0]]
    scaled = tmf_forecast(model, horizon=3)
    assert np.allclose(scaled, 3.0 * base, rtol=1e-13, atol=0.0)


def test_tmf_task_forecast_finite_and_shaped():
    ds = generate_synthetic(5, 12, 2, 2, missing_rate=0.2, seed=9)
    view = inject_mcar(ds, 0.1, seed=10)
    model = TmfModel(n_steps=12, n_features=2, rank=2, iters=8)
    fit_model(model, view, view, TrainConfig(seed=3))
    out = forecast(model, view.corrupted, horizon=4)
    assert out.shape == (5, 4, 2)
    assert np.isfinite(out).all()
