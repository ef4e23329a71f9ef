"""Clustering (k-means, two-stage) and forecasting (matrix factorization)."""

import tracemalloc
import warnings

import numpy as np
import pytest

from potsmine import (
    LocfModel,
    MeanImputerModel,
    PotsDataset,
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
    split,
    tmf_fit,
    tmf_forecast,
)
from potsmine.core import Batch, NormStats
from potsmine.errors import InvalidInputError, ShapeError
from potsmine.models import clustering, forecasting
from potsmine.models.base import imputer_validation_metric


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


def test_two_stage_refuses_column_statistics_that_overflow_without_a_warning():
    # the mean imputer fits feature 0 at +-1e160, whose columns' squares overflow
    ds = generate_synthetic(20, 6, 2, 2, missing_rate=0.0, seed=1)
    block = ds.training_batch(range(len(ds)))
    block.values[:, :, 0] = 1e160 * (-1.0) ** np.arange(20)[:, None]
    model = TwoStageKMeansModel(MeanImputerModel(2), k=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="non-finite value at feature 0 "):
            fit_model(model, PotsDataset(block), PotsDataset(block), TrainConfig(seed=1))
    assert np.isfinite(model.inner_model.feature_values).all()


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
    # no Lloyd iteration would leave the k-means++ seeds as the centroids
    with pytest.raises(InvalidInputError, match="max_iters must be positive, got 0"):
        kmeans_fit(np.zeros((4, 2)), 2, seed=0, max_iters=0)
    with pytest.raises(InvalidInputError, match="max_iters must be positive, got -3"):
        TwoStageKMeansModel(inner=LocfModel(n_features=2), k=2, max_iters=-3)
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


def _counting_objective(monkeypatch):
    """Route forecasting._objective through a wrapper; returns its call list."""
    calls = []
    direct = forecasting._objective

    def counted(*args):
        calls.append(args)
        return direct(*args)

    monkeypatch.setattr(forecasting, "_objective", counted)
    return calls


def test_tmf_objective_from_gram_sums_equals_the_residual_sum(monkeypatch):
    batch = generate_synthetic(50, 20, 3, 2, missing_rate=0.2, seed=5).training_batch(range(50))
    yz, obs = forecasting._feature_stacks(batch.values, batch.mask)
    lam = dict(lam_w=0.1, lam_f=0.3, lam_a=0.05)
    calls = _counting_objective(monkeypatch)
    w, f, a, history = forecasting._tmf_core(yz, obs, rank=3, ar_order=2, iters=8, seed=2,
                                             **lam)
    # noisy data never reaches the guard: every entry comes from the Gram sums
    assert calls == []
    direct = forecasting._objective(yz, obs, w, f, a, *(v + forecasting._RIDGE_FLOOR
                                                        for v in lam.values()))
    last = np.array([h[-1] for h in history])
    assert np.abs(last - direct).max() <= 1e-10 * np.abs(direct).max()


def test_tmf_objective_of_an_exact_fit_is_summed_from_the_residual(monkeypatch):
    # an exactly rank-2 matrix: the data term cancels in the Gram form
    rng = np.random.default_rng(0)
    steps = np.arange(40)
    y = rng.normal(size=(30, 2)) @ np.stack([np.sin(0.3 * steps), np.cos(0.2 * steps)])
    mask = (rng.random(y.shape) < 0.8).astype(float)
    mask[:, 0] = 1.0
    mask[0, :] = 1.0
    calls = _counting_objective(monkeypatch)
    model = tmf_fit(y, mask, rank=2, ar_order=2, lam_w=1e-6, lam_f=1e-6, lam_a=1e-6,
                    iters=30, seed=1)
    assert 0 < len(calls) < 30
    lam = 1e-6 + forecasting._RIDGE_FLOOR
    direct = forecasting._objective(*forecasting._feature_stacks(y[:, :, None], mask[:, :, None]),
                                    model.w_list, model.f_list, model.a_list, lam, lam, lam)
    assert abs(model.objective_history[0][-1] - direct[0]) <= 1e-12 * direct[0]


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


def _observed_once(step):
    """A 1e4-scale (60, 16) matrix whose step is observed in series 0
    only; at this scale the 1e-10 ridge floor vanishes in rounding."""
    y = generate_synthetic(60, 16, 1, 2, missing_rate=0.0, seed=1).training_batch(
        range(60)).values[:, :, 0] * 1e4
    mask = np.ones_like(y)
    mask[1:, step] = 0.0
    return y, mask


@pytest.mark.parametrize("step, lam_f, remedy", [
    (7, 0.0, "try a larger ridge weight lam_f"),
    # a step before ar_order (2) has no AR residual, but carries the lam_f ridge
    (1, 0.0, "try a larger ridge weight lam_f"),
])
def test_tmf_fit_refuses_a_singular_f_step_system(step, lam_f, remedy):
    with pytest.raises(InvalidInputError,
                       match=f"F-step system of feature 0 at step {step} is singular; {remedy}"):
        tmf_fit(*_observed_once(step), rank=4, lam_f=lam_f, iters=5, seed=1)


def test_tmf_fit_solves_a_step_observed_once_with_lam_f():
    model = tmf_fit(*_observed_once(7), rank=4, lam_f=0.1, iters=5, seed=1)
    assert np.isfinite(model.reconstruct()).all()
    # the ridge reaches a step before ar_order too
    for lam_f in (0.1, 10.0):
        model = tmf_fit(*_observed_once(1), rank=4, lam_f=lam_f, iters=5, seed=1)
        assert np.isfinite(model.reconstruct()).all()


def test_tmf_checkpoint_metric_scores_row_fits_with_the_imputer_scorer():
    train, val, _ = split(generate_synthetic(40, 16, 2, 2, missing_rate=0.2, seed=3),
                          (0.7, 0.15, 0.15), seed=1)
    model, checkpoint = fit_model(TmfModel(n_steps=16, n_features=2, rank=3, iters=4),
                                  train, val, TrainConfig(seed=2))

    def row_fit(batch):
        w = forecasting._estimate_w(*forecasting._feature_stacks(batch.values, batch.mask),
                                    model.f_list, model.lam_w + forecasting._RIDGE_FLOOR)
        return np.einsum("dnr,dtr->ntd", w, model.f_list)

    assert checkpoint.metric == imputer_validation_metric(row_fit, val) > 0


def _near_the_float64_limit(n_features):
    """(D, N, T) stacks of 60 x 16 series whose last feature sits near 5e306."""
    batch = generate_synthetic(60, 16, n_features, 2, missing_rate=0.1, seed=1).training_batch(
        range(60))
    batch.values[:, :, -1] = batch.values[:, :, -1] * 1e306 + 5e306
    return forecasting._feature_stacks(batch.values, batch.mask)


def test_tmf_fit_refuses_values_near_the_float64_limit_without_a_warning():
    # the factor updates overflow; the suite turns any RuntimeWarning into an error
    yz, obs = _near_the_float64_limit(1)
    with pytest.raises(InvalidInputError, match="objective of feature 0 is not finite after "
                                                "iteration 1; its values are too large"):
        tmf_fit(yz[0], obs[0], rank=2, iters=3, seed=1)
    # stacked, the error names the feature whose objective overflowed
    with pytest.raises(InvalidInputError, match="objective of feature 1 is not finite"):
        forecasting._tmf_core(*_near_the_float64_limit(2), rank=2, ar_order=2, lam_w=0.1,
                              lam_f=0.1, lam_a=0.1, iters=3, seed=1)


def test_a_singular_w_step_system_names_its_feature():
    # feature 1's series 2 has no observation, and no ridge weight remains
    f = np.ones((2, 4, 1))
    obs = np.ones((2, 3, 4))
    obs[1, 2] = 0.0
    with pytest.raises(InvalidInputError,
                       match="W-step system of feature 1 is singular; .* lam_w$"):
        forecasting._estimate_w(np.zeros_like(obs), obs, f, 0.0)


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
    # n_features is the leading dim of the factor stacks
    ({"n_features": -1, "n_series": 3}, "n_features must be positive, got -1"),
])
def test_tmf_refuses_bad_settings(settings, message):
    with pytest.raises(InvalidInputError, match=message):
        TmfModel(**{"n_steps": 4, "n_features": 1, **settings})


def test_tmf_fit_refuses_mismatched_shapes():
    with pytest.raises(ShapeError, match="must be matching rank-2 arrays"):
        tmf_fit(np.ones((3, 5)), np.ones((3, 4)), rank=1)
    with pytest.raises(ShapeError, match="must be matching rank-2 arrays"):
        tmf_fit(np.ones(5), np.ones(5), rank=1)


def test_tmf_forecast_of_an_unfitted_model_is_refused():
    with pytest.raises(InvalidInputError, match="model has not been fit"):
        tmf_forecast(TmfModel(n_steps=4, n_features=1), horizon=1)
    with pytest.raises(InvalidInputError, match="reconstruct: model has not been fit"):
        TmfModel(n_steps=4, n_features=1).reconstruct()


def fabricate_rank_one_model(coeff=0.9, w_value=2.0):
    model = TmfModel(n_steps=4, n_features=1, rank=1, ar_order=1)
    model.n_series = 1
    model.w_list = np.array([[[w_value]]])
    # factor sequence ending at f_T = 1
    model.f_list = np.array([[[coeff ** 3], [coeff ** 2], [coeff], [1.0]]])
    model.a_list = np.array([[[coeff]]])
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
    model.a_list = np.zeros((1, 1, 1))
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
