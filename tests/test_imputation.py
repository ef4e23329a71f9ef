"""Imputers: LOCF rules, mean fill, SAITS-lite forward/loss/training."""

import math

import numpy as np
import pytest

from potsmine import (
    LocfModel,
    MeanImputerModel,
    SaitsLiteModel,
    TrainConfig,
    fit as fit_model,
    generate_synthetic,
    impute,
    inject_mcar,
    locf_impute,
    masked_mse,
    saits_forward,
    saits_loss,
    stack_samples,
)
from potsmine import tensor as T
from potsmine.models import imputer_validation_metric
from potsmine.models.imputation import _locf_fill
from potsmine.errors import InvalidInputError, ShapeError


def col(values):
    arr = np.array(values, dtype=np.float64).reshape(-1, 1)
    mask = np.isfinite(arr).astype(np.float64)
    return arr, mask


# ---------------------------------------------------------------------------
# LOCF

def test_locf_carries_forward():
    values, mask = col([1.0, np.nan, np.nan, 4.0])
    out = locf_impute(values, mask, np.zeros(1))
    assert np.array_equal(out[:, 0], [1.0, 1.0, 1.0, 4.0])


def test_locf_backfills_leading_gap():
    values, mask = col([np.nan, 2.0, np.nan, 5.0])
    out = locf_impute(values, mask, np.zeros(1))
    assert np.array_equal(out[:, 0], [2.0, 2.0, 2.0, 5.0])


def test_locf_fallback_for_empty_feature():
    values, mask = col([np.nan, np.nan, np.nan, np.nan])
    out = locf_impute(values, mask, np.array([0.7]))
    assert np.array_equal(out[:, 0], [0.7, 0.7, 0.7, 0.7])


def test_locf_idempotent():
    values, mask = col([np.nan, 2.0, np.nan, 5.0])
    once = locf_impute(values, mask, np.array([0.3]))
    again = locf_impute(once, np.ones_like(mask), np.array([0.3]))
    assert np.array_equal(once, again)


def test_locf_shape_errors():
    with pytest.raises(ShapeError):
        locf_impute(np.ones((2, 2)), np.ones((2, 3)), np.zeros(2))
    with pytest.raises(ShapeError):
        locf_impute(np.ones((2, 2)), np.ones((2, 2)), np.zeros(3))


def test_locf_mixed_features_random():
    rng = np.random.default_rng(20)
    fallback = np.array([0.5, -0.5, 2.0])
    for _ in range(10):
        mask = (rng.random((7, 3)) < 0.5).astype(float)
        values = np.where(mask != 0, rng.normal(size=(7, 3)), np.nan)
        out = locf_impute(values, mask, fallback)
        assert np.isfinite(out).all()
        obs = mask != 0
        assert np.array_equal(out[obs], values[obs])
        # brute-force per-column oracle
        for d in range(3):
            seen = np.nonzero(mask[:, d])[0]
            for t in range(7):
                if mask[t, d]:
                    continue
                earlier = seen[seen < t]
                if earlier.size:
                    want = values[earlier[-1], d]
                elif seen.size:
                    want = values[seen[0], d]
                else:
                    want = fallback[d]
                assert out[t, d] == want


def _locf_fill_by_index(values, mask, fallback):
    """The index-based (B, T, D) fill the time-major one replaced: each cell
    takes values at its last observed step, else at its first, else the
    fallback."""
    n_steps = values.shape[1]
    obs = mask != 0
    t_idx = np.broadcast_to(np.arange(n_steps)[None, :, None], values.shape)
    last = np.maximum.accumulate(np.where(obs, t_idx, -1), axis=1)
    first = obs.argmax(axis=1)
    has_any = obs.any(axis=1)
    src = np.where(last >= 0, last, first[:, None, :])
    filled = np.take_along_axis(values, src, axis=1)
    filled = np.where(has_any[:, None, :], filled, fallback[None, None, :])
    return np.where(obs, values, filled)


def _gappy_block(rng, b, t, d):
    mask = (rng.random((b, t, d)) < 0.4).astype(np.float64)
    mask[0, :, 0] = 0.0                     # a feature with no observation
    if t > 2:
        mask[:, : t // 3, d - 1] = 0.0      # leading gaps
        mask[:, -(t // 3):, d - 1] = 0.0    # trailing gaps
    # signed zeros and subnormals must come through bit for bit
    values = rng.normal(size=(b, t, d)) * rng.choice([1e-310, -0.0, 1.0, 1e300], (b, t, d))
    return np.where(mask != 0, values, np.nan), mask


@pytest.mark.parametrize("shape", [(7, 11, 3), (1, 9, 4), (5, 1, 3), (1, 1, 2), (300, 48, 8)])
def test_locf_fill_is_bitwise_the_index_based_fill(shape):
    rng = np.random.default_rng(sum(shape))
    fallback = rng.normal(size=shape[2])
    for _ in range(5):
        values, mask = _gappy_block(rng, *shape)
        want = _locf_fill_by_index(values, mask, fallback)
        got = _locf_fill(values, mask, fallback)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for j in range(shape[0]):
            one = locf_impute(values[j], mask[j], fallback)
            assert np.array_equal(one.view(np.uint64), want[j].view(np.uint64))


# ---------------------------------------------------------------------------
# mean imputer

def test_mean_imputer_uses_training_means():
    ds = generate_synthetic(12, 8, 3, 2, missing_rate=0.2, seed=2)
    view = inject_mcar(ds, 0.2, seed=3)
    model = MeanImputerModel(n_features=3)
    fit_model(model, view, view, TrainConfig())
    batch = view.training_batch(list(range(len(view))))
    filled = np.where(batch.mask != 0, batch.values, 0.0)
    count = (batch.mask != 0).sum(axis=(0, 1))
    means = filled.sum(axis=(0, 1)) / count
    assert np.abs(model.feature_values - means).max() < 1e-12
    out = impute(model, view.corrupted)
    hidden = batch.mask == 0
    for d in range(3):
        cells = out[:, :, d][hidden[:, :, d]]
        assert np.abs(cells - means[d]).max() < 1e-12


# ---------------------------------------------------------------------------
# saits_loss

def test_saits_loss_reduces_to_observed_term():
    rng = np.random.default_rng(1)
    xhat = rng.normal(size=(2, 3, 2))
    originals = rng.normal(size=(2, 3, 2))
    obs = np.ones((2, 3, 2))
    obs[1, 0, 1] = 0.0
    # per sample, the tape's masked mean; summed over the batch
    plain = sum(T.masked_mse(T.constant(xhat[b]),
                             T.constant(np.where(obs[b] != 0, originals[b], 0.0)),
                             obs[b]).data
                for b in range(2))
    loss, grad = saits_loss(xhat, originals, obs, np.zeros_like(obs))
    assert loss == pytest.approx(float(plain), rel=1e-14)
    counts = obs.sum(axis=(1, 2))[:, None, None]
    assert np.allclose(grad, 2.0 * (xhat - originals) * obs / counts, rtol=1e-14)
    assert grad[1, 0, 1] == 0.0


def test_saits_loss_zero_on_perfect_reconstruction():
    rng = np.random.default_rng(5)
    originals = rng.normal(size=(2, 4, 3))
    obs = (rng.random((2, 4, 3)) < 0.6).astype(float)
    obs[0, 0, 0] = 1.0
    obs[0, 1, 0] = 0.0
    ind = ((rng.random((2, 4, 3)) < 0.5) & (obs == 0)).astype(float)
    ind[0, 1, 0] = 1.0
    loss, grad = saits_loss(originals, originals, obs, ind)
    assert loss == 0.0
    assert not grad.any()


def test_saits_loss_rejects_overlapping_masks():
    ones = np.ones((1, 2, 2))
    with pytest.raises(InvalidInputError, match="overlap"):
        saits_loss(ones, ones, ones, ones)
    with pytest.raises(ShapeError, match="mask shapes differ"):
        saits_loss(ones, ones, ones, np.zeros((1, 2, 3)))


@pytest.mark.parametrize("build, message", [
    (lambda: LocfModel(0), "n_features must be positive"),
    (lambda: SaitsLiteModel(1, 2), "at least 2 steps"),
    (lambda: SaitsLiteModel(4, 2, d_ff=0), "sizes must be positive"),
    (lambda: SaitsLiteModel(4, 2, lam_mit=-0.5), "lam_mit must be non-negative"),
    (lambda: SaitsLiteModel(4, 2, lam_mit=math.nan), "lam_mit must be non-negative and finite"),
    (lambda: SaitsLiteModel(4, 2, lam_mit=math.inf), "lam_mit must be non-negative and finite"),
])
def test_imputer_constructors_refuse_bad_settings(build, message):
    with pytest.raises(InvalidInputError, match=message):
        build()


def test_saits_loss_gradient_small_batch():
    rng = np.random.default_rng(10)
    originals = rng.normal(size=(2, 3, 2))
    obs = np.array([[[1, 0], [1, 1], [0, 1]],
                    [[0, 1], [1, 0], [1, 1]]], dtype=np.float64)
    ind = np.array([[[0, 1], [0, 0], [1, 0]],
                    [[1, 0], [0, 0], [0, 0]]], dtype=np.float64)

    def recorded(x):
        loss, grad = saits_loss(x.data, originals, obs, ind, lam_mit=0.7)
        return T.record_fused(np.asarray(loss), [x], lambda g: [g * grad])

    err = T.grad_check(recorded, rng.normal(size=(2, 3, 2)))
    assert err < 1e-4


def test_imputer_validation_metric_scores_held_out_else_observed_cells():
    ds = generate_synthetic(6, 8, 2, 2, missing_rate=0.2, seed=4)
    view = inject_mcar(ds, 0.3, seed=5)
    _, ckpt = fit_model(LocfModel(2), ds, ds, TrainConfig())
    assert ckpt.metric == 0.0     # observed cells pass through bitwise
    model = SaitsLiteModel(n_steps=8, n_features=2, d_model=4, d_ff=4, init_seed=1)
    for v, cells, truth in ((view, "indicating", "originals"), (ds, "mask", "values")):
        batch = v.training_batch(range(6))
        # one definition of the masked mean square: the same bits
        assert imputer_validation_metric(model._reconstruct, v) == masked_mse(
            model._reconstruct(batch), getattr(batch, truth), getattr(batch, cells))


# ---------------------------------------------------------------------------
# SAITS forward properties

def make_saits(seed=0, t=6, d=2):
    return SaitsLiteModel(n_steps=t, n_features=d, d_model=8, d_ff=12,
                          init_seed=seed)


def batch_for(model, n=4, seed=1, rate=0.3):
    ds = generate_synthetic(n, model.n_steps, model.n_features, 2,
                            missing_rate=rate, seed=seed)
    return stack_samples(ds.samples)


def test_attention_diagonal_is_exactly_zero():
    model = make_saits()
    batch = batch_for(model)
    _, attns = saits_forward(model, batch.values, batch.mask)
    assert len(attns) == 2
    for attn in attns:
        assert attn.shape == (4, 6, 6)
        diag = attn[:, np.arange(6), np.arange(6)]
        assert np.all(diag == 0.0)
        assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-12


def test_impute_preserves_observed_cells_bitwise():
    model = make_saits(seed=3)
    ds = generate_synthetic(5, 6, 2, 2, missing_rate=0.35, seed=4)
    out = impute(model, ds)
    batch = stack_samples(ds.samples)
    obs = batch.mask != 0
    assert np.array_equal(out[obs].tobytes(), batch.values[obs].tobytes())
    assert np.isfinite(out).all()


def test_saits_forward_shape_errors():
    model = make_saits()
    with pytest.raises(ShapeError):
        saits_forward(model, np.zeros((2, 6, 2)), np.zeros((2, 6, 3)))
    with pytest.raises(ShapeError):
        saits_forward(model, np.zeros((2, 5, 2)), np.zeros((2, 5, 2)))


def test_saits_forward_matches_numpy_oracle():
    # independent reimplementation of the two-block forward pass
    model = make_saits(seed=7)
    batch = batch_for(model, n=3, seed=9)
    got, got_attns = saits_forward(model, batch.values, batch.mask)

    p = model.parameters
    maskf = (batch.mask != 0).astype(np.float64)
    x0 = np.where(batch.mask != 0, batch.values, 0.0)
    eye = np.eye(model.n_steps, dtype=bool)
    cur = x0
    want_attns = []
    for b in (1, 2):
        g = lambda name: p[f"b{b}_{name}"]
        h = np.concatenate([cur, maskf], axis=-1) @ g("w_in") + g("b_in") + g("pos")
        q, k, v = h @ g("w_q"), h @ g("w_k"), h @ g("w_v")
        scores = q @ k.swapaxes(-1, -2) / math.sqrt(model.d_model)
        scores = np.where(eye, -1e9, scores)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        h = h + attn @ v
        h = h + np.maximum(h @ g("w_f1") + g("b_f1"), 0.0) @ g("w_f2") + g("b_f2")
        xb = h @ g("w_out") + g("b_out")
        want_attns.append(attn)
        if b == 1:
            cur = x0 + (1.0 - maskf) * xb

    assert np.abs(got - xb).max() < 1e-12
    for have, want in zip(got_attns, want_attns):
        assert np.abs(have - want).max() < 1e-12


def test_saits_respects_normalization_round_trip():
    ds = generate_synthetic(10, 6, 2, 2, missing_rate=0.2, seed=6)
    view = inject_mcar(ds, 0.2, seed=7)
    model = make_saits(seed=1)
    fit_model(model, view, view, TrainConfig(epochs=1, batch_size=5, seed=0))
    assert not np.array_equal(model.norm_stats.std, np.ones(2))   # fitted, not the identity
    out = impute(model, view.corrupted)
    batch = view.training_batch(list(range(len(view))))
    obs = batch.mask != 0
    assert np.array_equal(out[obs], batch.values[obs])


def test_saits_training_loss_non_increasing_first_epochs():
    # epoch-end full-set loss may not rise more than 5% step to step
    ds = generate_synthetic(48, 10, 3, 2, missing_rate=0.1, seed=42)
    view = inject_mcar(ds, 0.2, seed=43)
    model = SaitsLiteModel(n_steps=10, n_features=3, d_model=16, d_ff=24,
                           init_seed=0)
    model.prepare_fit(view)
    state = T.AdamState.for_params(model.parameters, lr=1e-3)
    n = len(view)
    batch_size = 16
    losses = []
    for epoch in range(5):
        order = np.random.Generator(np.random.PCG64(epoch)).permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            _, grads = model.shard_loss_and_grads(view, idx)
            T.adam_step(model.parameters,
                        {k: g / idx.size for k, g in grads.items()}, state)
        epoch_loss, _ = model.shard_loss_and_grads(view, np.arange(n))
        losses.append(epoch_loss / n)
    for before, after in zip(losses, losses[1:]):
        assert after <= before * 1.05, losses
