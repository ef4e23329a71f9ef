"""GRU-D-lite: decay math, step semantics, probabilities, gradients."""

import numpy as np
import pytest

from potsmine import (
    Batch,
    GrudLiteModel,
    TrainConfig,
    classify,
    compute_delta,
    decay,
    fit as fit_model,
    generate_synthetic,
    inject_mcar,
    stack_samples,
)
from potsmine import tensor as T
from potsmine.errors import InvalidInputError, ShapeError


def tiny_model(t=4, d=2, h=3, classes=2, seed=0):
    return GrudLiteModel(n_steps=t, n_features=d, n_classes=classes,
                         hidden_size=h, init_seed=seed)


# ---------------------------------------------------------------------------
# decay

def test_decay_zero_parameters_give_one():
    assert np.array_equal(decay(np.array([0.0, 3.0, 100.0]),
                                np.zeros(3), np.zeros(3)), np.ones(3))


def test_decay_unit_example():
    out = decay(np.array([1.0]), np.array([1.0]), np.array([0.0]))
    assert abs(out[0] - np.exp(-1.0)) < 1e-15


def test_decay_large_delta_vanishes():
    out = decay(np.array([50.0]), np.array([1.0]), np.array([0.0]))
    assert out[0] < 1e-20


def test_decay_range_property():
    rng = np.random.default_rng(14)
    for _ in range(30):
        d = int(rng.integers(1, 6))
        delta = rng.random(d) * 20
        w = rng.normal(size=d) * 3
        b = rng.normal(size=d) * 3
        out = decay(delta, w, b)
        assert np.all(out > 0.0) and np.all(out <= 1.0)


def test_decay_matrix_form():
    delta = np.array([1.0, 2.0])
    w = np.array([[0.5, 0.0, 1.0], [0.25, 0.0, 0.0]])
    b = np.array([0.0, -1.0, 0.0])
    out = decay(delta, w, b)
    assert np.allclose(out, np.exp(-np.maximum(0.0, delta @ w + b)))


# ---------------------------------------------------------------------------
# grud_step semantics

def test_step_observed_passthrough():
    model = tiny_model()
    model.x_bar = np.array([5.0, -5.0])
    x = np.array([[1.0, 2.0]])
    _, x_hat, x_last = model.grud_step(x, np.ones((1, 2)), np.ones((1, 2)) * 9,
                                       np.zeros((1, 2)), np.zeros((1, 3)))
    assert np.array_equal(x_hat, x)
    assert np.array_equal(x_last, x)


def test_step_full_carry_when_decay_one():
    model = tiny_model()
    model.parameters["w_dx"][:] = 0.0
    model.parameters["b_dx"][:] = 0.0
    model.x_bar = np.array([7.0, 7.0])
    carried = np.array([[1.5, -2.5]])
    _, x_hat, x_last = model.grud_step(np.zeros((1, 2)), np.zeros((1, 2)),
                                       np.ones((1, 2)), carried, np.zeros((1, 3)))
    assert np.array_equal(x_hat, carried)
    assert np.array_equal(x_last, carried)


def test_step_regression_to_mean_when_decay_zero():
    model = tiny_model()
    # exp(-1000) underflows to exactly zero, pinning the blend at x_bar
    model.parameters["w_dx"][:] = 1000.0
    model.parameters["b_dx"][:] = 0.0
    model.x_bar = np.array([3.25, -1.5])
    _, x_hat, _ = model.grud_step(np.zeros((1, 2)), np.zeros((1, 2)),
                                  np.ones((1, 2)), np.full((1, 2), 99.0),
                                  np.zeros((1, 3)))
    assert np.array_equal(x_hat, model.x_bar[None, :])


# ---------------------------------------------------------------------------
# probabilities

def test_untrained_model_is_uniform():
    model = tiny_model(classes=4)
    ds = generate_synthetic(6, 4, 2, 4, missing_rate=0.25, seed=8)
    probs = classify(model, ds)
    assert np.array_equal(probs, np.full((6, 4), 0.25))


def test_probability_rows_sum_to_one_after_training():
    ds = generate_synthetic(16, 5, 2, 2, missing_rate=0.2, seed=3)
    model = GrudLiteModel(n_steps=5, n_features=2, n_classes=2, hidden_size=6)
    fit_model(model, ds, ds, TrainConfig(epochs=2, batch_size=8, seed=1))
    probs = classify(model, ds)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
    assert np.all(probs > 0)


def test_classify_shape_guard():
    model = tiny_model()
    batch = stack_samples(generate_synthetic(2, 6, 2, 2, 0.0, seed=0).samples)
    with pytest.raises(ShapeError):
        model.predict_proba_batch(batch)


def test_sentinel_payload_cannot_leak():
    # identical masks, different garbage in the hidden cells
    model = tiny_model(t=5, d=2, seed=4)
    rng = np.random.default_rng(9)
    mask = (rng.random((3, 5, 2)) < 0.6).astype(float)
    mask[:, 0, :] = 1.0
    base = rng.normal(size=(3, 5, 2))
    ts = np.broadcast_to(np.arange(5.0), (3, 5)).copy()

    def probs_with(payload):
        values = np.where(mask != 0, base, payload)
        batch = Batch(values=values, mask=mask, timestamps=ts, labels=None)
        return model.predict_proba_batch(batch)

    a = probs_with(np.nan)
    b = probs_with(1e12)
    c = probs_with(-777.0)
    assert np.array_equal(a, b) and np.array_equal(a, c)


# ---------------------------------------------------------------------------
# dual route: unrolled numpy recurrence vs the training graph

def test_unrolled_steps_match_graph_logits():
    model = tiny_model(t=6, d=3, h=5, classes=3, seed=11)
    ds = generate_synthetic(4, 6, 3, 3, missing_rate=0.3, seed=12)
    batch = stack_samples(ds.samples)
    x_work, maskf, delta, _ = model._prepare_batch(batch)

    h = np.zeros((4, 5))
    x_last = np.broadcast_to(model.x_bar, (4, 3)).copy()
    for t in range(6):
        h, _, x_last = model.grud_step(x_work[:, t], maskf[:, t], delta[:, t],
                                       x_last, h)
    logits = h @ model.parameters["w_out"] + model.parameters["b_out"]

    assert np.abs(logits - model._logits_np(batch)).max() < 1e-12


def test_training_requires_labels():
    model = tiny_model()
    rng = np.random.default_rng(2)
    samples = generate_synthetic(4, 4, 2, 2, missing_rate=0.0, seed=1).samples
    unlabeled = stack_samples([s for s in samples])
    unlabeled.labels = None
    with pytest.raises(InvalidInputError, match="label"):
        model.batch_loss_sum({k: T.constant(v) for k, v in model.parameters.items()},
                             unlabeled)


def test_cross_entropy_gradient_through_recurrence():
    model = tiny_model(t=4, d=2, h=3, classes=2, seed=6)
    # the untrained readout is zero, which zeroes every recurrent gradient
    w_out = model.parameters["w_out"]
    w_out[:] = np.random.default_rng(6).normal(size=w_out.shape)
    ds = generate_synthetic(2, 4, 2, 2, missing_rate=0.25, seed=7)
    batch = stack_samples(ds.samples)
    const_params = {k: T.constant(v) for k, v in model.parameters.items()}
    for name, value in model.parameters.items():
        err = T.grad_check(
            lambda t: model.batch_loss_sum({**const_params, name: t}, batch),
            value, h=1e-6)
        assert err < 1e-4, f"{name}: relative error {err}"


def test_val_accuracy_metric_counts_argmax():
    ds = generate_synthetic(10, 4, 2, 2, missing_rate=0.0, seed=5)
    model = tiny_model(t=4, d=2, classes=2, seed=3)
    model.prepare_fit(ds)
    acc = model.validation_metric(ds, TrainConfig(selection_metric="val_accuracy"))
    probs = classify(model, ds)
    labels = np.array([s.label for s in ds.samples])
    assert acc == float((probs.argmax(axis=1) == labels).mean())


# ---------------------------------------------------------------------------
# fused recurrence on irregular gaps with leading and interior missing runs

def irregular_batch(n=3, t=7, d=2, seed=21):
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.uniform(0.1, 3.0, (n, t)), axis=1)
    mask = (rng.random((n, t, d)) < 0.6).astype(float)
    mask[:, :2, 0] = 0.0       # leading run
    mask[:, 3:6, 1] = 0.0      # interior run
    values = np.where(mask != 0, rng.normal(size=(n, t, d)), np.nan)
    labels = np.arange(n) % 2
    return Batch(values=values, mask=mask, timestamps=ts, labels=labels)


def perturbed_model(t=7, d=2, h=3, seed=22):
    # random readout and decays, so every parameter's gradient is non-zero
    model = GrudLiteModel(n_steps=t, n_features=d, n_classes=2, hidden_size=h,
                          normalize=False, init_seed=seed)
    rng = np.random.default_rng(seed)
    for value in model.parameters.values():
        value += rng.normal(scale=0.5, size=value.shape)
    model.parameters["w_dx"][:] = np.abs(model.parameters["w_dx"])
    model.x_bar = rng.normal(size=d)
    return model


def test_batched_deltas_match_per_sample_with_irregular_gaps():
    batch = irregular_batch()
    _, _, delta, _ = perturbed_model()._prepare_batch(batch)
    for i in range(batch.values.shape[0]):
        assert np.array_equal(delta[i], compute_delta(batch.timestamps[i], batch.mask[i]))
    assert delta[:, 1:].min() > 0


def test_fused_forward_matches_steps_with_irregular_gaps():
    model = perturbed_model()
    batch = irregular_batch()
    x_work, maskf, delta, _ = model._prepare_batch(batch)
    h = np.zeros((3, 3))
    x_last = np.broadcast_to(model.x_bar, (3, 2)).copy()
    for t in range(7):
        h, _, x_last = model.grud_step(x_work[:, t], maskf[:, t], delta[:, t], x_last, h)
    logits = h @ model.parameters["w_out"] + model.parameters["b_out"]
    assert np.abs(logits - model._logits_np(batch)).max() < 1e-12


@pytest.mark.parametrize("name", list(GrudLiteModel(7, 2, 2, hidden_size=3).parameters))
def test_fused_gradient_check_irregular_gaps(name):
    model = perturbed_model()
    batch = irregular_batch()
    consts = {k: T.constant(v) for k, v in model.parameters.items()}
    # some coordinates of u_r are ~1e-8; at h=1e-6 the rounding noise of
    # an O(1) loss (~1e-10 in the difference quotient) is a percent of
    # them, while at h=1e-4 the O(h^2) truncation error stays far below
    err = T.grad_check(lambda t: model.batch_loss_sum({**consts, name: t}, batch),
                       model.parameters[name], h=1e-4)
    assert err < 1e-4, f"{name}: relative error {err}"


def test_tape_size_does_not_grow_with_series_length():
    sizes = []
    for t in (4, 16):
        model = perturbed_model(t=t)
        tape = T.Tape()
        leaves = {k: tape.leaf(v) for k, v in model.parameters.items()}
        loss = model.batch_loss_sum(leaves, irregular_batch(t=t))
        sizes.append(len(loss.tape))
    assert sizes[0] == sizes[1]


def test_minibatch_tape_is_freed_without_the_cycle_collector():
    # the fused node saves every step's gates; a reference cycle through
    # the tape would keep them alive until the cyclic collector runs
    import gc
    import weakref
    model = perturbed_model()
    gc.disable()
    try:
        tape = T.Tape()
        leaves = {k: tape.leaf(v) for k, v in model.parameters.items()}
        loss = model.batch_loss_sum(leaves, irregular_batch())
        tape.backward(loss)
        ref = weakref.ref(tape)
        del tape, leaves, loss
        assert ref() is None
    finally:
        gc.enable()
