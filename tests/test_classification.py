"""GRU-D-lite: decay math, step semantics, probabilities, gradients."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from potsmine import (
    Batch,
    GrudLiteModel,
    NormStats,
    PotsDataset,
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
from potsmine.models.base import _INFER_BYTES, _WORKSPACE_ROWS


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
    x = np.array([[1.0, 2.0]])
    _, x_hat, x_last = model.grud_step(x, np.ones((1, 2)), np.ones((1, 2)) * 9,
                                       np.zeros((1, 2)), np.zeros((1, 3)))
    assert np.array_equal(x_hat, x)
    assert np.array_equal(x_last, x)


def test_step_full_carry_when_decay_one():
    model = tiny_model()
    model.parameters["w_dx"][:] = 0.0
    model.parameters["b_dx"][:] = 0.0
    carried = np.array([[1.5, -2.5]])
    _, x_hat, x_last = model.grud_step(np.zeros((1, 2)), np.zeros((1, 2)),
                                       np.ones((1, 2)), carried, np.zeros((1, 3)))
    assert np.array_equal(x_hat, carried)
    assert np.array_equal(x_last, carried)


def test_step_regression_to_mean_when_decay_zero():
    model = tiny_model()
    # exp(-1000) underflows to exactly zero, pinning the blend at the
    # working-space origin, which is the feature mean in data units
    model.parameters["w_dx"][:] = 1000.0
    model.parameters["b_dx"][:] = 0.0
    model.norm_stats = NormStats(np.array([3.25, -1.5]), np.array([2.0, 0.5]))
    carried = model.norm_stats.forward(np.full((1, 2), 99.0))
    _, x_hat, _ = model.grud_step(np.zeros((1, 2)), np.zeros((1, 2)),
                                  np.ones((1, 2)), carried, np.zeros((1, 3)))
    assert np.array_equal(model.norm_stats.inverse(x_hat), np.array([[3.25, -1.5]]))


# ---------------------------------------------------------------------------
# construction and input checks

@pytest.mark.parametrize("args, match", [
    ((0, 2, 2), "dimensions must be positive"),
    ((4, 0, 2), "dimensions must be positive"),
    ((4, 2, 1), "n_classes must be at least 2"),
    ((4, 2, 2, 0), "hidden_size must be positive"),
])
def test_constructor_refuses_bad_sizes(args, match):
    with pytest.raises(InvalidInputError, match=match):
        GrudLiteModel(*args)


def test_hand_built_batch_with_repeated_timestamps_is_refused():
    batch = irregular_batch()
    batch.timestamps[1, 3] = batch.timestamps[1, 2]
    with pytest.raises(InvalidInputError, match="strictly increasing"):
        perturbed_model().predict_proba_batch(batch)


def test_a_fitted_model_repairs_toward_the_observed_feature_mean():
    ds = generate_synthetic(10, 4, 2, 2, missing_rate=0.2, seed=5)
    model = GrudLiteModel(4, 2, 2, hidden_size=3)
    model.prepare_fit(ds)
    obs = ds.training_batch(list(range(10)))
    hit = obs.mask != 0
    want = np.array([obs.values[..., k][hit[..., k]].mean() for k in range(2)])
    assert np.allclose(model.norm_stats.mean, want, rtol=1e-12, atol=0)
    # fully decayed (or at step 0, before any observation is carried), a
    # missing cell repairs to that mean in data units
    model.parameters["w_dx"][:] = 1000.0
    x_work, maskf, delta, x_last = model._prepare_batch(obs)
    h = np.zeros((10, 3))
    mean = np.broadcast_to(model.norm_stats.mean, (10, 2))
    for t in range(4):
        h, x_hat, _ = model.grud_step(x_work[t], maskf[t], delta[t], x_last[t], h)
        missing = maskf[t] == 0
        assert missing.any(), t
        assert np.array_equal(model.norm_stats.inverse(x_hat)[missing], mean[missing]), t


def test_validation_requires_labels():
    ds = generate_synthetic(4, 4, 2, 2, missing_rate=0.0, seed=1)
    unlabeled = Batch(values=ds._block.values, mask=ds._block.mask,
                      timestamps=ds._block.timestamps, labels=None)
    with pytest.raises(InvalidInputError, match="requires labels"):
        tiny_model().validation_metric(PotsDataset(unlabeled), TrainConfig())


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
    x_last = np.zeros((4, 3))
    for t in range(6):
        h, _, x_last = model.grud_step(x_work[t], maskf[t], delta[t],
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


def test_a_batch_with_an_absent_label_is_refused_by_loss_and_validation():
    model = tiny_model()
    ds = generate_synthetic(4, 4, 2, 2, missing_rate=0.0, seed=1)
    labels = ds._block.labels.copy()
    labels[2] = -1
    partial = PotsDataset(dataclasses.replace(ds._block, labels=labels))
    model.prepare_fit(ds)
    with pytest.raises(InvalidInputError, match="training requires labels on every sample"):
        model.batch_loss_sum({k: T.constant(v) for k, v in model.parameters.items()},
                             partial.training_batch(range(4)))
    for metric in ("val_loss", "val_accuracy"):
        with pytest.raises(InvalidInputError, match="validation requires labels"):
            model.validation_metric(partial, TrainConfig(selection_metric=metric))


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
                          init_seed=seed)
    rng = np.random.default_rng(seed)
    for value in model.parameters.values():
        value += rng.normal(scale=0.5, size=value.shape)
    model.parameters["w_dx"][:] = np.abs(model.parameters["w_dx"])
    model.norm_stats = NormStats(rng.normal(size=d), rng.uniform(0.5, 2.0, d))
    return model


def gradient_digests() -> dict:
    """sha256 digests of the loss and every gradient of perturbed_model()
    at 48 steps, 8 features and hidden sizes 64 and 256, on the first 1,
    5, 17, 24, 32 and 50 samples of one irregular batch (24 is the size of
    impute-lazy's last minibatch)."""
    view = PotsDataset(irregular_batch(n=50, t=48, d=8))
    out = {}
    for hid in (64, 256):
        model = perturbed_model(t=48, d=8, h=hid)
        for size in (1, 5, 17, 24, 32, 50):
            loss, grads = model.shard_loss_and_grads(view, range(size))
            out[f"H={hid} B={size}"] = {
                name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                for name, a in [("loss", np.float64(loss)), *grads.items()]}
    return out


def test_batched_deltas_match_per_sample_with_irregular_gaps():
    batch = irregular_batch()
    _, _, delta, _ = perturbed_model()._prepare_batch(batch)
    for i in range(batch.values.shape[0]):
        assert np.array_equal(delta[:, i], compute_delta(batch.timestamps[i], batch.mask[i]))
    assert delta[1:].min() > 0


@pytest.mark.parametrize("fitted", [False, True])
def test_prepared_x_last_is_bitwise_the_carry_of_grud_step(fitted):
    model = perturbed_model()
    batch = irregular_batch()
    if fitted:
        model.prepare_fit(PotsDataset(batch))
    x_work, maskf, delta, x_last = model._prepare_batch(batch)
    assert x_last.shape == x_work.shape == (7, 3, 2)
    carry = np.zeros((3, 2))
    h = np.zeros((3, 3))
    for t in range(7):
        assert np.array_equal(x_last[t].view(np.uint64), carry.view(np.uint64)), t
        h, _, carry = model.grud_step(x_work[t], maskf[t], delta[t], carry, h)
    # the leading run keeps the working-space mean, 0; the interior run
    # keeps one value throughout
    assert np.array_equal(x_last[:3, :, 0], np.zeros((3, 3)))
    assert np.array_equal(x_last[4:7, :, 1], np.broadcast_to(x_last[4, :, 1], (3, 3)))


def test_fused_forward_matches_steps_with_irregular_gaps():
    model = perturbed_model()
    batch = irregular_batch()
    x_work, maskf, delta, _ = model._prepare_batch(batch)
    h = np.zeros((3, 3))
    x_last = np.zeros((3, 2))
    for t in range(7):
        h, _, x_last = model.grud_step(x_work[t], maskf[t], delta[t], x_last, h)
    logits = h @ model.parameters["w_out"] + model.parameters["b_out"]
    assert np.abs(logits - model._logits_np(batch)).max() < 1e-12


def test_saturated_gates_stay_finite_and_match_the_steps():
    # z and r inputs far past +-709, where exp(-a) in the fused forward
    # overflows to inf and the gate is exactly 0; the suite turns any
    # RuntimeWarning into an error. At 300 series and hidden size 3 the
    # 50 steps run in two spans.
    model = perturbed_model(t=50, d=2, h=3)
    for name in ("w_z", "w_r", "b_z", "b_r"):
        model.parameters[name] *= 3e3
    batch = irregular_batch(n=300, t=50, d=2)
    prepared = model._prepare_batch(batch)
    kept, state = model._forward(model.parameters, *prepared, keep=True)
    # pre holds the negated input side of z and r
    assert state.pre[:2].max() > 709 and state.pre[:2].min() < -709
    assert 1 < model._infer_steps(300) < 50
    plain, _ = model._forward(model.parameters, *prepared)
    assert np.array_equal(plain, kept)

    x_work, maskf, delta, _ = prepared
    h = np.zeros((300, 3))
    x_last = np.zeros((300, 2))
    for t in range(50):
        h, _, x_last = model.grud_step(x_work[t], maskf[t], delta[t], x_last, h)
    logits = h @ model.parameters["w_out"] + model.parameters["b_out"]
    assert np.abs(logits - kept).max() < 1e-12

    assert np.isfinite(classify(model, PotsDataset(batch))).all()
    loss, grads = fused_loss_and_grads(model, batch)
    assert np.isfinite(loss)
    for name, g in grads.items():
        assert np.isfinite(g).all(), name


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


def test_minibatch_records_forward_and_loss_as_one_node():
    model = perturbed_model()
    tape = T.Tape()
    leaves = {k: tape.leaf(v) for k, v in model.parameters.items()}
    loss = model.batch_loss_sum(leaves, irregular_batch())
    assert len(loss.tape) == len(leaves) + 1


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


# ---------------------------------------------------------------------------
# the workspace

def fused_loss_and_grads(model, batch):
    tape = T.Tape()
    leaves = {k: tape.leaf(v) for k, v in model.parameters.items()}
    loss = model.batch_loss_sum(leaves, batch)
    tape.backward(loss)
    return float(loss.data), {k: lf.grad for k, lf in leaves.items()}


def test_inference_forward_without_history_gives_the_training_logits_bitwise():
    model = perturbed_model(t=9, d=3, h=5)
    batch = irregular_batch(n=6, t=9, d=3)
    prepared = model._prepare_batch(batch)
    kept, state = model._forward(model.parameters, *prepared, keep=True)
    assert state.h.shape == (10, 6, 5)
    plain, none = model._forward(model.parameters, *prepared)
    assert none is None
    assert np.array_equal(plain, kept)


# (n, t) at hidden_size 256 and 2 features, where one step's span blocks
# take 8 * n * (4 * 256 + 2 * 2) bytes of the budget
@pytest.mark.parametrize("n, t, spans", [
    (300, 3, "one-step"),       # a step is over budget: a span is one step
    (50, 12, "uneven"),         # 5 steps per span: 5 + 5 + 2
    (8, 40, "uneven"),          # 31 steps per span: 31 + 9
    (8, 20, "whole"),
    (1, 300, "uneven"),         # 255 steps per span: 255 + 45
    (1, 6, "whole"),
])
def test_inference_spans_give_the_training_logits_bitwise(n, t, spans):
    model = perturbed_model(t=t, d=2, h=256)
    span = model._infer_steps(n)
    assert {"one-step": span == 1 < t, "uneven": 1 < span < t and t % span,
            "whole": span >= t}[spans]
    prepared = model._prepare_batch(irregular_batch(n=n, t=t, d=2))
    kept, _ = model._forward(model.parameters, *prepared, keep=True)
    plain, _ = model._forward(model.parameters, *prepared)
    assert np.array_equal(plain, kept)


def test_inference_workspace_holds_one_span_whatever_the_series_length():
    n, hid, d = 256, 256, 8

    def workspace(t):
        model = GrudLiteModel(t, d, 2, hidden_size=hid)
        classify(model, generate_synthetic(n, t, d, 2, missing_rate=0.3, seed=4))
        return {name: a.nbytes for name, a in model._workspace.items()}

    short, long = workspace(12), workspace(48)
    assert short == long
    spans = long.pop("inp") + long.pop("delta1") + long.pop("gh") + long.pop("pre")
    # a span is at least one step, here just over the budget; inp and
    # delta1 end in a ones column
    assert spans == max(_INFER_BYTES, 8 * n * (4 * hid + (2 * d + 1) + (d + 1)))
    # h, hd, rhd, c and tmp, and zr's two
    assert sum(long.values()) == 7 * 8 * n * hid


def test_classify_peak_memory_is_bounded_by_the_spans():
    ds = generate_synthetic(512, 48, 8, 2, missing_rate=0.3, seed=4)
    model = GrudLiteModel(48, 8, 2, hidden_size=64)
    tracemalloc.start()
    try:
        classify(model, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 7.0 MiB measured with spans; the whole-series blocks took 35.7 MiB
    assert peak < 12 << 20


def test_history_free_forward_uses_one_row_block_per_quantity():
    model = perturbed_model(t=9, d=3, h=5)
    model._logits_np(irregular_batch(n=6, t=9, d=3))
    for name in ("h", "hd", "rhd", "c"):
        assert model._workspace[name].size == 6 * 5, name
    assert model._workspace["zr"].size == 2 * 6 * 5


def test_grud_workspace_is_bounded_by_the_largest_batch_up_to_the_cap():
    def workspace_bytes(model):
        return sum(a.nbytes for a in model._workspace.values())

    ds = generate_synthetic(_WORKSPACE_ROWS + 44, 6, 2, 2, missing_rate=0.2, seed=8)
    model = perturbed_model(t=6, d=2, h=3)
    for size in (_WORKSPACE_ROWS, _WORKSPACE_ROWS + 44, 8, _WORKSPACE_ROWS + 44,
                 _WORKSPACE_ROWS):
        part = ds.training_batch(list(range(size)))
        model.predict_proba_batch(part)
        fused_loss_and_grads(model, part)
    once = perturbed_model(t=6, d=2, h=3)
    part = ds.training_batch(list(range(_WORKSPACE_ROWS)))
    once.predict_proba_batch(part)
    fused_loss_and_grads(once, part)
    assert workspace_bytes(model) == workspace_bytes(once)
    # a batch above the cap is served by fresh arrays with the same bits
    whole = ds.training_batch(list(range(len(ds))))
    head = ds.training_batch(list(range(8)))
    assert np.array_equal(model.predict_proba_batch(whole)[:8],
                          once.predict_proba_batch(head))
    loss, grads = fused_loss_and_grads(model, whole)
    fresh = perturbed_model(t=6, d=2, h=3)
    want_loss, want = fused_loss_and_grads(fresh, whole)
    assert loss == want_loss
    for name, g in want.items():
        assert np.array_equal(grads[name], g), name


def test_warm_workspace_gives_the_bits_of_a_fresh_model():
    ds = generate_synthetic(40, 7, 2, 2, missing_rate=0.3, seed=9)
    warm = perturbed_model()
    for size in (32, 12, 40, 5):
        batch = ds.training_batch(list(range(size)))
        loss, grads = fused_loss_and_grads(warm, batch)
        want_loss, want = fused_loss_and_grads(perturbed_model(), batch)
        assert loss == want_loss, size
        for name, g in want.items():
            assert np.array_equal(grads[name], g), (size, name)
        assert np.array_equal(warm.predict_proba_batch(batch),
                              perturbed_model().predict_proba_batch(batch)), size


def test_gradients_held_across_steps_do_not_alias_the_workspace():
    ds = generate_synthetic(16, 7, 2, 2, missing_rate=0.3, seed=10)
    model = perturbed_model()
    _, first = fused_loss_and_grads(model, ds.training_batch(list(range(8))))
    kept = {k: g.copy() for k, g in first.items()}
    fused_loss_and_grads(model, ds.training_batch(list(range(8, 16))))
    model.predict_proba_batch(ds.training_batch(list(range(16))))
    for name, g in first.items():
        assert np.array_equal(g, kept[name]), name


def test_inference_between_forward_and_backward_is_refused():
    model = perturbed_model()
    batch = irregular_batch()
    tape = T.Tape()
    leaves = {k: tape.leaf(v) for k, v in model.parameters.items()}
    loss = model.batch_loss_sum(leaves, batch)
    model.predict_proba_batch(batch)
    with pytest.raises(InvalidInputError, match="overwrote the workspace"):
        tape.backward(loss)


def test_a_second_backward_of_one_forward_is_refused():
    # the sweep writes its gradients over the state it reads
    model = perturbed_model()
    tape = T.Tape()
    leaves = {k: tape.leaf(v) for k, v in model.parameters.items()}
    loss = model.batch_loss_sum(leaves, irregular_batch())
    tape.backward(loss)
    with pytest.raises(InvalidInputError, match="overwrote the workspace"):
        tape.backward(loss)
