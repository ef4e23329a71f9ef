"""The fused SAITS-lite node against the unrolled tape graph it replaced.

The oracle below is the earlier forward, built from tape operations one
node per matmul, softmax and mask, with the per-sample-mean loss on top.
Its backward is the tape's own. The fused node sums in another order
(one matmul for Q, K and V, reshaped batch matmuls), so losses and
gradients are compared to a relative tolerance set beforehand from
float64 rounding, 1e-12; a wrong term in the hand-written backward is
off by order 1. The rest checks the workspace the fused node reuses:
nothing a caller holds aliases it, and a warm workspace gives the bits
a fresh model gives.
"""

import gc
import math
import weakref

import numpy as np
import pytest

from potsmine import (Batch, SaitsLiteModel, generate_synthetic, inject_mcar,
                      saits_forward, stack_samples)
from potsmine import tensor as T
from potsmine.errors import InvalidInputError
from potsmine.models.imputation import _WORKSPACE_ROWS


# ---------------------------------------------------------------------------
# unrolled tape oracle

def _forward_oracle(model, params, x0, mask):
    m = T.constant(mask)
    keep = T.constant(1.0 - mask)
    diag = np.eye(model.n_steps)
    scale = T.constant(1.0 / math.sqrt(model.d_model))
    cur = T.constant(x0)
    xb = cur
    for b in range(1, model.N_BLOCKS + 1):
        p = {k[len(f"b{b}_"):]: v for k, v in params.items()
             if k.startswith(f"b{b}_")}
        h = T.concat([cur, m]) @ p["w_in"] + p["b_in"] + p["pos"]
        q, k, v = h @ p["w_q"], h @ p["w_k"], h @ p["w_v"]
        scores = (q @ T.transpose(k)) * scale
        attn = T.softmax(T.masked_fill(scores, diag, -1e9))
        h = h + (attn @ v)
        h = h + (T.relu(h @ p["w_f1"] + p["b_f1"]) @ p["w_f2"] + p["b_f2"])
        xb = h @ p["w_out"] + p["b_out"]
        if b < model.N_BLOCKS:
            cur = T.constant(x0) + keep * xb
    return xb


def _batch_loss_sum_oracle(model, leaves, batch):
    maskf = (batch.mask != 0).astype(np.float64)
    x0 = model._to_working(batch.values, batch.mask)
    xhat = _forward_oracle(model, leaves, x0, maskf)
    originals = batch.values if batch.originals is None else batch.originals
    if batch.indicating is None:
        indf = np.zeros_like(maskf)
    else:
        indf = (batch.indicating != 0).astype(np.float64)
    union = (maskf != 0) | (indf != 0)
    if model.norm_stats is None:
        target = np.where(union, originals, 0.0)
    else:
        target = np.where(
            union, (originals - model.norm_stats.mean) / model.norm_stats.std, 0.0)

    def per_sample_mean(weight):
        diff = (xhat - T.constant(target)) * T.constant(weight)
        sums = T.reduce_sum(diff * diff, axis=(1, 2))
        counts = weight.sum(axis=(1, 2))
        recip = np.divide(1.0, counts, out=np.zeros_like(counts), where=counts > 0)
        return T.reduce_sum(sums * T.constant(recip))

    loss = per_sample_mean(maskf)
    if indf.any():
        loss = loss + per_sample_mean(indf) * T.constant(model.lam_mit)
    return loss


def _loss_and_grads(loss_fn, model, batch):
    tape = T.Tape()
    leaves = {k: tape.leaf(v) for k, v in model.parameters.items()}
    loss = loss_fn(leaves, batch)
    tape.backward(loss)
    return float(loss.data), {k: lf.grad for k, lf in leaves.items()}


# ---------------------------------------------------------------------------
# fixtures

def perturbed_model(t=48, d=8, d_model=32, normalize=True, seed=3):
    """A model off its zero-bias initialization, so every term is generic."""
    model = SaitsLiteModel(n_steps=t, n_features=d, d_model=d_model, d_ff=2 * d_model,
                           lam_mit=0.7, normalize=normalize, init_seed=seed)
    rng = np.random.default_rng(seed + 100)
    for arr in model.parameters.values():
        arr += rng.normal(0.0, 0.1, arr.shape)
    return model


def pair_view(n=32, t=48, d=8, seed=11):
    ds = generate_synthetic(n, t, d, 2, missing_rate=0.2, seed=seed)
    return inject_mcar(ds, 0.25, seed=seed + 1)


def fused_loss_and_grads(model, batch):
    return _loss_and_grads(model.batch_loss_sum, model, batch)


def max_rel(have, want):
    return float(np.abs(have - want).max()) / max(float(np.abs(want).max()), 1e-300)


# ---------------------------------------------------------------------------
# loss and gradients against the oracle

@pytest.mark.parametrize("case", ["indicating", "no_indicating", "unnormalized", "plain"])
def test_loss_and_gradients_match_tape_oracle(case):
    view = pair_view()
    if case == "plain":   # no originals and no indicating mask at all
        view = generate_synthetic(32, 48, 8, 2, missing_rate=0.3, seed=4)
    model = perturbed_model(normalize=case != "unnormalized")
    model.prepare_fit(view)
    batch = view.training_batch(list(range(32)))
    if case == "no_indicating":
        assert batch.indicating.any()
        batch = Batch(batch.values, batch.mask, batch.timestamps, batch.labels,
                      originals=batch.originals, indicating=np.zeros_like(batch.indicating))
    loss, grads = fused_loss_and_grads(model, batch)
    want_loss, want = _loss_and_grads(
        lambda leaves, b: _batch_loss_sum_oracle(model, leaves, b), model, batch)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert grads.keys() == want.keys()
    for name, g in want.items():
        assert np.abs(g).max() > 0, name
        assert max_rel(grads[name], g) <= 1e-12, name


# ---------------------------------------------------------------------------
# the tape

def test_minibatch_records_one_node_and_its_tape_is_freed():
    # the fused node saves both blocks' intermediates; a reference cycle
    # through the tape would keep them until the cyclic collector runs
    view = pair_view(n=8, t=12, d=3)
    model = perturbed_model(t=12, d=3, d_model=8)
    model.prepare_fit(view)
    batch = view.training_batch(list(range(8)))
    gc.disable()
    try:
        tape = T.Tape()
        leaves = {k: tape.leaf(v) for k, v in model.parameters.items()}
        loss = model.batch_loss_sum(leaves, batch)
        assert len(tape) == len(leaves) + 1
        tape.backward(loss)
        ref = weakref.ref(tape)
        del tape, leaves, loss
        assert ref() is None
    finally:
        gc.enable()


def test_tape_size_does_not_grow_with_series_length():
    sizes = []
    for t in (6, 24):
        view = pair_view(n=4, t=t, d=3)
        model = perturbed_model(t=t, d=3, d_model=8)
        tape = T.Tape()
        leaves = {k: tape.leaf(v) for k, v in model.parameters.items()}
        loss = model.batch_loss_sum(leaves, view.training_batch([0, 1, 2, 3]))
        sizes.append(len(loss.tape))
    assert sizes[0] == sizes[1]


def test_backward_after_another_forward_is_refused():
    view = pair_view(n=4, t=6, d=2)
    model = perturbed_model(t=6, d=2, d_model=8)
    batch = view.training_batch([0, 1, 2, 3])
    tape = T.Tape()
    leaves = {k: tape.leaf(v) for k, v in model.parameters.items()}
    loss = model.batch_loss_sum(leaves, batch)
    saits_forward(model, batch.values, batch.mask)
    with pytest.raises(InvalidInputError, match="overwrote the workspace"):
        tape.backward(loss)


# ---------------------------------------------------------------------------
# the workspace

def test_two_shard_results_held_at_once_are_independent():
    view = pair_view(n=32, t=12, d=3)
    model = perturbed_model(t=12, d=3, d_model=16)
    model.prepare_fit(view)
    idx = np.arange(32)
    shards = np.array_split(idx, 2)
    first = model.shard_loss_and_grads(view, shards[0])
    kept = {k: g.copy() for k, g in first[1].items()}
    second = model.shard_loss_and_grads(view, shards[1])
    whole = model.shard_loss_and_grads(view, idx)
    for name, g in first[1].items():
        assert np.array_equal(g, kept[name]), name
    alone = perturbed_model(t=12, d=3, d_model=16)
    alone.prepare_fit(view)
    for shard, (loss, grads) in zip(shards, (first, second)):
        want_loss, want = alone.shard_loss_and_grads(view, shard)
        assert loss == want_loss
        for name, g in want.items():
            assert np.array_equal(grads[name], g), name
    for name, g in whole[1].items():
        assert max_rel(first[1][name] + second[1][name], g) < 1e-9, name


def test_alternating_batch_sizes_match_a_fresh_model_bitwise():
    view = pair_view(n=75, t=12, d=3)
    warm = perturbed_model(t=12, d=3, d_model=16)
    warm.prepare_fit(view)
    for size in (32, 24, 75, 8):
        batch = view.training_batch(list(range(size)))
        fresh = perturbed_model(t=12, d=3, d_model=16)
        fresh.norm_stats = warm.norm_stats
        loss, grads = fused_loss_and_grads(warm, batch)
        want_loss, want = fused_loss_and_grads(fresh, batch)
        assert loss == want_loss, size
        for name, g in want.items():
            assert np.array_equal(grads[name], g), (size, name)
        assert np.array_equal(warm.impute_batch(batch), fresh.impute_batch(batch)), size


def test_workspace_is_bounded_by_the_largest_batch_up_to_the_cap():
    def workspace_bytes(model):
        return sum(a.nbytes for a in model._workspace.values())

    ds = generate_synthetic(_WORKSPACE_ROWS + 44, 6, 2, 2, missing_rate=0.2, seed=8)
    batch = stack_samples(ds.samples)
    model = perturbed_model(t=6, d=2, d_model=8)
    for size in (_WORKSPACE_ROWS, _WORKSPACE_ROWS + 44, 8, _WORKSPACE_ROWS + 44,
                 _WORKSPACE_ROWS):
        part = stack_samples(ds.samples[:size])
        model.impute_batch(part)
        fused_loss_and_grads(model, part)
    once = perturbed_model(t=6, d=2, d_model=8)
    part = stack_samples(ds.samples[:_WORKSPACE_ROWS])
    once.impute_batch(part)
    fused_loss_and_grads(once, part)
    assert workspace_bytes(model) == workspace_bytes(once)
    # a batch above the cap is served by fresh arrays with the same bits
    assert np.array_equal(model.impute_batch(batch)[:8],
                          once.impute_batch(stack_samples(ds.samples[:8])))


def test_second_saits_forward_leaves_first_attention_unchanged():
    view = pair_view(n=6, t=8, d=2)
    model = perturbed_model(t=8, d=2, d_model=8)
    first = view.training_batch([0, 1, 2])
    second = view.training_batch([3, 4, 5])
    xhat, attns = saits_forward(model, first.values, first.mask)
    kept = [a.copy() for a in attns]
    kept_xhat = xhat.copy()
    saits_forward(model, second.values, second.mask)
    for have, want in zip(attns, kept):
        assert np.array_equal(have, want)
    assert np.array_equal(xhat, kept_xhat)


def test_empty_batch_gives_empty_outputs():
    model = perturbed_model(t=6, d=2, d_model=8)
    xhat, attns = saits_forward(model, np.zeros((0, 6, 2)), np.zeros((0, 6, 2)))
    assert xhat.shape == (0, 6, 2)
    assert [a.shape for a in attns] == [(0, 6, 6), (0, 6, 6)]
