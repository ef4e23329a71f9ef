"""The fused SAITS-lite node against the unrolled tape graph it replaced.

The oracle below is the earlier forward, built from tape operations one
node per matmul, softmax and mask, with the per-sample-mean loss on top.
Its backward is the tape's own. The fused node sums in another order
(one projection onto w_q w_k^T and w_v in place of separate queries and
keys, reshaped batch matmuls, column sums as matmuls), so losses and
gradients are compared to a relative tolerance set beforehand from
float64 rounding, 1e-12; a wrong term in the hand-written backward is
off by order 1. The rest checks the workspace the fused node reuses:
nothing a caller holds aliases it, a warm workspace gives the bits a
fresh model gives, and inference run in row blocks gives the bits of
one block.
"""

import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import potsmine
from potsmine import (Batch, PotsDataset, SaitsLiteModel, generate_synthetic, impute,
                      inject_mcar, saits_forward, stack_samples)
from potsmine import tensor as T
from potsmine.errors import InvalidInputError
from potsmine.models.base import _WORKSPACE_ROWS
from potsmine.models.imputation import _INFER_BYTES


# ---------------------------------------------------------------------------
# unrolled tape oracle

def _forward_oracle(model, params, x0, mask, attns=None):
    """The reconstruction; each block's attention is appended to attns."""
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
        if attns is not None:
            attns.append(attn.data)
        h = h + (attn @ v)
        h = h + (T.relu(h @ p["w_f1"] + p["b_f1"]) @ p["w_f2"] + p["b_f2"])
        xb = h @ p["w_out"] + p["b_out"]
        if b < model.N_BLOCKS:
            cur = T.constant(x0) + keep * xb
    return xb


def _batch_loss_sum_oracle(model, leaves, batch):
    maskf = (batch.mask != 0).astype(np.float64)
    x0 = model.norm_stats.forward(batch.values, batch.mask)
    xhat = _forward_oracle(model, leaves, x0, maskf)
    originals = batch.values if batch.originals is None else batch.originals
    if batch.indicating is None:
        indf = np.zeros_like(maskf)
    else:
        indf = (batch.indicating != 0).astype(np.float64)
    union = (maskf != 0) | (indf != 0)
    target = np.where(union, (originals - model.norm_stats.mean) / model.norm_stats.std, 0.0)

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

def perturbed_model(t=48, d=8, d_model=32, seed=3, d_ff=None):
    """A model off its zero-bias initialization, so every term is generic."""
    model = SaitsLiteModel(n_steps=t, n_features=d, d_model=d_model,
                           d_ff=d_ff or 2 * d_model, lam_mit=0.7, init_seed=seed)
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
    model = perturbed_model()
    if case != "unnormalized":   # else the norm stats stay the identity
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


@pytest.mark.parametrize("t, d_model, d_ff, fitted, zero_key_column", [
    (2, 1, 2, True, False),
    (6, 8, 12, True, False),
    (12, 8, 16, False, True),
])
def test_merged_query_key_projection_matches_tape_oracle(t, d_model, d_ff, fitted,
                                                         zero_key_column):
    # the fused node projects onto w_qk = w_q w_k^T / sqrt(d_model) and
    # maps its gradient back to w_q and w_k; the oracle projects apart
    view = pair_view(n=8, t=t, d=3, seed=t)
    model = perturbed_model(t=t, d=3, d_model=d_model, d_ff=d_ff, seed=5)
    if zero_key_column:
        model.parameters["b1_w_k"][:, 2] = 0.0
    if fitted:
        model.prepare_fit(view)
    batch = view.training_batch(list(range(8)))
    loss, grads = fused_loss_and_grads(model, batch)
    want_loss, want = _loss_and_grads(
        lambda leaves, b: _batch_loss_sum_oracle(model, leaves, b), model, batch)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    for name, g in want.items():
        assert max_rel(grads[name], g) <= 1e-12, name
    for b in (1, 2):
        want_q, want_k = want[f"b{b}_w_q"], want[f"b{b}_w_k"]
        if t == 2:
            # each step attends to the other alone, whatever the scores
            assert not grads[f"b{b}_w_q"].any() and not grads[f"b{b}_w_k"].any()
            continue
        # a swapped or transposed w_q/w_k gradient would be far outside 1e-12
        assert max_rel(want_k, want_q) > 1e-3 and max_rel(want_q, want_k) > 1e-3
        if d_model > 1:
            assert max_rel(want_q.T, want_q) > 1e-3 and max_rel(want_k.T, want_k) > 1e-3


def extreme_batch(model, n=6):
    """pair_view's first n samples, with samples 0 and 1 replaced by fully
    observed constant series whose block-1 scores leave exp's range.

    The series lie along the most negative and the most positive
    eigenvector of block 1's score form on the values, w_in_x w_qk
    w_in_x^T, scaled so that the form reads -1500 and +1500: every score
    of sample 0 is then far below -745 (exp underflows to 0), and sample
    1's are far above 709.8 (exp overflows).
    """
    p, d, dm = model.parameters, model.n_features, model.d_model
    w_x = p["b1_w_in"][:d]
    form = w_x @ p["b1_w_q"] @ p["b1_w_k"].T @ w_x.T / math.sqrt(dm)
    lam, vec = np.linalg.eigh(form + form.T)
    assert lam[0] < 0 < lam[-1]
    batch = pair_view(n=n, t=model.n_steps, d=d, seed=model.n_steps).training_batch(
        list(range(n)))
    values, mask = batch.values.copy(), batch.mask.copy()
    for i, k in ((0, 0), (1, -1)):
        values[i] = math.sqrt(3000.0 / abs(lam[k])) * vec[:, k]
        mask[i] = 1
    return values, mask


def test_softmax_outside_exp_range_matches_tape_oracle_sample_by_sample():
    # the unshifted exp underflows to a zero row sum in sample 0 and
    # overflows in sample 1; those samples alone take the shifted softmax
    model = perturbed_model(t=12, d=3, d_model=8, seed=5)
    values, mask = extreme_batch(model)
    p = model.parameters
    maskf = mask.astype(np.float64)
    x0 = model.norm_stats.forward(values, mask)
    lifted = np.concatenate([x0, maskf], axis=2) @ p["b1_w_in"] + p["b1_b_in"] + p["b1_pos"]
    scores = (lifted @ p["b1_w_q"]) @ (lifted @ p["b1_w_k"]).swapaxes(1, 2)
    scores /= math.sqrt(model.d_model)
    off = ~np.eye(model.n_steps, dtype=bool)
    with np.errstate(over="ignore"):
        unshifted = np.exp(scores[:2, off])
    assert not unshifted[0].any() and np.isinf(unshifted[1]).all()
    xhat, attns = saits_forward(model, values, mask)
    assert np.isfinite(xhat).all() and all(np.isfinite(a).all() for a in attns)
    want_attns = []
    want = _forward_oracle(model, p, x0, maskf, want_attns).data
    for i in range(len(values)):
        assert max_rel(xhat[i], want[i]) <= 1e-12, i
        for have_attn, want_attn in zip(attns, want_attns):
            assert max_rel(have_attn[i], want_attn[i]) <= 1e-12, i
        alone, alone_attns = saits_forward(model, values[i:i + 1], mask[i:i + 1])
        assert np.array_equal(alone[0], xhat[i]), i
        for have_attn, alone_attn in zip(attns, alone_attns):
            assert np.array_equal(alone_attn[0], have_attn[i]), i


def block1_scores(model, values, mask):
    """Block 1's scores, its diagonal at -1e9, and its values v, as the
    oracle computes them; both (B, T, .)."""
    p = model.parameters
    x0 = model.norm_stats.forward(values, mask)
    lifted = np.concatenate([x0, mask.astype(np.float64)], axis=2) @ p["b1_w_in"] \
        + p["b1_b_in"] + p["b1_pos"]
    scores = (lifted @ p["b1_w_q"]) @ (lifted @ p["b1_w_k"]).swapaxes(1, 2)
    scores /= math.sqrt(model.d_model)
    scores[:, np.eye(model.n_steps, dtype=bool)] = -1e9
    return scores, lifted @ p["b1_w_v"]


@pytest.mark.parametrize("reads", [723.0, 725.5])
def test_exp_in_range_whose_row_sums_or_product_overflow_matches_tape_oracle(reads):
    # sample 1's form reads about +724, not +1500, so every entry of its
    # unshifted exp is finite. At 723 (largest score 707.2) its row sums
    # are finite too, but their product with the values overflows; at
    # 725.5 (709.6) the row sums overflow as well. Either way the sample
    # takes the shifted softmax, with no RuntimeWarning
    model = perturbed_model(t=12, d=3, d_model=8, seed=5)
    values, mask = extreme_batch(model)
    values[1] *= math.sqrt(reads / 1500.0)
    scores, v = block1_scores(model, values, mask)
    assert 706.0 < scores[1].max() < 709.78 and np.abs(v[1]).max() > 10.0
    with np.errstate(over="ignore", invalid="ignore"):
        unshifted = np.exp(scores[1])
        assert np.isfinite(unshifted).all()
        assert np.isfinite(unshifted.sum(axis=1)).all() == (reads < 724.0)
        assert not np.isfinite(unshifted @ v[1]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        xhat, attns = saits_forward(model, values, mask)
        blocked = model._reconstruct(Batch(values, mask, np.zeros(values.shape[:2]), None))
        alone = saits_forward(model, values[1:2], mask[1:2])[0]
    x0 = model.norm_stats.forward(values, mask)
    want = _forward_oracle(model, model.parameters, x0, mask.astype(np.float64)).data
    assert np.isfinite(xhat).all()
    for i in range(len(values)):
        assert max_rel(xhat[i], want[i]) <= 1e-12, i
    assert np.array_equal(blocked, xhat)
    assert np.array_equal(alone[0], xhat[1])


def test_softmax_outside_exp_range_in_a_middle_row_block_of_inference():
    # inference checks the row sums once per row block of _infer_rows
    # samples; the one sample whose exp overflows sits in the second of
    # four row blocks and must take the shifted softmax there
    model = perturbed_model()
    rows = model._infer_rows
    values, mask = extreme_batch(model, n=3 * rows + 2)
    at = rows + rows // 2
    values = np.insert(values[2:], at, values[1], axis=0)
    mask = np.insert(mask[2:], at, mask[1], axis=0)
    scores = block1_scores(model, values[at:at + 1], mask[at:at + 1])[0]
    assert scores[0, ~np.eye(model.n_steps, dtype=bool)].min() > 710.0
    batch = Batch(values, mask, np.zeros(values.shape[:2]), None)
    blocked = model._reconstruct(batch)
    assert len(values) > 3 * rows and np.isfinite(blocked).all()
    assert np.array_equal(blocked, saits_forward(model, values, mask)[0])
    alone = model._reconstruct(Batch(values[at:at + 1], mask[at:at + 1],
                                     np.zeros((1, model.n_steps)), None))
    assert np.array_equal(alone[0], blocked[at])


def gradient_digests() -> dict:
    """sha256 digests of the loss and every gradient of perturbed_model()
    on pair_view()'s first 17 and 32 samples."""
    view = pair_view()
    model = perturbed_model()
    model.prepare_fit(view)
    out = {}
    for size in (17, 32):
        loss, grads = model.shard_loss_and_grads(view, range(size))
        out[str(size)] = {name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                          for name, a in [("loss", np.float64(loss)), *grads.items()]}
    return out


def _gradient_digests_in_a_subprocess(blas_threads: int) -> dict:
    here = Path(__file__).resolve().parent
    src = str(Path(potsmine.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, str(here), env.get("PYTHONPATH")]))
    script = ("import json, test_classification, test_saits_oracle; "
              "print(json.dumps({'saits_lite': test_saits_oracle.gradient_digests(), "
              "'grud_lite': test_classification.gradient_digests()}))")
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout)


def test_gradient_bits_at_one_and_two_blas_threads():
    # the weight gradients sum over T * B rows in fixed blocks (tensor.at_b),
    # so no loss or gradient of either model may differ
    one, two = _gradient_digests_in_a_subprocess(1), _gradient_digests_in_a_subprocess(2)
    assert one.keys() == two.keys() == {"saits_lite", "grud_lite"}
    assert one["saits_lite"].keys() == {"17", "32"}
    assert len(one["grud_lite"]) == 12
    differ = [(kind, case, name) for kind in one for case in one[kind]
              for name in one[kind][case] if one[kind][case][name] != two[kind][case][name]]
    assert one == two, differ


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


def test_a_second_backward_of_one_forward_is_refused():
    # the backward writes its gradients over the state it reads
    view = pair_view(n=4, t=6, d=2)
    model = perturbed_model(t=6, d=2, d_model=8)
    tape = T.Tape()
    leaves = {k: tape.leaf(v) for k, v in model.parameters.items()}
    loss = model.batch_loss_sum(leaves, view.training_batch([0, 1, 2, 3]))
    tape.backward(loss)
    with pytest.raises(InvalidInputError, match="overwrote the workspace"):
        tape.backward(loss)


# ---------------------------------------------------------------------------
# the workspace

def workspace_bytes(model):
    return sum(a.nbytes for a in model._workspace.values())


@pytest.mark.parametrize("size", [1, 15, 16, 17, 75, 300])
def test_blocked_inference_equals_one_block_bitwise(size):
    # saits_forward runs the whole batch as one block, as training does
    ds = generate_synthetic(size, 48, 8, 2, missing_rate=0.2, seed=size)
    batch = stack_samples(ds.samples)
    model = perturbed_model()
    model.prepare_fit(ds)
    one_block = saits_forward(model, batch.values, batch.mask)[0]
    assert np.array_equal(model._reconstruct(batch), one_block)
    assert np.array_equal(impute(model, ds), np.where(batch.mask, batch.values, one_block))


def test_inference_workspace_is_one_row_block_whatever_the_batch():
    ds = generate_synthetic(300, 48, 8, 2, missing_rate=0.2, seed=6)
    many, one = perturbed_model(), perturbed_model()
    assert one._infer_rows == 16
    impute(many, ds)
    impute(one, PotsDataset(ds.samples[:one._infer_rows]))
    assert workspace_bytes(many) == workspace_bytes(one) <= _INFER_BYTES


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
