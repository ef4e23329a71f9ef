"""Data model: samples, corruption, deltas, normalization, CSV, splits."""

import csv
import dataclasses
import zlib

import numpy as np
import pytest

from potsmine import (
    Batch,
    CorruptedPairView,
    NormStats,
    PotsDataset,
    TimeSeriesSample,
    compute_delta,
    export_csv,
    fetch_all,
    fit_norm_stats,
    generate_synthetic,
    ingest_csv,
    inject_mcar,
    lazy_dataset,
    open_readonly,
    split,
    stack_samples,
    write_container,
)
from potsmine.store import fetch_batch
from potsmine.core import _time_since_observed
from potsmine.errors import FormatError, InvalidInputError


def make_sample(sample_id=0, label=None):
    values = np.array([[1.0, np.nan], [2.0, 5.0], [np.nan, 6.0]])
    mask = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return TimeSeriesSample(sample_id=sample_id, timestamps=np.arange(3.0),
                            values=values, mask=mask, label=label)


# ---------------------------------------------------------------------------
# sample and dataset invariants

def test_sample_rejects_mask_sentinel_disagreement():
    with pytest.raises(InvalidInputError, match="disagree"):
        TimeSeriesSample(sample_id=0, timestamps=np.arange(2.0),
                         values=np.array([[1.0], [2.0]]),
                         mask=np.array([[1.0], [0.0]]))
    with pytest.raises(InvalidInputError, match="disagree"):
        TimeSeriesSample(sample_id=0, timestamps=np.arange(2.0),
                         values=np.array([[np.nan], [2.0]]),
                         mask=np.array([[1.0], [1.0]]))


def test_sample_rejects_bad_timestamps_and_mask_values():
    with pytest.raises(InvalidInputError, match="increasing"):
        TimeSeriesSample(sample_id=0, timestamps=np.array([0.0, 0.0]),
                         values=np.ones((2, 1)), mask=np.ones((2, 1)))
    with pytest.raises(InvalidInputError, match="0 or 1"):
        TimeSeriesSample(sample_id=0, timestamps=np.arange(2.0),
                         values=np.ones((2, 1)),
                         mask=np.array([[1.0], [2.0]]))


def test_sample_arrays_are_read_only():
    s = make_sample()
    with pytest.raises(ValueError):
        s.values[0, 0] = 9.0


def test_dataset_requires_homogeneous_shape():
    other = TimeSeriesSample(sample_id=1, timestamps=np.arange(2.0),
                             values=np.ones((2, 2)), mask=np.ones((2, 2)))
    with pytest.raises(InvalidInputError):
        PotsDataset([make_sample(), other])


def block(n=2, t=3, d=2, **fields):
    """A valid dataset block, with fields replaced."""
    base = dict(values=np.ones((n, t, d)), mask=np.ones((n, t, d)),
                timestamps=np.tile(np.arange(float(t)), (n, 1)), labels=np.arange(n),
                sample_ids=np.array([5, 7][:n], dtype=np.uint64))
    return Batch(**{**base, **fields})


_BAD_DATASETS = {
    "no_samples": (lambda: PotsDataset([]), "at least one array"),
    "sample_shapes": (lambda: TimeSeriesSample(0, np.arange(2.0), np.ones((3, 1)),
                                               np.ones((3, 1))), "expected nonempty"),
    "sample_empty": (lambda: TimeSeriesSample(0, np.arange(2.0), np.ones((2, 0)),
                                              np.ones((2, 0))), "expected nonempty"),
    "sample_negative_id": (lambda: TimeSeriesSample(-1, np.arange(2.0), np.ones((2, 1)),
                                                    np.ones((2, 1))), "sample_id must be"),
    "block_shapes": (lambda: PotsDataset(block(mask=np.ones((2, 3, 1)))),
                     "expected nonempty"),
    "block_empty": (lambda: PotsDataset(block(t=0)), "expected nonempty"),
    "block_timestamps": (lambda: PotsDataset(block(timestamps=np.array(
        [[0.0, 1.0, 2.0], [0.0, 2.0, 1.0]]))), "sample 7: timestamps are not strictly"),
    "block_label": (lambda: PotsDataset(block(labels=np.array([0, -3]))),
                    "sample 7: label must be non-negative"),
    "n_classes_zero": (lambda: PotsDataset(block(), n_classes=0), "must be positive"),
    "n_classes_unlabeled": (lambda: PotsDataset(block(labels=np.array([-1, 0])), n_classes=2),
                            r"sample 5: needs a label in \[0, 2\)"),
    "n_classes_too_few": (lambda: PotsDataset(block(), n_classes=1),
                          r"sample 7: needs a label in \[0, 1\)"),
    "labels_array": (lambda: PotsDataset(block(labels=None)).labels_array(),
                     "samples without labels"),
}


@pytest.mark.parametrize("case", sorted(_BAD_DATASETS))
def test_dataset_and_sample_refuse_bad_input(case):
    make, message = _BAD_DATASETS[case]
    with pytest.raises(InvalidInputError, match=message):
        make()


def test_dataset_from_a_batch_defaults_ids_and_labels():
    ds = PotsDataset(block(sample_ids=None, labels=None))
    assert ds.training_batch([1, 0]).sample_ids.tolist() == [1, 0]
    assert not ds.has_labels and ds.n_classes is None
    assert [s.label for s in ds.samples] == [None, None]


def test_dataset_infers_n_classes_from_labels():
    ds = PotsDataset([make_sample(0, label=0), make_sample(1, label=2)])
    assert ds.n_classes == 3
    unlabeled = PotsDataset([make_sample(0), make_sample(1)])
    assert unlabeled.n_classes is None


def test_training_batch_rejects_out_of_range_index():
    ds = PotsDataset([make_sample(0), make_sample(1)])
    with pytest.raises(InvalidInputError, match="out of range"):
        ds.training_batch([0, 2])


def test_stack_samples_shapes_and_labels():
    batch = stack_samples([make_sample(0, label=1), make_sample(1, label=0)])
    assert batch.values.shape == (2, 3, 2)
    assert batch.mask.shape == (2, 3, 2)
    assert np.array_equal(batch.labels, [1, 0])
    assert stack_samples([make_sample(0), make_sample(1, label=1)]).labels.tolist() == [-1, 1]


def partly_labeled(n=6, t=5, d=2, seed=4):
    """A dataset in which every odd sample has no label."""
    return PotsDataset([dataclasses.replace(s, label=None) if s.sample_id % 2 else s
                        for s in generate_synthetic(n, t, d, 3, missing_rate=0.3,
                                                    seed=seed).samples])


@pytest.mark.parametrize("kind", ["labeled", "partly_labeled", "split", "corrupted"])
def test_samples_equal_the_arrays_row_for_row(kind):
    ds = generate_synthetic(9, 5, 2, 3, missing_rate=0.3, seed=2)
    ds = {"labeled": ds, "partly_labeled": partly_labeled(),
          "split": split(ds, (0.6, 0.2, 0.2), seed=1)[0],
          "corrupted": inject_mcar(ds, 0.4, seed=3).corrupted}[kind]
    n = len(ds)
    batch = fetch_all(ds)
    samples = ds.samples
    assert samples is ds.samples  # built once, then kept
    assert len(samples) == n
    assert [s.sample_id for s in samples] == batch.sample_ids.tolist()
    labels = [s.label for s in samples]
    assert [-1 if label is None else label for label in labels] == batch.labels.tolist()
    if None in labels:
        assert not ds.has_labels
    else:
        assert labels == ds.labels_array().tolist()
    for f in ("values", "mask", "timestamps"):
        rows = np.stack([getattr(s, f) for s in samples])
        assert rows.tobytes() == getattr(batch, f).tobytes(), f
    rebuilt = PotsDataset(samples, n_classes=ds.n_classes)
    assert rebuilt.samples is not samples
    assert all(a is b for a, b in zip(rebuilt.samples, samples))
    assert fetch_all(rebuilt).values.tobytes() == batch.values.tobytes()


def test_dataset_from_its_own_samples_shares_the_block_until_they_change():
    ds = generate_synthetic(4, 3, 2, 2, missing_rate=0.2, seed=0)
    same = PotsDataset(ds.samples)
    assert np.shares_memory(same._block.values, ds._block.values)
    rows = ds.samples
    rows[0], rows[1] = rows[1], rows[0]
    swapped = PotsDataset(rows)
    assert not np.shares_memory(swapped._block.values, ds._block.values)
    assert swapped.training_batch([0, 1, 2, 3]).sample_ids.tolist() == [1, 0, 2, 3]


def test_dataset_block_and_its_rows_are_read_only():
    ds = generate_synthetic(3, 4, 2, 2, missing_rate=0.2, seed=0)
    for arr in (ds._block.values, ds._block.labels, ds.samples[0].values):
        with pytest.raises(ValueError):
            arr[0] = 9
    batch = ds.training_batch([0, 1])
    batch.values[0, 0, 0] = 9.0  # a batch is the caller's own copy
    assert ds.training_batch([0]).values[0, 0, 0] != 9.0


# ---------------------------------------------------------------------------
# bool masks

def test_a_mask_of_0s_and_1s_comes_back_read_only_bool():
    cells = [[True, False], [True, True], [False, True]]
    s = make_sample()
    ds = PotsDataset(block(mask=np.ones((2, 3, 2), dtype=np.int64)))
    for mask in (s.mask, ds._block.mask, ds.samples[0].mask):
        assert mask.dtype == bool and not mask.flags.writeable
    assert np.array_equal(s.mask, cells) and ds._block.mask.all()
    # a writable bool mask is copied, a read-only one (a block's row) kept
    mine = np.array(cells)
    kept = TimeSeriesSample(0, np.arange(3.0), s.values, mine)
    mine[0, 0] = False
    assert kept.mask[0, 0] and not kept.mask.flags.writeable
    row = ds.samples[1]
    again = TimeSeriesSample(0, row.timestamps, row.values, row.mask)
    assert np.shares_memory(again.mask, ds._block.mask)


def test_a_mask_entry_of_one_half_is_still_refused():
    half = np.array([[1.0], [0.5]])
    with pytest.raises(InvalidInputError, match="mask entries must be 0 or 1"):
        TimeSeriesSample(0, np.arange(2.0), np.ones((2, 1)), half)
    with pytest.raises(InvalidInputError, match="sample 7: mask entries must be 0 or 1"):
        PotsDataset(block(n=2, t=2, d=1, mask=np.stack([np.ones((2, 1)), half])))


def test_every_mask_source_gives_bool_masks_with_the_observed_cells(tmp_path):
    ds = generate_synthetic(6, 5, 3, 2, missing_rate=0.3, seed=2)
    observed = np.isfinite(ds._block.values)
    pots, text = str(tmp_path / "d.pots"), str(tmp_path / "d.csv")
    write_container(ds, pots)
    export_csv(ds, text)
    with open_readonly(pots) as h:
        masks = {"generate_synthetic": ds._block.mask,
                 "stack_samples": stack_samples(ds.samples).mask,
                 "read_batch": h.read_batch(range(6)).mask,
                 "fetch_batch": stack_samples(fetch_batch(h, range(6))).mask,
                 "ingest_csv": ingest_csv(text)._block.mask}
    for name, mask in masks.items():
        assert mask.dtype == bool and np.array_equal(mask, observed), name
    # the pair view's indicating mask holds the cells 0/1 float masks gave
    view = inject_mcar(ds, 0.4, seed=3)
    batch = view.training_batch(range(6))
    orig, corr = (v._block.mask.astype(np.float64) for v in (view.original, view.corrupted))
    assert batch.mask.dtype == batch.indicating.dtype == bool
    assert batch.indicating.any() and np.array_equal(batch.indicating, orig * (1.0 - corr))


# ---------------------------------------------------------------------------
# compute_delta

def test_delta_gap_accumulation():
    mask = np.array([[1.0], [0.0], [0.0], [1.0]])
    out = compute_delta(np.arange(4.0), mask)
    assert np.array_equal(out[:, 0], [0.0, 1.0, 2.0, 3.0])


def test_delta_all_observed():
    mask = np.ones((4, 1))
    out = compute_delta(np.arange(4.0), mask)
    assert np.array_equal(out[:, 0], [0.0, 1.0, 1.0, 1.0])


def test_delta_irregular_timestamps():
    mask = np.array([[1.0], [1.0], [0.0]])
    out = compute_delta(np.array([0.0, 0.5, 2.0]), mask)
    assert np.array_equal(out[:, 0], [0.0, 0.5, 1.5])


def test_delta_nonnegative_and_zero_first_row():
    rng = np.random.default_rng(17)
    for _ in range(20):
        t_len = int(rng.integers(2, 12))
        ts = np.cumsum(rng.random(t_len) + 0.01)
        mask = (rng.random((t_len, 3)) < 0.5).astype(float)
        out = compute_delta(ts, mask)
        assert np.all(out[0] == 0.0)
        assert np.all(out >= 0.0)


def test_delta_rejects_non_increasing():
    with pytest.raises(InvalidInputError):
        compute_delta(np.array([1.0, 1.0]), np.ones((2, 1)))
    with pytest.raises(InvalidInputError, match="incompatible shapes"):
        compute_delta(np.arange(3.0), np.ones((2, 1)))


def _delta_by_step(timestamps, mask):
    """The per-sample recurrence compute_delta ran before it was batched:
    one (D,) row per step, the gap first, then the carried delta."""
    delta = np.zeros(mask.shape)
    for t in range(1, len(mask)):
        gap = timestamps[t] - timestamps[t - 1]
        delta[t] = gap + np.where(mask[t - 1] != 0, 0.0, delta[t - 1])
    return delta


@pytest.mark.parametrize("n, t_len, d", [(6, 13, 3), (1, 1, 2), (1, 7, 1), (40, 48, 8)])
def test_batched_delta_and_compute_delta_are_bitwise_the_step_recurrence(n, t_len, d):
    rng = np.random.default_rng(n + t_len + d)
    # gaps across magnitudes, so a different summation order would show
    ts = np.cumsum(rng.uniform(0.1, 3.0, (n, t_len)) * rng.choice([1e-3, 1.0, 1e3], (n, t_len)),
                   axis=1)
    mask = (rng.random((n, t_len, d)) < 0.5).astype(np.float64)
    mask[:, : t_len // 3, 0] = 0.0          # leading gaps
    mask[:, t_len // 3: 2 * t_len // 3, d - 1] = 0.0   # interior gaps
    want = np.stack([_delta_by_step(ts[i], mask[i]) for i in range(n)])
    batched = _time_since_observed(np.diff(ts, axis=1).T, (mask != 0).transpose(1, 0, 2))
    assert np.array_equal(batched.transpose(1, 0, 2).view(np.uint64), want.view(np.uint64))
    for i in range(n):
        got = compute_delta(ts[i], mask[i])
        assert got.shape == (t_len, d)
        assert np.array_equal(got.view(np.uint64), want[i].view(np.uint64))


def test_compute_delta_of_an_empty_series_is_empty():
    assert compute_delta(np.zeros(0), np.ones((0, 2))).shape == (0, 2)


# ---------------------------------------------------------------------------
# inject_mcar

def full_dataset(n=4, t=10, d=5, seed=1):
    rng = np.random.default_rng(seed)
    samples = [TimeSeriesSample(sample_id=i, timestamps=np.arange(float(t)),
                                values=rng.normal(size=(t, d)),
                                mask=np.ones((t, d)))
               for i in range(n)]
    return PotsDataset(samples)


def test_mcar_rate_zero_is_identity():
    ds = full_dataset()
    view = inject_mcar(ds, 0.0, seed=3)
    indicating = fetch_all(view).indicating
    for i, s in enumerate(view.corrupted.samples):
        assert np.array_equal(s.values, ds.samples[i].values)
        assert not indicating[i].any()


def test_mcar_rate_one_hides_everything():
    ds = full_dataset(n=2)
    view = inject_mcar(ds, 1.0, seed=3)
    indicating = fetch_all(view).indicating
    for i, s in enumerate(view.corrupted.samples):
        assert not s.mask.any()
        assert np.array_equal(indicating[i], ds.samples[i].mask)


def test_mcar_exact_counts():
    ds = full_dataset(n=6, t=10, d=5)
    for seed in range(5):
        view = inject_mcar(ds, 0.2, seed=seed)
        for ind in fetch_all(view).indicating:
            assert int(ind.sum()) == 10


def test_mcar_mask_composition_and_determinism():
    ds = generate_synthetic(8, 12, 3, 2, missing_rate=0.3, seed=5)
    a = fetch_all(inject_mcar(ds, 0.25, seed=9))
    b = fetch_all(inject_mcar(ds, 0.25, seed=9))
    for i in range(len(ds)):
        orig = ds.samples[i].mask
        corr = a.mask[i]
        ind = a.indicating[i]
        assert np.array_equal(np.maximum(corr, ind), orig)
        assert not np.any((ind != 0) & (corr != 0))
        assert np.array_equal(ind, b.indicating[i])


def test_mcar_rejects_bad_rate():
    with pytest.raises(InvalidInputError):
        inject_mcar(full_dataset(), 1.5, seed=0)


def test_pair_view_matches_direct_injection():
    # CRC-32 of the stacked indicating mask, as float64 0s and 1s, as
    # inject_mcar built it when it still returned per-sample lists; it pins
    # which cells the seed hides
    ds = generate_synthetic(8, 12, 3, 2, 0.3, seed=5)
    batch = inject_mcar(ds, 0.25, seed=9).training_batch(list(range(8)))
    assert np.array_equal(batch.originals, np.stack([s.values for s in ds.samples]),
                          equal_nan=True)
    assert batch.indicating.dtype == bool and batch.indicating.shape == (8, 12, 3)
    assert zlib.crc32(batch.indicating.astype(np.float64).tobytes()) == 2598851383
    assert int(batch.indicating.sum()) == 48


def test_pair_view_rejects_cells_missing_from_original():
    ds = full_dataset(n=3, t=6, d=2)
    sparse = inject_mcar(ds, 0.5, seed=4).corrupted
    view = inject_mcar(ds, 0.2, seed=5)
    with pytest.raises(InvalidInputError, match="original lacks"):
        CorruptedPairView(sparse, view.corrupted).training_batch([0, 1, 2])
    with pytest.raises(InvalidInputError, match="equal length"):
        CorruptedPairView(full_dataset(n=2, t=6, d=2), view.corrupted)
    with pytest.raises(InvalidInputError, match="share"):
        CorruptedPairView(full_dataset(n=3, t=5, d=2), view.corrupted)


def test_pair_view_rejects_values_that_differ_from_original():
    # an unrelated original that observes every cell passes the mask check
    unrelated = generate_synthetic(6, 8, 2, 2, 0.0, seed=7)
    corrupted = inject_mcar(generate_synthetic(6, 8, 2, 2, 0.0, seed=0), 0.2, seed=1).corrupted
    view = CorruptedPairView(unrelated, corrupted)
    with pytest.raises(InvalidInputError, match="disagree on a value"):
        view.training_batch(list(range(6)))


# ---------------------------------------------------------------------------
# normalization

def test_norm_two_point_example():
    values = np.array([[2.0], [4.0]])
    s = TimeSeriesSample(sample_id=0, timestamps=np.arange(2.0),
                         values=values, mask=np.ones((2, 1)))
    ds = PotsDataset([s])
    stats = fit_norm_stats(ds)
    assert stats.mean[0] == 3.0 and stats.std[0] == 1.0
    assert np.array_equal(stats.forward(values), [[-1.0], [1.0]])
    assert np.array_equal(stats.forward(values, np.array([[0.0], [1.0]])), [[0.0], [1.0]])


def test_norm_all_missing_feature_identity():
    values = np.array([[1.0, np.nan], [3.0, np.nan]])
    mask = np.array([[1.0, 0.0], [1.0, 0.0]])
    ds = PotsDataset([TimeSeriesSample(sample_id=0, timestamps=np.arange(2.0),
                                       values=values, mask=mask)])
    stats = fit_norm_stats(ds)
    assert stats.mean[1] == 0.0 and stats.std[1] == 1.0


def test_norm_round_trip():
    ds = generate_synthetic(6, 10, 4, 2, missing_rate=0.2, seed=2)
    stats = fit_norm_stats(ds)
    for s in ds.samples:
        back = stats.inverse(stats.forward(s.values))
        obs = s.mask != 0
        orig = s.values
        rel = np.abs(back[obs] - orig[obs]) / np.maximum(np.abs(orig[obs]), 1e-12)
        assert rel.max() < 1e-12
        assert np.isnan(back[~obs]).all()


def test_norm_std_floor():
    assert NormStats.STD_FLOOR == 1e-8
    values = np.full((3, 1), 7.0)
    ds = PotsDataset([TimeSeriesSample(sample_id=0, timestamps=np.arange(3.0),
                                       values=values, mask=np.ones((3, 1)))])
    stats = fit_norm_stats(ds)
    assert stats.std[0] == 1e-8


def test_norm_stats_do_not_cancel_far_from_zero():
    # E[x^2] - mean^2 loses every digit here: each std came out as the floor
    ds = generate_synthetic(200, 24, 3, 2, 0.1, seed=0)
    block = ds.training_batch(range(len(ds)))
    block.values[...] += 1e8
    stats = fit_norm_stats(PotsDataset(block))
    for j in range(3):
        seen = block.values[..., j][block.mask[..., j]]
        assert abs(stats.std[j] - seen.std()) <= 1e-6 * seen.std()
        assert abs(stats.mean[j] - seen.mean()) <= 1e-12 * seen.mean()


def test_norm_stats_stream_the_same_bits_from_memory_and_from_a_container(tmp_path):
    ds = generate_synthetic(600, 7, 3, 2, 0.2, seed=4)   # three chunks of at most 256
    path = str(tmp_path / "d.pots")
    write_container(ds, path)
    with open_readonly(path) as handle:
        lazy = fit_norm_stats(lazy_dataset(handle))
    memory = fit_norm_stats(ds)
    assert lazy.mean.tobytes() == memory.mean.tobytes()
    assert lazy.std.tobytes() == memory.std.tobytes()


@pytest.mark.parametrize("mean, std, message", [
    (np.zeros((2, 2)), np.ones((2, 2)), r"must be 1-D and of one width, got mean \(2, 2\)"),
    (np.zeros(3), np.ones(2), r"of one width, got mean \(3,\) and std \(2,\)"),
    (np.array([0.0, np.nan, 0.0]), np.ones(3), "a non-finite value at feature 1"),
    (np.zeros(3), np.array([1.0, 1.0, np.inf]), "a non-finite value at feature 2"),
    (np.zeros(3), np.array([1.0, 0.0, 1.0]), "a std below 1e-08 at feature 1"),
    (np.zeros(3), np.array([1.0, 1.0, 9e-9]), "a std below 1e-08 at feature 2"),
    # the first feature at fault is named, whichever its fault
    (np.array([0.0, np.nan]), np.array([-1.0, 1.0]), "a std below 1e-08 at feature 0"),
], ids=["rank2", "widths", "nan_mean", "inf_std", "zero_std", "std_under_floor", "first"])
def test_norm_stats_refuse_what_they_cannot_normalize_by(mean, std, message):
    with pytest.raises(InvalidInputError, match=message):
        NormStats(mean, std)


def test_norm_stats_at_the_floor_and_with_no_features_are_accepted():
    assert NormStats(np.zeros(1), np.full(1, NormStats.STD_FLOOR)).std[0] == 1e-8
    assert NormStats(np.zeros(0), np.ones(0)).forward(np.ones((2, 0))).shape == (2, 0)


def test_norm_forward_and_inverse_are_the_one_formula_bitwise():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(4, 5, 3)) * 1e3
    mask = rng.random((4, 5, 3)) < 0.7
    stats = NormStats(rng.normal(size=3), rng.random(3) + 0.5)
    w = stats.forward(values, mask)
    assert np.array_equal(w, np.where(mask, (values - stats.mean) / stats.std, 0.0))
    assert np.array_equal(stats.inverse(w), w * stats.std + stats.mean)


# ---------------------------------------------------------------------------
# synthetic generation

def test_synthetic_no_missing_when_rate_zero():
    ds = generate_synthetic(4, 6, 2, 2, missing_rate=0.0, seed=0)
    for s in ds.samples:
        assert s.mask.all()


def test_synthetic_deterministic():
    a = generate_synthetic(5, 8, 3, 2, missing_rate=0.2, seed=11)
    b = generate_synthetic(5, 8, 3, 2, missing_rate=0.2, seed=11)
    for sa, sb in zip(a.samples, b.samples):
        assert np.array_equal(sa.values, sb.values, equal_nan=True)
        assert np.array_equal(sa.mask, sb.mask)
        assert sa.label == sb.label


def test_synthetic_balanced_labels():
    ds = generate_synthetic(200, 4, 2, 2, missing_rate=0.0, seed=1)
    counts = np.bincount([s.label for s in ds.samples], minlength=2)
    assert counts.tolist() == [100, 100]
    ds3 = generate_synthetic(8, 4, 2, 3, missing_rate=0.0, seed=1)
    counts3 = np.bincount([s.label for s in ds3.samples], minlength=3)
    assert counts3.max() - counts3.min() <= 1


def test_synthetic_rejects_bad_args():
    with pytest.raises(InvalidInputError):
        generate_synthetic(0, 4, 2, 2, missing_rate=0.0, seed=0)
    with pytest.raises(InvalidInputError):
        generate_synthetic(4, 4, 2, 2, missing_rate=1.0, seed=0)


def test_every_seeded_draw_refuses_a_negative_seed():
    ds = generate_synthetic(8, 4, 2, 2, missing_rate=0.0, seed=0)
    for draw in (lambda: generate_synthetic(8, 4, 2, 2, missing_rate=0.0, seed=-1),
                 lambda: inject_mcar(ds, 0.2, seed=-1),
                 lambda: split(ds, (0.5, 0.25, 0.25), seed=-2)):
        with pytest.raises(InvalidInputError, match="seed must be non-negative, got -"):
            draw()


# ---------------------------------------------------------------------------
# CSV ingestion

def test_csv_single_empty_cell_maps_to_mask(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("sample_id,step,f0\n0,0,1.5\n\n0,1,\n")  # blank lines are skipped
    ds = ingest_csv(str(path))
    assert np.array_equal(ds.samples[0].mask, [[1.0], [0.0]])
    assert ds.samples[0].values[0, 0] == 1.5
    assert np.isnan(ds.samples[0].values[1, 0])


# one malformed file per FormatError branch of ingest_csv: (text, message)
_MALFORMED_CSV = {
    "empty_file": ("", "empty file"),
    "missing_column": ("sample_id,f0\n0,1.0\n", "missing required column 'step'"),
    "no_features": ("sample_id,step\n0,0\n", "no feature columns"),
    "short_row": ("sample_id,step,f0\n0,0\n", "row 2: expected 3 columns, got 2"),
    "unparsable_cell": ("sample_id,step,f0\n0,0,1.0\n0,1,oops\n", "row 3"),
    "bad_label": ("sample_id,step,f0,label\n0,0,1.0,a\n", "row 2"),
    "label_varies": ("sample_id,step,f0,label\n0,0,1.0,0\n0,1,2.0,1\n",
                     "label is not constant"),
    "no_rows": ("sample_id,step,f0\n", "no data rows"),
    "repeated_step": ("sample_id,step,f0\n0,0,1.0\n0,0,2.0\n",
                      "steps must be strictly increasing"),
    "ragged": ("sample_id,step,f0\n0,0,1.0\n0,1,2.0\n1,0,3.0\n",
               "has 1 steps, expected 2"),
    "invalid_sample": ("sample_id,step,f0,label\n0,0,1.0,-1\n",
                       "sample 0: .*label must be non-negative"),
    "label_beyond_int64": ("sample_id,step,f0,label\n0,0,1.0,99999999999999999999\n",
                           "sample 0: label 99999999999999999999 is beyond 2"),
    "label_below_int64": ("sample_id,step,f0,label\n0,0,1.0,-99999999999999999999\n",
                          "sample 0: label must be non-negative"),
    "infinite_cell": ("sample_id,step,f0\n0,0,1.0\n0,1,-inf\n",
                      "row 3: sample 0: feature value '-inf' is not finite"),
    "overflowing_cell": ("sample_id,step,f0,f1\n7,0,1.0,\n7,1,2.0,1e400\n",
                         "row 3: sample 7: feature value '1e400' is not finite"),
    "nan_cell": ("sample_id,step,f0\n0,0, nan\n", "row 2: sample 0: feature value ' nan'"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_CSV))
def test_csv_malformed_file_raises_format_error(tmp_path, case):
    text, message = _MALFORMED_CSV[case]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=message):
        ingest_csv(str(path))


def test_csv_unreadable_path_raises_format_error(tmp_path):
    with pytest.raises(FormatError, match="cannot open"):
        ingest_csv(str(tmp_path / "absent.csv"))


def test_csv_round_trip_exact(tmp_path):
    ds = generate_synthetic(6, 7, 3, 2, missing_rate=0.25, seed=13)
    path = tmp_path / "round.csv"
    export_csv(ds, str(path))
    back = ingest_csv(str(path))
    assert len(back) == len(ds)
    for a, b in zip(ds.samples, back.samples):
        assert np.array_equal(a.values, b.values, equal_nan=True)
        assert np.array_equal(a.mask, b.mask)
        assert a.label == b.label


def test_csv_round_trip_keeps_partial_labels(tmp_path):
    ds = partly_labeled()
    labels = [s.label for s in ds.samples]
    assert labels[0] is not None and labels[1] is None
    first, again = tmp_path / "round.csv", tmp_path / "again.csv"
    export_csv(ds, str(first))
    back = ingest_csv(str(first))
    assert [s.label for s in back.samples] == labels
    assert (back.n_classes, back.has_labels) == (None, False)
    export_csv(back, str(again))
    assert first.read_text() == again.read_text()


def _export_by_csv_writer(ds, path):
    """export_csv as csv.writer wrote it, row by row."""
    samples = ds.samples
    with_labels = any(s.label is not None for s in samples)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sample_id", "step"] + [f"f{d}" for d in range(ds.n_features)]
                        + ["label"] * with_labels)
        for s in samples:
            tail = ["" if s.label is None else str(s.label)] * with_labels
            for t, values, mask in zip(s.timestamps, s.values, s.mask):
                writer.writerow([s.sample_id, repr(float(t))]
                                + [repr(float(v)) if m else "" for v, m in zip(values, mask)]
                                + tail)


@pytest.mark.parametrize("labels", ["all", "some", "none"])
def test_export_csv_bytes_equal_csv_writer_output(tmp_path, labels):
    base = partly_labeled(n=5, t=4, d=3)
    specials = np.array([-0.0, 5e-324, 1e16, 1e-05, 0.1, -2.5])
    samples = []
    for i, s in enumerate(base.samples):
        values = np.where(s.mask != 0, np.resize(specials, s.values.shape), np.nan)
        label = {"all": i % 3, "some": s.label, "none": None}[labels]
        samples.append(dataclasses.replace(s, sample_id=2**64 - 1 - i, values=values,
                                           label=label))
    ds = PotsDataset(samples)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    export_csv(ds, str(got))
    _export_by_csv_writer(ds, str(want))
    assert got.read_bytes() == want.read_bytes()
    assert b"\r\n18446744073709551615,0.0,-0.0,5e-324,1e+16" in got.read_bytes()


# ---------------------------------------------------------------------------
# split

def test_split_sizes_and_determinism():
    ds = generate_synthetic(10, 4, 2, 2, missing_rate=0.0, seed=0)
    tr, va, te = split(ds, (0.8, 0.1, 0.1), seed=4)
    assert (len(tr), len(va), len(te)) == (8, 1, 1)
    tr2, va2, te2 = split(ds, (0.8, 0.1, 0.1), seed=4)
    assert [s.sample_id for s in tr.samples] == [s.sample_id for s in tr2.samples]
    ids = sorted(s.sample_id for part in (tr, va, te) for s in part.samples)
    assert ids == list(range(10))


def test_split_rejects_degenerate_fractions():
    ds = generate_synthetic(10, 4, 2, 2, missing_rate=0.0, seed=0)
    with pytest.raises(InvalidInputError):
        split(ds, (1.0, 0.0, 0.0), seed=0)
    with pytest.raises(InvalidInputError):
        split(ds, (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(InvalidInputError, match="exactly three"):
        split(ds, (0.5, 0.5), seed=0)
    with pytest.raises(InvalidInputError, match="empty split"):
        split(generate_synthetic(3, 4, 2, 2, missing_rate=0.0, seed=0), (0.8, 0.1, 0.1), seed=0)


def test_fetch_all_orders_by_index():
    ds = generate_synthetic(7, 5, 2, 2, missing_rate=0.1, seed=3)
    batch = fetch_all(ds, batch_size=3)
    assert batch.values.shape == (7, 5, 2)
    direct = stack_samples(ds.samples)
    assert np.array_equal(batch.values, direct.values, equal_nan=True)
    assert np.array_equal(batch.labels, direct.labels)


@pytest.mark.parametrize("backend", ["in_memory", "pair", "lazy"])
@pytest.mark.parametrize("batch_size", [256, 3])
def test_fetch_all_result_is_the_callers_own(tmp_path, backend, batch_size):
    ds = generate_synthetic(7, 5, 2, 2, missing_rate=0.2, seed=3)
    path = str(tmp_path / "d.pots")
    write_container(ds, path)
    with open_readonly(path) as handle:
        view = {"in_memory": ds, "pair": inject_mcar(ds, 0.3, seed=1),
                "lazy": lazy_dataset(handle)}[backend]
        got = fetch_all(view, batch_size)
        kept = {f.name: getattr(got, f.name).copy() for f in dataclasses.fields(Batch)
                if getattr(got, f.name) is not None}
        for name in kept:
            getattr(got, name)[...] = 0
        again = fetch_all(view, batch_size)
    assert ("originals" in kept) == (backend == "pair")
    for name, arr in kept.items():
        assert getattr(again, name).tobytes() == arr.tobytes(), name


def unlabeled_at(n, rows, seed=0):
    """A synthetic dataset of n samples whose only unlabeled samples are rows."""
    block = generate_synthetic(n, 4, 2, 2, missing_rate=0.1, seed=seed)._block
    labels = block.labels.copy()
    labels[rows] = -1
    return PotsDataset(dataclasses.replace(block, labels=labels))


@pytest.mark.parametrize("backend", ["in_memory", "pair", "lazy"])
def test_fetch_all_keeps_a_label_absent_past_the_first_chunk(tmp_path, backend):
    ds = unlabeled_at(300, [290])
    path = str(tmp_path / "d.pots")
    write_container(ds, path)
    with open_readonly(path) as handle:
        view = {"in_memory": ds, "pair": inject_mcar(ds, 0.3, seed=1),
                "lazy": lazy_dataset(handle)}[backend]
        got = fetch_all(view)
        chunks = [view.training_batch(range(0, 256)), view.training_batch(range(256, 300))]
    assert got.labels[290] == -1 and (np.delete(got.labels, 290) >= 0).all()
    for f in dataclasses.fields(Batch):
        parts = [getattr(c, f.name) for c in chunks]
        if parts[0] is None:
            assert getattr(got, f.name) is None, f.name
        else:
            joined = np.concatenate(parts)
            assert getattr(got, f.name).dtype == joined.dtype, f.name
            assert getattr(got, f.name).tobytes() == joined.tobytes(), f.name


def test_every_batch_gives_label_codes_on_a_partly_labeled_set(tmp_path):
    ds = partly_labeled()
    codes = [-1 if s.label is None else s.label for s in ds.samples]
    path = str(tmp_path / "d.pots")
    write_container(ds, path)
    with open_readonly(path) as handle:
        read = handle.read_batch(range(len(ds)))
    for batch in (ds.training_batch(range(len(ds))), read, stack_samples(ds.samples)):
        assert batch.labels.dtype == np.int64
        assert batch.labels.tolist() == codes
