"""Data model: samples, corruption, deltas, normalization, CSV, splits."""

import zlib

import numpy as np
import pytest

from potsmine import (
    ColumnSchema,
    CorruptedPairView,
    NormStats,
    PotsDataset,
    TimeSeriesSample,
    apply_norm,
    compute_delta,
    export_csv,
    fetch_all,
    fit_norm_stats,
    generate_synthetic,
    ingest_csv,
    inject_mcar,
    invert_norm,
    split,
    stack_samples,
)
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


def test_dataset_infers_n_classes_from_labels():
    ds = PotsDataset([make_sample(0, label=0), make_sample(1, label=2)])
    assert ds.n_classes == 3
    unlabeled = PotsDataset([make_sample(0), make_sample(1)])
    assert unlabeled.n_classes is None


def test_stack_samples_shapes_and_labels():
    batch = stack_samples([make_sample(0, label=1), make_sample(1, label=0)])
    assert batch.values.shape == (2, 3, 2)
    assert batch.mask.shape == (2, 3, 2)
    assert np.array_equal(batch.labels, [1, 0])
    assert stack_samples([make_sample(0), make_sample(1, label=1)]).labels is None


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
    # CRC-32 of the stacked indicating mask as inject_mcar built it when it
    # still returned per-sample lists; it pins which cells the seed hides
    ds = generate_synthetic(8, 12, 3, 2, 0.3, seed=5)
    batch = inject_mcar(ds, 0.25, seed=9).training_batch(list(range(8)))
    assert np.array_equal(batch.originals, np.stack([s.values for s in ds.samples]),
                          equal_nan=True)
    assert batch.indicating.dtype == np.float64 and batch.indicating.shape == (8, 12, 3)
    assert zlib.crc32(batch.indicating.tobytes()) == 2598851383
    assert int(batch.indicating.sum()) == 48


def test_pair_view_rejects_cells_missing_from_original():
    ds = full_dataset(n=3, t=6, d=2)
    sparse = inject_mcar(ds, 0.5, seed=4).corrupted
    view = inject_mcar(ds, 0.2, seed=5)
    with pytest.raises(InvalidInputError, match="original lacks"):
        CorruptedPairView(sparse, view.corrupted).training_batch([0, 1, 2])


# ---------------------------------------------------------------------------
# normalization

def test_norm_two_point_example():
    values = np.array([[2.0], [4.0]])
    s = TimeSeriesSample(sample_id=0, timestamps=np.arange(2.0),
                         values=values, mask=np.ones((2, 1)))
    ds = PotsDataset([s])
    stats = fit_norm_stats(ds)
    assert stats.mean[0] == 3.0 and stats.std[0] == 1.0
    normed = apply_norm(ds, stats)
    assert np.array_equal(normed.samples[0].values, [[-1.0], [1.0]])


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
    normed = apply_norm(ds, stats)
    for i, s in enumerate(normed.samples):
        back = invert_norm(s.values, stats)
        obs = s.mask != 0
        orig = ds.samples[i].values
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


# ---------------------------------------------------------------------------
# CSV ingestion

def test_csv_single_empty_cell_maps_to_mask(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("sample_id,step,f0\n0,0,1.5\n0,1,\n")
    ds = ingest_csv(str(path))
    assert np.array_equal(ds.samples[0].mask, [[1.0], [0.0]])
    assert ds.samples[0].values[0, 0] == 1.5
    assert np.isnan(ds.samples[0].values[1, 0])


def test_csv_ragged_samples_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("sample_id,step,f0\n0,0,1.0\n0,1,2.0\n1,0,3.0\n")
    with pytest.raises(FormatError, match="1"):
        ingest_csv(str(path))


def test_csv_unparsable_cell_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("sample_id,step,f0\n0,0,1.0\n0,1,oops\n")
    with pytest.raises(FormatError, match="row 3"):
        ingest_csv(str(path))


def test_csv_round_trip_exact(tmp_path):
    ds = generate_synthetic(6, 7, 3, 2, missing_rate=0.25, seed=13)
    path = tmp_path / "round.csv"
    export_csv(ds, str(path))
    back = ingest_csv(str(path), ColumnSchema(label="label"))
    assert len(back) == len(ds)
    for a, b in zip(ds.samples, back.samples):
        assert np.array_equal(a.values, b.values, equal_nan=True)
        assert np.array_equal(a.mask, b.mask)
        assert a.label == b.label


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


def test_fetch_all_orders_by_index():
    ds = generate_synthetic(7, 5, 2, 2, missing_rate=0.1, seed=3)
    batch = fetch_all(ds, batch_size=3)
    assert batch.values.shape == (7, 5, 2)
    direct = stack_samples(ds.samples)
    assert np.array_equal(batch.values, direct.values, equal_nan=True)
    assert np.array_equal(batch.labels, direct.labels)
