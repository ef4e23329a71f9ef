"""Data model for partially observed multivariate time series.

A sample is a (T, D) value matrix with a binary observation mask; missing
cells hold NaN in the value matrix and 0 in the mask, and the mask is the
authority. Datasets are homogeneous in T and D. All arrays are float64 and
frozen after construction so samples can be shared freely across views,
threads and backends.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError, InvalidInputError


def _frozen_array(data, dtype=np.float64) -> np.ndarray:
    arr = np.array(data, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeSeriesSample:
    """One series: timestamps (T,), values (T, D), mask (T, D), optional label.

    Invariants enforced at construction: timestamps strictly increasing,
    mask entries in {0, 1}, and mask == 1 exactly where values are finite.
    """

    sample_id: int
    timestamps: np.ndarray
    values: np.ndarray
    mask: np.ndarray
    label: int | None = None

    def __post_init__(self):
        ts = _frozen_array(self.timestamps)
        values = _frozen_array(self.values)
        mask = _frozen_array(self.mask)
        if self.sample_id < 0:
            raise InvalidInputError(f"sample_id must be non-negative, got {self.sample_id}")
        if ts.ndim != 1 or values.ndim != 2 or mask.ndim != 2:
            raise InvalidInputError(
                f"sample {self.sample_id}: expected shapes (T,), (T,D), (T,D); got "
                f"{ts.shape}, {values.shape}, {mask.shape}")
        if values.shape != mask.shape or values.shape[0] != ts.shape[0]:
            raise InvalidInputError(
                f"sample {self.sample_id}: inconsistent shapes {ts.shape}, "
                f"{values.shape}, {mask.shape}")
        if ts.shape[0] == 0 or values.shape[1] == 0:
            raise InvalidInputError(f"sample {self.sample_id}: empty time or feature axis")
        if ts.shape[0] > 1 and not np.all(np.diff(ts) > 0):
            raise InvalidInputError(
                f"sample {self.sample_id}: timestamps must be strictly increasing")
        if not np.all((mask == 0) | (mask == 1)):
            raise InvalidInputError(f"sample {self.sample_id}: mask entries must be 0 or 1")
        if not np.array_equal(np.isfinite(values), mask == 1):
            raise InvalidInputError(
                f"sample {self.sample_id}: mask and NaN sentinel disagree")
        if self.label is not None and self.label < 0:
            raise InvalidInputError(f"sample {self.sample_id}: label must be non-negative")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


@dataclass
class Batch:
    """Stacked arrays for a list of samples, as consumed by models."""

    values: np.ndarray            # (B, T, D), NaN at missing cells
    mask: np.ndarray              # (B, T, D), 0/1
    timestamps: np.ndarray        # (B, T)
    labels: np.ndarray | None     # (B,) int64, None if any label absent
    originals: np.ndarray | None = None   # (B, T, D) pre-corruption values
    indicating: np.ndarray | None = None  # (B, T, D) artificially removed cells


def stack_samples(samples: Sequence[TimeSeriesSample]) -> Batch:
    values = np.stack([s.values for s in samples])
    mask = np.stack([s.mask for s in samples])
    timestamps = np.stack([s.timestamps for s in samples])
    if all(s.label is not None for s in samples):
        labels = np.array([s.label for s in samples], dtype=np.int64)
    else:
        labels = None
    return Batch(values=values, mask=mask, timestamps=timestamps, labels=labels)


class PotsDataset:
    """An in-memory collection of samples sharing one (T, D) shape."""

    def __init__(self, samples: Sequence[TimeSeriesSample], n_classes: int | None = None):
        samples = list(samples)
        if not samples:
            raise InvalidInputError("dataset must contain at least one sample")
        t, d = samples[0].n_steps, samples[0].n_features
        for s in samples:
            if s.n_steps != t or s.n_features != d:
                raise InvalidInputError(
                    f"sample {s.sample_id}: shape ({s.n_steps}, {s.n_features}) "
                    f"differs from dataset shape ({t}, {d})")
        if n_classes is None and all(s.label is not None for s in samples):
            n_classes = max(s.label for s in samples) + 1
        if n_classes is not None:
            if n_classes < 1:
                raise InvalidInputError(f"n_classes must be positive, got {n_classes}")
            for s in samples:
                if s.label is None:
                    raise InvalidInputError(
                        f"sample {s.sample_id}: label required when n_classes is set")
                if s.label >= n_classes:
                    raise InvalidInputError(
                        f"sample {s.sample_id}: label {s.label} outside [0, {n_classes})")
        self.samples = samples
        self.n_classes = n_classes

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def n_steps(self) -> int:
        return self.samples[0].n_steps

    @property
    def n_features(self) -> int:
        return self.samples[0].n_features

    @property
    def has_labels(self) -> bool:
        return all(s.label is not None for s in self.samples)

    def fetch_batch(self, indices: Sequence[int]) -> list[TimeSeriesSample]:
        out = []
        for i in indices:
            if not 0 <= i < len(self.samples):
                raise InvalidInputError(f"sample index {i} out of range [0, {len(self)})")
            out.append(self.samples[i])
        return out

    def training_batch(self, indices: Sequence[int]) -> Batch:
        return stack_samples(self.fetch_batch(indices))

    def labels_array(self) -> np.ndarray:
        if not self.has_labels:
            raise InvalidInputError("dataset has samples without labels")
        return np.array([s.label for s in self.samples], dtype=np.int64)


@dataclass
class NormStats:
    """Per-feature mean and standard deviation of observed cells."""

    mean: np.ndarray  # (D,)
    std: np.ndarray   # (D,), floored at 1e-8

    STD_FLOOR = 1e-8


class CorruptedPairView:
    """A dataset after artificial masking, paired with its ground truth.

    Pairs two views of the same samples: the original and a corrupted copy
    in which some observed cells were hidden. Batches carry the corrupted
    values and mask plus originals (the pre-corruption values) and
    indicating, which flags the hidden cells: original mask AND NOT
    corrupted mask. Works with any pair of views exposing fetch_batch,
    including lazy container handles; both arrays are derived batch by
    batch, so nothing is materialized up front.
    """

    def __init__(self, original, corrupted):
        if len(original) != len(corrupted):
            raise InvalidInputError("paired views must have equal length")
        if original.n_steps != corrupted.n_steps or original.n_features != corrupted.n_features:
            raise InvalidInputError("paired views must share (T, D)")
        self.original = original
        self.corrupted = corrupted

    def __len__(self) -> int:
        return len(self.corrupted)

    @property
    def n_steps(self) -> int:
        return self.corrupted.n_steps

    @property
    def n_features(self) -> int:
        return self.corrupted.n_features

    def fetch_batch(self, indices: Sequence[int]) -> list[TimeSeriesSample]:
        return self.corrupted.fetch_batch(indices)

    def training_batch(self, indices: Sequence[int]) -> Batch:
        batch = stack_samples(self.corrupted.fetch_batch(indices))
        orig = stack_samples(self.original.fetch_batch(indices))
        if np.any(batch.mask > orig.mask):
            raise InvalidInputError(
                "paired views: the corrupted view observes cells its original lacks")
        batch.originals = orig.values
        batch.indicating = orig.mask * (1.0 - batch.mask)
        return batch


def compute_delta(timestamps: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Time since the last observation, per feature.

    delta[0, d] = 0, and for t >= 1:
    delta[t, d] = timestamps[t] - timestamps[t-1] + (delta[t-1, d] if
    mask[t-1, d] == 0 else 0). Missing runs therefore accumulate elapsed
    time while observations reset it.
    """
    ts = np.asarray(timestamps, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    if ts.ndim != 1 or m.ndim != 2 or m.shape[0] != ts.shape[0]:
        raise InvalidInputError(
            f"compute_delta: incompatible shapes {ts.shape} and {m.shape}")
    if ts.shape[0] > 1 and not np.all(np.diff(ts) > 0):
        raise InvalidInputError("compute_delta: timestamps must be strictly increasing")
    t_len, d = m.shape
    delta = np.zeros((t_len, d), dtype=np.float64)
    for t in range(1, t_len):
        gap = ts[t] - ts[t - 1]
        delta[t] = gap + np.where(m[t - 1] != 0, 0.0, delta[t - 1])
    return delta


def _mcar_cell_count(rate: float, n_observed: int) -> int:
    # round half up, fixed across platforms
    return int(np.floor(rate * n_observed + 0.5))


def inject_mcar(dataset: PotsDataset, rate: float, seed: int) -> CorruptedPairView:
    """Hide an exact fraction of the observed cells, uniformly at random.

    Per sample, exactly round(rate * n_observed) observed cells are chosen
    without replacement and set to NaN in the corrupted copy; the returned
    view pairs that copy with the dataset. Deterministic for a fixed seed.
    """
    if not 0.0 <= rate <= 1.0:
        raise InvalidInputError(f"inject_mcar: rate must be in [0, 1], got {rate}")
    rng = np.random.Generator(np.random.PCG64(seed))
    corrupted_samples = []
    for s in dataset.samples:
        obs_rows, obs_cols = np.nonzero(s.mask)
        k = _mcar_cell_count(rate, obs_rows.size)
        values = s.values.copy()
        mask = s.mask.copy()
        if k > 0:
            pick = rng.choice(obs_rows.size, size=k, replace=False)
            rr, cc = obs_rows[pick], obs_cols[pick]
            values[rr, cc] = np.nan
            mask[rr, cc] = 0.0
        corrupted_samples.append(TimeSeriesSample(
            sample_id=s.sample_id, timestamps=s.timestamps,
            values=values, mask=mask, label=s.label))
    corrupted = PotsDataset(corrupted_samples, n_classes=dataset.n_classes)
    return CorruptedPairView(dataset, corrupted)


def _iter_index_chunks(n: int, chunk: int) -> Iterable[np.ndarray]:
    for lo in range(0, n, chunk):
        yield np.arange(lo, min(lo + chunk, n))


def fetch_all(view, batch_size: int = 256) -> Batch:
    """Stream a whole view into one stacked Batch, in index order."""
    parts = [view.training_batch(idx) for idx in _iter_index_chunks(len(view), batch_size)]
    return Batch(
        values=np.concatenate([p.values for p in parts]),
        mask=np.concatenate([p.mask for p in parts]),
        timestamps=np.concatenate([p.timestamps for p in parts]),
        labels=(np.concatenate([p.labels for p in parts])
                if parts[0].labels is not None else None),
        originals=(np.concatenate([p.originals for p in parts])
                   if parts[0].originals is not None else None),
        indicating=(np.concatenate([p.indicating for p in parts])
                    if parts[0].indicating is not None else None),
    )


def fit_norm_stats(view, batch_size: int = 256) -> NormStats:
    """Per-feature mean/std over observed cells, streamed in index order.

    Features with no observations get mean 0 and std 1; the std is floored
    at NormStats.STD_FLOOR so normalization never divides by zero.
    """
    total = None
    total_sq = None
    count = None
    for idx in _iter_index_chunks(len(view), batch_size):
        batch = view.training_batch(idx)
        filled = np.where(batch.mask != 0, batch.values, 0.0)
        if total is None:
            d = filled.shape[-1]
            total = np.zeros(d)
            total_sq = np.zeros(d)
            count = np.zeros(d)
        total += filled.sum(axis=(0, 1))
        total_sq += (filled * filled).sum(axis=(0, 1))
        count += (batch.mask != 0).sum(axis=(0, 1))
    seen = count > 0
    mean = np.where(seen, total / np.maximum(count, 1), 0.0)
    var = np.where(seen, total_sq / np.maximum(count, 1) - mean * mean, 1.0)
    std = np.sqrt(np.maximum(var, 0.0))
    std = np.maximum(np.where(seen, std, 1.0), NormStats.STD_FLOOR)
    return NormStats(mean=mean, std=std)


def apply_norm(dataset: PotsDataset, stats: NormStats) -> PotsDataset:
    """Return a dataset with observed values standardized per feature."""
    samples = []
    for s in dataset.samples:
        values = (s.values - stats.mean) / stats.std
        samples.append(TimeSeriesSample(
            sample_id=s.sample_id, timestamps=s.timestamps,
            values=values, mask=s.mask, label=s.label))
    return PotsDataset(samples, n_classes=dataset.n_classes)


def invert_norm(values: np.ndarray, stats: NormStats) -> np.ndarray:
    """Undo apply_norm on an array whose last axis is the feature axis."""
    return np.asarray(values) * stats.std + stats.mean


def generate_synthetic(n_samples: int, n_steps: int, n_features: int,
                       n_classes: int, missing_rate: float, seed: int) -> PotsDataset:
    """Class-dependent noisy sinusoids with MCAR gaps.

    Class c shifts every feature's frequency and phase, so classes are
    separable from the dynamics alone. Labels are balanced to within one
    sample. missing_rate of the cells are removed per sample, exact count.
    """
    if n_samples < 1 or n_steps < 1 or n_features < 1 or n_classes < 1:
        raise InvalidInputError("generate_synthetic: all counts must be positive")
    if not 0.0 <= missing_rate < 1.0:
        raise InvalidInputError(
            f"generate_synthetic: missing_rate must be in [0, 1), got {missing_rate}")
    rng = np.random.Generator(np.random.PCG64(seed))
    labels = np.array([i % n_classes for i in range(n_samples)], dtype=np.int64)
    rng.shuffle(labels)
    t_grid = np.arange(n_steps, dtype=np.float64)
    t_norm = t_grid / n_steps
    d_grid = np.arange(n_features, dtype=np.float64)
    samples = []
    for i in range(n_samples):
        c = int(labels[i])
        freq = 1.0 + 0.35 * d_grid + 0.55 * c
        phase = 2.0 * np.pi * d_grid / n_features + 0.9 * c + rng.normal(0.0, 0.25)
        clean = np.sin(2.0 * np.pi * freq * t_norm[:, None] + phase)
        values = clean + rng.normal(0.0, 0.08, size=(n_steps, n_features))
        mask = np.ones((n_steps, n_features))
        k = _mcar_cell_count(missing_rate, n_steps * n_features)
        if k > 0:
            flat = rng.choice(n_steps * n_features, size=k, replace=False)
            rr, cc = np.unravel_index(flat, (n_steps, n_features))
            values[rr, cc] = np.nan
            mask[rr, cc] = 0.0
        samples.append(TimeSeriesSample(
            sample_id=i, timestamps=t_grid, values=values, mask=mask, label=c))
    return PotsDataset(samples, n_classes=n_classes)


@dataclass(frozen=True)
class ColumnSchema:
    """Column names used by CSV ingestion."""

    sample_id: str = "sample_id"
    step: str = "step"
    label: str = "label"


def ingest_csv(path: str, schema: ColumnSchema | None = None) -> PotsDataset:
    """Read a long-format CSV into a dataset.

    Expected columns: sample_id, step, one column per feature, and an
    optional label column (constant within each sample). Empty feature
    cells are missing. Rows may arrive in any order; they are grouped by
    sample_id (first-appearance order) and sorted by step.
    """
    schema = schema or ColumnSchema()
    try:
        handle = open(path, newline="")
    except OSError as e:
        raise FormatError(f"{path}: cannot open ({e})") from e
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for required in (schema.sample_id, schema.step):
            if required not in header:
                raise FormatError(f"{path}: missing required column {required!r}")
        id_col = header.index(schema.sample_id)
        step_col = header.index(schema.step)
        label_col = header.index(schema.label) if schema.label in header else None
        feature_cols = [i for i in range(len(header))
                        if i not in (id_col, step_col, label_col)]
        if not feature_cols:
            raise FormatError(f"{path}: no feature columns found")
        rows_by_sample: dict[int, list] = {}
        labels_by_sample: dict[int, int | None] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise FormatError(
                    f"{path}: row {line_no}: expected {len(header)} columns, got {len(row)}")
            try:
                sid = int(row[id_col])
                step = float(row[step_col])
                feats = [float(row[i]) if row[i].strip() != "" else np.nan
                         for i in feature_cols]
            except ValueError as e:
                raise FormatError(f"{path}: row {line_no}: {e}") from None
            label = None
            if label_col is not None and row[label_col].strip() != "":
                try:
                    label = int(row[label_col])
                except ValueError as e:
                    raise FormatError(f"{path}: row {line_no}: {e}") from None
            if sid in labels_by_sample and labels_by_sample[sid] != label:
                raise FormatError(
                    f"{path}: sample {sid}: label is not constant within the sample")
            labels_by_sample[sid] = label
            rows_by_sample.setdefault(sid, []).append((step, feats))
        if not rows_by_sample:
            raise FormatError(f"{path}: no data rows")
        samples = []
        expected_steps = None
        for sid, rows in rows_by_sample.items():
            rows.sort(key=lambda r: r[0])
            steps = np.array([r[0] for r in rows])
            if steps.size > 1 and not np.all(np.diff(steps) > 0):
                raise FormatError(
                    f"{path}: sample {sid}: steps must be strictly increasing")
            if expected_steps is None:
                expected_steps = steps.size
            elif steps.size != expected_steps:
                raise FormatError(
                    f"{path}: sample {sid}: has {steps.size} steps, expected {expected_steps}")
            values = np.array([r[1] for r in rows], dtype=np.float64)
            mask = np.isfinite(values).astype(np.float64)
            try:
                samples.append(TimeSeriesSample(
                    sample_id=sid, timestamps=steps, values=values, mask=mask,
                    label=labels_by_sample[sid]))
            except InvalidInputError as e:
                raise FormatError(f"{path}: sample {sid}: {e}") from None
        n_classes = None
        if all(s.label is not None for s in samples):
            n_classes = int(max(s.label for s in samples)) + 1
        return PotsDataset(samples, n_classes=n_classes)


def export_csv(dataset: PotsDataset, path: str) -> None:
    """Write a dataset in the long CSV layout read by ingest_csv.

    Floats are written with repr so a round trip reproduces every bit;
    missing cells become empty fields.
    """
    with_labels = dataset.has_labels
    header = ["sample_id", "step"] + [f"f{d}" for d in range(dataset.n_features)]
    if with_labels:
        header.append("label")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for s in dataset.samples:
            for t in range(s.n_steps):
                row = [str(s.sample_id), repr(float(s.timestamps[t]))]
                for d in range(s.n_features):
                    row.append(repr(float(s.values[t, d])) if s.mask[t, d] != 0 else "")
                if with_labels:
                    row.append(str(s.label))
                writer.writerow(row)


def split(dataset: PotsDataset, fractions: Sequence[float], seed: int):
    """Shuffle and cut into train/val/test datasets.

    fractions must be three positive numbers summing to 1. Validation and
    test sizes round down; the remainder goes to train. Every split must be
    nonempty.
    """
    if len(fractions) != 3:
        raise InvalidInputError("split: need exactly three fractions")
    f_train, f_val, f_test = (float(f) for f in fractions)
    if min(f_train, f_val, f_test) <= 0:
        raise InvalidInputError(f"split: fractions must be positive, got {fractions}")
    if abs(f_train + f_val + f_test - 1.0) > 1e-9:
        raise InvalidInputError(f"split: fractions must sum to 1, got {fractions}")
    n = len(dataset)
    n_val = int(np.floor(f_val * n))
    n_test = int(np.floor(f_test * n))
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) < 1:
        raise InvalidInputError(
            f"split: dataset of {n} samples leaves an empty split for {fractions}")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    pick = lambda idx: PotsDataset([dataset.samples[i] for i in idx],
                                   n_classes=dataset.n_classes)
    return (pick(perm[:n_train]),
            pick(perm[n_train:n_train + n_val]),
            pick(perm[n_train + n_val:]))
