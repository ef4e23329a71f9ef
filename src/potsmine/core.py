"""Data model for partially observed multivariate time series.

A sample is a (T, D) value matrix with a bool observation mask; missing
cells hold NaN in the value matrix and False in the mask, and the mask is
the authority. Datasets are homogeneous in T and D. An in-memory dataset
is one read-only block of arrays; _first_fault checks such a block once,
and also checks single samples, container reads and CSV ingestion.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import FormatError, InvalidInputError, StorageError

# samples per batch when a whole view is streamed for evaluation or stats
_EVAL_CHUNK = 256

_NOT_INCREASING = "timestamps are not strictly increasing"


@dataclass
class Batch:
    """Stacked arrays for a block of samples, as consumed by models.

    Every view's batches hold bool masks (mask and indicating) and (B,)
    int64 labels, -1 where a sample has none. A model also takes a
    hand-built batch whose masks are 0s and 1s, and casts them to the
    float it needs per batch; its labels may be None, which means that
    every label is absent.
    """

    values: np.ndarray            # (B, T, D), NaN at missing cells
    mask: np.ndarray              # (B, T, D) bool, True where observed
    timestamps: np.ndarray        # (B, T)
    labels: np.ndarray | None     # (B,) int64, -1 where absent
    originals: np.ndarray | None = None   # (B, T, D) pre-corruption values
    indicating: np.ndarray | None = None  # (B, T, D) bool, artificially removed cells
    sample_ids: np.ndarray | None = None  # (B,) uint64


# the fields of a dataset's block
_BLOCK = ("values", "mask", "timestamps", "labels", "sample_ids")


def _first_fault(block: Batch) -> tuple[int, str] | None:
    """The first row of a block that breaks a sample invariant, and which one.

    Each row needs strictly increasing timestamps, a mask of 0s and 1s (or
    a bool one) that is 1 exactly where its value is finite, a sample id in
    [0, 2**64) and a label that is -1 (absent) or non-negative. None when
    every row holds.
    """
    ts, mask, ids = block.timestamps, block.mask, block.sample_ids
    holds = {_NOT_INCREASING: ts[:, 1:] > ts[:, :-1]}
    one = mask
    if mask.dtype != bool:
        one = mask == 1
        holds["mask entries must be 0 or 1"] = one | (mask == 0)
    holds.update({
        "mask and NaN sentinel disagree": np.isfinite(block.values) == one,
        "sample_id must be in [0, 2**64)": ((ids >= 0) & (ids < 2**64)
                                            if isinstance(ids, np.ndarray) else
                                            np.array([0 <= i < 2**64 for i in ids])),
        "label must be non-negative": block.labels >= -1,
    })
    if all(np.logical_and.reduce(ok, axis=None) for ok in holds.values()):
        return None
    broken = [~ok.all(axis=tuple(range(1, ok.ndim))) for ok in holds.values()]
    row = int(np.logical_or.reduce(broken).argmax())
    return row, next(what for what, rows in zip(holds, broken) if rows[row])


def _label_code(label) -> int:
    """A label as a block stores it: -1 when absent. An explicit negative
    label becomes -2, which _first_fault refuses."""
    return -1 if label is None else label if label >= 0 else -2


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class TimeSeriesSample:
    """One series: timestamps (T,), values (T, D), bool mask (T, D), optional label.

    Checked at construction as a block of one. Its arrays are read-only:
    a writable input is copied, a read-only one (such as a row of a
    dataset's block) is kept. A mask of 0s and 1s is accepted and kept as
    bool.
    """

    sample_id: int
    timestamps: np.ndarray
    values: np.ndarray
    mask: np.ndarray
    label: int | None = None

    def __post_init__(self):
        for name in ("timestamps", "values"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, _read_only(arr.copy()) if arr.flags.writeable
                               else arr)
        mask = np.asarray(self.mask)
        if mask.dtype == bool and mask.flags.writeable:
            mask = mask.copy()  # a mask of another dtype is copied by its cast
        block = _checked(Batch(values=self.values[None], mask=mask[None],
                               timestamps=self.timestamps[None],
                               labels=[_label_code(self.label)], sample_ids=[self.sample_id]))
        object.__setattr__(self, "mask", _read_only(block.mask[0]))


def _checked(data: Batch) -> Batch:
    """data as a checked block (a dataset's, or a sample's block of one):
    float64 values and timestamps, a bool mask, uint64 ids (0..N-1 when
    None) and int64 labels (all absent when None). A mask of another dtype
    is checked to hold only 0s and 1s before it is cast. Raises
    InvalidInputError for a shape out of place or naming the first sample
    that breaks an invariant of _first_fault."""
    values, ts = (np.asarray(a, dtype=np.float64) for a in (data.values, data.timestamps))
    mask = np.asarray(data.mask)
    n = len(values) if values.ndim else 0
    ids = np.arange(n, dtype=np.uint64) if data.sample_ids is None else data.sample_ids
    labels = np.full(n, -1) if data.labels is None else np.asarray(data.labels, dtype=np.int64)
    if (values.ndim != 3 or values.size == 0 or mask.shape != values.shape
            or ts.shape != values.shape[:2] or np.shape(ids) != (n,) or labels.shape != (n,)):
        raise InvalidInputError(
            "expected nonempty (N, T, D) values and mask, (N, T) timestamps and (N,) "
            f"ids and labels; got {values.shape}, {mask.shape}, {ts.shape}, "
            f"{np.shape(ids)}, {labels.shape}")
    block = Batch(values=values, mask=mask, timestamps=ts, labels=labels, sample_ids=ids)
    fault = _first_fault(block)
    if fault is not None:
        raise InvalidInputError(f"sample {ids[fault[0]]}: {fault[1]}")
    block.mask = mask.astype(bool, copy=False)
    block.sample_ids = np.asarray(ids, dtype=np.uint64)
    return block


def _rows(block: Batch, idx) -> Batch:
    """Rows idx (a slice or an index array) of a block, labels as stored."""
    return Batch(**{name: getattr(block, name)[idx] for name in _BLOCK})


def stack_samples(samples: Sequence[TimeSeriesSample]) -> Batch:
    return Batch(
        values=np.stack([s.values for s in samples]), mask=np.stack([s.mask for s in samples]),
        timestamps=np.stack([s.timestamps for s in samples]),
        labels=np.array([_label_code(s.label) for s in samples], dtype=np.int64),
        sample_ids=np.array([s.sample_id for s in samples], dtype=np.uint64))


class _Rows(list):
    """The rows of a checked, read-only block as samples, the list a dataset
    hands out. A dataset built from this list, while unchanged, shares the
    block."""

    def __init__(self, block: Batch):
        super().__init__()
        for j, (sid, label) in enumerate(zip(block.sample_ids.tolist(),
                                             block.labels.tolist())):
            row = object.__new__(TimeSeriesSample)  # the block's check covers its rows
            row.__dict__.update(sample_id=sid, timestamps=block.timestamps[j],
                                values=block.values[j], mask=block.mask[j],
                                label=None if label < 0 else label)
            self.append(row)
        self.block, self._built = block, tuple(self)

    def unchanged(self) -> bool:
        return len(self) == len(self._built) and all(map(operator.is_, self, self._built))


def _check_indices(indices: Sequence[int], n: int) -> np.ndarray:
    """A batch's sample indices as a (B,) int64 array.

    Refuses an empty or non-flat list, any non-integer entry (floats and
    bools included) and any index outside [0, n). Duplicates and any order
    are allowed.
    """
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size == 0:
        raise InvalidInputError("sample indices must be a nonempty flat sequence")
    if idx.dtype.kind not in "iu":
        raise InvalidInputError(f"sample indices must be integers, got {idx.dtype}")
    outside = (idx < 0) | (idx >= n)
    if outside.any():
        raise InvalidInputError(
            f"sample index {idx[outside][0]} out of range [0, {n})")
    return idx.astype(np.int64, copy=False)


class PotsDataset:
    """An in-memory dataset: one checked, read-only block of arrays.

    Built from a Batch, whose arrays it keeps as read-only views, without a
    copy: (N, T, D) float64 values and bool mask (a mask of 0s and 1s is
    cast), (N, T) timestamps, (N,) sample ids (0..N-1 when None) and (N,)
    labels (-1 where absent; None means every one is). Or built from
    TimeSeriesSample objects, which are stacked, unless they are another
    dataset's unchanged .samples, whose block is then shared. Every row is
    checked once, as a sample or in the block (see _first_fault);
    n_classes defaults to max label + 1 when every sample is labeled.
    """

    def __init__(self, data: Batch | Sequence[TimeSeriesSample],
                 n_classes: int | None = None):
        self._samples = None
        if isinstance(data, _Rows) and data.unchanged():
            self._samples, block = list(data), data.block
        elif isinstance(data, Batch):
            block = _checked(data)
        else:  # each sample was checked when it was made
            self._samples = list(data)
            try:
                block = stack_samples(self._samples)
            except ValueError as e:  # no samples, or samples of unequal shapes
                raise InvalidInputError(f"cannot stack the samples ({e})") from None
        self._adopt(block, n_classes)

    @classmethod
    def _of_checked(cls, block: Batch, n_classes: int | None = None) -> "PotsDataset":
        """A dataset over a block whose rows have passed _first_fault as a
        container read or a dataset's rows, without checking them again."""
        dataset = cls.__new__(cls)
        dataset._samples = None
        dataset._adopt(block, n_classes)
        return dataset

    def _adopt(self, block: Batch, n_classes: int | None) -> None:
        self._block = Batch(**{name: _read_only(getattr(block, name)) for name in _BLOCK})
        labels = self._block.labels
        if n_classes is None and labels.min() >= 0:
            n_classes = int(labels.max()) + 1
        if n_classes is not None:
            if n_classes < 1:
                raise InvalidInputError(f"n_classes must be positive, got {n_classes}")
            bad = (labels < 0) | (labels >= n_classes)
            if bad.any():
                raise InvalidInputError(f"sample {self._block.sample_ids[bad.argmax()]}: "
                                        f"needs a label in [0, {n_classes})")
        self.n_classes = n_classes

    def __len__(self) -> int:
        return len(self._block.values)

    @property
    def n_steps(self) -> int:
        return self._block.values.shape[1]

    @property
    def n_features(self) -> int:
        return self._block.values.shape[2]

    @property
    def has_labels(self) -> bool:
        """Whether every sample has a label."""
        return bool(self._block.labels.min() >= 0)

    @property
    def samples(self) -> list[TimeSeriesSample]:
        """The rows as TimeSeriesSample objects, built at most once."""
        if self._samples is None:
            self._samples = _Rows(self._block)
        return self._samples

    def training_batch(self, indices: Sequence[int]) -> Batch:
        return _rows(self._block, _check_indices(indices, len(self)))

    def labels_array(self) -> np.ndarray:
        if not self.has_labels:
            raise InvalidInputError("dataset has samples without labels")
        return self._block.labels.copy()


@dataclass
class NormStats:
    """Per-feature mean and standard deviation, and the normalization
    they define: the one map between data space and working space.

    The stats check themselves when built: 1-D, of one width, finite,
    with every std at least STD_FLOOR. Otherwise InvalidInputError names
    the first feature at fault.
    """

    mean: np.ndarray  # (D,)
    std: np.ndarray   # (D,), at least STD_FLOOR

    STD_FLOOR = 1e-8

    def __post_init__(self):
        if np.ndim(self.mean) != 1 or np.shape(self.mean) != np.shape(self.std):
            raise InvalidInputError(f"norm stats must be 1-D and of one width, got mean "
                                    f"{np.shape(self.mean)} and std {np.shape(self.std)}")
        finite = np.isfinite(self.mean) & np.isfinite(self.std)
        bad = np.flatnonzero(~finite | np.less(self.std, self.STD_FLOOR))
        if bad.size:
            j = bad[0]
            fault = f"a std below {self.STD_FLOOR}" if finite[j] else "a non-finite value"
            raise InvalidInputError(f"norm stats hold {fault} at feature {j} "
                                    f"(mean {float(self.mean[j])}, std {float(self.std[j])})")

    def forward(self, x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """(x - mean) / std over the last axis, 0 where mask is 0 if one is given."""
        w = x - self.mean
        w /= self.std
        return w if mask is None else np.where(mask, w, 0.0)

    def inverse(self, w: np.ndarray) -> np.ndarray:
        """w * std + mean over the last axis: forward's inverse."""
        return w * self.std + self.mean


class CorruptedPairView:
    """A dataset after artificial masking, paired with its ground truth.

    Pairs two views of the same samples: the original and a corrupted copy
    in which some observed cells were hidden. Batches carry the corrupted
    values and mask plus originals (the pre-corruption values) and
    indicating, the bool mask of the hidden cells: original mask AND NOT
    corrupted mask. Works with any pair of views exposing training_batch
    with bool masks, including lazy container handles; both arrays are
    derived batch by batch, so nothing is materialized up front. A batch
    is refused if the corrupted view observes a cell the original lacks,
    or a value that differs from the original's.
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

    def training_batch(self, indices: Sequence[int]) -> Batch:
        batch = self.corrupted.training_batch(indices)
        orig = self.original.training_batch(indices)
        if np.any(batch.mask > orig.mask):
            raise InvalidInputError(
                "paired views: the corrupted view observes cells its original lacks")
        if np.any((batch.values != orig.values) & batch.mask):
            raise InvalidInputError(
                "paired views: the views disagree on a value both observe")
        batch.originals = orig.values
        batch.indicating = orig.mask & ~batch.mask
        return batch


def _carry_forward(values: np.ndarray, observed: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Last observation carried forward over a time-major (T, B, D) block.

    Returns a (T + 1, B, D) block: row 0 is seed (broadcast to (B, D)),
    and row t + 1 holds each cell's last value observed at or before
    step t, else the seed. Every cell is selected, never computed.
    """
    out = np.empty((len(values) + 1,) + values.shape[1:])
    carry = out[0] = seed
    for t in range(len(values)):
        carry = out[t + 1] = np.where(observed[t], values[t], carry)
    return out


def _time_since_observed(gaps: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Time since each cell's last observation, over a time-major block.

    gaps (T - 1, B) holds the steps between timestamps and observed is
    (T, B, D) bool. Row 0 is 0, and row t is gaps[t - 1] plus, where step
    t - 1 is missing, row t - 1: missing runs accumulate elapsed time
    while observations reset it. Rows 1.. start as the gaps, and each
    then adds its predecessor in one masked add.
    """
    delta = np.empty(observed.shape)
    delta[:1] = 0.0
    delta[1:] = gaps[:, :, None]
    missing = ~observed[:-1]
    for prev, row, gone in zip(delta[:-1], delta[1:], missing):
        np.add(row, prev, out=row, where=gone)
    return delta


def compute_delta(timestamps: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Time since the last observation, per feature, of one (T, D) sample.

    delta[0, d] = 0, and for t >= 1:
    delta[t, d] = timestamps[t] - timestamps[t-1] + (delta[t-1, d] if
    mask[t-1, d] == 0 else 0), summed in that order. It is
    _time_since_observed on a block of one sample.
    """
    ts = np.asarray(timestamps, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    if ts.ndim != 1 or m.ndim != 2 or m.shape[0] != ts.shape[0]:
        raise InvalidInputError(
            f"compute_delta: incompatible shapes {ts.shape} and {m.shape}")
    gaps = np.diff(ts)
    if not np.all(gaps > 0):
        raise InvalidInputError("compute_delta: timestamps must be strictly increasing")
    return _time_since_observed(gaps[:, None], (m != 0)[:, None])[:, 0]


def _rng(seed: int) -> np.random.Generator:
    """The generator every seeded draw starts from; a negative seed is refused."""
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


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
    rng = _rng(seed)
    block, n = dataset._block, len(dataset)
    observed = block.mask.reshape(n, -1)
    counts = observed.sum(axis=1).tolist()
    cells = np.flatnonzero(observed)  # row by row, in each row's np.nonzero order
    starts = np.cumsum([0] + counts).tolist()
    hidden = []
    for start, count in zip(starts, counts):
        k = _mcar_cell_count(rate, count)
        if k > 0:
            hidden.append(cells[start + rng.choice(count, size=k, replace=False)])
    values, mask = block.values.copy(), block.mask.copy()
    if hidden:
        flat = np.concatenate(hidden)
        values.reshape(-1)[flat] = np.nan
        mask.reshape(-1)[flat] = False
    corrupted = PotsDataset(dataclasses.replace(block, values=values, mask=mask),
                            n_classes=dataset.n_classes)
    return CorruptedPairView(dataset, corrupted)


def _chunks(n: int, size: int = _EVAL_CHUNK) -> Iterator[slice]:
    """Slices that cover range(n) in order, each at most size long."""
    for lo in range(0, n, size):
        yield slice(lo, min(lo + size, n))


def _iter_batches(view, batch_size: int = _EVAL_CHUNK) -> Iterator[Batch]:
    """A view's batches of at most batch_size samples, in index order."""
    n = len(view)
    for part in _chunks(n, batch_size):
        yield view.training_batch(range(n)[part])


def fetch_all(view, batch_size: int = _EVAL_CHUNK) -> Batch:
    """Stream a whole view into one stacked Batch, in index order.

    Each chunk of batch_size samples is copied into one block, sized from
    the first chunk's shapes and dtypes, and can be freed once copied.
    Every view's training_batch returns fresh arrays, so a view that fits
    one chunk comes back as that chunk's batch, without a copy. Labels
    come as every batch gives them: (N,) codes, -1 where absent.
    """
    n, out = len(view), None
    for part, batch in zip(_chunks(n, batch_size), _iter_batches(view, batch_size)):
        if out is None:
            if part.stop == n:
                return batch
            out = Batch(**{name: None if a is None else np.empty((n, *a.shape[1:]), a.dtype)
                           for name, a in vars(batch).items()})
        for name, a in vars(out).items():
            if a is not None:
                a[part] = getattr(batch, name)
    return out


def _observed_moments(view):
    """Per-feature (count, mean, m2) over observed cells, in one pass over
    the view; m2 is the sum of squared deviations from the mean.

    Each _iter_batches chunk, in index order, gives its count, mean and
    centred sum of squares; the running ones take them in by the pairwise
    update of Chan, Golub and LeVeque ("Algorithms for computing the
    sample variance", 1983), which does not cancel as E[x^2] - mean^2
    does. A feature never observed has count 0 and mean 0. Moments that
    overflow float64 come out non-finite, without a warning.
    """
    d = view.n_features
    count, mean, m2 = np.zeros(d), np.zeros(d), np.zeros(d)
    with np.errstate(over="ignore", invalid="ignore"):
        for batch in _iter_batches(view):
            hit = batch.mask.astype(bool, copy=False)
            n = hit.sum(axis=(0, 1), dtype=np.float64)
            chunk_mean = np.where(hit, batch.values, 0.0).sum(axis=(0, 1)) / np.maximum(n, 1)
            dev = np.where(hit, batch.values - chunk_mean, 0.0)
            delta, share = chunk_mean - mean, n / np.maximum(count + n, 1)
            mean = mean + delta * share
            m2 = m2 + (dev * dev).sum(axis=(0, 1)) + delta * delta * count * share
            count = count + n
    return count, mean, m2


def fit_norm_stats(view) -> NormStats:
    """Per-feature mean/std over observed cells, from _observed_moments.

    Features with no observations get mean 0 and std 1; the std is
    floored at NormStats.STD_FLOOR. Statistics that overflow float64
    come out non-finite, without a warning, and NormStats refuses them.
    """
    count, mean, m2 = _observed_moments(view)
    with np.errstate(over="ignore", invalid="ignore"):
        std = np.where(count > 0, np.sqrt(m2 / np.maximum(count, 1)), 1.0)
    return NormStats(mean=mean, std=np.maximum(std, NormStats.STD_FLOOR))


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
    rng = _rng(seed)
    labels = np.array([i % n_classes for i in range(n_samples)], dtype=np.int64)
    rng.shuffle(labels)
    t_grid = np.arange(n_steps, dtype=np.float64)
    t_norm = t_grid / n_steps
    d_grid = np.arange(n_features, dtype=np.float64)
    values = np.empty((n_samples, n_steps, n_features))
    mask = np.ones((n_samples, n_steps, n_features), dtype=bool)
    k = _mcar_cell_count(missing_rate, n_steps * n_features)
    for i, c in enumerate(labels.tolist()):
        freq = 1.0 + 0.35 * d_grid + 0.55 * c
        phase = 2.0 * np.pi * d_grid / n_features + 0.9 * c + rng.normal(0.0, 0.25)
        clean = np.sin(2.0 * np.pi * freq * t_norm[:, None] + phase)
        values[i] = clean + rng.normal(0.0, 0.08, size=(n_steps, n_features))
        if k > 0:
            flat = rng.choice(n_steps * n_features, size=k, replace=False)
            values[i].reshape(-1)[flat] = np.nan
            mask[i].reshape(-1)[flat] = False
    return PotsDataset(Batch(values=values, mask=mask,
                             timestamps=np.tile(t_grid, (n_samples, 1)), labels=labels),
                       n_classes=n_classes)


def _csv_rows(handle, path: str):
    """The rows of an open CSV file.

    Bytes that are not UTF-8, and text the csv module refuses (a field
    over its size limit, say), are a FormatError.
    """
    try:
        yield from csv.reader(handle)
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e.reason})") from None
    except csv.Error as e:
        raise FormatError(f"{path}: {e}") from None


def ingest_csv(path: str) -> PotsDataset:
    """Read a long-format CSV into a dataset.

    Expected columns: sample_id, step, one column per feature, and an
    optional label column (constant within each sample), below 2**63.
    Empty feature cells are missing; any other cell must hold a finite
    number. Rows may arrive in any order; they are grouped by
    sample_id (first-appearance order) and sorted by step.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise FormatError(f"{path}: cannot open ({e})") from e
    with handle:
        reader = _csv_rows(handle, path)
        header = [h.strip() for h in next(reader, [])]
        if not header:
            raise FormatError(f"{path}: empty file")
        for required in ("sample_id", "step"):
            if required not in header:
                raise FormatError(f"{path}: missing required column {required!r}")
        id_col = header.index("sample_id")
        step_col = header.index("step")
        label_col = header.index("label") if "label" in header else None
        feature_cols = [i for i in range(len(header))
                        if i not in (id_col, step_col, label_col)]
        if not feature_cols:
            raise FormatError(f"{path}: no feature columns found")
        samples: dict[int, tuple[int | None, list]] = {}  # id -> (label, (step, values) rows)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise FormatError(
                    f"{path}: row {line_no}: expected {len(header)} columns, got {len(row)}")
            try:
                sid, step = int(row[id_col]), float(row[step_col])
                feats = [float(row[i]) if row[i].strip() else np.nan for i in feature_cols]
                label = (int(row[label_col])
                         if label_col is not None and row[label_col].strip() else None)
            except ValueError as e:
                raise FormatError(f"{path}: row {line_no}: {e}") from None
            bad = [row[i] for i, f in zip(feature_cols, feats)
                   if row[i].strip() and not math.isfinite(f)]
            if bad:
                raise FormatError(f"{path}: row {line_no}: sample {sid}: "
                                  f"feature value {bad[0]!r} is not finite")
            if label is not None and label >= 2**63:
                raise FormatError(f"{path}: sample {sid}: label {label} is beyond 2**63 - 1")
            if samples.setdefault(sid, (label, []))[0] != label:
                raise FormatError(
                    f"{path}: sample {sid}: label is not constant within the sample")
            samples[sid][1].append((step, feats))
    if not samples:
        raise FormatError(f"{path}: no data rows")
    n_steps = len(next(iter(samples.values()))[1])
    for sid, (_, rows) in samples.items():
        if len(rows) != n_steps:
            raise FormatError(
                f"{path}: sample {sid}: has {len(rows)} steps, expected {n_steps}")
        rows.sort(key=lambda r: r[0])
    values = np.array([[r[1] for r in rows] for _, rows in samples.values()], dtype=np.float64)
    block = Batch(values=values, mask=np.isfinite(values),
                  timestamps=np.array([[r[0] for r in rows] for _, rows in samples.values()]),
                  labels=np.array([_label_code(label) for label, _ in samples.values()]),
                  sample_ids=list(samples))
    try:
        return PotsDataset(block)
    except InvalidInputError as e:
        what = str(e).replace(_NOT_INCREASING, "steps must be strictly increasing")
        raise FormatError(f"{path}: {what}") from None


def write_csv(path: str, blocks: Iterable[Iterable[str]]) -> None:
    """Write CSV lines, each block of them in one write, ended by \r\n as
    csv.writer ends them; an OSError is a StorageError.

    Each line is its fields joined by commas, unquoted. The bytes equal
    csv.writer's as long as no field holds a comma, a quote or a line
    break, and no line is one empty field.
    """
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            for lines in blocks:
                handle.write("\r\n".join([*lines, ""]))
    except OSError as e:
        raise StorageError(f"{path}: cannot write ({e})") from e


def export_csv(dataset: PotsDataset, path: str) -> None:
    """Write a dataset in the long CSV layout read by ingest_csv.

    Floats are written with repr so a round trip reproduces every bit;
    missing cells become empty fields. The label column is written when any
    sample has a label, with an empty field where one is absent.
    """
    block = dataset._block
    with_labels = bool((block.labels >= 0).any())
    header = ["sample_id", "step"] + [f"f{d}" for d in range(dataset.n_features)]

    def blocks():
        yield [",".join(header + ["label"] * with_labels)]
        for j, (sid, label) in enumerate(zip(block.sample_ids.tolist(),
                                             block.labels.tolist())):
            tail = ("," + (str(label) if label >= 0 else "")) * with_labels
            yield [f"{sid},{t!r}," + ",".join([repr(v) if m else ""
                                                for v, m in zip(values, mask)]) + tail
                   for t, values, mask in zip(block.timestamps[j].tolist(),
                                              block.values[j].tolist(),
                                              block.mask[j].tolist())]

    write_csv(path, blocks())


def split(dataset: PotsDataset, fractions: Sequence[float], seed: int):
    """Shuffle and cut into train/val/test datasets.

    fractions must be three positive numbers summing to 1. Validation and
    test sizes round down; the remainder goes to train. Every split must be
    nonempty.
    """
    if len(fractions) != 3:
        raise InvalidInputError("split: need exactly three fractions")
    f_train, f_val, f_test = (float(f) for f in fractions)
    if not all(f > 0 for f in (f_train, f_val, f_test)):  # NaN is not > 0 either
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
    rng = _rng(seed)
    perm = rng.permutation(n)
    pick = lambda idx: PotsDataset._of_checked(_rows(dataset._block, idx), dataset.n_classes)
    return (pick(perm[:n_train]),
            pick(perm[n_train:n_train + n_val]),
            pick(perm[n_train + n_val:]))
