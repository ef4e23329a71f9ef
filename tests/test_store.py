"""Binary container: round trips, header validation, checksums, lazy reads."""

import dataclasses
import os
import re
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from potsmine import (
    PotsDataset,
    TimeSeriesSample,
    fetch_batch,
    generate_synthetic,
    lazy_dataset,
    open_readonly,
    stack_samples,
    write_container,
)
from potsmine.cli import main
from potsmine.errors import CorruptionError, FormatError, InvalidInputError, StorageError
from potsmine.store import _HEADER, _record_dtype


def write_demo(tmp_path, n=5, t=6, d=3, seed=0, name="demo.pots"):
    ds = generate_synthetic(n, t, d, 2, missing_rate=0.25, seed=seed)
    path = str(tmp_path / name)
    write_container(ds, path)
    return ds, path


# ---------------------------------------------------------------------------
# writer

def test_header_matches_dataset(tmp_path):
    ds, path = write_demo(tmp_path)
    with open_readonly(path) as h:
        assert (h.n_samples, h.n_steps, h.n_features) == (5, 6, 3)
        assert h.has_labels


def test_write_is_byte_deterministic(tmp_path):
    ds, path_a = write_demo(tmp_path, name="a.pots")
    path_b = str(tmp_path / "b.pots")
    write_container(ds, path_b)
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        assert fa.read() == fb.read()


def test_record_bytes_follow_the_documented_layout(tmp_path):
    values = np.array([[1.5, np.nan], [-np.nan, -np.nan], [-2.0, 0.25]])
    path = str(tmp_path / "one.pots")
    write_container(PotsDataset([TimeSeriesSample(
        sample_id=2**63 + 5, timestamps=[0.0, 1.0, 3.0], values=values,
        mask=np.isfinite(values))]), path)
    raw = Path(path).read_bytes()
    rec = raw[_HEADER.size:_HEADER.size + 8 + 3 * 8 + 6 * 8 + 1 + 8 + 4]
    assert _HEADER.unpack_from(raw) == (b"POTS", 1, 0, 1, 3, 2, 0, _HEADER.size + len(rec))
    sample_id, *floats, bits, label, crc = struct.unpack("<Q3d6dBqI", rec)
    assert (sample_id, floats[:3], bits, label, crc) == (
        2**63 + 5, [0.0, 1.0, 3.0], 0b110001, -1, zlib.crc32(rec[:-4]))
    assert np.array_equal(floats[3:], values.reshape(-1), equal_nan=True)
    # every missing cell holds the canonical quiet NaN, whatever NaN it had
    assert rec[40:64] == struct.pack("<Q", 0x7FF8000000000000) * 3
    assert raw[_HEADER.size + len(rec):] == struct.pack("<Q", _HEADER.size)


def test_sample_ids_keep_the_full_u64_range(tmp_path):
    ids = [2**63, 2**64 - 1, 7]
    ds = PotsDataset([dataclasses.replace(s, sample_id=i) for s, i in zip(
        generate_synthetic(3, 4, 2, 2, missing_rate=0.2, seed=3).samples, ids)])
    assert ds.training_batch([1, 0, 2]).sample_ids.tolist() == [2**64 - 1, 2**63, 7]
    path = str(tmp_path / "ids.pots")
    write_container(ds, path)
    with open_readonly(path) as h:
        assert h.read_batch([1, 0, 2]).sample_ids.tolist() == [2**64 - 1, 2**63, 7]
        assert [s.sample_id for s in fetch_batch(h, [0, 1])] == ids[:2]
    with pytest.raises(InvalidInputError, match="sample_id"):
        dataclasses.replace(ds.samples[0], sample_id=2**64)


def test_write_unwritable_path_raises_storage_error(tmp_path):
    ds, _ = write_demo(tmp_path)
    with pytest.raises(StorageError):
        write_container(ds, str(tmp_path / "missing_dir" / "x.pots"))


# ---------------------------------------------------------------------------
# reader validation

def test_open_rejects_bad_magic(tmp_path):
    _, path = write_demo(tmp_path)
    raw = bytearray(Path(path).read_bytes())
    raw[:4] = b"JUNK"
    Path(path).write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="not a POTS container"):
        open_readonly(path)


def test_open_rejects_unknown_version(tmp_path):
    _, path = write_demo(tmp_path)
    raw = bytearray(Path(path).read_bytes())
    raw[4:6] = (99).to_bytes(2, "little")
    Path(path).write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="99"):
        open_readonly(path)


def test_open_rejects_truncated_index(tmp_path):
    _, path = write_demo(tmp_path)
    size = os.path.getsize(path)
    with open(path, "rb+") as f:
        f.truncate(size - 12)
    with pytest.raises(FormatError, match="truncat"):
        open_readonly(path)


def test_open_rejects_degenerate_dimensions(tmp_path):
    _, path = write_demo(tmp_path)
    raw = bytearray(Path(path).read_bytes())
    fields = list(_HEADER.unpack_from(raw))
    fields[5] = 0  # n_features
    raw[:_HEADER.size] = _HEADER.pack(*fields)
    Path(path).write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="degenerate"):
        open_readonly(path)


def test_open_rejects_records_too_large_to_decode(tmp_path):
    _, path = write_demo(tmp_path)
    raw = bytearray(Path(path).read_bytes())
    fields = list(_HEADER.unpack_from(raw))
    fields[4] = 2**40  # n_steps
    raw[:_HEADER.size] = _HEADER.pack(*fields)
    Path(path).write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="records too large"):
        open_readonly(path)


def test_a_directory_is_a_storage_error_naming_it(tmp_path):
    # a directory opens for reading, but its header pread fails
    with pytest.raises(StorageError, match=re.escape(f"{tmp_path}: cannot read")):
        open_readonly(str(tmp_path))


@pytest.mark.parametrize("failing", [1, 2, 3])  # the header, index and records pread
def test_a_failing_pread_is_a_storage_error_naming_the_path(tmp_path, monkeypatch, failing):
    _, path = write_demo(tmp_path)
    real, calls = os.pread, []

    def pread(fd, size, offset):
        calls.append(offset)
        if len(calls) == failing:
            raise OSError(5, "Input/output error")
        return real(fd, size, offset)

    monkeypatch.setattr(os, "pread", pread)
    with pytest.raises(StorageError, match=re.escape(f"{path}: cannot read")):
        with open_readonly(path) as h:
            h.read_batch([0])


def test_a_failing_fstat_is_a_storage_error_naming_the_path(tmp_path, monkeypatch):
    _, path = write_demo(tmp_path)

    def fstat(fd):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(os, "fstat", fstat)
    with pytest.raises(StorageError, match=re.escape(f"{path}: cannot read")):
        open_readonly(path)


def test_open_missing_file_raises_storage_error(tmp_path):
    with pytest.raises(StorageError):
        open_readonly(str(tmp_path / "nope.pots"))


# ---------------------------------------------------------------------------
# fetch semantics

def test_fetch_returns_requested_order_and_duplicates(tmp_path):
    ds, path = write_demo(tmp_path)
    with open_readonly(path) as h:
        got = fetch_batch(h, [2, 0, 2])
        assert [s.sample_id for s in got] == [2, 0, 2]
        assert np.array_equal(got[0].values, got[2].values, equal_nan=True)


def test_fetch_out_of_range_rejected(tmp_path):
    _, path = write_demo(tmp_path)
    with open_readonly(path) as h:
        with pytest.raises(InvalidInputError, match="out of range"):
            fetch_batch(h, [5])


def test_round_trip_is_bitwise(tmp_path):
    ds, path = write_demo(tmp_path, n=7, t=9, d=4, seed=3)
    with open_readonly(path) as h:
        back = fetch_batch(h, list(range(len(ds))))
    for a, b in zip(ds.samples, back):
        assert a.sample_id == b.sample_id
        assert a.label == b.label
        assert np.array_equal(a.timestamps, b.timestamps)
        assert np.array_equal(a.mask, b.mask)
        obs = a.mask != 0
        # observed payload must round-trip to the exact same bits
        assert np.array_equal(a.values[obs].tobytes(), b.values[obs].tobytes())
        assert np.isnan(b.values[~obs]).all()


def test_unlabeled_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    samples = [TimeSeriesSample(sample_id=i, timestamps=np.arange(4.0),
                                values=rng.normal(size=(4, 2)), mask=np.ones((4, 2)))
               for i in range(3)]
    path = str(tmp_path / "nolabel.pots")
    write_container(PotsDataset(samples), path)
    with open_readonly(path) as h:
        assert not h.has_labels
        assert all(s.label is None for s in fetch_batch(h, [0, 1, 2]))


def test_flipped_payload_byte_detected(tmp_path):
    _, path = write_demo(tmp_path)
    rec = _record_dtype(6, 3).itemsize
    # flip one byte inside record 3's values region
    target = _HEADER.size + 3 * rec + 8 + 8 * 6 + 5
    raw = bytearray(Path(path).read_bytes())
    raw[target] ^= 0xFF
    Path(path).write_bytes(bytes(raw))
    with open_readonly(path) as h:
        fetch_batch(h, [0, 1, 2, 4])  # intact records still readable
        with pytest.raises(CorruptionError, match="record 3"):
            fetch_batch(h, [3])


def test_file_truncated_under_open_handle_detected(tmp_path):
    _, path = write_demo(tmp_path)
    rec = _record_dtype(6, 3).itemsize
    with open_readonly(path) as h:
        with open(path, "rb+") as f:
            f.truncate(_HEADER.size + 2 * rec + 10)
        assert [s.sample_id for s in fetch_batch(h, [1, 0])] == [1, 0]
        with pytest.raises(CorruptionError, match="record 2: truncated"):
            h.read_batch([0, 1, 2, 3])


def rewrite_record(path, position, edit):
    """Apply edit to one decoded record and store it back with a fresh CRC."""
    with open_readonly(path) as h:
        dtype, offset = _record_dtype(h.n_steps, h.n_features), int(h._offsets[position])
    with open(path, "rb+") as f:
        f.seek(offset)
        rec = np.frombuffer(f.read(dtype.itemsize), dtype=dtype).copy()
        edit(rec[0])
        raw = bytearray(rec.tobytes())
        raw[-4:] = zlib.crc32(bytes(raw[:-4])).to_bytes(4, "little")
        f.seek(offset)
        f.write(bytes(raw))


def _repeat_a_timestamp(rec):
    rec["timestamps"][2] = rec["timestamps"][1]


def _value_where_mask_is_zero(rec):
    flat = np.unpackbits(rec["mask"], count=rec["values"].size, bitorder="little")
    rec["values"].reshape(-1)[np.flatnonzero(flat == 0)[0]] = 1.0


def _label_below_absent(rec):
    rec["label"] = -5  # -1 is the only negative label a record may store


@pytest.mark.parametrize("edit, message", [
    (_repeat_a_timestamp, "record 3: timestamps are not strictly increasing"),
    (_value_where_mask_is_zero, "record 3: mask and NaN sentinel disagree"),
    (_label_below_absent, "record 3: label must be non-negative"),
])
def test_inconsistent_record_with_valid_crc_is_format_error(capsys, tmp_path, edit, message):
    _, path = write_demo(tmp_path)
    rewrite_record(path, 3, edit)
    with open_readonly(path) as h:
        h.read_batch([0, 1, 2, 4])  # intact records still readable
        for read in (h.read_batch, lambda idx: fetch_batch(h, idx)):
            with pytest.raises(FormatError, match=message) as info:
                read([4, 3, 0])
            assert not isinstance(info.value, CorruptionError)
    code = main(["corrupt", "--data", path, "--missing-rate", "0.2",
                 "--out", str(tmp_path / "out.pots"), "--seed", "1"])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["memory", "lazy"])
def test_both_backends_refuse_bad_indices_alike(tmp_path, backend):
    ds, path = write_demo(tmp_path)
    with open_readonly(path) as h:
        view = ds if backend == "memory" else lazy_dataset(h)
        for bad in ([1.5], [True, False], [], [[0, 1]], [0, 5], [-1]):
            with pytest.raises(InvalidInputError):
                view.training_batch(bad)
        got = view.training_batch(np.array([4, 1], dtype=np.uint16))
        want = view.training_batch([np.int64(4), 1])
        assert got.sample_ids.tolist() == want.sample_ids.tolist() == [4, 1]


# ---------------------------------------------------------------------------
# batched reads


def container_kinds(tmp_path, kind):
    """A written dataset that is labeled, unlabeled or partly labeled."""
    ds = generate_synthetic(9, 6, 3, 2, missing_rate=0.25, seed=11)
    if kind != "labeled":
        ds = PotsDataset([dataclasses.replace(s, label=None)
                          if kind == "unlabeled" or s.sample_id % 2 else s
                          for s in ds.samples])
    path = str(tmp_path / f"{kind}.pots")
    write_container(ds, path)
    return ds, path


@pytest.mark.parametrize("kind", ["labeled", "unlabeled", "partly_labeled"])
def test_has_labels_means_every_sample_on_both_backends(capsys, tmp_path, kind):
    ds, path = container_kinds(tmp_path, kind)
    with open_readonly(path) as h:
        assert h.has_labels == lazy_dataset(h).has_labels == ds.has_labels
        assert ds.has_labels == (kind == "labeled")
    assert main(["inspect", path]) == 0
    assert f"has_labels: {ds.has_labels}" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["labeled", "unlabeled", "partly_labeled"])
@pytest.mark.parametrize("indices", [
    [7, 2, 8, 0, 5, 1, 6, 3, 4],   # shuffled
    list(range(8, -1, -1)),        # reversed
    [3, 3, 0, 3, 8, 0],            # duplicated
    [2, 3, 4, 5],                  # contiguous
    [6],                           # single
])
def test_read_batch_equals_stacked_samples_bitwise(tmp_path, kind, indices):
    ds, path = container_kinds(tmp_path, kind)
    want = stack_samples([ds.samples[i] for i in indices])
    with open_readonly(path) as h:
        got = h.read_batch(indices)
        assert h.payload_bytes_read == len(indices) * h.record_size
        labels = [s.label for s in fetch_batch(h, indices)]
    assert labels == [ds.samples[i].label for i in indices]
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if b is None:
            assert a is None, f.name
        else:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name


@pytest.mark.parametrize("indices, preads", [
    (range(7), 1), ([2, 0, 2], 3), ([0, 1, 2, 5, 6], 2), ([4, 5, 5, 6], 2)])
def test_one_pread_per_run_of_adjacent_records(tmp_path, monkeypatch, indices, preads):
    _, path = write_demo(tmp_path, n=8)
    calls = []
    real = os.pread

    def counting(fd, n, offset):
        calls.append((n, offset))
        return real(fd, n, offset)

    with open_readonly(path) as h:
        monkeypatch.setattr(os, "pread", counting)
        batch = h.read_batch(indices)
    assert len(calls) == preads
    assert sum(n for n, _ in calls) == len(batch.sample_ids) * h.record_size
    assert batch.sample_ids.tolist() == list(indices)


# ---------------------------------------------------------------------------
# lazy view

def test_lazy_view_equals_in_memory(tmp_path):
    ds, path = write_demo(tmp_path, n=8, t=5, d=2, seed=7)
    with open_readonly(path) as h:
        lazy = lazy_dataset(h)
        assert len(lazy) == len(ds)
        assert (lazy.n_steps, lazy.n_features) == (ds.n_steps, ds.n_features)
        assert lazy.has_labels
        assert [s.sample_id for s in lazy.fetch_batch([3, 1])] == [3, 1]
        batch = lazy.training_batch(list(range(len(ds))))
    direct = stack_samples(ds.samples)
    assert np.array_equal(batch.values, direct.values, equal_nan=True)
    assert np.array_equal(batch.mask, direct.mask)
    assert np.array_equal(batch.labels, direct.labels)


def test_payload_reads_scale_with_batch_not_file(tmp_path):
    small, small_path = write_demo(tmp_path, n=10, name="small.pots")
    big, big_path = write_demo(tmp_path, n=200, name="big.pots")
    rec = _record_dtype(6, 3).itemsize
    with open_readonly(small_path) as hs, open_readonly(big_path) as hb:
        fetch_batch(hs, [1, 2, 3])
        fetch_batch(hb, [1, 2, 3])
        assert hs.payload_bytes_read == 3 * rec
        # byte count depends on the batch alone, not on file size
        assert hb.payload_bytes_read == hs.payload_bytes_read
        hb.reset_payload_counter()
        fetch_batch(hb, list(range(7)))
        assert hb.payload_bytes_read == 7 * rec


def test_closed_handle_rejected(tmp_path):
    _, path = write_demo(tmp_path)
    h = open_readonly(path)
    h.close()
    with pytest.raises(StorageError, match="closed"):
        fetch_batch(h, [0])
