"""Chunked binary container for datasets, with lazy positional reads.

File layout (all little-endian):

    header   magic b"POTS" | u16 version=1 | u8 endianness=0 |
             u64 n_samples | u64 n_steps | u64 n_features |
             u64 flags (bit0: every sample has a label) | u64 index_offset
    records  one fixed-size record per sample:
             u64 sample_id | T f64 timestamps | T*D f64 values |
             packed mask bitset (LSB-first, byte padded) |
             i64 label (-1 when absent) | u32 CRC-32 of the record payload
    index    n_samples u64 absolute record offsets, at index_offset

Missing cells are stored as the canonical quiet NaN so writing the same
dataset always produces identical bytes. Reads go through os.pread, so a
handle is safe to share across threads and every fetch touches exactly the
requested records. ReadHandle.read_batch is the one record decoder: it
reads each run of records that lie back to back in the file, in request
order, with one pread, checks every record's CRC-32, decodes the whole
batch with numpy at once, and checks the batch once with the same
sample check as an in-memory dataset (strictly increasing timestamps, a
mask that agrees with the NaN sentinel, labels absent or non-negative).
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from typing import Sequence

import numpy as np

from .core import (_BLOCK, Batch, PotsDataset, TimeSeriesSample, _check_indices, _chunks,
                   _first_fault, _for_models, _read_only, _rows, _Rows)
from .errors import CorruptionError, FormatError, StorageError

MAGIC = b"POTS"
VERSION = 1
_HEADER = struct.Struct("<4sHBQQQQQ")
_CANONICAL_NAN = np.frombuffer(struct.pack("<Q", 0x7FF8000000000000), dtype="<f8")[0]


def _record_dtype(n_steps: int, n_features: int) -> np.dtype:
    """One record's layout, shared by the writer and the reader."""
    return np.dtype([
        ("sample_id", "<u8"), ("timestamps", "<f8", (n_steps,)),
        ("values", "<f8", (n_steps, n_features)),
        ("mask", "u1", ((n_steps * n_features + 7) // 8,)),
        ("label", "<i8"), ("crc", "<u4")])


def _encode(block: Batch, dtype: np.dtype) -> bytes:
    """The records of a block's rows, back to back, each with its CRC-32."""
    b, size = len(block.values), dtype.itemsize
    observed = block.mask != 0
    records = np.zeros(b, dtype=dtype)
    records["sample_id"] = block.sample_ids
    records["timestamps"] = block.timestamps
    records["values"] = np.where(observed, block.values, _CANONICAL_NAN)
    records["mask"] = np.packbits(observed.reshape(b, -1), axis=1, bitorder="little")
    records["label"] = block.labels
    payload = memoryview(records.tobytes())
    records["crc"] = [zlib.crc32(payload[j * size:(j + 1) * size - 4]) for j in range(b)]
    return records.tobytes()


def write_container(dataset: PotsDataset, path: str) -> None:
    """Serialize a dataset. Writing the same dataset twice is byte-identical."""
    n, dtype = len(dataset), _record_dtype(dataset.n_steps, dataset.n_features)
    flags = 1 if dataset.has_labels else 0
    index_offset = _HEADER.size + n * dtype.itemsize
    header = _HEADER.pack(MAGIC, VERSION, 0, n, dataset.n_steps, dataset.n_features,
                          flags, index_offset)
    offsets = _HEADER.size + dtype.itemsize * np.arange(n, dtype="<u8")
    try:
        with open(path, "wb") as out:
            out.write(header)
            for part in _chunks(n):
                out.write(_encode(_rows(dataset._block, part), dtype))
            out.write(offsets.tobytes())
    except OSError as e:
        raise StorageError(f"{path}: cannot write container ({e})") from e


class ReadHandle:
    """Read-only view over a container file.

    Records are fetched with positional reads; nothing is cached, so
    payload_bytes_read counts exactly the record bytes each fetch touches.
    """

    def __init__(self, path: str):
        self.path = path
        try:
            self._fd = os.open(path, os.O_RDONLY)
        except OSError as e:
            raise StorageError(f"{path}: cannot open ({e})") from e
        try:
            size = os.fstat(self._fd).st_size
            if size < _HEADER.size:
                raise FormatError(f"{path}: not a POTS container (too short)")
            raw = os.pread(self._fd, _HEADER.size, 0)
            magic, version, endian, n, t, d, flags, index_offset = _HEADER.unpack(raw)
            if magic != MAGIC:
                raise FormatError(f"{path}: not a POTS container")
            if version != VERSION:
                raise FormatError(f"{path}: unsupported container version {version}")
            if endian != 0:
                raise FormatError(f"{path}: unsupported endianness tag {endian}")
            if n == 0 or t == 0 or d == 0:
                raise FormatError(f"{path}: degenerate container dimensions")
            if index_offset + 8 * n > size:
                raise FormatError(f"{path}: truncated index")
            self.n_samples = int(n)
            self.n_steps = int(t)
            self.n_features = int(d)
            self.has_labels = bool(flags & 1)
            try:
                self._dtype = _record_dtype(self.n_steps, self.n_features)
            except ValueError as e:  # numpy refuses a record of 2**31 bytes or more
                raise FormatError(f"{path}: records too large ({e})") from None
            self.record_size = self._dtype.itemsize
            index_raw = os.pread(self._fd, 8 * self.n_samples, index_offset)
            self._offsets = np.frombuffer(index_raw, dtype="<u8")
            lo, hi = int(self._offsets.min()), int(self._offsets.max())
            if lo < _HEADER.size or hi + self.record_size > index_offset:
                raise FormatError(f"{path}: index points outside the record region")
        except Exception:
            os.close(self._fd)
            self._fd = -1
            raise
        self.payload_bytes_read = 0
        self._lock = threading.Lock()

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def reset_payload_counter(self) -> None:
        with self._lock:
            self.payload_bytes_read = 0

    def read_batch(self, indices: Sequence[int]) -> Batch:
        """Read and decode the requested records, in order, duplicates allowed.

        Each run of records that lie back to back in the file, in request
        order, is read with one pread. Every record's CRC-32 is checked, and
        the batch is checked once for strictly increasing timestamps, a mask
        that agrees with the NaN sentinel and labels that are absent (-1) or
        non-negative. A record that fails those checks is a FormatError
        naming its position, whatever its CRC says. labels is None unless
        every requested record has one.
        """
        return _for_models(self._read(_check_indices(indices, self.n_samples)))

    def _read(self, idx: np.ndarray) -> Batch:
        """read_batch's Batch for checked indices, with each record's label as
        stored (-1 when absent)."""
        if self._fd < 0:
            raise StorageError(f"{self.path}: handle is closed")
        size, positions = self.record_size, idx.tolist()
        offsets = self._offsets[idx].tolist()
        chunks, start = [], 0  # one pread per run of records back to back in the file
        for j in range(1, len(offsets) + 1):
            if j < len(offsets) and offsets[j] == offsets[j - 1] + size:
                continue
            chunk = os.pread(self._fd, (j - start) * size, offsets[start])
            if len(chunk) != (j - start) * size:
                short = positions[start + len(chunk) // size]
                raise CorruptionError(f"{self.path}: record {short}: truncated")
            chunks.append(chunk)
            start = j
        raw = chunks[0] if len(chunks) == 1 else b"".join(chunks)
        with self._lock:
            self.payload_bytes_read += len(raw)
        view = memoryview(raw)
        for j, position in enumerate(positions):
            record = view[j * size:(j + 1) * size]
            if zlib.crc32(record[:-4]) != int.from_bytes(record[-4:], "little"):
                raise CorruptionError(f"{self.path}: record {position}: checksum mismatch")
        records = np.frombuffer(raw, dtype=self._dtype)
        b, t, d = len(positions), self.n_steps, self.n_features
        observed = np.unpackbits(records["mask"], axis=1, count=t * d, bitorder="little")
        batch = Batch(values=records["values"].astype(np.float64),
                      mask=observed.reshape(b, t, d).astype(np.float64),
                      timestamps=records["timestamps"].astype(np.float64),
                      labels=records["label"].astype(np.int64),
                      sample_ids=records["sample_id"].astype(np.uint64))
        fault = _first_fault(batch)
        if fault is not None:
            raise FormatError(f"{self.path}: record {positions[fault[0]]}: {fault[1]}")
        return batch

    def _read_block(self, idx: np.ndarray) -> Batch:
        """_read for any number of records: they are decoded one chunk at a
        time into preallocated arrays, so a big read is decoded only once."""
        n, t, d = len(idx), self.n_steps, self.n_features
        block = Batch(values=np.empty((n, t, d)), mask=np.empty((n, t, d)),
                      timestamps=np.empty((n, t)), labels=np.empty(n, dtype=np.int64),
                      sample_ids=np.empty(n, dtype=np.uint64))
        for part in _chunks(n):
            chunk = self._read(idx[part])
            for name in _BLOCK:
                getattr(block, name)[part] = getattr(chunk, name)
        return block


def open_readonly(path: str) -> ReadHandle:
    """Open a container for reading, validating its header and index."""
    return ReadHandle(path)


def fetch_batch(handle: ReadHandle, indices: Sequence[int]) -> list[TimeSeriesSample]:
    """Read the requested records, in order, duplicates allowed."""
    block = handle._read_block(_check_indices(indices, handle.n_samples))
    return _Rows(Batch(**{name: _read_only(getattr(block, name)) for name in _BLOCK}))


class LazyDataset:
    """Dataset-access view backed by a container handle.

    Implements the view protocol of PotsDataset (len, n_steps,
    n_features, training_batch) without loading records up front, so
    models train identically against either backend. fetch_batch also
    hands out the records themselves.
    """

    def __init__(self, handle: ReadHandle):
        self.handle = handle

    def __len__(self) -> int:
        return self.handle.n_samples

    @property
    def n_steps(self) -> int:
        return self.handle.n_steps

    @property
    def n_features(self) -> int:
        return self.handle.n_features

    @property
    def has_labels(self) -> bool:
        return self.handle.has_labels

    def fetch_batch(self, indices: Sequence[int]) -> list[TimeSeriesSample]:
        return fetch_batch(self.handle, indices)

    def training_batch(self, indices: Sequence[int]) -> Batch:
        return self.handle.read_batch(indices)


def lazy_dataset(handle: ReadHandle) -> LazyDataset:
    return LazyDataset(handle)
