"""Chunked binary container for datasets, with lazy positional reads.

File layout (all little-endian):

    header   magic b"POTS" | u16 version=1 | u8 endianness=0 |
             u64 n_samples | u64 n_steps | u64 n_features |
             u64 flags (bit0: labels present) | u64 index_offset
    records  one fixed-size record per sample:
             u64 sample_id | T f64 timestamps | T*D f64 values |
             packed mask bitset (LSB-first, byte padded) |
             i64 label (-1 when absent) | u32 CRC-32 of the record payload
    index    n_samples u64 absolute record offsets, at index_offset

Missing cells are stored as the canonical quiet NaN so writing the same
dataset always produces identical bytes. Reads go through os.pread, so a
handle is safe to share across threads and every fetch touches exactly the
requested records.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from typing import Sequence

import numpy as np

from .core import Batch, PotsDataset, TimeSeriesSample, stack_samples
from .errors import CorruptionError, FormatError, InvalidInputError, StorageError

MAGIC = b"POTS"
VERSION = 1
_HEADER = struct.Struct("<4sHBQQQQQ")
_CANONICAL_NAN = np.frombuffer(struct.pack("<Q", 0x7FF8000000000000), dtype="<f8")[0]


def _record_size(n_steps: int, n_features: int) -> int:
    cells = n_steps * n_features
    return 8 + 8 * n_steps + 8 * cells + (cells + 7) // 8 + 8 + 4


def write_container(dataset: PotsDataset, path: str) -> None:
    """Serialize a dataset. Writing the same dataset twice is byte-identical."""
    t, d = dataset.n_steps, dataset.n_features
    n = len(dataset)
    rec_size = _record_size(t, d)
    flags = 1 if any(s.label is not None for s in dataset.samples) else 0
    index_offset = _HEADER.size + n * rec_size
    header = _HEADER.pack(MAGIC, VERSION, 0, n, t, d, flags, index_offset)
    offsets = []
    try:
        with open(path, "wb") as out:
            out.write(header)
            for i, s in enumerate(dataset.samples):
                offsets.append(_HEADER.size + i * rec_size)
                values = s.values.astype("<f8")
                values[s.mask == 0] = _CANONICAL_NAN
                bits = np.packbits(
                    (s.mask.reshape(-1) != 0).astype(np.uint8), bitorder="little")
                label = s.label if s.label is not None else -1
                payload = b"".join([
                    struct.pack("<Q", s.sample_id),
                    s.timestamps.astype("<f8").tobytes(),
                    values.tobytes(),
                    bits.tobytes(),
                    struct.pack("<q", label),
                ])
                out.write(payload)
                out.write(struct.pack("<I", zlib.crc32(payload)))
            out.write(struct.pack(f"<{n}Q", *offsets))
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
            self.record_size = _record_size(self.n_steps, self.n_features)
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

    def _read_record(self, position: int) -> TimeSeriesSample:
        raw = os.pread(self._fd, self.record_size, int(self._offsets[position]))
        if len(raw) != self.record_size:
            raise CorruptionError(f"{self.path}: record {position}: truncated")
        with self._lock:
            self.payload_bytes_read += len(raw)
        (stored_crc,) = struct.unpack_from("<I", raw, self.record_size - 4)
        if zlib.crc32(raw[:-4]) != stored_crc:
            raise CorruptionError(f"{self.path}: record {position}: checksum mismatch")
        t, d = self.n_steps, self.n_features
        (sample_id,) = struct.unpack_from("<Q", raw, 0)
        off = 8
        timestamps = np.frombuffer(raw, dtype="<f8", count=t, offset=off)
        off += 8 * t
        values = np.frombuffer(raw, dtype="<f8", count=t * d, offset=off).reshape(t, d)
        off += 8 * t * d
        n_mask_bytes = (t * d + 7) // 8
        bits = np.frombuffer(raw, dtype=np.uint8, count=n_mask_bytes, offset=off)
        mask = np.unpackbits(bits, count=t * d, bitorder="little").reshape(t, d)
        off += n_mask_bytes
        (label,) = struct.unpack_from("<q", raw, off)
        return TimeSeriesSample(
            sample_id=int(sample_id), timestamps=timestamps, values=values,
            mask=mask.astype(np.float64), label=None if label < 0 else int(label))

    def fetch(self, indices: Sequence[int]) -> list[TimeSeriesSample]:
        if self._fd < 0:
            raise StorageError(f"{self.path}: handle is closed")
        out = []
        for i in indices:
            i = int(i)
            if not 0 <= i < self.n_samples:
                raise InvalidInputError(
                    f"sample index {i} out of range [0, {self.n_samples})")
            out.append(self._read_record(i))
        return out


def open_readonly(path: str) -> ReadHandle:
    """Open a container for reading, validating its header and index."""
    return ReadHandle(path)


def fetch_batch(handle: ReadHandle, indices: Sequence[int]) -> list[TimeSeriesSample]:
    """Read the requested records, in order, duplicates allowed."""
    return handle.fetch(indices)


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
        return self.handle.fetch(indices)

    def training_batch(self, indices: Sequence[int]) -> Batch:
        return stack_samples(self.handle.fetch(indices))


def lazy_dataset(handle: ReadHandle) -> LazyDataset:
    return LazyDataset(handle)
