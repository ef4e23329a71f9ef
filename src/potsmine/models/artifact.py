"""Model artifact serialization: the `.pmdl` container.

Layout, all little-endian:

    magic   4 bytes  b"PMDL"
    version u16      1
    payload
        kind          u16 length + utf-8 bytes
        hyperparams   u32 count, then per entry (sorted by key):
                      key (u16 length + utf-8), type tag u8, value
                      (tag 0 float f8, 1 int i64, 3 bool u8; tag 2, once
                      a string, is refused like any unknown tag)
        norm stats    u8 flag; if 1: u32 D, D f8 means, D f8 stds
        tensors       u32 count, then per tensor (sorted by name):
                      name (u16 length + utf-8), rank u8, dims (u64 each),
                      row-major f8 data
        inner         u8 flag; if 1: u64 byte length + a complete nested
                      artifact (used by models that wrap another model)
    crc     u32      CRC-32 of the payload bytes

Numeric state is binary64 end to end, so a load reproduces the saved
model's outputs bitwise.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import CorruptionError, FormatError, StorageError
from ..core import NormStats

MAGIC = b"PMDL"
VERSION = 1

_TAG_FLOAT = 0
_TAG_INT = 1
_TAG_BOOL = 3

MODEL_REGISTRY: dict[str, type] = {}


def register_model(cls):
    """Class decorator mapping a model's kind tag to its class."""
    MODEL_REGISTRY[cls.kind] = cls
    return cls


@dataclass
class ModelArtifact:
    """Decoded artifact contents, independent of any model class."""

    kind: str
    hyperparams: dict = field(default_factory=dict)
    norm: NormStats | None = None
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    inner: "ModelArtifact | None" = None


def _pack_str(out: list[bytes], text: str) -> None:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError(f"string field too long ({len(raw)} bytes)")
    out.append(struct.pack("<H", len(raw)))
    out.append(raw)


def _encode_payload(art: ModelArtifact) -> bytes:
    out: list[bytes] = []
    _pack_str(out, art.kind)
    keys = sorted(art.hyperparams)
    out.append(struct.pack("<I", len(keys)))
    for key in keys:
        value = art.hyperparams[key]
        _pack_str(out, key)
        if isinstance(value, bool):
            out.append(struct.pack("<BB", _TAG_BOOL, int(value)))
        elif isinstance(value, (int, np.integer)):
            out.append(struct.pack("<Bq", _TAG_INT, int(value)))
        elif isinstance(value, (float, np.floating)):
            out.append(struct.pack("<Bd", _TAG_FLOAT, float(value)))
        else:
            raise FormatError(
                f"hyperparameter {key!r} has unsupported type {type(value).__name__}")
    if art.norm is None:
        out.append(b"\x00")
    else:
        mean = np.asarray(art.norm.mean, dtype="<f8")
        std = np.asarray(art.norm.std, dtype="<f8")
        out.append(struct.pack("<BI", 1, mean.size))
        out.append(mean.tobytes())
        out.append(std.tobytes())
    names = sorted(art.tensors)
    out.append(struct.pack("<I", len(names)))
    for name in names:
        arr = np.ascontiguousarray(art.tensors[name], dtype="<f8")
        _pack_str(out, name)
        out.append(struct.pack("<B", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        out.append(arr.tobytes())
    if art.inner is None:
        out.append(b"\x00")
    else:
        nested = encode_artifact(art.inner)
        out.append(struct.pack("<BQ", 1, len(nested)))
        out.append(nested)
    return b"".join(out)


def encode_artifact(art: ModelArtifact) -> bytes:
    payload = _encode_payload(art)
    return MAGIC + struct.pack("<H", VERSION) + payload + struct.pack(
        "<I", zlib.crc32(payload))


class _Cursor:
    """Bounds-checked sequential reader over the payload bytes."""

    def __init__(self, data: bytes, source: str):
        self.data = data
        self.pos = 0
        self.source = source

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptionError(f"{self.source}: artifact payload ended early")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self) -> str:
        (n,) = self.unpack("<H")
        return self.take(n).decode("utf-8")


def decode_artifact(data: bytes, source: str = "artifact") -> ModelArtifact:
    if len(data) < 6 or data[:4] != MAGIC:
        raise FormatError(f"{source}: not a PMDL artifact")
    (version,) = struct.unpack("<H", data[4:6])
    if version != VERSION:
        raise FormatError(f"{source}: unsupported artifact version {version}")
    if len(data) < 10:
        raise CorruptionError(f"{source}: artifact truncated")
    payload = data[6:-4]
    (stored,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(payload) != stored:
        raise CorruptionError(f"{source}: artifact checksum mismatch")
    cur = _Cursor(payload, source)
    kind = cur.text()
    (n_hp,) = cur.unpack("<I")
    hyperparams: dict = {}
    for _ in range(n_hp):
        key = cur.text()
        (tag,) = cur.unpack("<B")
        if tag == _TAG_FLOAT:
            (hyperparams[key],) = cur.unpack("<d")
        elif tag == _TAG_INT:
            (hyperparams[key],) = cur.unpack("<q")
        elif tag == _TAG_BOOL:
            hyperparams[key] = bool(cur.unpack("<B")[0])
        else:
            raise CorruptionError(f"{source}: unknown hyperparameter tag {tag}")
    (has_norm,) = cur.unpack("<B")
    norm = None
    if has_norm:
        (dim,) = cur.unpack("<I")
        mean = np.frombuffer(cur.take(8 * dim), dtype="<f8").copy()
        std = np.frombuffer(cur.take(8 * dim), dtype="<f8").copy()
        norm = NormStats(mean=mean, std=std)
    (n_tensors,) = cur.unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        name = cur.text()
        (rank,) = cur.unpack("<B")
        dims = cur.unpack(f"<{rank}Q")
        flat = np.frombuffer(cur.take(8 * math.prod(dims)), dtype="<f8").copy()
        tensors[name] = flat.reshape(dims)
    (has_inner,) = cur.unpack("<B")
    inner = None
    if has_inner:
        (nbytes,) = cur.unpack("<Q")
        inner = decode_artifact(cur.take(nbytes), source=f"{source} (inner)")
    if cur.pos != len(payload):
        raise CorruptionError(f"{source}: {len(payload) - cur.pos} trailing payload bytes")
    return ModelArtifact(kind=kind, hyperparams=hyperparams, norm=norm,
                         tensors=tensors, inner=inner)


def model_to_artifact(model) -> ModelArtifact:
    inner = model_to_artifact(model.inner_model) if model.inner_model is not None else None
    return ModelArtifact(
        kind=model.kind,
        hyperparams=dict(model.hyperparams()),
        norm=model.norm_stats,
        tensors=dict(model.tensors()),
        inner=inner)


def model_from_artifact(art: ModelArtifact):
    """Rebuild the model an artifact describes, or refuse it.

    An artifact can pass its checksum and still not fit its kind. Its
    hyperparameters must be exactly the kind's HYPERPARAMS, each of the
    declared type; it must hold an inner model exactly when the kind
    takes one; and its tensors must be exactly those of the model its
    hyperparameters build, at their shapes, and finite. Otherwise this
    raises FormatError naming the entry; values the kind's constructor
    refuses raise its InvalidInputError. The tensors are copied into the
    new model's own arrays.
    """
    cls = MODEL_REGISTRY.get(art.kind)
    if cls is None:
        raise FormatError(f"unknown model kind tag {art.kind!r}")
    hp = art.hyperparams
    odd = sorted(set(cls.HYPERPARAMS) ^ set(hp))
    if odd:
        raise FormatError(f"{art.kind} artifact lacks or adds hyperparameter {odd[0]!r}")
    for name, typ in cls.HYPERPARAMS.items():
        if type(hp[name]) is not typ:
            raise FormatError(f"{art.kind} artifact hyperparameter {name!r} is stored as "
                              f"{type(hp[name]).__name__}, expected {typ.__name__}")
    if cls.takes_inner != (art.inner is not None):
        raise FormatError(f"{art.kind} artifact is missing its inner model" if cls.takes_inner
                          else f"{art.kind} artifact holds an inner model its kind does not take")
    model = cls(inner=model_from_artifact(art.inner), **hp) if cls.takes_inner else cls(**hp)
    own = model.tensors()
    want = {name: arr.shape for name, arr in own.items()}
    got = {name: arr.shape for name, arr in art.tensors.items()}
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            raise FormatError(f"{art.kind} artifact tensor {name!r}: found shape "
                              f"{got.get(name, 'none')}, expected {want.get(name, 'none')}")
    for name, arr in own.items():
        if not np.isfinite(art.tensors[name]).all():
            raise FormatError(f"{art.kind} artifact tensor {name!r} holds a non-finite value")
        arr[...] = art.tensors[name]
    model.norm_stats = art.norm
    return model


def save_model(model, path: str) -> None:
    """Write the model's `.pmdl` artifact to path.

    The encoded artifact first passes model_from_artifact, the check
    load_model makes on the same bytes, so a model load_model would
    refuse is refused here with the same error, and no file is written.
    """
    data = encode_artifact(model_to_artifact(model))
    model_from_artifact(decode_artifact(data))
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise StorageError(f"cannot write model artifact {path}: {exc}") from exc


def load_model(path: str):
    """Read a `.pmdl` artifact and rebuild the model it describes."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise StorageError(f"cannot read model artifact {path}: {exc}") from exc
    return model_from_artifact(decode_artifact(data, source=path))
