"""Model artifact serialization: the `.pmdl` container.

Layout, all little-endian:

    magic   4 bytes  b"PMDL"
    version u16      2
    payload
        kind          u16 length + utf-8 bytes
        hyperparams   u32 count, then per entry (sorted by key):
                      key (u16 length + utf-8), type tag u8, value
                      (tag 0 float f8, 1 int i64; tags 2 and 3, once a
                      string and a bool, are refused like any unknown tag)
        tensors       u32 count, then per tensor (sorted by name):
                      name (u16 length + utf-8), rank u8, dims (u64 each),
                      row-major f8 data
        inner         u8 flag; if 1: u64 byte length + a complete nested
                      artifact (used by models that wrap another model)
    crc     u32      CRC-32 of the payload bytes

Numeric state is binary64 end to end, so a load reproduces the saved
model's outputs bitwise.

Norm statistics are tensors like any other: a gradient model's are
norm_mean and norm_std, two-stage k-means' feat_mean and feat_std, and
norm_stats_of builds each pair into a NormStats when the model is filled.

load_model reads the file once, into a buffer of its own. decode_artifact
parses it in one pass with precompiled structs; its tensors are views of
that buffer. model_from_artifact builds the model without drawing its
initialization, checks the tensor shapes its hyperparameters imply
before allocating any array, copies each tensor once into one block
that the model's arrays are views of, and checks that block for
non-finite values in one pass. A load is refused, with a FormatError
that names the file or the entry (a CorruptionError where the bytes are
damaged), when:

- the magic or the version is wrong, the file is truncated, or the
  checksum does not match;
- the payload ends early or has trailing bytes, a hyperparameter has an
  unknown type tag, a string field is not valid UTF-8, or a tensor's
  dims are more than numpy can hold;
- the kind is unknown, a hyperparameter is missing, extra or stored
  under another type, or an inner model is missing or present for a
  kind that takes none;
- a tensor is missing, extra or of another shape than the
  hyperparameters give, so a size the artifact's bytes do not hold is
  refused before it is allocated;
- a tensor holds a non-finite value, or a norm std tensor a value below
  NormStats.STD_FLOOR.

A value the kind's constructor refuses raises its InvalidInputError.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import CorruptionError, FormatError, InvalidInputError, StorageError
from ..core import NormStats

MAGIC = b"PMDL"
VERSION = 2

_TAG_FLOAT = 0
_TAG_INT = 1

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
        # a bool is an int to isinstance; it is refused, never stored as 0 or 1
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            out.append(struct.pack("<Bq", _TAG_INT, int(value)))
        elif isinstance(value, (float, np.floating)):
            out.append(struct.pack("<Bd", _TAG_FLOAT, float(value)))
        else:
            raise FormatError(
                f"hyperparameter {key!r} has unsupported type {type(value).__name__}")
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


_U8, _U16, _U32, _U64 = (struct.Struct(fmt) for fmt in ("<B", "<H", "<I", "<Q"))
_VALUES = {_TAG_FLOAT: struct.Struct("<d"), _TAG_INT: struct.Struct("<q")}
_F8 = np.dtype("<f8")


def _ended(source: str) -> CorruptionError:
    return CorruptionError(f"{source}: artifact payload ended early")


def _text(bounded: memoryview, pos: int, source: str) -> tuple[str, int]:
    """The u16-length-prefixed UTF-8 string at pos, and the position after it."""
    (n,) = _U16.unpack_from(bounded, pos)
    if pos + 2 + n > len(bounded):
        raise _ended(source)
    try:  # a slice of the bytearray under the view decodes faster than one of the view
        return bounded.obj[pos + 2:pos + 2 + n].decode("utf-8"), pos + 2 + n
    except UnicodeDecodeError:
        raise CorruptionError(f"{source}: the string at byte {pos} is not valid UTF-8") from None


def _parse(raw: bytearray, start: int, end: int, source: str) -> ModelArtifact:
    """The artifact in raw[start:end], read in one pass; its tensors are
    float64 views of raw."""
    if end - start < 6 or raw[start:start + 4] != MAGIC:
        raise FormatError(f"{source}: not a PMDL artifact")
    (version,) = _U16.unpack_from(raw, start + 4)
    if version != VERSION:
        raise FormatError(f"{source}: unsupported artifact version {version}")
    if end - start < 10:
        raise CorruptionError(f"{source}: artifact truncated")
    pos, end = start + 6, end - 4
    if zlib.crc32(memoryview(raw)[pos:end]) != _U32.unpack_from(raw, end)[0]:
        raise CorruptionError(f"{source}: artifact checksum mismatch")
    # fields are read through a view of raw that ends where the payload does
    bounded = memoryview(raw)[:end]
    kind, pos = _text(bounded, pos, source)
    (n_hp,) = _U32.unpack_from(bounded, pos)
    pos += 4
    hyperparams: dict = {}
    for _ in range(n_hp):
        key, pos = _text(bounded, pos, source)
        (tag,) = _U8.unpack_from(bounded, pos)
        value = _VALUES.get(tag)
        if value is None:
            raise CorruptionError(f"{source}: unknown hyperparameter tag {tag}")
        (hyperparams[key],) = value.unpack_from(bounded, pos + 1)
        pos += 1 + value.size
    (n_tensors,) = _U32.unpack_from(bounded, pos)
    pos += 4
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        name, pos = _text(bounded, pos, source)
        (rank,) = _U8.unpack_from(bounded, pos)
        dims = struct.unpack_from(f"<{rank}Q", bounded, pos + 1)
        pos += 1 + 8 * rank
        nbytes = 8 * math.prod(dims)
        if pos + nbytes > end:
            raise _ended(source)
        try:
            tensors[name] = np.ndarray(dims, _F8, raw, pos)
        except ValueError:  # more than 64 dims, or a size-0 shape too large
            raise CorruptionError(
                f"{source}: tensor {name!r} has a shape numpy cannot hold, {dims}") from None
        pos += nbytes
    (has_inner,) = _U8.unpack_from(bounded, pos)
    pos += 1
    inner = None
    if has_inner:
        (nbytes,) = _U64.unpack_from(bounded, pos)
        pos += 8
        if pos + nbytes > end:
            raise _ended(source)
        inner = _parse(raw, pos, pos + nbytes, f"{source} (inner)")
        pos += nbytes
    if pos != end:
        raise CorruptionError(f"{source}: {end - pos} trailing payload bytes")
    return ModelArtifact(kind=kind, hyperparams=hyperparams, tensors=tensors, inner=inner)


def decode_artifact(data, source: str = "artifact") -> ModelArtifact:
    """Parse the artifact in data, any bytes-like object, in one pass.

    The tensors are float64 views of data when it is a bytearray, and of
    one bytearray copy of it otherwise, so they can be edited before
    model_from_artifact copies them.
    """
    raw = data if isinstance(data, bytearray) else bytearray(data)
    try:
        return _parse(raw, 0, len(raw), source)
    except struct.error:  # a fixed-width field runs past the payload's end
        raise _ended(source) from None


def norm_stats_of(kind: str, tensors: dict[str, np.ndarray], prefix: str) -> NormStats:
    """The NormStats of a loaded model's prefix_mean and prefix_std tensors.

    The loader has refused wrong shapes and non-finite values by then, so
    what NormStats refuses here is a std below its STD_FLOOR, raised as a
    FormatError that names the std tensor.
    """
    try:
        return NormStats(tensors[prefix + "_mean"], tensors[prefix + "_std"])
    except InvalidInputError as exc:
        raise FormatError(f"{kind} artifact tensor '{prefix}_std': {exc}") from None


def model_to_artifact(model) -> ModelArtifact:
    inner = model_to_artifact(model.inner_model) if model.inner_model is not None else None
    return ModelArtifact(
        kind=model.kind,
        hyperparams=dict(model.hyperparams()),
        tensors=dict(model.tensors()),
        inner=inner)


def model_from_artifact(art: ModelArtifact):
    """Rebuild the model an artifact describes, or refuse it.

    An artifact can pass its checksum and still not fit its kind. Its
    hyperparameters must be exactly the kind's HYPERPARAMS, each of the
    declared type; it must hold an inner model exactly when the kind
    takes one; and its tensors must be exactly those of the model its
    hyperparameters build, at their shapes, and finite, with every norm
    std at least NormStats.STD_FLOOR (norm_stats_of). Otherwise this
    raises FormatError naming the entry; values the kind's constructor
    refuses raise its InvalidInputError.

    The model is built without its initial tensors: the constructor
    checks the hyperparameters and allocates nothing, and the shapes
    they imply are compared with the artifact's before any array is
    made, so a size that the artifact's bytes do not hold is refused,
    not allocated. Each tensor is then copied once, into one block that
    the model's arrays are views of, and one pass over that block checks
    that every value is finite.
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
    inner = {"inner": model_from_artifact(art.inner)} if cls.takes_inner else {}
    model = cls.__new__(cls)
    model._unfilled = True
    model.__init__(**inner, **hp)
    del model._unfilled
    want = dict(model._shapes())
    got = {name: arr.shape for name, arr in art.tensors.items()}
    if got != want:
        name = min(name for name in set(want) | set(got) if want.get(name) != got.get(name))
        raise FormatError(f"{art.kind} artifact tensor {name!r}: found shape "
                          f"{got.get(name, 'none')}, expected {want.get(name, 'none')}")
    block = np.empty(sum(map(math.prod, want.values())))
    own, at = {}, 0
    for name, shape in want.items():
        arr = own[name] = np.ndarray(shape, block.dtype, block, at)
        arr[...] = art.tensors[name]
        at += arr.nbytes
    if not np.isfinite(block).all():
        name = next(name for name, arr in own.items() if not np.isfinite(arr).all())
        raise FormatError(f"{art.kind} artifact tensor {name!r} holds a non-finite value")
    model._fill(own)
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
            data = bytearray(os.fstat(fh.fileno()).st_size)
            del data[fh.readinto(data):]  # the file may have shrunk since fstat
    except OSError as exc:
        raise StorageError(f"cannot read model artifact {path}: {exc}") from exc
    return model_from_artifact(decode_artifact(data, source=path))
