"""Damaged files: truncations and single-bit flips of a .pots and a .pmdl,
and byte rewrites, insertions and truncations of a .pmdl's payload under a
recomputed checksum.

Each damaged copy either reads back or is refused with a PotsError
subclass; a bare exception of any other type is a bug. The cases are
drawn by a seeded numpy generator, so a failure reproduces.
"""

import struct
import zlib

import numpy as np
import pytest

from potsmine import (CorruptionError, GrudLiteModel, LocfModel, MeanImputerModel,
                      PotsError, SaitsLiteModel, TmfModel, TrainConfig, TwoStageKMeansModel,
                      cluster, fetch_all, fit, generate_synthetic, impute, inject_mcar,
                      lazy_dataset, open_readonly, save_model, write_container)
from potsmine.models import (MODEL_REGISTRY, decode_artifact, encode_artifact,
                             model_from_artifact, model_to_artifact)

N_TRUNCATIONS = 40
N_FLIPS = 200
N_REWRITES = 200
N_INSERTIONS = 40


def damaged_copies(data: bytes, seed: int):
    """(label, bytes) for seeded truncations and single-bit flips of data."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for cut in sorted(rng.choice(len(data), size=N_TRUNCATIONS, replace=False)):
        yield f"truncated to {cut} bytes", data[:cut]
    for bit in sorted(rng.choice(8 * len(data), size=N_FLIPS, replace=False)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield f"bit {bit} flipped", bytes(flipped)


def hyperparameter_values(payload: bytes) -> tuple[set[int], int]:
    """The positions of an artifact payload's hyperparameter values, and
    where its hyperparameter entries end."""
    pos = 2 + int.from_bytes(payload[:2], "little")
    (count,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    values: set[int] = set()
    for _ in range(count):
        pos += 2 + int.from_bytes(payload[pos:pos + 2], "little")
        width = 1 if payload[pos] == 3 else 8    # a bool, or an int or a float
        values.update(range(pos + 1, pos + 1 + width))
        pos += 1 + width
    return values, pos


def framed(data: bytes, payload: bytes) -> bytes:
    """An artifact of data's magic and version around payload, with its checksum."""
    return data[:6] + payload + struct.pack("<I", zlib.crc32(payload))


def edited_payloads(data: bytes, seed: int):
    """(label, artifact) for seeded byte rewrites and insertions of data's
    payload, each framed again with a fresh checksum.

    No edit touches a hyperparameter value or inserts bytes before one (an
    inner artifact's values sit behind its own checksum), so no edit can
    claim a size the loader might try to allocate; such claims have tests
    of their own.
    """
    payload = data[6:-4]
    rng = np.random.Generator(np.random.PCG64(seed))
    values, values_end = hyperparameter_values(payload)
    free = [p for p in range(len(payload)) if p not in values]
    for pos in rng.choice(free, size=N_REWRITES):
        edited = bytearray(payload)
        edited[pos] ^= int(rng.integers(1, 256))
        yield f"byte {pos} rewritten", framed(data, bytes(edited))
    for pos in rng.integers(values_end, len(payload) + 1, size=N_INSERTIONS):
        extra = rng.bytes(int(rng.integers(1, 9)))
        yield (f"{extra.hex()} inserted at byte {pos}",
               framed(data, payload[:pos] + extra + payload[pos:]))


def outcomes(data: bytes, seed: int, read, copies=damaged_copies) -> dict[str, int]:
    """Run read on every damaged copy; count reads and refusals."""
    counts = {"read": 0, "refused": 0}
    for label, damaged in copies(data, seed):
        try:
            read(damaged)
        except PotsError:
            counts["refused"] += 1
        except Exception as exc:
            pytest.fail(f"{label}: {type(exc).__name__}: {exc}")
        else:
            counts["read"] += 1
    return counts


def test_damaged_container_reads_or_raises_pots_error(tmp_path):
    ds = generate_synthetic(3, 4, 2, 2, missing_rate=0.25, seed=1)
    path = tmp_path / "small.pots"
    write_container(ds, str(path))
    target = tmp_path / "damaged.pots"

    def read(damaged: bytes) -> None:
        target.write_bytes(damaged)
        with open_readonly(str(target)) as handle:
            fetch_all(lazy_dataset(handle))

    counts = outcomes(path.read_bytes(), 11, read)
    assert counts["refused"] > 0
    assert sum(counts.values()) == N_TRUNCATIONS + N_FLIPS


@pytest.mark.parametrize("kind", ["saits_lite", "twostage_kmeans"])
def test_damaged_artifact_loads_or_raises_pots_error(tmp_path, kind):
    ds = generate_synthetic(8, 4, 2, 2, missing_rate=0.25, seed=2)
    if kind == "saits_lite":
        model = SaitsLiteModel(4, 2, d_model=4, d_ff=4, init_seed=0)
        view = inject_mcar(ds, 0.2, seed=3)
        fit(model, view, view, TrainConfig(epochs=1, batch_size=4))
    else:
        model = TwoStageKMeansModel(LocfModel(2), 2)
        fit(model, ds, ds, TrainConfig())
    path = tmp_path / "model.pmdl"
    save_model(model, str(path))

    task = impute if kind == "saits_lite" else cluster

    def read(damaged: bytes) -> None:
        task(model_from_artifact(decode_artifact(damaged)), ds)

    counts = outcomes(path.read_bytes(), 12, read)
    assert counts["refused"] > 0
    assert sum(counts.values()) == N_TRUNCATIONS + N_FLIPS


def _fitted(kind: str):
    """A model of the kind, fit on a tiny dataset."""
    ds = generate_synthetic(12, 6, 2, 2, missing_rate=0.1, seed=4)
    model = {
        "locf": lambda: LocfModel(2),
        "mean": lambda: MeanImputerModel(2),
        "saits_lite": lambda: SaitsLiteModel(6, 2, d_model=4, d_ff=4),
        "grud_lite": lambda: GrudLiteModel(6, 2, 2, hidden_size=3),
        "twostage_kmeans": lambda: TwoStageKMeansModel(MeanImputerModel(2), 2),
        "tmf": lambda: TmfModel(6, 2, rank=2, iters=2),
    }[kind]()
    fit(model, ds, ds, TrainConfig(epochs=1, batch_size=4))
    return model


@pytest.mark.parametrize("kind", sorted(MODEL_REGISTRY))
def test_edited_payload_under_a_valid_checksum_loads_or_raises_pots_error(kind):
    data = encode_artifact(model_to_artifact(_fitted(kind)))
    counts = outcomes(data, 13, lambda edited: model_from_artifact(decode_artifact(edited)),
                      copies=edited_payloads)
    assert counts["refused"] > 0
    assert sum(counts.values()) == N_REWRITES + N_INSERTIONS


@pytest.mark.parametrize("kind", sorted(MODEL_REGISTRY))
def test_every_truncated_payload_under_a_valid_checksum_ends_early(kind):
    data = encode_artifact(model_to_artifact(_fitted(kind)))
    payload = data[6:-4]
    for cut in range(len(payload)):
        with pytest.raises(CorruptionError, match="artifact payload ended early"):
            decode_artifact(framed(data, payload[:cut]))
