"""Damaged files: truncations and single-bit flips of a .pots and a .pmdl,
and byte rewrites, insertions and truncations of a .pmdl's payload under a
recomputed checksum. Config values at their edges: `train` with one
config key set to a value at or past its range.

Each damaged copy either reads back or is refused with a PotsError
subclass; a bare exception of any other type is a bug. Each config case
ends in a documented exit code, with no traceback and no RuntimeWarning.
The cases are drawn by a seeded numpy generator, so a failure reproduces.
"""

import contextlib
import io
import json
import math
import struct
import warnings
import zlib

import numpy as np
import pytest

from potsmine import (CorruptionError, GrudLiteModel, LocfModel, MeanImputerModel,
                      PotsError, SaitsLiteModel, TmfModel, TrainConfig, TwoStageKMeansModel,
                      cluster, fetch_all, fit, generate_synthetic, impute, inject_mcar,
                      lazy_dataset, open_readonly, save_model, write_container)
from potsmine import cli
from potsmine.models import (MODEL_REGISTRY, decode_artifact, encode_artifact,
                             model_from_artifact, model_to_artifact)

N_TRUNCATIONS = 40
N_FLIPS = 200
N_REWRITES = 200
N_INSERTIONS = 40
N_CONFIG_CASES = 120

# a config key's edge values go by the type of its CLI default, so that
# each reaches the model past the config file's type check; the integers
# stay small, since a key may size an array or count iterations (13 is
# one past the sweep container's 12 steps)
INT_EDGES = [-2 ** 64, -1, 0, 1, 13]
FLOAT_EDGES = [-math.inf, -1.0, 0.0, 1e-320, 1e308, math.inf, math.nan]

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
        values.update(range(pos + 1, pos + 9))   # a tag, then an int or a float
        pos += 9
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


class _Reads(dict):
    """A resolved config that records the keys read from it."""

    def __init__(self, cfg: dict):
        super().__init__(cfg)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def run_train(kind: str, config: dict) -> tuple[int, str, list]:
    """`train` of kind on data.pots with config as its config file, in
    process: (exit code, stderr, RuntimeWarnings)."""
    with open("config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(["train", "--task", cli._MODEL_TASKS[kind], "--model", kind,
                         "--data", "data.pots", "--out", "model.pmdl",
                         "--config", "config.json"])
    return code, err.getvalue(), [w for w in caught if issubclass(w.category, RuntimeWarning)]


def train_keys(kind: str, monkeypatch) -> list[str]:
    """The numeric keys of cli._DEFAULTS that `train` reads for kind, seen
    by one run at the defaults."""
    resolve, reads = cli._resolve, []

    def recording(args):
        reads.append(_Reads(resolve(args)))
        return reads[-1]

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_resolve", recording)
        assert run_train(kind, {"epochs": 1})[0] == 0, kind
    return sorted(key for key in reads[0].read
                  if type(cli._DEFAULTS[key]) in (int, float))


def config_cases(keys: dict, seed: int) -> list[tuple[str, str, object]]:
    """At most N_CONFIG_CASES seeded (kind, key, value) draws: each kind's
    keys at the edge values of their type."""
    cases = [(kind, key, value) for kind, own in keys.items() for key in own
             for value in (INT_EDGES if type(cli._DEFAULTS[key]) is int else FLOAT_EDGES)]
    rng = np.random.Generator(np.random.PCG64(seed))
    picked = rng.choice(len(cases), size=min(N_CONFIG_CASES, len(cases)), replace=False)
    return [cases[i] for i in sorted(picked)]


def test_config_values_at_their_edges_end_in_an_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_container(generate_synthetic(60, 12, 3, 2, missing_rate=0.1, seed=5), "data.pots")
    keys = {kind: train_keys(kind, monkeypatch) for kind in cli._MODEL_TASKS}
    assert {"epochs", "lr", "d_model", "lam_mit"} <= set(keys["saits_lite"])
    assert {"rank", "iters", "lam_a"} <= set(keys["tmf"])
    codes = set()
    for kind, key, value in config_cases(keys, 14):
        label = f"{kind} {key}={value!r}"
        try:
            code, err, warned = run_train(kind, {"epochs": 1, key: value})
        except Exception as exc:
            pytest.fail(f"{label}: {type(exc).__name__}: {exc}")
        assert code in (0, 1, 2, 3), label
        assert "Traceback" not in err, label
        assert not warned, label
        codes.add(code)
    assert {0, 1, 2} <= codes
