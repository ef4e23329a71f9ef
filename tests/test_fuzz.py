"""Damaged files: truncations and single-bit flips of a .pots and a .pmdl.

Each damaged copy either reads back or is refused with a PotsError
subclass; a bare exception of any other type is a bug. The cases are
drawn by a seeded numpy generator, so a failure reproduces.
"""

import numpy as np
import pytest

from potsmine import (LocfModel, PotsError, SaitsLiteModel, TrainConfig,
                      TwoStageKMeansModel, cluster, fetch_all, fit,
                      generate_synthetic, impute, inject_mcar, lazy_dataset,
                      open_readonly, save_model, write_container)
from potsmine.models import decode_artifact, model_from_artifact

N_TRUNCATIONS = 40
N_FLIPS = 200


def damaged_copies(data: bytes, seed: int):
    """(label, bytes) for seeded truncations and single-bit flips of data."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for cut in sorted(rng.choice(len(data), size=N_TRUNCATIONS, replace=False)):
        yield f"truncated to {cut} bytes", data[:cut]
    for bit in sorted(rng.choice(8 * len(data), size=N_FLIPS, replace=False)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield f"bit {bit} flipped", bytes(flipped)


def outcomes(data: bytes, seed: int, read) -> dict[str, int]:
    """Run read on every damaged copy; count reads and refusals."""
    counts = {"read": 0, "refused": 0}
    for label, damaged in damaged_copies(data, seed):
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
