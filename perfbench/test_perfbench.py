"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench.import_program()

import workloads  # noqa: E402
from catalog import END_TO_END, GRADIENT, PER_LAYER, WORKLOADS  # noqa: E402

TINY = workloads.Sizes(n_samples=100, epochs=2, requests=3, setups=1)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_run(workload, trace=False, seed=3):
    result, report = bench.run(workload, seed=seed, seconds=0, trace=trace, sizes=TINY)
    assert result is not None, report
    return result, report


def test_benchmark_json_matches_catalog():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == END_TO_END
    assert ({m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
            == {k: v[:2] for k, v in PER_LAYER.items()})
    for unit, better, moves, where in PER_LAYER.values():
        assert set(where) <= set(WORKLOADS)
        assert moves.startswith("none") or set(moves.split(",")) <= set(END_TO_END)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, report = tiny_run(workload, trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert report["workload_metrics"]["failed_ops_ratio"]["value"] == 0.0
    if trace and workload in GRADIENT:
        parts = report["fit_breakdown"]
        assert parts["sum_s"] == pytest.approx(parts["fit_s"], rel=1e-9)
    if trace:
        assert (HERE.parent / report["spans_file"]).is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_bitwise(workload):
    _, first = tiny_run(workload)
    _, second = tiny_run(workload)
    assert first["digests"] == second["digests"]
    assert first["workload_metrics"] == second["workload_metrics"]


def test_gate_catches_an_altered_imputation(monkeypatch):
    real_impute = workloads.impute

    def flip_first_observed_cell(model, dataset):
        out = real_impute(model, dataset)
        batch = dataset.training_batch(list(range(len(dataset))))
        b, t, d = np.argwhere(batch.mask != 0)[0]
        out[b, t, d] = np.nextafter(out[b, t, d], np.inf)
        return out

    monkeypatch.setattr(workloads, "impute", flip_first_observed_cell)
    result, report = bench.run("impute-lazy", seed=3, seconds=0, trace=False, sizes=TINY)
    assert not result["correct"]
    assert result["failed"] > 0
    assert report["workload_metrics"]["failed_ops_ratio"]["value"] > 0
    assert any("observed cell" in f for f in report["failures"])


def test_gate_catches_probability_rows_off_one():
    probs = np.array([[0.25, 0.75], [0.5, 0.5 + 1e-6]])
    assert workloads.rows_are_distributions(probs[:1])
    assert not workloads.rows_are_distributions(probs)


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "impute-lazy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_step_clock_skips_prepare_calls_and_epoch_ends():
    view = workloads.ClockedDataset(workloads.PotsDataset(
        workloads.generate_synthetic(70, 4, 2, 2, missing_rate=0.1, seed=1).samples, n_classes=2))
    # two prepare calls, then 2 epochs of ceil(70 / 32) = 3 steps each
    view.marks = [0.0, 0.5, 1.0, 1.25, 1.75, 3.0, 3.5, 4.5]
    assert view.step_times(32, 2) == [0.25, 0.5, 0.5, 1.0]
    with pytest.raises(RuntimeError):
        view.step_times(32, 3)


def test_reported_times_are_scaled_by_the_host_slowdown():
    result, report = tiny_run("classify-recurrent")
    got, raw = result["metrics"], report["measured"]
    setup = report["host_slowdown"]["setup"]
    assert got["setup_s"]["value"] == pytest.approx(raw["setup_s"] / setup)
    lo, hi = report["host_slowdown"]["rounds_min"], report["host_slowdown"]["rounds_max"]
    assert raw["request_ms_p50"] / hi <= got["request_ms_p50"]["value"] * (1 + 1e-12)
    assert got["request_ms_p50"]["value"] <= raw["request_ms_p50"] / lo * (1 + 1e-12)
