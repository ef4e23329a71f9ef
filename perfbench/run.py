"""Benchmark for potsmine: one workload per run, one process, one client.

    python3 perfbench/run.py --workload impute-lazy --seed 1 --seconds 35 --trace 0

Set-up builds the workload's inputs from --seed and is repeated a few
times; setup_s is their median. Rounds of fixed work (train, bulk passes,
a closed loop of small requests) then repeat until --seconds have passed.
Each end-to-end metric is a median over the run's units of that kind:
minibatch steps, bulk passes, requests, rounds. Times are scaled to the
reference host speed (speed.py) by the reference-kernel readings taken
between units in the same round. Every round runs the correctness gate.

With --trace 1, rounds alternate between untraced and traced. The traced
rounds give the per-layer metrics from spans recorded around the calls
into each potsmine layer, and the pairing gives the tracing overhead.
Spans are written to .perfbench/spans-<workload>-seed<seed>.jsonl.

The second-to-last stdout line is a JSON report (environment, quality
metrics, digests for cross-run comparison, failures, fit breakdown). The
last line is the result: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread unless the caller chose otherwise: on a host of two
# shared cores a second BLAS thread spins against the neighbours and makes
# small-matrix timings bimodal. Set before numpy loads BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_program() -> None:
    """Put the checkout's src/ first on the path; refuse any other potsmine."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import potsmine
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import potsmine from {src}: {exc}")
    if Path(potsmine.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: potsmine imported from {potsmine.__file__}, not {src}")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_vars": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "git_commit": git_commit(),
    }


def _median_dict(dicts: list[dict]) -> dict:
    keys = {k for d in dicts for k in d}
    return {k: statistics.median([d[k] for d in dicts if k in d]) for k in sorted(keys)}


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None):
    """Run one workload; return (result, report) as printed by main()."""
    from catalog import END_TO_END, PER_LAYER, WORKLOAD_ONLY
    from spans import Tracer
    from speed import Speed
    from workloads import FULL, REQUEST_SAMPLES, WORKLOAD_CLASSES, Gate, RoundAborted

    sizes = sizes or FULL[name]
    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if trace else None
    gate = Gate()
    workload = WORKLOAD_CLASSES[name](seed, sizes, work)
    setup_times, setup_layers, plain, traced = [], [], [], []
    setup_speed = Speed()
    try:
        setup_speed.sample(SETUP_SPEED_SAMPLES)
        for k in range(sizes.setups):
            if tracer is not None:
                tracer.run_id = f"{name}/seed{seed}/setup{k}"
            t0 = time.perf_counter()
            workload.setup(tracer)
            setup_times.append(time.perf_counter() - t0)
            setup_speed.sample(SETUP_SPEED_SAMPLES)
            if tracer is not None:
                setup_layers.append(workload.setup_layers(tracer, tracer.run_id))
        start = time.perf_counter()
        k = 0
        while True:
            traced_round = trace and k % 2 == 1
            if tracer is not None:
                tracer.run_id = f"{name}/seed{seed}/round{k}"
            first_sample = len(workload.speed.samples)
            try:
                rnd = workload.run_round(gate, tracer if traced_round else None)
                rnd.slowdown = workload.speed.slowdown_since(first_sample)
            except RoundAborted:
                pass
            except Exception as exc:  # a failed operation ends its round, not the run
                gate.op(False, f"round {k}: {exc!r}")
            else:
                for key, value in rnd.quality.items():
                    gate.same(key, value)
                (traced if traced_round else plain).append(rnd)
            k += 1
            if time.perf_counter() - start >= seconds and (k >= 2 or not trace):
                break
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    report = {"workload": name, "seed": seed, "trace": int(trace),
              "environment": environment(), "rounds": len(plain) + len(traced),
              "failures": gate.failures[:10]}
    quality = plain[0].quality if plain else {}
    report["workload_metrics"] = {
        k: {"value": v, "unit": WORKLOAD_ONLY[k][0]}
        for k, v in {**quality, "failed_ops_ratio": gate.failed_ratio}.items()}
    if not plain:
        return None, report
    requests = [x for r in plain for x in r.requests_ms]
    measured = {
        "setup_s": statistics.median(setup_times),
        "train_samples_per_s": statistics.median(n / t for r in plain for n, t in r.train),
        "infer_samples_per_s": statistics.median(n / t for r in plain for n, t in r.infer),
        "request_ms_p50": statistics.median(requests),
        "pipeline_s": statistics.median(r.pipeline_s for r in plain),
    }
    # each round's times scaled by that round's slowdown: times divided, rates multiplied
    values = {
        "setup_s": measured["setup_s"] / setup_speed.slowdown,
        "train_samples_per_s": statistics.median(
            n / t * r.slowdown for r in plain for n, t in r.train),
        "infer_samples_per_s": statistics.median(
            n / t * r.slowdown for r in plain for n, t in r.infer),
        "request_ms_p50": statistics.median(
            x / r.slowdown for r in plain for x in r.requests_ms),
        "pipeline_s": statistics.median(r.pipeline_s / r.slowdown for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    slowdown = {"setup": setup_speed.slowdown,
                "rounds_median": statistics.median(r.slowdown for r in plain),
                "rounds_min": min(r.slowdown for r in plain),
                "rounds_max": max(r.slowdown for r in plain)}
    report.update({
        "host_slowdown": slowdown, "measured": measured,
        "units": {"train": sum(len(r.train) for r in plain),
                  "infer": sum(len(r.infer) for r in plain),
                  "requests": len(requests), "rounds": len(plain),
                  "speed_samples": len(workload.speed.samples) + len(setup_speed.samples)},
        "samples_per_request": REQUEST_SAMPLES, "digests": plain[0].digests,
        # printed, not bounded: the tail of a few hundred requests on a
        # shared host moves between runs by more than any useful bound
        "request_ms_p95": {"value": float(np.percentile(requests, 95)),
                           "unit": "ms, measured"},
    })
    units = END_TO_END
    if trace:
        if not traced:
            return None, report
        layers = {**_median_dict(setup_layers), **_median_dict([r.layers for r in traced])}

        def scaled(rounds, m):  # median of a round time at the reference host speed
            return statistics.median(getattr(r, m) / r.slowdown for r in rounds)

        report["overhead"] = {m: scaled(traced, m) / scaled(plain, m)
                              for m in ("fit_s", "pipeline_s", "wall_s") if getattr(plain[0], m)}
        layers["trace.overhead_share"] = report["overhead"]["wall_s"] - 1.0
        if "fit_s" in traced[0].layers:
            first = traced[0].layers
            parts = {k: first[k] for k in FIT_PARTS}
            report["fit_breakdown"] = {**parts, "sum_s": sum(parts.values()),
                                       "fit_s": first["fit_s"]}
        values = {k: layers.get(k, 0.0) for k in PER_LAYER}
        units = PER_LAYER
        path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_jsonl(str(path))
        report["spans_file"] = str(path.relative_to(ROOT))
    result = {
        "correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
        "metrics": {k: {"value": float(v), "unit": units[k][0]} for k, v in values.items()},
    }
    return result, report


# reference-kernel readings before the first set-up and after each one
SETUP_SPEED_SAMPLES = 20

# self times inside one traced fit(); they partition its wall time
FIT_PARTS = ("store.fetch_s", "core.batch_s", "tensor.forward_s", "tensor.backward_s",
             "base.prepare_s", "base.validation_s", "base.step_other_s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("impute-lazy", "classify-recurrent", "pipeline-cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    if result is None:
        print("perfbench: no round completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
