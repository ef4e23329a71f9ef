"""The three workloads, their correctness gate and their per-layer readings.

Every workload builds its inputs from the seed alone in set-up, then runs
rounds of fixed work: one training run, bulk passes over held-out data
and a closed loop of small requests from a single client. Between its
timed units a round reads the reference kernel (speed.py), so run.py can
scale the round's times to the reference host speed. Rounds repeat until
the run's time is spent; run.py turns the rounds into metrics.

Why each workload exists:

    impute-lazy         SAITS-lite trains on two lazy .pots handles: the tape
                        is bound by BLAS (few, large nodes) while store does
                        real random-access reads, two records per sample.
    classify-recurrent  GRU-D-lite on in-memory data: ~40 tiny tape nodes per
                        step, bound by Python overhead; store is bypassed, so
                        a store-only change must show no change here.
    pipeline-cli        the analytic CLI path (TMF, two-stage k-means):
                        solver loops, eager container scans and file writes,
                        with the tape bypassed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import statistics
import time
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from potsmine import (GrudLiteModel, LazyDataset, PotsDataset, SaitsLiteModel,
                      TimeSeriesSample, TrainConfig, classify, fetch_all,
                      fetch_batch, fit, generate_synthetic, impute, inject_mcar,
                      masked_mae, open_readonly, split, stack_samples,
                      write_container)
from potsmine import CorruptedPairView, cli

from catalog import CLASSIFY, IMPUTE, PIPELINE
from spans import Tracer
from speed import Speed
from traced import (TracedDataset, TracedGrud, TracedLazyDataset, TracedPairView,
                    TracedSaits)

N_STEPS, N_FEATURES = 48, 8
SPLIT = (0.8, 0.1, 0.1)
REQUEST_SAMPLES = 8
BATCH = 32
# bulk passes over the 10% held-out split in each round, each timed alone
BULK_PASSES = 8
# closed-loop requests between two readings of the reference kernel
REQUESTS_PER_SPEED_SAMPLE = 5


@dataclass(frozen=True)
class Sizes:
    n_samples: int
    epochs: int       # gradient workloads only
    requests: int     # closed-loop requests per round
    setups: int       # set-up repetitions whose median is setup_s


# Rounds are kept short (about 2 s) so that a run holds many of them and
# every per-round figure is a median over many rounds.
FULL = {
    IMPUTE: Sizes(n_samples=750, epochs=2, requests=25, setups=9),
    CLASSIFY: Sizes(n_samples=500, epochs=1, requests=25, setups=11),
    PIPELINE: Sizes(n_samples=300, epochs=1, requests=25, setups=11),
}


class Gate:
    """Counts operations and correctness checks, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._first: dict[str, object] = {}

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def same(self, key: str, value) -> bool:
        """Check that value repeats the first value recorded under key."""
        first = self._first.setdefault(key, value)
        return self.op(first == value, f"{key} changed between rounds: {first!r} -> {value!r}")

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class RoundAborted(Exception):
    """A round stopped after an operation failed; the gate already counted it."""


class RequestTimes(list):
    """Milliseconds of each closed-loop request."""

    @contextmanager
    def timed(self):
        t0 = time.perf_counter()
        yield
        self.append((time.perf_counter() - t0) * 1e3)


@dataclass
class Round:
    train: list[tuple[int, float]]    # (samples, seconds) of each timed training unit
    infer: list[tuple[int, float]]    # (samples, seconds) of each bulk inference unit
    pipeline_s: float
    fit_s: float = 0.0
    wall_s: float = 0.0
    slowdown: float = 1.0   # the host's, from the reference readings in this round
    requests_ms: RequestTimes = field(default_factory=RequestTimes)
    quality: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def observed_unchanged(out: np.ndarray, values: np.ndarray, mask: np.ndarray) -> bool:
    """Observed cells pass through imputation bitwise; every cell is finite."""
    hit = mask != 0
    return (np.isfinite(out).all()
            and np.array_equal(out[hit].view(np.uint64), values[hit].view(np.uint64)))


def rows_are_distributions(probs: np.ndarray) -> bool:
    return (np.isfinite(probs).all() and (probs >= 0).all()
            and np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9)


def _span(tracer: Tracer | None, name: str, **attrs):
    return tracer.span(name, **attrs) if tracer is not None else nullcontext()


def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


class _StepClock:
    """Notes the time of each training_batch call, so the untraced fit()
    can be split into its minibatch steps; it adds one clock read per call."""

    def training_batch(self, indices):
        self.marks.append(time.perf_counter())
        return super().training_batch(indices)

    def step_times(self, batch_size: int, epochs: int) -> list[float]:
        """Seconds of each minibatch step of the last fit() over this view.

        A step runs from one training_batch call to the next. The calls
        prepare_fit makes come first and are skipped; the last step of an
        epoch is followed by validation, not by a step, so it is left out.
        """
        per_epoch = math.ceil(len(self) / batch_size)
        marks = self.marks[len(self.marks) - per_epoch * epochs:]
        if len(marks) != per_epoch * epochs:
            raise RuntimeError(f"fit made {len(self.marks)} batch calls, "
                               f"fewer than its {per_epoch * epochs} steps")
        times = []
        for e in range(epochs):
            m = marks[e * per_epoch:(e + 1) * per_epoch]
            times += [b - a for a, b in zip(m, m[1:])]
        return times


class ClockedPairView(_StepClock, CorruptedPairView):
    def __init__(self, original, corrupted):
        super().__init__(original, corrupted)
        self.marks: list[float] = []


class ClockedDataset(_StepClock, PotsDataset):
    def __init__(self, dataset: PotsDataset):
        super().__init__(dataset.samples, n_classes=dataset.n_classes)
        self.marks: list[float] = []


def _setup_layers(tracer: Tracer, run_id: str) -> dict[str, float]:
    writes = tracer.select("store.write", run_id)
    return {
        "core.generate_s": tracer.self_time("core.generate", run_id),
        "core.split_s": tracer.self_time("core.split", run_id),
        "core.inject_mcar_s": tracer.self_time("core.inject_mcar", run_id),
        "store.write_s": sum(s.duration for s in writes),
        "store.write_bytes": sum(s.attrs.get("bytes", 0) for s in writes),
        "store.open_s": sum(s.duration for s in tracer.select("store.open", run_id)),
    }


def _gradient_layers(tracer: Tracer, run_id: str, sample_epochs: int,
                     elected_epoch: int) -> dict[str, float]:
    """Per-layer readings of one traced fit; the self times sum to its wall time."""
    fit_span = tracer.select("base.fit", run_id)[0]
    own = tracer.layer_self_times(fit_span)
    fetches = tracer.select("store.fetch", run_id, within="base.fit")
    payload = sum(s.attrs["bytes"] for s in fetches)
    forward = own.get("tensor.forward", 0.0)
    backward = own.get("base.shard", 0.0)
    nodes = [s.attrs["nodes"] for s in tracer.select("tensor.forward", run_id)]
    return {
        "store.fetch_s": own.get("store.fetch", 0.0),
        "store.fetch_calls": len(fetches),
        "store.records_read": sum(s.attrs["records"] for s in fetches),
        "store.payload_bytes": payload,
        "store.bytes_per_train_sample": payload / sample_epochs,
        "core.batch_s": own.get("core.batch", 0.0),
        "tensor.forward_s": forward,
        "tensor.backward_s": backward,
        "tensor.forward_share": forward / (forward + backward),
        "tensor.nodes_per_batch": _median(nodes),
        "base.prepare_s": own.get("base.prepare", 0.0),
        "base.validation_s": own.get("base.validation", 0.0),
        "base.step_other_s": own["base.fit"],
        "base.batches": len(tracer.select("base.shard", run_id)),
        "base.epochs_run": len(tracer.select("base.validation", run_id)),
        "base.elected_epoch": elected_epoch,
        "fit_s": fit_span.duration,
        "fit_self_sum_s": sum(own.values()),
    }


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self._dirs = 0
        self.speed = Speed()   # read between the rounds' timed units

    def fresh_dir(self, kind: str) -> Path:
        """A new directory per set-up or round, so no write truncates a file
        an earlier repetition wrote and timings do not depend on its writeback."""
        self._dirs += 1
        path = self.work / f"{kind}{self._dirs}"
        path.mkdir()
        return path

    def setup(self, tracer: Tracer | None) -> None:
        raise NotImplementedError

    def run_round(self, gate: Gate, tracer: Tracer | None) -> Round:
        raise NotImplementedError

    def setup_layers(self, tracer: Tracer, run_id: str) -> dict[str, float]:
        return _setup_layers(tracer, run_id)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------

class ImputeLazy(Workload):
    """SAITS-lite trained and served from lazy .pots containers."""

    name = IMPUTE
    NATIVE_MISSING = 0.1
    CORRUPT_RATE = 0.2

    def __init__(self, seed, sizes, work):
        super().__init__(seed, sizes, work)
        self.handles = {}

    def setup(self, tracer):
        self.close()
        s = self.seed
        with _span(tracer, "core.generate"):
            ds = generate_synthetic(self.sizes.n_samples, N_STEPS, N_FEATURES, 2,
                                    missing_rate=self.NATIVE_MISSING, seed=s)
        with _span(tracer, "core.split"):
            parts = split(ds, SPLIT, seed=s + 1)
        with _span(tracer, "core.inject_mcar"):
            views = [inject_mcar(p, self.CORRUPT_RATE, seed=s + 2 + i)
                     for i, p in enumerate(parts)]
        paths = {}
        d = self.fresh_dir("setup")
        with _span(tracer, "store.write") as w:
            for name, part, view in zip(("train", "val", "test"), parts, views):
                paths[name + ".orig"] = d / f"{name}.orig.pots"
                paths[name] = d / f"{name}.pots"
                write_container(part, str(paths[name + ".orig"]))
                write_container(view.corrupted, str(paths[name]))
        if w is not None:
            w.attrs["bytes"] = sum(p.stat().st_size for p in paths.values())
        with _span(tracer, "store.open"):
            self.handles = {k: open_readonly(str(p)) for k, p in paths.items()}
        self.truth = fetch_all(views[2])
        self.n_train, self.n_test = len(parts[0]), len(parts[2])
        rng = np.random.default_rng(s + 5)
        self.request_sets = rng.integers(
            0, self.n_test, size=(self.sizes.requests, REQUEST_SAMPLES)).tolist()

    def close(self):
        for h in self.handles.values():
            h.close()
        self.handles = {}

    def run_round(self, gate, tracer):
        h, s = self.handles, self.seed
        if tracer is None:
            lazy = LazyDataset
            pair = CorruptedPairView
            model = SaitsLiteModel(N_STEPS, N_FEATURES, d_model=32, init_seed=s + 3)
            train = ClockedPairView(lazy(h["train.orig"]), lazy(h["train"]))
        else:
            lazy = lambda handle: TracedLazyDataset(handle, tracer)
            pair = lambda a, b: TracedPairView(a, b, tracer)
            model = TracedSaits(N_STEPS, N_FEATURES, d_model=32, init_seed=s + 3,
                                tracer=tracer)
            train = pair(lazy(h["train.orig"]), lazy(h["train"]))
        val = pair(lazy(h["val.orig"]), lazy(h["val"]))
        config = TrainConfig(epochs=self.sizes.epochs, batch_size=BATCH,
                             learning_rate=1e-3, seed=s + 4, workers=1)
        t0 = time.perf_counter()
        with _span(tracer, "base.fit"):
            model, ckpt = fit(model, train, val, config)
        fit_s = time.perf_counter() - t0
        gate.op(True, "fit")
        self.speed.sample()
        bulk_s = []
        t = self.truth
        for _ in range(BULK_PASSES):
            b0 = time.perf_counter()
            filled = impute(model, lazy(h["test"]))
            bulk_s.append(time.perf_counter() - b0)
            self.speed.sample()
            gate.op(observed_unchanged(filled, t.values, t.mask),
                    "bulk impute changed an observed cell or left a non-finite value")
            gate.same("bulk_digest", digest(filled))
        gate.same("elected_epoch", ckpt.epoch)

        test = lazy(h["test"]) if tracer is not None else None
        requests = RequestTimes()
        for i, idx in enumerate(self.request_sets):
            with requests.timed(), _span(tracer, "request"):
                samples = fetch_batch(h["test"], idx) if test is None else test.fetch_batch(idx)
                with _span(tracer, "imputation.request_model"):
                    out = impute(model, PotsDataset(samples))
            b = stack_samples(samples)
            gate.op(observed_unchanged(out, b.values, b.mask),
                    "request impute changed an observed cell")
            if i % REQUESTS_PER_SPEED_SAMPLE == 0:
                self.speed.sample()
        wall = time.perf_counter() - t0
        sample_epochs = self.n_train * self.sizes.epochs
        steps = train.step_times(BATCH, self.sizes.epochs) if tracer is None else []
        rnd = Round(train=[(BATCH, x) for x in steps],
                    infer=[(self.n_test, x) for x in bulk_s],
                    pipeline_s=fit_s + statistics.median(bulk_s), fit_s=fit_s, wall_s=wall,
                    requests_ms=requests,
                    quality={"impute_mae": masked_mae(filled, t.originals, t.indicating)},
                    digests={"bulk": digest(filled), "elected_epoch": str(ckpt.epoch)})
        if tracer is not None:
            run_id = tracer.run_id
            rnd.layers = _gradient_layers(tracer, run_id, sample_epochs, ckpt.epoch)
            rnd.layers.update({
                "store.record_bytes": h["test"].record_size,
                "store.request_fetch_ms_p50": 1e3 * _median(
                    [x.duration for x in tracer.select("store.fetch", run_id, within="request")]),
                "imputation.impute_batch_s": sum(
                    x.duration for x in tracer.select("imputation.impute_batch", run_id)
                    if not tracer.has_ancestor(x, "request")) / BULK_PASSES,
                "imputation.request_model_ms_p50": 1e3 * _median(
                    [x.duration for x in tracer.select("imputation.request_model", run_id)]),
            })
        return rnd


class ClassifyRecurrent(Workload):
    """GRU-D-lite on in-memory splits with native missingness."""

    name = CLASSIFY
    NATIVE_MISSING = 0.3

    def setup(self, tracer):
        s = self.seed
        with _span(tracer, "core.generate"):
            ds = generate_synthetic(self.sizes.n_samples, N_STEPS, N_FEATURES, 2,
                                    missing_rate=self.NATIVE_MISSING, seed=s)
        with _span(tracer, "core.split"):
            self.train, self.val, self.test = split(ds, SPLIT, seed=s + 1)
        self.labels = self.test.labels_array()
        rng = np.random.default_rng(s + 5)
        self.request_sets = rng.integers(
            0, len(self.test), size=(self.sizes.requests, REQUEST_SAMPLES)).tolist()

    def run_round(self, gate, tracer):
        s = self.seed
        kwargs = dict(hidden_size=64, init_seed=s + 3)
        if tracer is None:
            model = GrudLiteModel(N_STEPS, N_FEATURES, 2, **kwargs)
            train, val, test = ClockedDataset(self.train), self.val, self.test
        else:
            model = TracedGrud(N_STEPS, N_FEATURES, 2, tracer=tracer, **kwargs)
            train, val, test = (TracedDataset(d, tracer)
                                for d in (self.train, self.val, self.test))
        config = TrainConfig(epochs=self.sizes.epochs, batch_size=BATCH, learning_rate=1e-2,
                             seed=s + 4, workers=1, selection_metric="val_accuracy")
        t0 = time.perf_counter()
        with _span(tracer, "base.fit"):
            model, ckpt = fit(model, train, val, config)
        fit_s = time.perf_counter() - t0
        gate.op(True, "fit")
        self.speed.sample()
        bulk_s = []
        for _ in range(BULK_PASSES):
            b0 = time.perf_counter()
            probs = classify(model, test)
            bulk_s.append(time.perf_counter() - b0)
            self.speed.sample()
            gate.op(rows_are_distributions(probs), "bulk classify rows are not distributions")
            gate.same("bulk_digest", digest(probs))
        gate.same("elected_epoch", ckpt.epoch)

        samples = self.test.samples
        requests = RequestTimes()
        for i, idx in enumerate(self.request_sets):
            with requests.timed(), _span(tracer, "request"):
                subset = PotsDataset([samples[j] for j in idx], n_classes=2)
                with _span(tracer, "classification.request_model"):
                    out = classify(model, subset)
            gate.op(rows_are_distributions(out), "request classify rows are not distributions")
            if i % REQUESTS_PER_SPEED_SAMPLE == 0:
                self.speed.sample()
        wall = time.perf_counter() - t0
        picked = probs[np.arange(len(self.labels)), self.labels]
        sample_epochs = len(self.train) * self.sizes.epochs
        steps = train.step_times(BATCH, self.sizes.epochs) if tracer is None else []
        rnd = Round(train=[(BATCH, x) for x in steps],
                    infer=[(len(self.test), x) for x in bulk_s],
                    pipeline_s=fit_s + statistics.median(bulk_s), fit_s=fit_s, wall_s=wall,
                    requests_ms=requests,
                    quality={"classify_logloss": float(-np.log(picked).mean()),
                             "classify_accuracy": float(
                                 (probs.argmax(axis=1) == self.labels).mean())},
                    digests={"bulk": digest(probs), "elected_epoch": str(ckpt.epoch)})
        if tracer is not None:
            run_id = tracer.run_id
            rnd.layers = _gradient_layers(tracer, run_id, sample_epochs, ckpt.epoch)
            rnd.layers.update({
                "classification.predict_batch_s": sum(
                    x.duration for x in tracer.select("classification.predict_batch", run_id)
                    if not tracer.has_ancestor(x, "request")) / BULK_PASSES,
                "classification.request_model_ms_p50": 1e3 * _median(
                    [x.duration for x in tracer.select("classification.request_model", run_id)]),
            })
        return rnd


class PipelineCli(Workload):
    """The potsmine CLI, called in-process: corrupt, then forecast and cluster."""

    name = PIPELINE
    NATIVE_MISSING = 0.1
    CORRUPT_RATE = 0.2
    HORIZON = 4
    CONFIG = {"rank": 4, "iters": 10, "k": 3, "horizon": HORIZON}
    REQUEST_FILES = 16

    def setup(self, tracer):
        s = self.seed
        total = N_STEPS + self.HORIZON
        with _span(tracer, "core.generate"):
            ds = generate_synthetic(self.sizes.n_samples, total, N_FEATURES, 3,
                                    missing_rate=self.NATIVE_MISSING, seed=s)

        def cut(lo, hi):
            return PotsDataset([TimeSeriesSample(
                sample_id=x.sample_id, timestamps=x.timestamps[lo:hi],
                values=x.values[lo:hi], mask=x.mask[lo:hi], label=x.label)
                for x in ds.samples], n_classes=3)

        history, future = cut(0, N_STEPS), cut(N_STEPS, total)
        rng = np.random.default_rng(s + 5)
        picks = rng.integers(0, len(history), size=(self.REQUEST_FILES, REQUEST_SAMPLES))
        d = self.fresh_dir("setup")
        self.paths = {"history": d / "history.pots", "future": d / "future.pots"}
        with _span(tracer, "store.write") as w:
            write_container(history, str(self.paths["history"]))
            write_container(future, str(self.paths["future"]))
            self.request_paths = []
            for i, idx in enumerate(picks):
                p = d / f"request{i}.pots"
                write_container(PotsDataset([history.samples[j] for j in idx]), str(p))
                self.request_paths.append(p)
        if w is not None:
            w.attrs["bytes"] = sum(p.stat().st_size for p in
                                   [*self.paths.values(), *self.request_paths])
        with _span(tracer, "store.open"):
            for p in [*self.paths.values(), *self.request_paths]:
                with open_readonly(str(p)) as handle:
                    self.record_bytes = handle.record_size
        self.config_path = d / "config.json"
        self.config_path.write_text(json.dumps(self.CONFIG))
        self.n_samples = len(history)
        n_val = n_test = int(math.floor(0.1 * self.n_samples))
        self.n_train = self.n_samples - n_val - n_test

    def _cli(self, tracer, span_name: str, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with _span(tracer, span_name), redirect_stdout(out), redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
        return code, out.getvalue() + err.getvalue(), time.perf_counter() - t0

    @staticmethod
    def _report_value(text: str, key: str) -> float:
        for line in text.splitlines():
            if line.startswith(key + ":"):
                return float(line.split(":", 1)[1])
        return math.nan

    def run_round(self, gate, tracer):
        w, s, cfg = self.fresh_dir("round"), str(self.seed), self.config_path
        corrupted = w / "history.corrupt.pots"
        tmf, km = w / "tmf.pmdl", w / "kmeans.pmdl"
        forecast_csv, cluster_csv = w / "forecast.csv", w / "clusters.csv"
        steps = [
            ("cli.corrupt", ["corrupt", "--data", self.paths["history"], "--out", corrupted,
                             "--missing-rate", self.CORRUPT_RATE, "--seed", s]),
            ("cli.train_forecast", ["train", "--task", "forecast", "--model", "tmf",
                                    "--data", corrupted, "--out", tmf,
                                    "--config", cfg, "--seed", s]),
            ("cli.evaluate_forecast", ["evaluate", "--task", "forecast", "--model", tmf,
                                       "--data", corrupted, "--truth", self.paths["future"],
                                       "--config", cfg]),
            ("cli.predict_forecast", ["predict", "--task", "forecast", "--model", tmf,
                                      "--data", corrupted, "--out", forecast_csv,
                                      "--config", cfg]),
            ("cli.train_cluster", ["train", "--task", "cluster", "--model", "twostage_kmeans",
                                   "--data", corrupted, "--out", km,
                                   "--config", cfg, "--seed", s]),
            ("cli.evaluate_cluster", ["evaluate", "--task", "cluster", "--model", km,
                                      "--data", corrupted, "--config", cfg]),
            ("cli.predict_cluster", ["predict", "--task", "cluster", "--model", km,
                                     "--data", corrupted, "--out", cluster_csv,
                                     "--config", cfg]),
        ]
        t0 = time.perf_counter()
        secs, texts = {}, {}
        for name, argv in steps:
            code, texts[name], secs[name] = self._cli(tracer, name, argv)
            if not gate.op(code == 0, f"{argv[0]} exited {code}: {texts[name].strip()}"):
                raise RoundAborted(name)
            self.speed.sample()
        pipeline_s = sum(secs.values())

        rmse = self._report_value(texts["cli.evaluate_forecast"], "masked_rmse")
        rand = self._report_value(texts["cli.evaluate_cluster"], "rand_index")
        gate.op(math.isfinite(rmse), "forecast evaluate printed no finite masked_rmse")
        gate.op(0.0 <= rand <= 1.0, "cluster evaluate printed no rand_index in [0, 1]")
        gate.op(self._forecast_rows_ok(forecast_csv, self.n_samples),
                "forecast predictions have the wrong rows or non-finite values")
        gate.op(self._cluster_rows_ok(cluster_csv),
                "cluster predictions have the wrong rows or labels outside [0, k)")
        digests = {p.name: file_digest(p) for p in (tmf, km, forecast_csv, cluster_csv)}
        for key, value in digests.items():
            gate.same(key, value)

        request_csv = w / "request.csv"
        requests = RequestTimes()
        for i in range(self.sizes.requests):
            with requests.timed():
                code, text, _ = self._cli(tracer, "cli.request", [
                    "predict", "--task", "forecast", "--model", tmf,
                    "--data", self.request_paths[i % len(self.request_paths)],
                    "--out", request_csv, "--config", cfg])
            gate.op(code == 0 and self._forecast_rows_ok(request_csv, REQUEST_SAMPLES),
                    f"request predict exited {code} or wrote bad rows: {text.strip()}")
            if i % REQUESTS_PER_SPEED_SAMPLE == 0:
                self.speed.sample()
        wall = time.perf_counter() - t0

        train_s = secs["cli.train_forecast"] + secs["cli.train_cluster"]
        infer_s = secs["cli.predict_forecast"] + secs["cli.predict_cluster"]
        rnd = Round(train=[(2 * self.n_train, train_s)],
                    infer=[(2 * self.n_samples, infer_s)],
                    pipeline_s=pipeline_s, wall_s=wall, requests_ms=requests,
                    quality={"forecast_rmse": rmse, "cluster_rand_index": rand},
                    digests=digests)
        if tracer is not None:
            rnd.layers = {name + "_s": secs[name] for name, _ in steps}
            rnd.layers.update({
                "cli.request_ms_p50": _median(requests),
                "artifact.bytes": tmf.stat().st_size + km.stat().st_size,
                "store.bytes_written": sum(p.stat().st_size for p in (
                    corrupted, corrupted.with_name(corrupted.stem + ".originals.pots"),
                    forecast_csv, cluster_csv)),
            })
        return rnd

    def setup_layers(self, tracer, run_id):
        layers = _setup_layers(tracer, run_id)
        layers["store.record_bytes"] = self.record_bytes
        return layers

    def _forecast_rows_ok(self, path: Path, n_series: int) -> bool:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != n_series * self.HORIZON:
            return False
        return all(math.isfinite(float(v)) for r in rows for v in r[2:])

    def _cluster_rows_ok(self, path: Path) -> bool:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        k = self.CONFIG["k"]
        return len(rows) == self.n_samples and all(0 <= int(r[1]) < k for r in rows)


WORKLOAD_CLASSES = {cls.name: cls for cls in (ImputeLazy, ClassifyRecurrent, PipelineCli)}
