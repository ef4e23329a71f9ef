"""Every metric the benchmark emits: unit, direction and what it should move.

BENCHMARK.json repeats the names, units and directions; the smoke test
checks that the two agree. The "moves" column is the prediction a change
to that layer is judged against: which end-to-end metric it should move,
on which workloads. Everything not listed there should stay the same.
"""

IMPUTE, CLASSIFY, PIPELINE = "impute-lazy", "classify-recurrent", "pipeline-cli"
WORKLOADS = (IMPUTE, CLASSIFY, PIPELINE)
GRADIENT = (IMPUTE, CLASSIFY)

# A seed no default run uses, kept for re-checking a claimed gain on
# inputs the change was not tuned on.
RECHECK_SEED = 7919

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_samples_per_s": ("samples/s", "higher"),
    "infer_samples_per_s": ("samples/s", "higher"),
    "request_ms_p50": ("ms", "lower"),
    "pipeline_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Printed in the report line of the workload they belong to. The quality
# metrics are exact per seed and failed_ops_ratio is zero at a correct
# commit, so they are gated or compared for repeatability, not bounded.
WORKLOAD_ONLY = {
    "impute_mae": ("value", "lower", (IMPUTE,)),
    "classify_logloss": ("nats", "lower", (CLASSIFY,)),
    "classify_accuracy": ("share", "higher", (CLASSIFY,)),
    "forecast_rmse": ("value", "lower", (PIPELINE,)),
    "cluster_rand_index": ("share", "higher", (PIPELINE,)),
    "failed_ops_ratio": ("share", "lower", WORKLOADS),
}

_TRAIN = "train_samples_per_s"
_INFER = "infer_samples_per_s"
_REQ = "request_ms_p50"
_SETUP = "setup_s"

# name: (unit, better, end-to-end metric it should move, workloads where it does)
PER_LAYER = {
    "store.fetch_s": ("s", "lower", _TRAIN, (IMPUTE,)),
    "store.fetch_calls": ("count", "lower", _TRAIN, (IMPUTE,)),
    "store.records_read": ("count", "lower", _TRAIN, (IMPUTE,)),
    "store.payload_bytes": ("bytes", "lower", _TRAIN, (IMPUTE,)),
    "store.bytes_per_train_sample": ("bytes", "lower", _TRAIN, (IMPUTE,)),
    "store.request_fetch_ms_p50": ("ms", "lower", _REQ, (IMPUTE,)),
    "store.write_s": ("s", "lower", _SETUP, (IMPUTE, PIPELINE)),
    "store.write_bytes": ("bytes", "lower", _SETUP, (IMPUTE, PIPELINE)),
    "store.open_s": ("s", "lower", _SETUP, (IMPUTE, PIPELINE)),
    "store.record_bytes": ("bytes", "lower", _TRAIN, (IMPUTE, PIPELINE)),
    "core.batch_s": ("s", "lower", _TRAIN, GRADIENT),
    "core.generate_s": ("s", "lower", _SETUP, WORKLOADS),
    "core.split_s": ("s", "lower", _SETUP, GRADIENT),
    "core.inject_mcar_s": ("s", "lower", _SETUP, (IMPUTE,)),
    "tensor.forward_s": ("s", "lower", _TRAIN, GRADIENT),
    "tensor.backward_s": ("s", "lower", _TRAIN, GRADIENT),
    "tensor.forward_share": ("share", "lower", _TRAIN, GRADIENT),
    "tensor.nodes_per_batch": ("count", "lower", _TRAIN, GRADIENT),
    "base.prepare_s": ("s", "lower", _TRAIN, GRADIENT),
    "base.validation_s": ("s", "lower", _TRAIN, GRADIENT),
    "base.step_other_s": ("s", "lower", _TRAIN, GRADIENT),
    "base.batches": ("count", "lower", _TRAIN, GRADIENT),
    "base.epochs_run": ("count", "lower", _TRAIN, GRADIENT),
    "base.elected_epoch": ("count", "lower", _TRAIN, GRADIENT),
    "imputation.impute_batch_s": ("s", "lower", _INFER, (IMPUTE,)),
    "imputation.request_model_ms_p50": ("ms", "lower", _REQ, (IMPUTE,)),
    "classification.predict_batch_s": ("s", "lower", _INFER, (CLASSIFY,)),
    "classification.request_model_ms_p50": ("ms", "lower", _REQ, (CLASSIFY,)),
    "cli.corrupt_s": ("s", "lower", "pipeline_s", (PIPELINE,)),
    "cli.train_forecast_s": ("s", "lower", "pipeline_s,train_samples_per_s", (PIPELINE,)),
    "cli.evaluate_forecast_s": ("s", "lower", "pipeline_s", (PIPELINE,)),
    "cli.predict_forecast_s": ("s", "lower", "pipeline_s,infer_samples_per_s", (PIPELINE,)),
    "cli.train_cluster_s": ("s", "lower", "pipeline_s,train_samples_per_s", (PIPELINE,)),
    "cli.evaluate_cluster_s": ("s", "lower", "pipeline_s", (PIPELINE,)),
    "cli.predict_cluster_s": ("s", "lower", "pipeline_s,infer_samples_per_s", (PIPELINE,)),
    "cli.request_ms_p50": ("ms", "lower", _REQ, (PIPELINE,)),
    "artifact.bytes": ("bytes", "lower", "pipeline_s", (PIPELINE,)),
    "store.bytes_written": ("bytes", "lower", "pipeline_s", (PIPELINE,)),
    "trace.overhead_share": ("share", "lower", "none: cost of the spans themselves", WORKLOADS),
}
