"""potsmine: data mining on partially observed time series.

Core pieces: a mask-aware sample/dataset model, a chunked binary
container with lazy loading, a small reverse-mode tensor engine, task
contracts (impute / classify / cluster / forecast) with a shared
training loop, and reference models for each task.
"""

from .errors import (CorruptionError, FormatError, InvalidInputError, PotsError,
                     ShapeError, StorageError, TrainingDivergedError,
                     UnsupportedTaskError)
from .core import (Batch, CorruptedPairView, NormStats, PotsDataset,
                   TimeSeriesSample, apply_norm, compute_delta, export_csv,
                   fetch_all, fit_norm_stats, generate_synthetic, ingest_csv,
                   inject_mcar, invert_norm, split, stack_samples)
from .store import (LazyDataset, ReadHandle, fetch_batch, lazy_dataset,
                    open_readonly, write_container)
from .metrics import (BinaryMetricsReport, binary_classification_metrics,
                      masked_mae, masked_mre, masked_mse, masked_rmse, purity,
                      rand_index)
from .models import (Checkpoint, GrudLiteModel, LocfModel, MeanImputerModel,
                     ModelArtifact, SaitsLiteModel, TmfModel, TrainConfig,
                     TwoStageKMeansModel, classify, cluster, decay, fit,
                     forecast, impute, kmeans_fit, load_model, locf_impute,
                     run_election, saits_forward, saits_loss, save_model,
                     tmf_fit, tmf_forecast)

__version__ = "0.1.0"
