"""Model zoo and training entry points."""

from .base import (AnalyticModel, BaseModel, BestTracker, Checkpoint, Classifier,
                   Clusterer, ElectionResult, Forecaster, GradientModel, Imputer,
                   TrainConfig, classify, cluster, fit, forecast, impute,
                   imputer_validation_metric, run_election)
from .artifact import (MODEL_REGISTRY, ModelArtifact, decode_artifact,
                       encode_artifact, load_model, model_from_artifact,
                       model_to_artifact, register_model, save_model)
from .imputation import (LocfModel, MeanImputerModel, SaitsLiteModel, locf_impute,
                         saits_forward, saits_loss)
from .classification import GrudLiteModel, decay
from .clustering import TwoStageKMeansModel, kmeans_fit
from .forecasting import TmfModel, tmf_fit, tmf_forecast

__all__ = [
    "AnalyticModel", "BaseModel", "BestTracker", "Checkpoint", "Classifier",
    "Clusterer", "ElectionResult", "Forecaster", "GradientModel", "Imputer",
    "TrainConfig", "classify", "cluster", "fit", "forecast", "impute",
    "imputer_validation_metric", "run_election",
    "MODEL_REGISTRY", "ModelArtifact", "decode_artifact", "encode_artifact",
    "load_model", "model_from_artifact", "model_to_artifact", "register_model",
    "save_model",
    "LocfModel", "MeanImputerModel", "SaitsLiteModel", "locf_impute",
    "saits_forward", "saits_loss",
    "GrudLiteModel", "decay",
    "TwoStageKMeansModel", "kmeans_fit",
    "TmfModel", "tmf_fit", "tmf_forecast",
]
