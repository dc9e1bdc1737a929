"""Autoencoder embedding: layers, model assembly, and training."""

from .layers import (
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2x2,
    ReLU,
    Reshape,
    Upsample2x,
    xavier_uniform,
)
from .model import LATENT_CHUNK, ArchConfig, AutoEncoder
from .training import (
    EpochStats,
    TrainingConfig,
    TrainingDiverged,
    combined_loss,
    compute_centroids,
    gradient_check,
    train,
)

__all__ = [
    "LATENT_CHUNK",
    "ArchConfig",
    "AutoEncoder",
    "BatchNorm",
    "Conv2D",
    "Dense",
    "EpochStats",
    "Flatten",
    "MaxPool2x2",
    "ReLU",
    "Reshape",
    "TrainingConfig",
    "TrainingDiverged",
    "Upsample2x",
    "combined_loss",
    "compute_centroids",
    "gradient_check",
    "train",
    "xavier_uniform",
]
