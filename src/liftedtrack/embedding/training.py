"""Autoencoder training: combined reconstruction + clustering objective.

The loss is L = (1-lam) * L_rec + lam * L_clu where L_rec is the mean (over
the batch) per-sample sum of squared reconstruction errors and L_clu pulls
each latent code toward the centroid of its assigned cluster. lam follows a
step schedule (0 while visual features form, then large), batches are whole
frames in seeded random order, and the learning rate decays exponentially
by a factor of 10 over the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .model import AutoEncoder
from .layers import BatchNorm

# A latent vector is a plain float64 array of length latent_dim; a centroid
# table maps cluster label -> latent vector.
CentroidTable = Dict[int, np.ndarray]


class TrainingDiverged(RuntimeError):
    """Raised when a non-finite loss or parameter appears during training."""


@dataclass(frozen=True)
class TrainingConfig:
    """Schedule knobs for `train`.

    `lambda_schedule` is a tuple of (epoch, lam) steps; lam at epoch t is
    the value of the last step with epoch <= t (0.0 before the first).
    Learning rate at epoch t is learning_rate * 10**(-t / epochs).
    """

    epochs: int
    learning_rate: float = 1e-3
    lambda_schedule: Tuple[Tuple[int, float], ...] = ((0, 0.0),)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        prev = -1
        for epoch, lam in self.lambda_schedule:
            if epoch <= prev:
                raise ValueError("lambda_schedule epochs must strictly increase")
            if not 0.0 <= lam <= 1.0:
                raise ValueError(f"lambda {lam!r} outside [0, 1]")
            prev = epoch

    def lambda_at(self, epoch: int) -> float:
        lam = 0.0
        for start, value in self.lambda_schedule:
            if start <= epoch:
                lam = value
        return lam

    def learning_rate_at(self, epoch: int) -> float:
        return self.learning_rate * 10.0 ** (-epoch / self.epochs)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    lam: float
    learning_rate: float
    loss: float
    reconstruction: float
    clustering: float


def _images_of(dataset) -> np.ndarray:
    """Accepts an (N,C,H,W) array or a sequence of objects with `.image`."""
    if isinstance(dataset, np.ndarray):
        return np.asarray(dataset, dtype=np.float64)
    images = []
    for item in dataset:
        image = getattr(item, "image", None)
        if image is None:
            raise ValueError("dataset item has no image patch")
        images.append(np.asarray(image, dtype=np.float64))
    if not images:
        raise ValueError("empty dataset")
    return np.stack(images)


def _centroid_matrix(
    centroids: Mapping[int, np.ndarray], labels: Sequence[int], latent_dim: int
) -> np.ndarray:
    rows = []
    for label in labels:
        if label not in centroids:
            raise KeyError(f"no centroid for cluster label {label!r}")
        rows.append(np.asarray(centroids[label], dtype=np.float64))
    out = np.stack(rows)
    if out.shape[1] != latent_dim:
        raise ValueError(f"centroid dim {out.shape[1]} != latent dim {latent_dim}")
    return out


def _loss_terms(x, recon, z, cmat, lam):
    n = x.shape[0]
    rec = float(np.sum((recon - x) ** 2) / n)
    if lam == 0.0 or cmat is None:
        return rec, 0.0, (1 - lam) * rec
    clu = float(np.sum((z - cmat) ** 2) / n)
    return rec, clu, (1 - lam) * rec + lam * clu


def _forward_loss(model, x, cmat, lam, train):
    recon, z, caches = model.forward_batch(x, train=train)
    rec, clu, total = _loss_terms(x, recon, z, cmat, lam)
    return rec, clu, total, recon, z, caches


def reconstruction_loss(model: AutoEncoder, batch) -> float:
    """Mean over the batch of the per-sample sum of squared errors."""
    x = _images_of(batch)
    rec, _, _, _, _, _ = _forward_loss(model, x, None, 0.0, train=False)
    return rec


def combined_loss(
    model: AutoEncoder,
    batch,
    labels: Sequence[int],
    centroids: CentroidTable,
    lam: float,
) -> float:
    """(1-lam) * reconstruction + lam * mean squared latent-to-centroid distance."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda {lam!r} outside [0, 1]")
    x = _images_of(batch)
    cmat = None
    if lam > 0.0:
        cmat = _centroid_matrix(centroids, labels, model.config.latent_dim)
    _, _, total, _, _, _ = _forward_loss(model, x, cmat, lam, train=False)
    return total


def compute_centroids(model: AutoEncoder, dataset, labels: Sequence[int]) -> CentroidTable:
    """Mean latent vector per cluster label, from one chunked inference pass."""
    x = _images_of(dataset)
    if len(labels) != len(x):
        raise ValueError(f"{len(labels)} labels for {len(x)} items")
    if len(x) == 0:
        raise ValueError("empty dataset")
    z = model.encode_all(x)
    table: CentroidTable = {}
    counts: Dict[int, int] = {}
    for label, vec in zip(labels, z):
        if label in table:
            table[label] = table[label] + vec
            counts[label] += 1
        else:
            table[label] = vec.copy()
            counts[label] = 1
    for label in table:
        table[label] /= counts[label]
    return table


def _backward_losses(model, x, recon, z, cmat, lam, caches):
    n = x.shape[0]
    d_recon = (1 - lam) * 2.0 * (recon - x) / n
    if lam > 0.0 and cmat is not None:
        d_latent = lam * 2.0 * (z - cmat) / n
    else:
        d_latent = np.zeros_like(z)
    return model.backward_batch(d_recon, d_latent, caches)


def train(
    model: AutoEncoder,
    dataset: Sequence,
    labels: Sequence[int],
    config: TrainingConfig,
) -> Tuple[AutoEncoder, List[EpochStats]]:
    """Gradient descent on the combined loss with per-frame batches.

    Mutates `model` in place and returns it with the per-epoch loss trace.
    Centroids are recomputed once per epoch while lam > 0. Raises
    TrainingDiverged on the first non-finite loss or parameter.
    """
    frames = [getattr(item, "frame", None) for item in dataset]
    if any(f is None for f in frames):
        raise ValueError("train expects dataset items with a frame attribute")
    if len(labels) != len(dataset):
        raise ValueError(f"{len(labels)} labels for {len(dataset)} items")
    images = _images_of(dataset)
    labels = list(labels)

    by_frame: Dict[int, List[int]] = {}
    for idx, f in enumerate(frames):
        by_frame.setdefault(f, []).append(idx)
    frame_ids = sorted(by_frame)

    rng = np.random.default_rng(config.seed)
    trace: List[EpochStats] = []
    for epoch in range(config.epochs):
        lam = config.lambda_at(epoch)
        lr = config.learning_rate_at(epoch)
        centroids = None
        if lam > 0.0:
            centroids = compute_centroids(model, images, labels)
        loss_sum = rec_sum = clu_sum = 0.0
        order = rng.permutation(len(frame_ids))
        for pos in order:
            idx = by_frame[frame_ids[pos]]
            x = images[idx]
            cmat = None
            if lam > 0.0:
                cmat = _centroid_matrix(
                    centroids, [labels[i] for i in idx], model.config.latent_dim
                )
            rec, clu, total, recon, z, caches = _forward_loss(
                model, x, cmat, lam, train=True
            )
            if not np.isfinite(total):
                raise TrainingDiverged(
                    f"non-finite loss {total!r} at epoch {epoch}, "
                    f"frame {frame_ids[pos]} (lr {lr:g}, lambda {lam:g})"
                )
            grads = _backward_losses(model, x, recon, z, cmat, lam, caches)
            for key, layer_grads in grads.items():
                layer = model.layer_by_key(key)
                for name, g in layer_grads.items():
                    layer.params[name] -= lr * g
            weight = len(idx)
            loss_sum += total * weight
            rec_sum += rec * weight
            clu_sum += clu * weight
        for key, name, arr in model.parameter_items():
            if not np.isfinite(arr).all():
                raise TrainingDiverged(
                    f"non-finite parameter {name} in {key} after epoch {epoch} "
                    f"(lr {lr:g}, lambda {lam:g})"
                )
        n = len(dataset)
        trace.append(
            EpochStats(epoch, lam, lr, loss_sum / n, rec_sum / n, clu_sum / n)
        )
        model.epoch += 1
    return model, trace


def gradient_check(
    model: AutoEncoder,
    batch,
    labels: Optional[Sequence[int]] = None,
    centroids: Optional[CentroidTable] = None,
    lam: float = 0.0,
    step: float = 1e-3,
    max_entries_per_tensor: int = 24,
    rng: Optional[np.random.Generator] = None,
    detail: bool = False,
):
    """Max relative error between analytic and central-difference gradients.

    Both sides evaluate the training-mode loss path, so batchnorm is checked
    through its batch-statistics branch. With `detail=True`, returns a dict
    mapping (stack, layer index, parameter name) to that tensor's max error.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    x = _images_of(batch)
    cmat = None
    if lam > 0.0:
        if labels is None or centroids is None:
            raise ValueError("clustering term needs labels and centroids")
        cmat = _centroid_matrix(centroids, labels, model.config.latent_dim)

    # Train-mode forwards update batchnorm running stats; snapshot them so
    # the check leaves the model as it found it.
    stats = [
        (layer, layer.running_mean.copy(), layer.running_var.copy())
        for _, layer in model.layer_items()
        if isinstance(layer, BatchNorm)
    ]
    try:
        _, _, _, recon, z, caches = _forward_loss(model, x, cmat, lam, train=True)
        grads = _backward_losses(model, x, recon, z, cmat, lam, caches)
        errors: Dict[tuple, float] = {}
        for key, layer in model.layer_items():
            for name, arr in layer.params.items():
                analytic = grads.get(key, {}).get(name)
                if analytic is None:
                    analytic = np.zeros_like(arr)
                flat = arr.reshape(-1)
                if flat.size <= max_entries_per_tensor:
                    picks = np.arange(flat.size)
                else:
                    picks = rng.choice(flat.size, max_entries_per_tensor, replace=False)
                worst = 0.0
                for i in picks:
                    orig = flat[i]
                    flat[i] = orig + step
                    _, _, up, _, _, _ = _forward_loss(model, x, cmat, lam, train=True)
                    flat[i] = orig - step
                    _, _, down, _, _, _ = _forward_loss(model, x, cmat, lam, train=True)
                    flat[i] = orig
                    numeric = (up - down) / (2 * step)
                    a = analytic.reshape(-1)[i]
                    denom = max(abs(a), abs(numeric), 1e-6)
                    worst = max(worst, abs(a - numeric) / denom)
                errors[(key[0], key[1], name)] = worst
    finally:
        for layer, mean, var in stats:
            layer.running_mean = mean
            layer.running_var = var
    if detail:
        return errors
    return max(errors.values()) if errors else 0.0
