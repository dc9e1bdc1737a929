"""Autoencoder training: combined reconstruction + clustering objective.

The loss is L = (1-lam) * L_rec + lam * L_clu where L_rec is the mean (over
the batch) per-sample sum of squared reconstruction errors and L_clu is the
mean squared distance of each latent code to its target, the centroid of
its item's cluster. lam follows a step schedule (0 while visual features
form, then large), batches are whole frames in seeded random order, and
the learning rate decays exponentially by a factor of 10 over the run.

Training data are arrays: an (N, C, H, W) image stack, one frame and one
integer cluster label per item, and, while lam > 0, an (N, latent_dim)
target matrix whose row i is the centroid of item i's cluster. Each
frame's batch is one run of a stable sort of the items by frame, so its
members keep their item order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import AutoEncoder, checked_seed, is_integer
from .layers import BatchNorm

# `gradient_check` probes each tensor with central differences of this step
# at up to this many entries, drawn by a generator with this seed.
CHECK_STEP = 1e-3
CHECK_ENTRIES_PER_TENSOR = 24
CHECK_SEED = 0


class TrainingDiverged(RuntimeError):
    """Raised when a non-finite loss or parameter appears during training."""


@dataclass(frozen=True)
class TrainingConfig:
    """Schedule knobs for `train`, with no defaults of their own: the
    pipeline's come from `PipelineConfig.training_config`.

    `lambda_schedule` is a tuple of (epoch, lam) steps; lam at epoch t is
    the value of the last step with epoch <= t (0.0 before the first).
    Learning rate at epoch t is learning_rate * 10**(-t / epochs).
    """

    epochs: int
    learning_rate: float
    lambda_schedule: Tuple[Tuple[int, float], ...]
    seed: int

    def __post_init__(self):
        if not is_integer(self.epochs):
            raise ValueError(f"epochs must be an integer, got {self.epochs!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        checked_seed(self.seed)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be > 0 and finite, "
                             f"got {self.learning_rate!r}")
        prev = -1
        for epoch, lam in self.lambda_schedule:
            if not is_integer(epoch):
                raise ValueError(f"lambda_schedule epochs must be integers, "
                                 f"got {epoch!r}")
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


def _checked_targets(model, n, targets, lam):
    """The clustering targets of a batch of n as float64 rows when lam > 0,
    None when lam is 0; lam outside [0, 1], and targets not shaped
    (n, latent_dim) when lam > 0, are rejected."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda {lam!r} outside [0, 1]")
    if lam == 0.0:
        return None
    shape = (n, model.config.latent_dim)
    if np.shape(targets) != shape:
        raise ValueError(f"targets of shape {np.shape(targets)} for a batch "
                         f"needing {shape}")
    return np.asarray(targets, dtype=np.float64)


def _loss_terms(x, recon, z, cmat, lam):
    n = x.shape[0]
    rec = float(np.sum((recon - x) ** 2) / n)
    if lam == 0.0:
        return rec, 0.0, (1 - lam) * rec
    clu = float(np.sum((z - cmat) ** 2) / n)
    return rec, clu, (1 - lam) * rec + lam * clu


def _forward_loss(model, x, cmat, lam, train):
    recon, z, caches = model.forward_batch(x, train=train)
    rec, clu, total = _loss_terms(x, recon, z, cmat, lam)
    return rec, clu, total, recon, z, caches


def combined_loss(
    model: AutoEncoder, batch: np.ndarray, targets: np.ndarray, lam: float
) -> float:
    """(1-lam) * reconstruction + lam * mean squared latent-to-target distance.

    `targets` holds one row per batch item, such as the rows of
    `compute_centroids` for those items; it is read only when lam > 0.
    """
    x = np.asarray(batch, dtype=np.float64)
    cmat = _checked_targets(model, len(x), targets, lam)
    _, _, total, _, _, _ = _forward_loss(model, x, cmat, lam, train=False)
    return total


def compute_centroids(
    model: AutoEncoder, images: np.ndarray, labels: Sequence[int]
) -> np.ndarray:
    """Per-item clustering targets from one chunked inference pass.

    Returns an (N, latent_dim) array whose row i is the mean latent code
    of every item with item i's label. Each cluster is summed in item order.
    """
    x = np.asarray(images, dtype=np.float64)
    if len(labels) != len(x):
        raise ValueError(f"{len(labels)} labels for {len(x)} items")
    if len(x) == 0:
        raise ValueError("empty dataset")
    z = model.encode_all(x)
    _, cluster, counts = np.unique(labels, return_inverse=True, return_counts=True)
    sums = np.zeros((len(counts), z.shape[1]))
    np.add.at(sums, cluster, z)
    return (sums / counts[:, None])[cluster]


def _backward_losses(model, x, recon, z, cmat, lam, caches):
    n = x.shape[0]
    d_recon = (1 - lam) * 2.0 * (recon - x) / n
    if lam > 0.0:
        d_latent = lam * 2.0 * (z - cmat) / n
    else:
        d_latent = np.zeros_like(z)
    return model.backward_batch(d_recon, d_latent, caches)


def train(
    model: AutoEncoder,
    images: np.ndarray,
    frames: np.ndarray,
    labels: Sequence[int],
    config: TrainingConfig,
) -> Tuple[AutoEncoder, List[EpochStats]]:
    """Gradient descent on the combined loss with per-frame batches.

    `images` is the (N, C, H, W) float64 stack of the items, `frames` gives
    each item's frame and `labels` its integer cluster label. One stable
    argsort of the frames, split where the frame changes, gives each
    frame's batch in item order; an epoch visits the frames in a seeded
    random order. While lam > 0, `compute_centroids` gives the per-item
    targets once per epoch and each step gathers its items' rows.

    Mutates `model` in place and returns it with the per-epoch loss trace.
    Raises TrainingDiverged on the first non-finite loss or parameter.
    """
    images = np.asarray(images, dtype=np.float64)
    frames = np.asarray(frames)
    if not len(images) == len(frames) == len(labels):
        raise ValueError(f"{len(images)} images, {len(frames)} frames "
                         f"and {len(labels)} labels")
    if not len(images):
        raise ValueError("empty dataset")
    order = np.argsort(frames, kind="stable")
    batches = np.split(order, np.flatnonzero(np.diff(frames[order])) + 1)

    rng = np.random.default_rng(config.seed)
    trace: List[EpochStats] = []
    for epoch in range(config.epochs):
        lam = config.lambda_at(epoch)
        lr = config.learning_rate_at(epoch)
        targets = compute_centroids(model, images, labels) if lam > 0.0 else None
        loss_sum = rec_sum = clu_sum = 0.0
        for pos in rng.permutation(len(batches)):
            idx = batches[pos]
            x = images[idx]
            cmat = targets[idx] if lam > 0.0 else None
            rec, clu, total, recon, z, caches = _forward_loss(
                model, x, cmat, lam, train=True
            )
            if not np.isfinite(total):
                raise TrainingDiverged(
                    f"non-finite loss {total!r} at epoch {epoch}, "
                    f"frame {frames[idx[0]]} (lr {lr:g}, lambda {lam:g})"
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
        n = len(images)
        trace.append(
            EpochStats(epoch, lam, lr, loss_sum / n, rec_sum / n, clu_sum / n)
        )
        model.epoch += 1
    return model, trace


def gradient_check(
    model: AutoEncoder,
    batch: np.ndarray,
    targets: Optional[np.ndarray] = None,
    lam: float = 0.0,
    detail: bool = False,
):
    """Max relative error between analytic and central-difference gradients.

    `targets` are the batch's clustering targets, as for `combined_loss`,
    and are needed only when lam > 0. Each parameter tensor is probed at
    up to CHECK_ENTRIES_PER_TENSOR entries (all of a smaller tensor, else a
    draw of a generator seeded with CHECK_SEED) with step CHECK_STEP. Both
    sides evaluate the training-mode loss path, so batchnorm is checked
    through its batch-statistics branch. With `detail=True`, returns a dict
    mapping (stack, layer index, parameter name) to that tensor's max error.
    """
    x = np.asarray(batch, dtype=np.float64)
    cmat = _checked_targets(model, len(x), targets, lam)
    rng = np.random.default_rng(CHECK_SEED)

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
                if flat.size <= CHECK_ENTRIES_PER_TENSOR:
                    picks = np.arange(flat.size)
                else:
                    picks = rng.choice(flat.size, CHECK_ENTRIES_PER_TENSOR, replace=False)
                worst = 0.0
                for i in picks:
                    orig = flat[i]
                    flat[i] = orig + CHECK_STEP
                    _, _, up, _, _, _ = _forward_loss(model, x, cmat, lam, train=True)
                    flat[i] = orig - CHECK_STEP
                    _, _, down, _, _, _ = _forward_loss(model, x, cmat, lam, train=True)
                    flat[i] = orig
                    numeric = (up - down) / (2 * CHECK_STEP)
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
