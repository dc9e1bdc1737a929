"""Frozen dict-based centroid table and training loop, kept as references.

Test-only differential reference: `tests/test_embedding.py` runs
`reference_train` next to `liftedtrack.embedding.train`, which batches by
one stable sort of the frames and gathers per-item target rows, and
requires `==` per-epoch stats, parameters and latent codes; it also
requires each row of `liftedtrack.embedding.compute_centroids` to be `==`
this table's entry for that item's label. Here the centroids are a dict
keyed by cluster label, summed item by item in item order, each step
looks its items' labels up in that dict, and batches come from a dict
keyed by frame, visited in sorted frame order before the seeded shuffle.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from liftedtrack.embedding import AutoEncoder, EpochStats, TrainingConfig, TrainingDiverged

CentroidTable = Dict[int, np.ndarray]


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


def reference_centroid_matrix(
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


def reference_compute_centroids(model: AutoEncoder, dataset,
                                labels: Sequence[int]) -> CentroidTable:
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


def reference_train(
    model: AutoEncoder,
    dataset: Sequence,
    labels: Sequence[int],
    config: TrainingConfig,
) -> Tuple[AutoEncoder, List[EpochStats]]:
    """Gradient descent on the combined loss with per-frame batches."""
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
            centroids = reference_compute_centroids(model, images, labels)
        loss_sum = rec_sum = clu_sum = 0.0
        order = rng.permutation(len(frame_ids))
        for pos in order:
            idx = by_frame[frame_ids[pos]]
            x = images[idx]
            cmat = None
            if lam > 0.0:
                cmat = reference_centroid_matrix(
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
