"""Shared generators for randomized solver and embedding tests."""

import dataclasses

import numpy as np

from liftedtrack.embedding import AutoEncoder, BatchNorm
from liftedtrack.graph import EdgeLabeling, MulticutInstance, Partition
from liftedtrack.metrics import evaluate_clear_mot
from liftedtrack.pipeline import (
    PipelineConfig,
    fit_affinity_models,
    run_tracking,
)


def random_instance(rng, max_nodes=10, edge_prob=0.7, lifted_frac=0.2):
    """Random instance: normal costs, ~20% of sampled pairs lifted."""
    n = int(rng.integers(2, max_nodes + 1))
    edges = []
    lifted = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() >= edge_prob:
                continue
            cost = float(rng.normal())
            if rng.random() < lifted_frac:
                lifted.append((u, v, cost))
            else:
                edges.append((u, v, cost))
    return MulticutInstance(n, tuple(edges), tuple(lifted))


def planted_instance(rng, max_nodes=10, edge_prob=0.7, lifted_frac=0.2, mu=1.5):
    """Random instance with costs = noisy logits over a hidden clustering.

    Mirrors what the affinity stage produces: mostly-confident signed costs
    whose signs sometimes flip. Harder pure-noise instances come from
    random_instance.
    """
    n = int(rng.integers(2, max_nodes + 1))
    truth = rng.integers(0, max(1, n // 3) + 1, n)
    edges = []
    lifted = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() >= edge_prob:
                continue
            sign = 1.0 if truth[u] == truth[v] else -1.0
            cost = float(sign * mu + rng.normal())
            if rng.random() < lifted_frac:
                lifted.append((u, v, cost))
            else:
                edges.append((u, v, cost))
    return MulticutInstance(n, tuple(edges), tuple(lifted))


def smooth_embedding_fixture(config, seed, beta=5.0, noise=0.05, batch=4):
    """Model + batch tuned so finite differences at step 1e-3 stay clean.

    ReLU kinks and maxpool ties make the loss piecewise under a fixed FD
    step, so the fixture removes them: weights forced positive (keeps every
    ReLU input positive given positive activations), BN beta shifted well
    above zero for the same reason, and inputs given a steep spatial ramp so
    every 2x2 pool window has a structural gap far larger than any
    perturbation-induced shift.
    """
    model = AutoEncoder(config, seed=seed)
    for _, layer in model.layer_items():
        if isinstance(layer, BatchNorm):
            layer.params["beta"] = np.full(layer.num_features, float(beta))
        elif "W" in layer.params:
            layer.params["W"] = np.abs(layer.params["W"])
    rng = np.random.default_rng(seed + 1000)
    c, h, w = config.input_shape
    ramp = (np.arange(h)[:, None] * w + np.arange(w)[None, :]) / (h * w)
    x = 0.1 + 0.7 * ramp[None, None] + rng.uniform(0, noise, size=(batch, c, h, w))
    return model, x


def random_partition(rng, num_nodes):
    return Partition.from_labels([int(x) for x in rng.integers(0, num_nodes, num_nodes)])


def random_labeling(rng, instance):
    """Random 0/1 labels over E then F."""
    return EdgeLabeling(rng.integers(0, 2, instance.num_edges + instance.num_lifted))


@dataclasses.dataclass(frozen=True)
class BenchmarkRun:
    """One synthetic benchmark sequence with both embeddings pre-trained.

    `embeddings` maps "recon" (reconstruction-only schedule) and "clust"
    (clustering-loss schedule) to (model, latent codes) pairs.
    """

    seed: int
    result: object
    tracklets: tuple
    embeddings: dict


def track_cell(run, embedding, features, max_frame_gap=3, lifted_gaps=()):
    """One ablation cell: fit affinities, solve, score against ground truth."""
    model, latents = run.embeddings[embedding]
    config = dataclasses.replace(
        PipelineConfig(),
        nearby_features=tuple(features),
        max_frame_gap=max_frame_gap,
        lifted_gaps=tuple(lifted_gaps),
    )
    affinity = fit_affinity_models(run.result.detections, run.result.table,
                                   latents, config)
    tracks = run_tracking(run.result.detections, run.result.table, model,
                          affinity, config)
    return evaluate_clear_mot(run.result.gt, tracks.to_mot_records())
