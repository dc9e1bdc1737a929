"""Edge affinities: pair features, self-supervised labels, logistic costs.

Detection pairs carry two raw signals: the match-table overlap score
(iou_dm) and the euclidean distance between learned latent codes (d_ae).
Pairs with extreme overlap are self-labeled same/different, a logistic
model is fitted on those labels, and its predicted probabilities are
mapped through the logit function onto signed edge costs (positive =
prefer join).
"""

import json
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np
from scipy.special import expit

from .graph import Detection, Edge, MulticutInstance, canonical_edge, frame_pairs, iou

FEATURE_NAMES = ("bias", "iou_dm", "d_ae", "product")
NEARBY_FEATURES = ("bias", "iou_dm", "d_ae", "product")
LIFTED_FEATURES = ("bias", "d_ae")

PROB_EPS = 1e-6
L2_WEIGHT = 1e-4
# Detections encoded per `encode_batch` call in `latent_codes`.
LATENT_CHUNK = 64


@dataclass(frozen=True)
class AffinityConfig:
    """Overlap thresholds bounding the self-labeling dead zone."""

    t_low: float = 0.1
    t_high: float = 0.7

    def __post_init__(self):
        if not (0.0 <= self.t_low < self.t_high <= 1.0):
            raise ValueError(
                f"need 0 <= t_low < t_high <= 1, got {self.t_low}, {self.t_high}"
            )


@dataclass(frozen=True)
class MatchTable:
    """Symmetric overlap scores per detection pair, keyed by detection index.

    Missing pairs read as 0.0.
    """

    entries: Mapping[Edge, float]

    def __post_init__(self):
        clean: Dict[Edge, float] = {}
        for (a, b), value in self.entries.items():
            pair = canonical_edge(a, b)
            value = float(value)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"overlap for pair {pair} outside [0,1]: {value}")
            if pair in clean and clean[pair] != value:
                raise ValueError(f"conflicting overlap values for pair {pair}")
            clean[pair] = value
        object.__setattr__(self, "entries", clean)

    def get(self, a: int, b: int) -> float:
        return self.entries.get(canonical_edge(a, b), 0.0)

    def pairs(self) -> Tuple[Edge, ...]:
        return tuple(sorted(self.entries))


def iou_match_table(
    detections: Sequence[Detection], max_frame_gap: int = 5
) -> MatchTable:
    """Fallback overlap estimate: box IoU for frame distances 1..max_frame_gap."""
    frames = [det.frame for det in detections]
    entries = {}
    for a, b in zip(*frame_pairs(frames, range(1, max_frame_gap + 1)).T.tolist()):
        value = iou(detections[a].box, detections[b].box)
        if value > 0.0:
            entries[(a, b)] = value
    return MatchTable(entries)


def _frame_local_indices(detections: Sequence[Detection]):
    """Index detections as (frame, position-within-frame) for the text format."""
    counters: Dict[int, int] = {}
    locals_ = []
    for det in detections:
        idx = counters.get(det.frame, 0)
        counters[det.frame] = idx + 1
        locals_.append((det.frame, idx))
    return locals_


def write_match_table(path, table: MatchTable, detections: Sequence[Detection]):
    """Write lines "frame_a idx_a frame_b idx_b iou", one per stored pair."""
    locals_ = _frame_local_indices(detections)
    with open(path, "w", encoding="ascii") as fh:
        for a, b in table.pairs():
            fa, ia = locals_[a]
            fb, ib = locals_[b]
            fh.write(f"{fa} {ia} {fb} {ib} {table.entries[(a, b)]!r}\n")


def read_match_table(path, detections: Sequence[Detection]) -> MatchTable:
    """Parse the text format back onto detection indices."""
    lookup = {key: i for i, key in enumerate(_frame_local_indices(detections))}
    entries = {}
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
            try:
                fa, ia, fb, ib = (int(p) for p in parts[:4])
                value = float(parts[4])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            try:
                a = lookup[(fa, ia)]
                b = lookup[(fb, ib)]
            except KeyError as exc:
                raise ValueError(
                    f"{path}:{lineno}: no detection at (frame, idx) {exc.args[0]}"
                ) from exc
            entries[canonical_edge(a, b)] = value
    return MatchTable(entries)


def generate_labels(table: MatchTable, config: AffinityConfig = AffinityConfig()):
    """Self-label extreme-overlap pairs; the [t_low, t_high] dead zone is skipped."""
    labeled = []
    for pair in table.pairs():
        value = table.entries[pair]
        if value > config.t_high:
            labeled.append((pair, 1))
        elif value < config.t_low:
            labeled.append((pair, 0))
    return labeled


def feature_matrix(iou_dm, d_ae, feature_config=NEARBY_FEATURES) -> np.ndarray:
    """One row per pair holding the configured feature subset, in order."""
    iou_dm, d_ae = np.broadcast_arrays(np.asarray(iou_dm, dtype=float),
                                       np.asarray(d_ae, dtype=float))
    columns = {"bias": np.ones_like(d_ae), "iou_dm": iou_dm, "d_ae": d_ae,
               "product": iou_dm * d_ae}
    try:
        rows = np.column_stack([columns[name] for name in feature_config])
    except KeyError as exc:
        raise ValueError(f"unknown feature name {exc.args[0]!r}") from exc
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite feature vector {rows[bad[0]]} in row {bad[0]}")
    return rows


def latent_distances(latents, pairs) -> np.ndarray:
    """Euclidean distance d_ae between the latent codes of each (u, v) row."""
    latents = np.asarray(latents, dtype=float)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return np.linalg.norm(latents[pairs[:, 0]] - latents[pairs[:, 1]], axis=1)


def _nll(beta, features, labels, l2):
    margins = features @ beta
    # log(1 + exp(-m)) for label 1, log(1 + exp(m)) for label 0, stably
    signed = np.where(labels == 1, -margins, margins)
    losses = np.logaddexp(0.0, signed)
    return float(np.mean(losses) + 0.5 * l2 * float(beta @ beta))


def fit_logistic(features, labels, l2: float = L2_WEIGHT, max_iters: int = 2000,
                 tol: float = 1e-9):
    """Fit beta by full-batch descent on the L2-regularized mean log loss.

    Backtracking line search keeps the loss monotonically non-increasing;
    starting from beta = 0 makes the result deterministic.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValueError(
            f"feature matrix {features.shape} does not match {labels.shape[0]} labels"
        )
    classes = np.unique(labels)
    if not np.array_equal(classes, [0, 1]):
        raise ValueError(
            f"need at least one example of each label, got classes {classes.tolist()}"
        )
    n, k = features.shape
    beta = np.zeros(k)
    loss = _nll(beta, features, labels, l2)
    for _ in range(max_iters):
        probs = expit(features @ beta)
        grad = features.T @ (probs - labels) / n + l2 * beta
        gnorm2 = float(grad @ grad)
        if gnorm2 < tol**2:
            break
        step = 1.0
        while step > 1e-12:
            candidate = beta - step * grad
            new_loss = _nll(candidate, features, labels, l2)
            if new_loss <= loss - 1e-4 * step * gnorm2:
                break
            step *= 0.5
        else:
            break
        beta, loss = candidate, new_loss
    return beta


@dataclass(frozen=True)
class AffinityModel:
    """Fitted logistic coefficients plus the feature subset they pair with."""

    feature_config: Tuple[str, ...]
    beta: Tuple[float, ...]

    def __post_init__(self):
        config = tuple(self.feature_config)
        beta = tuple(float(b) for b in self.beta)
        if len(config) != len(set(config)):
            raise ValueError(f"duplicate feature names in {config}")
        for name in config:
            if name not in FEATURE_NAMES:
                raise ValueError(f"unknown feature name {name!r}")
        if len(beta) != len(config):
            raise ValueError(
                f"{len(beta)} coefficients for {len(config)} features"
            )
        if not all(np.isfinite(beta)):
            raise ValueError(f"non-finite coefficients {beta}")
        object.__setattr__(self, "feature_config", config)
        object.__setattr__(self, "beta", beta)

    def save(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {"feature_config": list(self.feature_config), "beta": list(self.beta)},
                fh,
                indent=2,
            )
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "AffinityModel":
        with open(path, encoding="ascii") as fh:
            blob = json.load(fh)
        return cls(tuple(blob["feature_config"]), tuple(blob["beta"]))


def fit_affinity_model(raw_pairs, labels, feature_config=NEARBY_FEATURES) -> AffinityModel:
    """Fit from raw (iou_dm, d_ae) rows under the given feature subset."""
    raw = np.asarray(raw_pairs, dtype=float).reshape(-1, 2)
    beta = fit_logistic(feature_matrix(raw[:, 0], raw[:, 1], feature_config), labels)
    return AffinityModel(tuple(feature_config), tuple(beta))


def predict_p_same(model: AffinityModel, features) -> np.ndarray:
    """Sigmoid of the fitted linear score per row, clamped strictly inside (0, 1)."""
    features = np.asarray(features, dtype=float)
    beta = np.array(model.beta)
    if features.shape[-1] != beta.shape[0]:
        raise ValueError(
            f"feature dimension {features.shape[-1]} does not match "
            f"{beta.shape[0]} coefficients"
        )
    return np.clip(expit(features @ beta), PROB_EPS, 1.0 - PROB_EPS)


def edge_cost(p_same):
    """Signed cost logit(p), elementwise, with p clamped to [1e-6, 1 - 1e-6]."""
    p = np.clip(p_same, PROB_EPS, 1.0 - PROB_EPS)
    return np.log(p) - np.log1p(-p)


def latent_codes(model, detections: Sequence[Detection]) -> np.ndarray:
    """Encode every detection image; requires images to be attached.

    Images go through `encode_batch` LATENT_CHUNK at a time, which bounds
    the memory of the stacked batch and its activations.
    """
    for i, det in enumerate(detections):
        if det.image is None:
            raise ValueError(f"detection {i} has no image to encode")
    if not detections:
        return np.array([])
    images = [det.image for det in detections]
    chunks = [
        model.encode_batch(np.stack(images[i:i + LATENT_CHUNK]))[0]
        for i in range(0, len(images), LATENT_CHUNK)
    ]
    codes = np.concatenate(chunks)
    bad = np.flatnonzero(~np.isfinite(codes).all(axis=1))
    if bad.size:
        raise ValueError(f"detection {bad[0]} has a non-finite latent code")
    return codes


def assemble_costs(
    instance: MulticutInstance,
    detections: Sequence[Detection],
    table: MatchTable,
    latents: np.ndarray,
    model_nearby: AffinityModel,
    model_lifted: AffinityModel,
) -> MulticutInstance:
    """Cost every pair of the instance from its raw features.

    Regular cross-frame pairs use the nearby model, lifted pairs the lifted
    model, and same-frame pairs get the fixed strong-cut cost logit(eps).
    """
    latents = np.asarray(latents, dtype=float)
    if len(detections) < instance.num_nodes or latents.shape[0] < instance.num_nodes:
        raise ValueError(
            f"instance has {instance.num_nodes} nodes but only "
            f"{min(len(detections), latents.shape[0])} detections/latents"
        )
    frames = np.array([det.frame for det in detections])

    def costed(group, model):
        pairs = np.column_stack([group["u"], group["v"]])
        cross = frames[pairs[:, 0]] != frames[pairs[:, 1]]
        iou_dm = [table.entries.get(pair, 0.0) for pair in zip(*pairs[cross].T.tolist())]
        d_ae = latent_distances(latents, pairs[cross])
        p_same = np.full(len(pairs), PROB_EPS)
        p_same[cross] = predict_p_same(model, feature_matrix(iou_dm, d_ae,
                                                             model.feature_config))
        out = group.copy()
        out["c"] = edge_cost(p_same)
        return out

    return MulticutInstance(instance.num_nodes, costed(instance.edges, model_nearby),
                            costed(instance.lifted_edges, model_lifted))
