"""Edge affinities: pair features, self-supervised labels, logistic costs.

Detection pairs carry two raw signals: the match-table overlap score
(iou_dm) and the euclidean distance between learned latent codes (d_ae).
Pairs with extreme overlap are self-labeled same/different, a logistic
model is fitted on those labels, and its predicted probabilities are
mapped through the logit function onto signed edge costs (positive =
prefer join).
"""

import json
import logging
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np
from scipy.special import expit

from .graph import Detection, Edge, MulticutInstance, frame_pairs

logger = logging.getLogger(__name__)

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


# One row per scored pair: canonical detection ids u < v and the overlap.
MATCH_DTYPE = np.dtype([("u", np.int64), ("v", np.int64), ("value", np.float64)])


class MatchTableError(ValueError):
    """A bad match-table row; `rows` are the input positions at fault."""

    def __init__(self, message: str, rows: Tuple[int, ...]):
        super().__init__(message)
        self.rows = rows


@dataclass(frozen=True, eq=False)
class MatchTable:
    """Symmetric overlap scores per detection pair, keyed by detection index.

    `rows` is a read-only MATCH_DTYPE array of canonical pairs (u < v)
    sorted by (u, v); any sequence of (u, v, value) triples is converted,
    either endpoint first. A pair given twice with one value is kept once;
    with two values it is rejected. Missing pairs read as 0.0.
    """

    rows: np.ndarray

    def __post_init__(self):
        # numpy reads a tuple of tuples as one record, a list as rows
        rows = np.array(self.rows if isinstance(self.rows, np.ndarray)
                        else list(self.rows), dtype=MATCH_DTYPE)
        if rows.ndim != 1:
            raise ValueError(f"match table rows must be (u, v, value), got {rows.shape}")
        rows["u"], rows["v"] = np.sort([rows["u"], rows["v"]], axis=0)
        u, v, value = rows["u"], rows["v"], rows["value"]
        checks = (
            (u == v, "self-loop ({u}, {v}) is not a valid pair"),
            (u < 0, "negative detection id in pair ({u}, {v})"),
            (~((value >= 0.0) & (value <= 1.0)),
             "overlap for pair ({u}, {v}) outside [0,1]: {value!r}"),
        )
        bad = np.flatnonzero(np.any([mask for mask, _ in checks], axis=0))
        if bad.size:
            i = bad[0]
            message = next(text for mask, text in checks if mask[i])
            raise MatchTableError(message.format(u=int(u[i]), v=int(v[i]),
                                                 value=float(value[i])), (int(i),))
        order = np.lexsort((v, u))
        rows = rows[order]
        u, v, value = rows["u"], rows["v"], rows["value"]
        repeat = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
        conflict = np.flatnonzero(repeat & (value[1:] != value[:-1]))
        if conflict.size:
            i = conflict[0]
            raise MatchTableError(
                f"conflicting overlap values for pair ({int(u[i])}, {int(v[i])}): "
                f"{float(value[i])!r} and {float(value[i + 1])!r}",
                (int(order[i]), int(order[i + 1])),
            )
        first = np.ones(len(rows), dtype=bool)
        first[1:] = ~repeat
        rows = rows[first]
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other):
        if not isinstance(other, MatchTable):
            return NotImplemented
        return np.array_equal(self.rows, other.rows)

    @property
    def entries(self) -> Mapping[Edge, float]:
        """Read-only (u, v) -> value mapping of the rows, in row order."""
        pairs = zip(self.rows["u"].tolist(), self.rows["v"].tolist())
        return MappingProxyType(dict(zip(pairs, self.rows["value"].tolist())))

    def values_at(self, u, v) -> np.ndarray:
        """Overlap of each (u, v) pair, in either endpoint order; 0.0 if absent."""
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        if not len(self.rows):
            return np.zeros(np.shape(lo))
        # rows are sorted by (u, v), so u * n + v is sorted for any n > every v
        n = max(int(self.rows["v"].max()), int(np.max(hi, initial=0))) + 1
        keys = self.rows["u"] * n + self.rows["v"]
        wanted = lo * n + hi
        at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        return np.where(keys[at] == wanted, self.rows["value"][at], 0.0)


def iou_match_table(
    detections: Sequence[Detection], max_frame_gap: int = 5
) -> MatchTable:
    """Fallback overlap estimate: box IoU for frame distances 1..max_frame_gap.

    Computes `graph.iou` for every pair at once, in its operation order,
    and stores the pairs that overlap.
    """
    frames = [det.frame for det in detections]
    u, v = frame_pairs(frames, range(1, max_frame_gap + 1)).T
    left, top, right, bottom, area = np.array(
        [(det.box.left, det.box.top, det.box.right, det.box.bottom, det.box.area)
         for det in detections]).reshape(-1, 5).T
    ix = np.minimum(right[u], right[v]) - np.maximum(left[u], left[v])
    iy = np.minimum(bottom[u], bottom[v]) - np.maximum(top[u], top[v])
    hit = (ix > 0) & (iy > 0)
    u, v, inter = u[hit], v[hit], ix[hit] * iy[hit]
    value = inter / (area[u] + area[v] - inter)
    keep = value > 0.0
    return MatchTable(np.rec.fromarrays((u[keep], v[keep], value[keep]),
                                        dtype=MATCH_DTYPE))


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
        for a, b, value in table.rows.tolist():
            fa, ia = locals_[a]
            fb, ib = locals_[b]
            fh.write(f"{fa} {ia} {fb} {ib} {value!r}\n")


def read_match_table(path, detections: Sequence[Detection]) -> MatchTable:
    """Parse the text format back onto detection indices.

    Every bad line is named as path:lineno; two lines that give one pair
    different values are both named.
    """
    lookup = {key: i for i, key in enumerate(_frame_local_indices(detections))}
    triples, linenos = [], []
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
                triples.append((lookup[(fa, ia)], lookup[(fb, ib)], value))
            except KeyError as exc:
                raise ValueError(
                    f"{path}:{lineno}: no detection at (frame, idx) {exc.args[0]}"
                ) from exc
            linenos.append(lineno)
    try:
        return MatchTable(triples)
    except MatchTableError as exc:
        where = ",".join(str(linenos[i]) for i in exc.rows)
        raise ValueError(f"{path}:{where}: {exc}") from exc


def generate_labels(table: MatchTable, config: AffinityConfig = AffinityConfig()):
    """Self-label extreme-overlap rows; the [t_low, t_high] dead zone is skipped.

    Returns the labelled rows of `table.rows` and their labels: 1 (same)
    above t_high, 0 (different) below t_low.
    """
    value = table.rows["value"]
    rows = table.rows[(value > config.t_high) | (value < config.t_low)]
    return rows, (rows["value"] > config.t_high).astype(np.int64)


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
    _reject_non_finite(rows)
    return rows


def _reject_non_finite(rows):
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite feature vector {rows[bad[0]]} in row {bad[0]}")


def latent_distances(latents, u, v) -> np.ndarray:
    """Euclidean distance d_ae between the latent codes of each pair (u[i], v[i])."""
    latents = np.asarray(latents, dtype=float)
    return np.linalg.norm(latents[u] - latents[v], axis=1)


def _nll(beta, features, labels, l2):
    margins = features @ beta
    # log(1 + exp(-m)) for label 1, log(1 + exp(m)) for label 0, stably
    signed = np.where(labels == 1, -margins, margins)
    losses = np.logaddexp(0.0, signed)
    return float(np.mean(losses) + 0.5 * l2 * float(beta @ beta))


@dataclass(frozen=True, eq=False)
class LogisticFit:
    """A fitted beta, the Newton steps taken and the gradient norm at beta.

    `converged` means the gradient norm fell below the fit's `tol`.
    """

    beta: np.ndarray
    iterations: int
    converged: bool
    grad_norm: float


def fit_logistic(features, labels, l2: float = L2_WEIGHT, max_iters: int = 50,
                 tol: float = 1e-9) -> LogisticFit:
    """Fit beta by Newton's method (IRLS) on the L2-regularized mean log loss.

    Each step solves the k x k system H d = -g, with Hessian
    H = X^T diag(p(1-p)) X / n + l2 I, and stops once |g| < tol, after
    `max_iters` steps, or when backtracking along d finds no decrease, so
    the loss never rises; starting from beta = 0 makes the result
    deterministic.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValueError(
            f"feature matrix {features.shape} does not match {labels.shape[0]} labels"
        )
    _reject_non_finite(features)
    classes = np.unique(labels)
    if not np.array_equal(classes, [0, 1]):
        raise ValueError(
            f"need at least one example of each label, got classes {classes.tolist()}"
        )
    n, k = features.shape
    beta = np.zeros(k)
    loss = _nll(beta, features, labels, l2)
    iterations = 0
    while True:
        probs = expit(features @ beta)
        grad = features.T @ (probs - labels) / n + l2 * beta
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < tol or iterations == max_iters:
            break
        hessian = (features.T * (probs * (1.0 - probs))) @ features / n + l2 * np.eye(k)
        direction = -np.linalg.solve(hessian, grad)
        slope = float(grad @ direction)
        step = 1.0
        while step > 1e-12:
            candidate = beta + step * direction
            new_loss = _nll(candidate, features, labels, l2)
            if new_loss <= loss + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        beta, loss = candidate, new_loss
        iterations += 1
    return LogisticFit(beta, iterations, grad_norm < tol, grad_norm)


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
    fit = fit_logistic(feature_matrix(raw[:, 0], raw[:, 1], feature_config), labels)
    if not fit.converged:
        logger.warning("logistic fit for %s stopped after %d iterations at gradient "
                       "norm %.3g", "+".join(feature_config), fit.iterations,
                       fit.grad_norm)
    return AffinityModel(tuple(feature_config), tuple(fit.beta))


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
        cross = frames[group["u"]] != frames[group["v"]]
        u, v = group["u"][cross], group["v"][cross]
        iou_dm = table.values_at(u, v)
        d_ae = latent_distances(latents, u, v)
        p_same = np.full(len(group), PROB_EPS)
        p_same[cross] = predict_p_same(model, feature_matrix(iou_dm, d_ae,
                                                             model.feature_config))
        out = group.copy()
        out["c"] = edge_cost(p_same)
        return out

    return MulticutInstance(instance.num_nodes, costed(instance.edges, model_nearby),
                            costed(instance.lifted_edges, model_lifted))
