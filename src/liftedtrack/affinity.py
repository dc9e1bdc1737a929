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
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.special import expit

from .graph import (
    Detection,
    Edge,
    MulticutInstance,
    RowError,
    box_iou,
    first_flagged,
    frame_pairs,
    pair_rows,
    repeated_pairs,
)
from .motio import parse_lines, read_table

logger = logging.getLogger(__name__)

FEATURE_NAMES = ("bias", "iou_dm", "d_ae", "product")
NEARBY_FEATURES = ("bias", "iou_dm", "d_ae", "product")
LIFTED_FEATURES = ("bias", "d_ae")

PROB_EPS = 1e-6
L2_WEIGHT = 1e-4
FIT_TOL = 1e-9
FIT_MAX_ITERS = 50
# pairs per block of `latent_distances`
_DISTANCE_BLOCK = 2048


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


@dataclass(frozen=True, eq=False)
class MatchTable:
    """Symmetric overlap scores per detection pair, keyed by detection index.

    `rows` is a read-only MATCH_DTYPE array of canonical pairs (u < v)
    sorted by (u, v); any sequence of (u, v, value) triples is converted by
    `graph.pair_rows`, either endpoint first. The first self-loop, negative
    id or value outside [0, 1] is rejected with its input position. A pair
    given twice with one value is kept once; with two values it is
    rejected, naming the first such two rows in (u, v) order. Missing
    pairs read as 0.0.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = pair_rows(self.rows, MATCH_DTYPE, "match table rows must be (u, v, value)")
        u, v = np.sort([rows["u"], rows["v"]], axis=0)
        value = rows["value"]
        flagged = first_flagged((
            (u == v, "self-loop ({u}, {v}) is not a valid pair"),
            (u < 0, "negative detection id in pair ({u}, {v})"),
            (~((value >= 0.0) & (value <= 1.0)),
             "overlap for pair ({u}, {v}) outside [0,1]: {value!r}"),
        ))
        if flagged:
            i, text = flagged
            raise RowError(text.format(u=int(u[i]), v=int(v[i]),
                                       value=float(value[i])), (i,))
        order, repeat = repeated_pairs(u, v)
        rows = rows[order]
        rows["u"], rows["v"] = u[order], v[order]
        u, v, value, repeat = rows["u"], rows["v"], rows["value"], repeat[order]
        conflict = np.flatnonzero(repeat[1:] & (value[1:] != value[:-1]))
        if conflict.size:
            i = conflict[0]
            raise RowError(
                f"conflicting overlap values for pair ({int(u[i])}, {int(v[i])}): "
                f"{float(value[i])!r} and {float(value[i + 1])!r}",
                (int(order[i]), int(order[i + 1])),
            )
        rows = rows[~repeat]
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

    Computes `graph.box_iou` for every pair at once and stores the pairs
    that overlap.
    """
    frames = [det.frame for det in detections]
    u, v = frame_pairs(frames, range(1, max_frame_gap + 1)).T
    boxes = np.array([(det.box.left, det.box.top, det.box.width, det.box.height)
                      for det in detections], dtype=np.float64).reshape(-1, 4)
    # np.take gathers whole rows several times faster than boxes[u]
    value = box_iou(np.take(boxes, u, axis=0), np.take(boxes, v, axis=0))
    keep = value > 0.0
    return MatchTable(np.rec.fromarrays((u[keep], v[keep], value[keep]),
                                        dtype=MATCH_DTYPE))


# A match-table line "frame_a idx_a frame_b idx_b value" as `read_table` reads it
_MATCH_TEXT_DTYPE = np.dtype([("fa", np.int64), ("ia", np.int64), ("fb", np.int64),
                              ("ib", np.int64), ("value", np.float64)])


def _frame_slots(detections: Sequence[Detection]):
    """The detections' stable order by frame and, in that order, their frames
    and the position of each within its frame.

    The text format names a detection by (frame, position within the frame
    in detection order): detection `order[searchsorted(frames, f) + i]`.
    """
    frames = np.array([det.frame for det in detections], dtype=np.int64)
    order = np.argsort(frames, kind="stable")
    frames = frames[order]
    return order, frames, np.arange(len(order)) - np.searchsorted(frames, frames)


def _detection_ids(order, frames, frame, idx) -> Optional[np.ndarray]:
    """The detection at each (frame, idx), or None if any names none."""
    start = np.searchsorted(frames, frame, side="left")
    count = np.searchsorted(frames, frame, side="right") - start
    if not ((idx >= 0) & (idx < count)).all():
        return None
    return order[start + idx]


def write_match_table(path, table: MatchTable, detections: Sequence[Detection]):
    """Write lines "frame_a idx_a frame_b idx_b iou", one per stored pair."""
    order, frames, positions = _frame_slots(detections)
    frame, idx = np.empty_like(frames), np.empty_like(positions)
    frame[order], idx[order] = frames, positions
    u, v = table.rows["u"], table.rows["v"]
    columns = (frame[u], idx[u], frame[v], idx[v], table.rows["value"])
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(map("{} {} {} {} {!r}\n".format, *(c.tolist() for c in columns)))


def read_match_table(path, detections: Sequence[Detection]) -> MatchTable:
    """Parse the text format back onto detection indices.

    Every bad line is named as path:lineno; two lines that give one pair
    different values are both named. The rows are read and matched to
    detections as arrays; a file that fails the array pass, names no
    detection or makes a bad table is read again line by line for its
    message.
    """
    order, frames, positions = _frame_slots(detections)
    rows = read_table(path, _MATCH_TEXT_DTYPE)
    if rows is not None:
        u = _detection_ids(order, frames, rows["fa"], rows["ia"])
        v = _detection_ids(order, frames, rows["fb"], rows["ib"])
        if u is not None and v is not None:
            try:
                return MatchTable(np.rec.fromarrays((u, v, rows["value"]),
                                                    dtype=MATCH_DTYPE))
            except RowError:
                pass
    lookup = dict(zip(zip(frames.tolist(), positions.tolist()), order.tolist()))

    def triple(parts):
        fa, ia, fb, ib = int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3])
        value = float(parts[4])
        try:
            return lookup[(fa, ia)], lookup[(fb, ib)], value
        except KeyError as exc:
            raise ValueError(f"no detection at (frame, idx) {exc.args[0]}") from exc

    linenos, triples = parse_lines(path, triple, 5)
    try:
        return MatchTable(triples)
    except RowError as exc:
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


def check_feature_config(feature_config: Tuple[str, ...]) -> None:
    """Reject a feature subset that is empty, repeats a name or names an
    unknown feature."""
    if not feature_config:
        raise ValueError("feature subset needs at least one feature")
    if len(feature_config) != len(set(feature_config)):
        raise ValueError(f"duplicate feature names in {feature_config}")
    for name in feature_config:
        if name not in FEATURE_NAMES:
            raise ValueError(f"unknown feature name {name!r}")


def feature_matrix(iou_dm, d_ae, feature_config=NEARBY_FEATURES) -> np.ndarray:
    """One row per pair holding the configured feature subset, in order."""
    check_feature_config(feature_config)
    iou_dm, d_ae = np.broadcast_arrays(np.asarray(iou_dm, dtype=float),
                                       np.asarray(d_ae, dtype=float))
    columns = {"bias": np.ones_like(d_ae), "iou_dm": iou_dm, "d_ae": d_ae,
               "product": iou_dm * d_ae}
    rows = np.column_stack([columns[name] for name in feature_config])
    _reject_non_finite(rows)
    return rows


def _reject_non_finite(rows):
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite feature vector {rows[bad[0]]} in row {bad[0]}")


def latent_distances(latents, u, v) -> np.ndarray:
    """Euclidean distance d_ae between the latent codes of each pair (u[i], v[i]).

    Pairs are taken in blocks of `_DISTANCE_BLOCK`, so each block's
    differences stay in cache while they are squared and summed. Each
    distance is the square root of its row's sum of squares, the sum that
    `np.linalg.norm(latents[u] - latents[v], axis=1)` takes, bit for bit.
    """
    latents = np.asarray(latents, dtype=float)
    u, v = np.asarray(u), np.asarray(v)
    out = np.empty(len(u))
    for lo in range(0, len(u), _DISTANCE_BLOCK):
        hi = lo + _DISTANCE_BLOCK
        diff = np.take(latents, u[lo:hi], axis=0)
        diff -= np.take(latents, v[lo:hi], axis=0)
        diff *= diff
        np.sqrt(diff.sum(axis=1), out=out[lo:hi])
    return out


def _nll(beta, features, labels):
    margins = features @ beta
    # log(1 + exp(-m)) for label 1, log(1 + exp(m)) for label 0, stably
    signed = np.where(labels == 1, -margins, margins)
    losses = np.logaddexp(0.0, signed)
    return float(np.mean(losses) + 0.5 * L2_WEIGHT * float(beta @ beta))


@dataclass(frozen=True, eq=False)
class LogisticFit:
    """A fitted beta, the Newton steps taken and the gradient norm at beta.

    `converged` means the gradient norm fell below `FIT_TOL`.
    """

    beta: np.ndarray
    iterations: int
    converged: bool
    grad_norm: float


def fit_logistic(features, labels) -> LogisticFit:
    """Fit beta by Newton's method (IRLS) on the L2-regularized mean log loss.

    Each step solves the k x k system H d = -g, with Hessian
    H = X^T diag(p(1-p)) X / n + L2_WEIGHT I, and stops once |g| < FIT_TOL,
    after FIT_MAX_ITERS steps, or when backtracking along d finds no
    decrease, so the loss never rises; starting from beta = 0 makes the
    result deterministic.
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
    loss = _nll(beta, features, labels)
    iterations = 0
    while True:
        probs = expit(features @ beta)
        grad = features.T @ (probs - labels) / n + L2_WEIGHT * beta
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < FIT_TOL or iterations == FIT_MAX_ITERS:
            break
        hessian = ((features.T * (probs * (1.0 - probs))) @ features / n
                   + L2_WEIGHT * np.eye(k))
        direction = -np.linalg.solve(hessian, grad)
        slope = float(grad @ direction)
        step = 1.0
        while step > 1e-12:
            candidate = beta + step * direction
            new_loss = _nll(candidate, features, labels)
            if new_loss <= loss + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        beta, loss = candidate, new_loss
        iterations += 1
    return LogisticFit(beta, iterations, grad_norm < FIT_TOL, grad_norm)


@dataclass(frozen=True)
class AffinityModel:
    """Fitted logistic coefficients plus the feature subset they pair with."""

    feature_config: Tuple[str, ...]
    beta: Tuple[float, ...]

    def __post_init__(self):
        config = tuple(self.feature_config)
        beta = tuple(float(b) for b in self.beta)
        check_feature_config(config)
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


def detection_patches(detections: Sequence[Detection]) -> List[np.ndarray]:
    """The detections' image patches, in detection order.

    Training and encoding read the patches only through this list; a
    detection without an image is named.
    """
    for i, det in enumerate(detections):
        if det.image is None:
            raise ValueError(f"detection {i} has no image")
    return [det.image for det in detections]


def latent_codes(model, detections: Sequence[Detection]) -> np.ndarray:
    """Latent codes of the detections' images, which must be attached.

    `model.codes` encodes the patches once per model state and patch set:
    while no tensor, pixel or patch position changed since its last call,
    or since `load` of a checkpoint that `train-embedding` saved with these
    patches' codes, it returns a copy of the codes it holds. Otherwise
    `encode_all` encodes the patches LATENT_CHUNK at a time. No detections
    give a (0, latent_dim) array.
    """
    codes = model.codes(detection_patches(detections))
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
    The result keeps the instance's pairs (`MulticutInstance.with_costs`).
    """
    latents = np.asarray(latents, dtype=float)
    if len(detections) < instance.num_nodes or latents.shape[0] < instance.num_nodes:
        raise ValueError(
            f"instance has {instance.num_nodes} nodes but only "
            f"{min(len(detections), latents.shape[0])} detections/latents"
        )
    frames = np.array([det.frame for det in detections])

    def costed(u, v, model):
        cross = frames[u] != frames[v]
        u, v = u[cross], v[cross]
        iou_dm = table.values_at(u, v)
        d_ae = latent_distances(latents, u, v)
        p_same = np.full(len(cross), PROB_EPS)
        p_same[cross] = predict_p_same(model, feature_matrix(iou_dm, d_ae,
                                                             model.feature_config))
        return edge_cost(p_same)

    u, v, _, m = instance.columns
    return instance.with_costs(costed(u[:m], v[:m], model_nearby),
                               costed(u[m:], v[m:], model_lifted))
