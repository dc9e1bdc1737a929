"""End-to-end tracking: pre-grouping, training labels, solve, tracks.

The stages mirror the processing order: high-overlap neighboring
detections are pre-grouped into tracklets, tracklet labels drive the
clustering term of embedding training, fitted affinities cost a graph
with short-range regular edges and sparse long-range lifted edges, the
solver partitions it, and clusters become interpolated tracks.
"""

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .affinity import (
    LIFTED_FEATURES,
    NEARBY_FEATURES,
    AffinityConfig,
    AffinityModel,
    MatchTable,
    assemble_costs,
    check_feature_config,
    detection_patches,
    fit_affinity_model,
    generate_labels,
    latent_codes,
    latent_distances,
)
from .embedding import ArchConfig, AutoEncoder, TrainingConfig, train
from .embedding.model import is_integer
from .graph import (
    BBox,
    Detection,
    Partition,
    build_graph,
    checked_frame_gaps,
    first_flagged,
    pair_components,
    repeated_pairs,
)
from .metrics import MotReport, evaluate_clear_mot
from .motio import MotRecord, numbered_lines
from .solver import solve_gaec, solve_kl


class PipelineError(RuntimeError):
    """Failure wrapped with the stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str):
    """Re-raise any failure inside the block as PipelineError(name, cause)."""
    try:
        yield
    except Exception as exc:
        raise PipelineError(name, exc) from exc


@dataclass(frozen=True)
class Track:
    """One box per frame over a contiguous frame range."""

    track_id: int
    boxes: Mapping[int, BBox]

    def __post_init__(self):
        if not self.boxes:
            raise ValueError("track must cover at least one frame")
        frames = sorted(self.boxes)
        if frames != list(range(frames[0], frames[-1] + 1)):
            raise ValueError(f"track frames not contiguous: {frames}")
        object.__setattr__(self, "boxes", dict(self.boxes))

    @property
    def first_frame(self) -> int:
        return min(self.boxes)

    @property
    def last_frame(self) -> int:
        return max(self.boxes)


@dataclass(frozen=True, eq=False)
class TrackSet:
    """Track boxes as read-only columns, one row per box in (frame, id) order.

    `frames` and `track_ids` are int64 and `boxes` is (k, 4) float64 left,
    top, width, height. The constructor takes the rows in any order and
    checks them once as arrays: frames from 1, finite boxes of positive
    size, one box per (frame, id), and contiguous frames per id. `tracks`,
    one `Track` per id, is built on first use.
    """

    frames: np.ndarray = ()
    track_ids: np.ndarray = ()
    boxes: np.ndarray = ()

    def __post_init__(self):
        frames = np.array(self.frames, dtype=np.int64).reshape(-1)
        ids = np.array(self.track_ids, dtype=np.int64).reshape(len(frames))
        boxes = np.array(self.boxes, dtype=np.float64).reshape(len(frames), 4)
        by_track, repeat = repeated_pairs(ids, frames)
        flagged = first_flagged([
            (frames < 1, "frame below 1"),
            (~np.isfinite(boxes).all(axis=1), "non-finite box"),
            ((boxes[:, 2:] <= 0).any(axis=1), "box without positive size"),
            (repeat, "second box in one frame"),
        ])
        if flagged is not None:
            i, fault = flagged
            raise ValueError(f"track {ids[i]} frame {frames[i]}: {fault}")
        seen, owner = frames[by_track], ids[by_track]
        skip = np.flatnonzero((owner[1:] == owner[:-1]) & (np.diff(seen) != 1))
        if skip.size:
            j = skip[0]
            raise ValueError(f"track {owner[j]} frames not contiguous: "
                             f"{seen[j]} then {seen[j + 1]}")
        order = repeated_pairs(frames, ids)[0]
        for name, column in (("frames", frames), ("track_ids", ids), ("boxes", boxes)):
            column = column[order]
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def from_tracks(cls, tracks: Sequence[Track]) -> "TrackSet":
        ids = [t.track_id for t in tracks]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate track ids {ids}")
        boxes = [(b.left, b.top, b.width, b.height)
                 for t in tracks for b in t.boxes.values()]
        return cls([f for t in tracks for f in t.boxes],
                   np.repeat(ids, [len(t.boxes) for t in tracks]), boxes)

    def __eq__(self, other):
        if not isinstance(other, TrackSet):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in ("frames", "track_ids", "boxes"))

    @property
    def num_tracks(self) -> int:
        return len(np.unique(self.track_ids))

    @cached_property
    def tracks(self) -> Tuple[Track, ...]:
        """One `Track` per id, in id order."""
        order = repeated_pairs(self.track_ids, self.frames)[0]
        ids, starts = np.unique(self.track_ids[order], return_index=True)
        frames, boxes = self.frames[order].tolist(), self.boxes[order].tolist()
        starts = starts.tolist()
        return tuple(
            Track(track_id, {f: BBox(*box) for f, box in
                             zip(frames[start:stop], boxes[start:stop])})
            for track_id, start, stop in zip(ids.tolist(), starts,
                                             starts[1:] + [len(frames)])
        )

    def mot_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (frames, ids, (k, 8) fields) of `to_mot_records`, as arrays."""
        k = len(self.frames)
        fields = np.column_stack([self.boxes, np.ones(k), np.full((k, 3), -1.0)])
        return self.frames, self.track_ids, fields

    def to_mot_records(self) -> List[MotRecord]:
        return [MotRecord(frame, track_id, *box, 1.0)
                for frame, track_id, box in zip(self.frames.tolist(),
                                                self.track_ids.tolist(),
                                                self.boxes.tolist())]


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of the end-to-end run, persistable as key = value text."""

    max_frame_gap: int = 5
    lifted_gaps: Tuple[int, ...] = (10, 20, 30)
    lifted_percentile: float = 60.0
    pregroup_threshold: float = 0.7
    pregroup_max_gap: int = 3
    min_cluster_size: int = 5
    t_low: float = 0.1
    t_high: float = 0.7
    lambda_schedule: Tuple[Tuple[int, float], ...] = ((0, 0.0), (8, 0.95))
    learning_rate: float = 0.0003
    epochs: int = 24
    seed: int = 0
    nearby_features: Tuple[str, ...] = NEARBY_FEATURES

    def __post_init__(self):
        if not 0 < self.pregroup_threshold < 1:
            raise ValueError(f"bad pregroup threshold {self.pregroup_threshold}")
        if self.pregroup_max_gap < 1:
            raise ValueError(f"bad pregroup_max_gap {self.pregroup_max_gap}")
        if self.min_cluster_size < 1:
            raise ValueError(f"bad min_cluster_size {self.min_cluster_size}")
        if self.seed < 0:
            raise ValueError(f"bad seed {self.seed}")
        if not 0 <= self.lifted_percentile <= 100:
            raise ValueError(f"bad lifted percentile {self.lifted_percentile}")
        AffinityConfig(self.t_low, self.t_high)
        check_feature_config(self.nearby_features)
        checked_frame_gaps(self.max_frame_gap, self.lifted_gaps)
        self.training_config()

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            lambda_schedule=self.lambda_schedule,
            seed=self.seed,
        )


def _items(text, item) -> tuple:
    return tuple(item(p) for p in text.split(",") if p)


def _epoch_lambda(text) -> Tuple[int, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected epoch:lambda, got {text!r}")
    return int(parts[0]), float(parts[1])


# One (parse, format) codec per kind of PipelineConfig value, keyed by the
# field's type. Lists are comma-separated, and empty items are skipped.
_KIND_CODECS = {
    int: (int, str),
    float: (float, str),
    Tuple[int, ...]: (lambda s: _items(s, int), lambda v: ",".join(map(str, v))),
    Tuple[str, ...]: (lambda s: _items(s, str), ",".join),
    Tuple[Tuple[int, float], ...]: (
        lambda s: _items(s, _epoch_lambda),
        lambda v: ",".join(f"{e}:{lam!r}" for e, lam in v),
    ),
}
_CODECS = {f.name: _KIND_CODECS[f.type] for f in dataclasses.fields(PipelineConfig)}


def write_config(path, config: PipelineConfig):
    with open(path, "w", encoding="ascii") as fh:
        for key, (_, fmt) in _CODECS.items():
            fh.write(f"{key} = {fmt(getattr(config, key))}\n")


def read_config(path) -> PipelineConfig:
    """Parse flat key = value text.

    Unknown and repeated keys are rejected with their line numbers, and
    invalid values with the path.
    """
    overrides, linenos = {}, {}
    for lineno, line in numbered_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _CODECS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in linenos:
            raise ValueError(f"{path}:{linenos[key]},{lineno}: "
                             f"key {key!r} given twice")
        linenos[key] = lineno
        try:
            overrides[key] = _CODECS[key][0](raw.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    try:
        return PipelineConfig(**overrides)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _check_table(table: MatchTable, num_detections: int) -> None:
    """Reject the first pair, in (u, v) order, that names no detection."""
    # rows are canonical (u < v) and ids non-negative, so v decides
    bad = np.flatnonzero(table.rows["v"] >= num_detections)
    if bad.size:
        u, v = int(table.rows["u"][bad[0]]), int(table.rows["v"][bad[0]])
        raise ValueError(f"match table pair ({u}, {v}) names detection {v} "
                         f"of {num_detections}")


def _check_latents(latents, num_detections: int) -> None:
    """Reject latent codes that are not one row per detection."""
    shape = np.shape(latents)
    if len(shape) != 2:
        raise ValueError(f"latent codes of shape {shape} are not one row "
                         f"per detection")
    if shape[0] != num_detections:
        raise ValueError(f"{shape[0]} latent codes for {num_detections} detections")


@_stage("pregroup")
def pregroup(detections: Sequence[Detection], table: MatchTable,
             threshold: float = 0.7, max_gap: int = 3) -> List[List[int]]:
    """Group detections whose overlap score exceeds the threshold.

    Edges are considered between frames at distance 1..max_gap; per frame
    pair, conflicting edges are resolved by keeping the highest-scoring
    one (ties: lower detection ids). Only that one-to-one acceptance is a
    Python loop. The connected components of the accepted edges become
    tracklets, lists of ascending detection ids in order of their smallest
    member; every detection lands in exactly one. Any failure, such as a
    pair that names no detection, is raised as PipelineError at stage
    "pregroup".
    """
    _check_table(table, len(detections))
    frames = np.array([det.frame for det in detections], dtype=np.int64)
    u, v, value = table.rows["u"], table.rows["v"], table.rows["value"]
    gap = np.abs(frames[v] - frames[u])
    keep = (value > threshold) & (gap >= 1) & (gap <= max_gap)
    u, v, value = u[keep], v[keep], value[keep]
    first = np.minimum(frames[u], frames[v])
    last = np.maximum(frames[u], frames[v])
    order = np.lexsort((v, u, -value, last, first))

    used = set()
    accepted = []
    for key, a, b in zip(zip(first[order].tolist(), last[order].tolist()),
                         u[order].tolist(), v[order].tolist()):
        if (key, a) in used or (key, b) in used:
            continue
        used.update(((key, a), (key, b)))
        accepted.append((a, b))

    pairs = np.array(accepted, dtype=np.int64).reshape(-1, 2)
    labels = pair_components(len(detections), pairs[:, 0], pairs[:, 1])
    return Partition.from_labels(labels).blocks()


def tracklet_labels(tracklets: Sequence[Sequence[int]], num_detections: int) -> np.ndarray:
    """Per-detection tracklet labels (an int64 array) for embedding training.

    Each tracklet is a non-empty list of detection ids, labelled by its
    position. Every detection id 0..num_detections-1 must be a member of
    exactly one tracklet. A member that is not an integer is rejected
    first; then, of the members in tracklet order, the first that lies
    outside that range or was listed before; then the first five
    detections no tracklet lists are named.
    """
    for label, members in enumerate(tracklets):
        if not len(members):
            raise ValueError(f"tracklet {label}: must have at least one member")
        for det in members:
            if not is_integer(det):
                raise ValueError(f"tracklet {label}: member {det!r} "
                                 f"is not an integer detection id")
    members = np.array([det for t in tracklets for det in t], dtype=np.int64)
    owners = np.repeat(np.arange(len(tracklets)), [len(t) for t in tracklets])
    repeat = np.ones(len(members), dtype=bool)
    repeat[np.unique(members, return_index=True)[1]] = False
    flagged = first_flagged([
        (repeat, "listed twice"),
        ((members < 0) | (members >= num_detections),
         f"outside 0..{num_detections - 1}"),
    ])
    if flagged is not None:
        i, fault = flagged
        raise ValueError(f"tracklet {owners[i]}: detection {members[i]} {fault}")
    missing = np.flatnonzero(np.bincount(members, minlength=num_detections) == 0)
    if missing.size:
        raise ValueError(f"detections without a tracklet: {missing[:5].tolist()}")
    labels = np.empty(num_detections, dtype=np.int64)
    labels[members] = owners
    return labels


def train_embedding(detections: Sequence[Detection],
                    tracklets: Sequence[Sequence[int]],
                    config: PipelineConfig, arch: ArchConfig = None):
    """Train the autoencoder with tracklet labels driving the clustering term.

    This is where detections and tracklets become training data: one
    (N, C, H, W) stack of the `detection_patches`, the detections' frames,
    and each detection's tracklet position as its cluster label
    (`tracklet_labels`). Without `arch`, the network is `ArchConfig` at
    the patches' shape. Any failure, such as no detections, a bad
    tracklet member or a non-finite patch, is raised as PipelineError at
    stage "train".
    """
    with _stage("train"):
        labels = tracklet_labels(tracklets, len(detections))
        images = np.array(detection_patches(detections))
        frames = np.array([det.frame for det in detections], dtype=np.int64)
        if arch is None:
            # no detections give no patch shape; `train` rejects them
            shape = images.shape[1:] if len(images) else ArchConfig().input_shape
            arch = ArchConfig(input_shape=shape)
        model = AutoEncoder(arch, seed=config.seed)
        return train(model, images, frames, labels, config.training_config())


def fit_affinity_models(detections: Sequence[Detection], table: MatchTable,
                        latents: np.ndarray, config: PipelineConfig
                        ) -> Tuple[AffinityModel, AffinityModel]:
    """Fit the nearby and lifted regressors on self-labeled extreme pairs.

    A table pair that names no detection, or latents that are not one row
    per detection, fail as PipelineError at stage "fit".
    """
    with _stage("fit"):
        _check_table(table, len(detections))
        _check_latents(latents, len(detections))
        rows, labels = generate_labels(table, AffinityConfig(config.t_low, config.t_high))
        raw = np.column_stack([rows["value"],
                               latent_distances(latents, rows["u"], rows["v"])])
        nearby = fit_affinity_model(raw, labels, config.nearby_features)
        lifted = fit_affinity_model(raw, labels, LIFTED_FEATURES)
    return nearby, lifted


def _gate_lifted(instance, latents, percentile):
    """Keep only lifted pairs with latent distance below the percentile."""
    if not instance.num_lifted:
        return instance
    u, v, _, m = instance.columns
    dists = latent_distances(latents, u[m:], v[m:])
    return instance.keep_lifted(dists < np.percentile(dists, percentile))


def run_tracking(detections: Sequence[Detection], table: MatchTable,
                 model: AutoEncoder, affinity_models, config: PipelineConfig
                 ) -> TrackSet:
    """The detections' `latent_codes` under `model`, then `track_latents`.

    The model encodes only when its tensors or the patches changed since
    it last gave codes (or since `load`); after `latent_codes` on the same
    detections, this call reuses those codes.
    """
    with _stage("encode"):
        latents = latent_codes(model, detections)
    return track_latents(detections, table, latents, affinity_models, config)


def track_latents(detections: Sequence[Detection], table: MatchTable,
                  latents: np.ndarray, affinity_models, config: PipelineConfig
                  ) -> TrackSet:
    """Full solve on given latent codes: graph, costs, GAEC+KL, track conversion.

    Latents that are not one row per detection fail as PipelineError at
    stage "graph", before the lifted gate reads them.
    """
    if not detections:
        return TrackSet()
    nearby, lifted_model = affinity_models
    with _stage("graph"):
        _check_latents(latents, len(detections))
        instance = build_graph(detections, max_frame_gap=config.max_frame_gap,
                               lifted_gaps=config.lifted_gaps)
        instance = _gate_lifted(instance, latents, config.lifted_percentile)
    with _stage("costs"):
        costed = assemble_costs(instance, detections, table, latents,
                                nearby, lifted_model)
    with _stage("solve"):
        partition, _ = solve_gaec(costed)
        partition, _ = solve_kl(costed, partition)
    with _stage("tracks"):
        return clusters_to_tracks(detections, partition, config.min_cluster_size)


def clusters_to_tracks(detections: Sequence[Detection], partition: Partition,
                       min_cluster_size: int = 5) -> TrackSet:
    """Clusters to tracks: size filter, per-frame best box, interpolation.

    Clusters below min_cluster_size members are dropped. Per frame the
    highest scoring member wins (ties: lower detection id), found by one
    lexsort over (cluster, frame, -score, id). Tracks are numbered by first
    frame, then by the detection chosen there. Missing interior frames are
    filled by linear interpolation of the four box coordinates; there is
    no extrapolation beyond the cluster's frame range. The interpolated
    boxes go into the `TrackSet` columns without a per-frame object.
    """
    labels = partition.component_of
    frames = np.array([det.frame for det in detections], dtype=np.int64)
    scores = np.array([det.score for det in detections], dtype=np.float64)
    cluster_frame = labels * (frames.max(initial=0) + 1) + frames
    order = np.lexsort((np.arange(len(labels)), -scores, cluster_frame))
    best = order[np.unique(cluster_frame[order], return_index=True)[1]]
    best = best[np.bincount(labels)[labels[best]] >= min_cluster_size]
    # `best` is sorted by (cluster, frame): one run per kept cluster
    starts = np.flatnonzero(np.diff(labels[best], prepend=-1))
    runs = np.split(best, starts[1:]) if len(best) else []
    runs.sort(key=lambda run: (frames[run[0]], run[0]))

    columns = []
    for track_id, chosen in enumerate(runs, start=1):
        coords = np.array(
            [[box.left, box.top, box.width, box.height]
             for box in (detections[det].box for det in chosen.tolist())]
        )
        full = np.arange(frames[chosen[0]], frames[chosen[-1]] + 1)
        filled = np.column_stack(
            [np.interp(full, frames[chosen], coords[:, k]) for k in range(4)]
        )
        columns.append((full, np.full(len(full), track_id), filled))
    # (frames, ids, boxes) of every track; no tracks give an empty set
    return TrackSet(*(np.concatenate(column) for column in zip(*columns)))


def ablation_embeddings(detections: Sequence[Detection],
                        tracklets: Sequence[Sequence[int]], config: PipelineConfig
                        ) -> Dict[str, np.ndarray]:
    """Train the ablation's two embeddings and return their latent codes.

    "recon" trains on reconstruction alone (lambda 0 throughout); "clust"
    follows `config.lambda_schedule`, adding the clustering term.
    """
    embeddings = {}
    for name, schedule in (("recon", ((0, 0.0),)),
                           ("clust", config.lambda_schedule)):
        variant = dataclasses.replace(config, lambda_schedule=schedule)
        model, _ = train_embedding(detections, tracklets, variant)
        embeddings[name] = latent_codes(model, detections)
    return embeddings


def ablation_cell(detections: Sequence[Detection], table: MatchTable,
                  gt: Sequence[MotRecord], latents: np.ndarray,
                  features: Sequence[str], max_frame_gap: int,
                  lifted_gaps: Sequence[int], config: PipelineConfig) -> MotReport:
    """One ablation cell: fit, track and score at one feature set and gap limit.

    `latents` are one embedding's codes from `ablation_embeddings`; the
    cell tracks on them without encoding again. The affinities are fitted
    and the graph costed on the table's pairs at most `max_frame_gap`
    frames apart, so a cell sees only the overlaps its regular edges can
    use.
    """
    variant = dataclasses.replace(
        config, nearby_features=tuple(features), max_frame_gap=max_frame_gap,
        lifted_gaps=tuple(lifted_gaps),
    )
    frames = np.array([det.frame for det in detections], dtype=np.int64)
    gap = np.abs(frames[table.rows["v"]] - frames[table.rows["u"]])
    in_range = MatchTable(table.rows[gap <= max_frame_gap])
    models = fit_affinity_models(detections, in_range, latents, variant)
    tracks = track_latents(detections, in_range, latents, models, variant)
    return evaluate_clear_mot(gt, tracks)
