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
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .affinity import (
    LIFTED_FEATURES,
    NEARBY_FEATURES,
    AffinityConfig,
    AffinityModel,
    MatchTable,
    assemble_costs,
    fit_affinity_model,
    generate_labels,
    latent_codes,
    latent_distances,
)
from .embedding import ArchConfig, AutoEncoder, TrainingConfig, train
from .graph import BBox, Detection, Partition, UnionFind, build_graph
from .metrics import MotReport, evaluate_clear_mot
from .motio import MotRecord
from .solver import solve_gaec, solve_kl


class PipelineError(RuntimeError):
    """Failure wrapped with the stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class Tracklet:
    """High-confidence pre-grouped fragment; members are detection ids."""

    label: int
    members: Tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("tracklet must have at least one member")
        object.__setattr__(self, "members", tuple(sorted(self.members)))


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


@dataclass(frozen=True)
class TrackSet:
    tracks: Tuple[Track, ...]

    def __post_init__(self):
        ids = [t.track_id for t in self.tracks]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate track ids {ids}")

    def to_mot_records(self) -> List[MotRecord]:
        records = []
        for track in sorted(self.tracks, key=lambda t: t.track_id):
            for frame in sorted(track.boxes):
                box = track.boxes[frame]
                records.append(
                    MotRecord(frame, track.track_id, box.left, box.top,
                              box.width, box.height, 1.0)
                )
        records.sort(key=lambda r: (r.frame, r.track_id))
        return records


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
        if self.min_cluster_size < 1:
            raise ValueError(f"bad min_cluster_size {self.min_cluster_size}")
        if not 0 <= self.lifted_percentile <= 100:
            raise ValueError(f"bad lifted percentile {self.lifted_percentile}")
        AffinityConfig(self.t_low, self.t_high)

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            lambda_schedule=self.lambda_schedule,
            seed=self.seed,
        )


def _fmt_value(key, value):
    if key in ("lifted_gaps", "nearby_features"):
        return ",".join(str(v) for v in value)
    if key == "lambda_schedule":
        return ",".join(f"{e}:{lam!r}" for e, lam in value)
    return str(value)


_PARSERS = {
    "max_frame_gap": int,
    "lifted_gaps": lambda s: tuple(int(p) for p in s.split(",") if p),
    "lifted_percentile": float,
    "pregroup_threshold": float,
    "pregroup_max_gap": int,
    "min_cluster_size": int,
    "t_low": float,
    "t_high": float,
    "lambda_schedule": lambda s: tuple(
        (int(p.split(":")[0]), float(p.split(":")[1])) for p in s.split(",") if p
    ),
    "learning_rate": float,
    "epochs": int,
    "seed": int,
    "nearby_features": lambda s: tuple(p for p in s.split(",") if p),
}


def write_config(path, config: PipelineConfig):
    with open(path, "w", encoding="ascii") as fh:
        for f in dataclasses.fields(config):
            fh.write(f"{f.name} = {_fmt_value(f.name, getattr(config, f.name))}\n")


def read_config(path) -> PipelineConfig:
    """Parse flat key = value text; unknown keys are rejected with line numbers."""
    overrides = {}
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in _PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                overrides[key] = _PARSERS[key](raw.strip())
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return PipelineConfig(**overrides)


def default_arch(patch_shape=(3, 16, 16)) -> ArchConfig:
    return ArchConfig(input_shape=tuple(patch_shape), conv_channels=(8, 16),
                      latent_dim=16)


def pregroup(detections: Sequence[Detection], table: MatchTable,
             threshold: float = 0.7, max_gap: int = 3) -> List[Tracklet]:
    """Group detections whose overlap score exceeds the threshold.

    Edges are considered between frames at distance 1..max_gap; per frame
    pair, conflicting edges are resolved by keeping the highest-scoring
    one (ties: lower detection ids). Connected components of the accepted
    edges become tracklets; every detection lands in exactly one.
    """
    frames = np.array([det.frame for det in detections], dtype=np.int64)
    u, v, value = table.rows["u"], table.rows["v"], table.rows["value"]
    gap = np.abs(frames[v] - frames[u])
    keep = (value > threshold) & (gap >= 1) & (gap <= max_gap)
    u, v, value = u[keep], v[keep], value[keep]
    first = np.minimum(frames[u], frames[v])
    last = np.maximum(frames[u], frames[v])
    order = np.lexsort((v, u, -value, last, first))

    uf = UnionFind(len(detections))
    used = set()
    for key, a, b in zip(zip(first[order].tolist(), last[order].tolist()),
                         u[order].tolist(), v[order].tolist()):
        if (key, a) in used or (key, b) in used:
            continue
        used.update(((key, a), (key, b)))
        uf.union(a, b)

    groups: Dict[int, List[int]] = {}
    for det in range(len(detections)):
        groups.setdefault(uf.find(det), []).append(det)
    tracklets = []
    for label, members in enumerate(sorted(groups.values(), key=min)):
        tracklets.append(Tracklet(label=label, members=tuple(members)))
    return tracklets


def tracklet_labels(tracklets: Sequence[Tracklet], num_detections: int) -> List[int]:
    """Per-detection tracklet label vector for embedding training."""
    labels = [-1] * num_detections
    for tracklet in tracklets:
        for det in tracklet.members:
            labels[det] = tracklet.label
    if any(lab < 0 for lab in labels):
        missing = [i for i, lab in enumerate(labels) if lab < 0]
        raise ValueError(f"detections without a tracklet: {missing[:5]}")
    return labels


def train_embedding(detections: Sequence[Detection], tracklets: Sequence[Tracklet],
                    config: PipelineConfig, arch: ArchConfig = None):
    """Train the autoencoder with tracklet labels driving the clustering term.

    Any failure, such as no detections or a non-finite patch, is raised as
    PipelineError at stage "train".
    """
    with _stage("train"):
        if arch is None:
            shape = detections[0].image.shape if detections else (3, 16, 16)
            arch = default_arch(shape)
        labels = tracklet_labels(tracklets, len(detections))
        model = AutoEncoder(arch, seed=config.seed)
        return train(model, list(detections), labels, config.training_config())


@contextmanager
def _stage(name: str):
    """Re-raise any failure inside the block as PipelineError(name, cause)."""
    try:
        yield
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def fit_affinity_models(detections: Sequence[Detection], table: MatchTable,
                        latents: np.ndarray, config: PipelineConfig
                        ) -> Tuple[AffinityModel, AffinityModel]:
    """Fit the nearby and lifted regressors on self-labeled extreme pairs."""
    with _stage("fit"):
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
    lifted = instance.lifted_edges
    dists = latent_distances(latents, lifted["u"], lifted["v"])
    keep = dists < np.percentile(dists, percentile)
    return dataclasses.replace(instance, lifted_edges=lifted[keep])


def run_tracking(detections: Sequence[Detection], table: MatchTable,
                 model: AutoEncoder, affinity_models, config: PipelineConfig
                 ) -> TrackSet:
    """Encode every detection with `model`, then `track_latents`."""
    with _stage("encode"):
        latents = latent_codes(model, detections)
    return track_latents(detections, table, latents, affinity_models, config)


def track_latents(detections: Sequence[Detection], table: MatchTable,
                  latents: np.ndarray, affinity_models, config: PipelineConfig
                  ) -> TrackSet:
    """Full solve on given latent codes: graph, costs, GAEC+KL, track conversion."""
    if not detections:
        return TrackSet(())
    nearby, lifted_model = affinity_models
    with _stage("graph"):
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

    Clusters below min_cluster_size are dropped. Per frame the highest
    scoring member wins (ties: lower detection id). Missing interior
    frames are filled by linear interpolation of the four box coordinates;
    there is no extrapolation beyond the cluster's frame range.
    """
    kept = []
    for members in partition.blocks():
        if len(members) < min_cluster_size:
            continue
        best: Dict[int, int] = {}
        for det in sorted(members):
            frame = detections[det].frame
            if frame not in best or detections[det].score > detections[best[frame]].score:
                best[frame] = det
        kept.append(best)

    kept.sort(key=lambda best: (min(best), best[min(best)]))
    tracks = []
    for track_id, best in enumerate(kept, start=1):
        frames = np.array(sorted(best))
        coords = np.array(
            [
                [
                    detections[best[f]].box.left,
                    detections[best[f]].box.top,
                    detections[best[f]].box.width,
                    detections[best[f]].box.height,
                ]
                for f in frames
            ]
        )
        full = np.arange(frames[0], frames[-1] + 1)
        filled = np.column_stack(
            [np.interp(full, frames, coords[:, k]) for k in range(4)]
        )
        boxes = {
            int(f): BBox(*filled[i]) for i, f in enumerate(full)
        }
        tracks.append(Track(track_id=track_id, boxes=boxes))
    return TrackSet(tuple(tracks))


def ablation_embeddings(detections: Sequence[Detection],
                        tracklets: Sequence[Tracklet], config: PipelineConfig
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
