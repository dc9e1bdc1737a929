"""Frozen per-track conversion, track records and MOT writer, kept as references.

Test-only differential references: `tests/test_track_output.py` requires
`liftedtrack.pipeline.clusters_to_tracks`, which fills one column set of
(frame, id, box) rows, its `TrackSet.to_mot_records` and
`liftedtrack.motio.write_mot`, which formats columns, to give `==` records
and the same file bytes as these copies of their former bodies. Here every
track frame is a `BBox` in a per-track dict, the track set is a tuple of
`Track`s, records are built and sorted one at a time, and every value is
formatted on its own.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from liftedtrack.graph import BBox, Detection, Partition
from liftedtrack.motio import MotRecord
from liftedtrack.pipeline import Track


@dataclass(frozen=True)
class ReferenceTrackSet:
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


def reference_clusters_to_tracks(detections: Sequence[Detection], partition: Partition,
                                 min_cluster_size: int = 5) -> ReferenceTrackSet:
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

    tracks = []
    for track_id, chosen in enumerate(runs, start=1):
        coords = np.array(
            [[box.left, box.top, box.width, box.height]
             for box in (detections[det].box for det in chosen.tolist())]
        )
        full = np.arange(frames[chosen[0]], frames[chosen[-1]] + 1)
        filled = np.column_stack(
            [np.interp(full, frames[chosen], coords[:, k]) for k in range(4)]
        )
        boxes = {
            int(f): BBox(*filled[i]) for i, f in enumerate(full)
        }
        tracks.append(Track(track_id=track_id, boxes=boxes))
    return ReferenceTrackSet(tuple(tracks))


def reference_fmt(value: float) -> str:
    value = float(value)
    if value.is_integer():
        return str(int(value))
    return repr(value)


def reference_write_mot(source, path):
    """Write records (or anything exposing to_mot_records) as MOT CSV."""
    records = source.to_mot_records() if hasattr(source, "to_mot_records") else list(source)
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            fields = [
                str(rec.frame),
                str(rec.track_id),
                reference_fmt(rec.left),
                reference_fmt(rec.top),
                reference_fmt(rec.width),
                reference_fmt(rec.height),
                reference_fmt(rec.conf),
                reference_fmt(rec.world[0]),
                reference_fmt(rec.world[1]),
                reference_fmt(rec.world[2]),
            ]
            fh.write(",".join(fields) + "\n")
