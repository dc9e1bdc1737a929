"""Frozen dict-and-loop partition helpers and track conversion, kept as references.

Test-only differential references: `tests/test_graph.py` requires
`liftedtrack.graph.Partition.from_labels` and `blocks`, which work on one
label array, to equal these per-node loops, and `tests/test_pipeline.py`
requires `liftedtrack.pipeline.clusters_to_tracks`, which picks each
cluster's best detection per frame with one lexsort, to return a `==`
`TrackSet` to the per-member loop here.
"""

from typing import Dict, List, Sequence, Tuple

import numpy as np

from liftedtrack.graph import BBox, Detection
from liftedtrack.pipeline import Track, TrackSet


def reference_from_labels(labels: Sequence[int]) -> Tuple[int, ...]:
    """Arbitrary component labels renumbered 0..k-1 by first occurrence."""
    remap: Dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in remap:
            remap[lab] = len(remap)
        out.append(remap[lab])
    return tuple(out)


def reference_blocks(component_of: Sequence[int]) -> List[List[int]]:
    """Member nodes of each component of canonical ids, in id order."""
    out: List[List[int]] = [[] for _ in range(max(component_of, default=-1) + 1)]
    for node, comp in enumerate(component_of):
        out[comp].append(node)
    return out


def reference_clusters_to_tracks(detections: Sequence[Detection],
                                 component_of: Sequence[int],
                                 min_cluster_size: int = 5) -> TrackSet:
    """Per cluster of at least min_cluster_size members, the best-scoring
    detection of each frame (ties: lower id), interpolated over the gaps."""
    kept = []
    for members in reference_blocks(reference_from_labels(component_of)):
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
    return TrackSet.from_tracks(tracks)
