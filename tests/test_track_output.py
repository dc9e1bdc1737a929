"""Track output as columns: the `TrackSet` checks, the track conversion and
MOT writer against the frozen copies in `tests/tracks_reference.py`, and
the parts of a `TrackSet` that the benchmark reads."""

import struct

import numpy as np
import pytest

from liftedtrack.graph import BBox, Detection, Partition
from liftedtrack.metrics import evaluate_clear_mot
from liftedtrack.motio import MotRecord, _fmt, _format_column, write_mot
from liftedtrack.pipeline import (
    Track,
    TrackSet,
    clusters_to_tracks,
    pregroup,
    tracklet_labels,
)
from liftedtrack.synth import benchmark_spec, synth_sequence
from tracks_reference import reference_clusters_to_tracks, reference_write_mot


def coordinate(rng, low, high):
    """A box coordinate: a whole number, -0.0 or a noisy float."""
    kind = rng.integers(4)
    if kind == 0:
        return float(rng.integers(low, high))
    if kind == 1:
        return -0.0 if low <= 0 else float(high)
    return float(rng.uniform(low, high))


def fuzzed_scene(rng):
    """Detections over 12 frames from a first frame that is rarely 1, with
    tied scores, cluster labels and a minimum cluster size."""
    n = int(rng.integers(0, 40))
    first = int(rng.choice([1, 2, 7, 1000, 2**40]))
    detections = [
        Detection(first + int(f), BBox(coordinate(rng, -20, 50), coordinate(rng, -20, 50),
                                       coordinate(rng, 1, 30), coordinate(rng, 1, 30)),
                  score=float(rng.choice([0.5, 0.9, rng.uniform()])))
        for f in rng.integers(0, 12, n)
    ]
    labels = rng.integers(0, max(1, n // 5) + 1, n)
    return detections, Partition.from_labels(labels), int(rng.integers(1, 7))


class TestTracksMatchReference:
    def test_fuzzed_clusters(self, tmp_path):
        rng = np.random.default_rng(53)
        ours, theirs = tmp_path / "a.txt", tmp_path / "b.txt"
        seen = dict(dropped=0, filled=0, tied=0, late_start=0, empty=0)
        for _ in range(250):
            detections, partition, size = fuzzed_scene(rng)
            want = reference_clusters_to_tracks(detections, partition, size)
            got = clusters_to_tracks(detections, partition, size)
            records = got.to_mot_records()
            assert records == want.to_mot_records()
            assert got.tracks == want.tracks
            write_mot(got, ours)
            reference_write_mot(want, theirs)
            assert ours.read_bytes() == theirs.read_bytes()
            write_mot(records, ours)
            assert ours.read_bytes() == theirs.read_bytes()

            labels = partition.component_of.tolist()
            kept = np.bincount(labels) >= size if labels else []
            seen["dropped"] += len(kept) - len(got.tracks)
            seen["filled"] += len(records) - len({(lab, d.frame) for lab, d
                                                  in zip(labels, detections) if kept[lab]})
            seen["tied"] += len(detections) - len({(lab, d.frame, d.score) for lab, d
                                                   in zip(labels, detections)})
            seen["late_start"] += bool(records) and min(r.frame for r in records) > 1
            seen["empty"] += not detections
        assert min(seen.values()) > 0, seen

    def test_column_formatter_matches_fmt(self):
        rng = np.random.default_rng(54)
        special = [-0.0, 0.0, 1e16, 2.0**53 + 1.0, 0.1 + 0.2, 5e-324, 1e-7,
                   -1.0, 1e300, 2.0**64, float("nan"), float("inf"), -float("inf")]
        bits = rng.integers(0, 2**63, 3000, dtype=np.uint64) * np.uint64(2)
        bits += rng.integers(0, 2, 3000, dtype=np.uint64)
        noisy = list(struct.unpack(f"<{len(bits)}d", bits.astype("<u8").tobytes()))
        values = np.array(special + noisy + special + rng.uniform(-1e3, 1e3, 200).tolist())
        assert _format_column(values) == [_fmt(v) for v in values.tolist()]
        assert _format_column(np.array([])) == []


class TestTrackSetColumns:
    def test_columns_sorted_and_read_only(self):
        tracks = TrackSet([3, 1, 2, 1], [2, 2, 2, 1], [[0, 0, 1, 1]] * 4)
        assert tracks.frames.tolist() == [1, 1, 2, 3]
        assert tracks.track_ids.tolist() == [1, 2, 2, 2]
        for column in (tracks.frames, tracks.track_ids, tracks.boxes):
            assert not column.flags.writeable
        assert tracks.boxes.shape == (4, 4)

    @pytest.mark.parametrize("frames, ids, box, message", [
        ([0, 1], [1, 1], [0, 0, 1, 1], "track 1 frame 0: frame below 1"),
        ([1, 2], [1, 1], [0, np.nan, 1, 1], "non-finite box"),
        ([1, 2], [1, 1], [0, 0, 1, np.inf], "non-finite box"),
        ([1, 2], [1, 1], [0, 0, 0, 1], "box without positive size"),
        ([1, 2], [1, 1], [0, 0, 1, -0.0], "box without positive size"),
        ([2, 2], [1, 1], [0, 0, 1, 1], "track 1 frame 2: second box in one frame"),
        ([1, 3], [4, 4], [0, 0, 1, 1], "track 4 frames not contiguous: 1 then 3"),
    ])
    def test_bad_rows_rejected(self, frames, ids, box, message):
        with pytest.raises(ValueError, match=message):
            TrackSet(frames, ids, [box] * len(frames))

    def test_from_tracks_round_trips_the_view(self):
        tracks = (Track(5, {2: BBox(1.0, 2.0, 3.0, 4.0), 3: BBox(1.5, 2.0, 3.0, 4.0)}),
                  Track(-1, {1: BBox(0.0, 0.0, 1.0, 1.0)}))
        columns = TrackSet.from_tracks(tracks)
        assert columns.tracks == tuple(sorted(tracks, key=lambda t: t.track_id))
        assert TrackSet.from_tracks(columns.tracks) == columns
        assert columns.num_tracks == 2
        assert TrackSet() == TrackSet.from_tracks(()) and TrackSet().tracks == ()


class TestBenchmarkContract:
    """What the benchmark's checks read of a `TrackSet`."""

    @pytest.fixture(scope="class")
    def scene(self):
        seq = synth_sequence(benchmark_spec(num_frames=30), seed=2)
        tracklets = pregroup(seq.detections, seq.table)
        labels = tracklet_labels(tracklets, len(seq.detections))
        return seq, Partition.from_labels(labels)

    def test_views_of_the_tracks(self, scene):
        seq, partition = scene
        tracks = clusters_to_tracks(seq.detections, partition, min_cluster_size=2)
        assert len(tracks.tracks) == tracks.num_tracks == len(set(tracks.track_ids.tolist()))
        assert len(tracks.tracks) > 1
        records = tracks.to_mot_records()
        keys = [(r.frame, r.track_id) for r in records]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert keys == list(zip(tracks.frames.tolist(), tracks.track_ids.tolist()))
        assert evaluate_clear_mot(seq.gt, tracks) == evaluate_clear_mot(seq.gt, records)
        assert evaluate_clear_mot(records, seq.gt) == evaluate_clear_mot(tracks, seq.gt)

    def test_no_per_row_objects(self, scene, tmp_path, monkeypatch):
        seq, partition = scene

        def refuse(self):
            raise AssertionError(f"built a {type(self).__name__}")

        for cls in (BBox, Track, MotRecord):
            monkeypatch.setattr(cls, "__post_init__", refuse)
        tracks = clusters_to_tracks(seq.detections, partition, min_cluster_size=2)
        write_mot(tracks, tmp_path / "tracks.txt")
        with pytest.raises(AssertionError, match="built a BBox"):
            tracks.tracks
        monkeypatch.undo()
        assert (tmp_path / "tracks.txt").read_text().count("\n") == len(tracks.frames)
