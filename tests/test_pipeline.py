"""Tests for pre-grouping, track conversion, and pipeline configuration."""

import dataclasses

import numpy as np
import pytest

from liftedtrack import pipeline
from liftedtrack.affinity import (
    LIFTED_FEATURES,
    NEARBY_FEATURES,
    AffinityModel,
    MatchTable,
    iou_match_table,
    latent_codes,
)
from liftedtrack.embedding import ArchConfig, AutoEncoder, TrainingDiverged
from liftedtrack.graph import BBox, Detection, Partition, UnionFind, iou
from liftedtrack.pipeline import (
    PipelineConfig,
    PipelineError,
    Track,
    Tracklet,
    TrackSet,
    ablation_cell,
    clusters_to_tracks,
    default_arch,
    fit_affinity_models,
    pregroup,
    read_config,
    run_tracking,
    tracklet_labels,
    train_embedding,
    write_config,
)
from liftedtrack.synth import benchmark_spec, synth_sequence


def det(frame, left=0.0, top=0.0, size=10.0, score=1.0):
    return Detection(frame=frame, box=BBox(left, top, size, size), score=score)


def table_for(detections, pairs):
    return MatchTable([(u, v, iou(detections[u].box, detections[v].box))
                       for u, v in pairs])


class TestPregroup:
    def test_high_overlap_chain_is_one_tracklet(self):
        dets = [det(1), det(2, left=0.5), det(3, left=1.0)]
        table = table_for(dets, [(0, 1), (1, 2), (0, 2)])
        tracklets = pregroup(dets, table)
        assert len(tracklets) == 1
        assert tracklets[0].members == (0, 1, 2)

    def test_conflict_resolved_by_higher_overlap(self):
        # detections 1 and 2 both want detection 0; only the better
        # overlap survives the one-to-one constraint per frame pair
        dets = [det(1), det(2, left=0.5), det(2, left=1.0)]
        table = table_for(dets, [(0, 1), (0, 2)])
        tracklets = pregroup(dets, table)
        members = {t.members for t in tracklets}
        assert (0, 1) in members
        assert (2,) in members

    def test_threshold_is_strict(self):
        dets = [det(1), det(2, left=0.5)]
        value = iou(dets[0].box, dets[1].box)
        table = table_for(dets, [(0, 1)])
        at = pregroup(dets, table, threshold=value)
        below = pregroup(dets, table, threshold=value - 1e-9)
        assert len(at) == 2
        assert len(below) == 1

    def test_max_gap_honored(self):
        dets = [det(1), det(5)]
        table = table_for(dets, [(0, 1)])
        tracklets = pregroup(dets, table, max_gap=3)
        assert len(tracklets) == 2

    def test_every_detection_lands_in_one_tracklet(self):
        rng = np.random.default_rng(0)
        dets = [det(f, left=float(rng.uniform(0, 30))) for f in range(1, 20)]
        pairs = [(u, v) for u in range(len(dets)) for v in range(u + 1, len(dets))
                 if abs(dets[u].frame - dets[v].frame) <= 3]
        tracklets = pregroup(dets, table_for(dets, pairs))
        seen = sorted(m for t in tracklets for m in t.members)
        assert seen == list(range(len(dets)))

    def test_matches_per_frame_pair_reference(self):
        # the dict-and-loop grouping, written out: per frame pair, accept
        # edges by (-overlap, u, v) while both endpoints are still free
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            dets = [det(int(f)) for f in rng.integers(1, 8, n)]
            triples = [(u, v, float(rng.choice([0.75, 0.8, rng.random()])))
                       for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
            threshold, max_gap = 0.7, int(rng.integers(1, 4))
            by_frame_pair = {}
            for u, v, value in triples:
                fu, fv = dets[u].frame, dets[v].frame
                if value > threshold and 1 <= abs(fu - fv) <= max_gap:
                    by_frame_pair.setdefault((min(fu, fv), max(fu, fv)), []).append(
                        (value, u, v))
            uf = UnionFind(n)
            for key in sorted(by_frame_pair):
                used = set()
                for value, u, v in sorted(by_frame_pair[key],
                                          key=lambda t: (-t[0], t[1], t[2])):
                    if u not in used and v not in used:
                        used.update((u, v))
                        uf.union(u, v)
            groups = {}
            for i in range(n):
                groups.setdefault(uf.find(i), []).append(i)
            want = sorted(tuple(g) for g in groups.values())
            got = pregroup(dets, MatchTable(triples), threshold, max_gap)
            assert [t.members for t in got] == want

    def test_labels_cover_all_detections(self):
        dets = [det(1), det(2, left=0.5), det(9)]
        tracklets = pregroup(dets, table_for(dets, [(0, 1)]))
        labels = tracklet_labels(tracklets, len(dets))
        assert len(labels) == 3
        assert labels[0] == labels[1]
        assert labels[2] != labels[0]

    def test_labels_missing_detection_rejected(self):
        with pytest.raises(ValueError, match="without a tracklet"):
            tracklet_labels([Tracklet(label=0, members=(0, 1))], 3)


class TestClustersToTracks:
    def test_small_cluster_dropped(self):
        dets = [det(f) for f in range(1, 5)]
        partition = Partition.from_labels([0, 0, 0, 0])
        tracks = clusters_to_tracks(dets, partition, min_cluster_size=5)
        assert tracks.tracks == ()

    def test_best_score_wins_within_frame(self):
        dets = [det(1, left=0.0, score=0.4), det(1, left=8.0, score=0.9),
                det(2, left=8.0), det(3, left=8.0), det(4, left=8.0)]
        partition = Partition.from_labels([0, 0, 0, 0, 0])
        tracks = clusters_to_tracks(dets, partition, min_cluster_size=2)
        assert tracks.tracks[0].boxes[1].left == 8.0

    def test_score_tie_prefers_lower_detection_id(self):
        dets = [det(1, left=0.0), det(1, left=8.0), det(2, left=0.0)]
        partition = Partition.from_labels([0, 0, 0])
        tracks = clusters_to_tracks(dets, partition, min_cluster_size=2)
        assert tracks.tracks[0].boxes[1].left == 0.0

    def test_interior_gap_linearly_interpolated(self):
        dets = [det(1, left=0.0), det(3, left=10.0), det(4, left=15.0)]
        partition = Partition.from_labels([0, 0, 0])
        tracks = clusters_to_tracks(dets, partition, min_cluster_size=2)
        boxes = tracks.tracks[0].boxes
        assert boxes[2].left == 5.0
        assert boxes[2].top == 0.0
        assert boxes[2].width == 10.0

    def test_no_extrapolation_outside_cluster_range(self):
        dets = [det(2), det(3), det(4)]
        partition = Partition.from_labels([0, 0, 0])
        tracks = clusters_to_tracks(dets, partition, min_cluster_size=2)
        assert tracks.tracks[0].first_frame == 2
        assert tracks.tracks[0].last_frame == 4

    def test_track_ids_ordered_by_first_frame(self):
        dets = [det(5), det(6), det(1, left=50.0), det(2, left=50.0)]
        partition = Partition.from_labels([0, 0, 1, 1])
        tracks = clusters_to_tracks(dets, partition, min_cluster_size=2)
        firsts = {t.track_id: t.first_frame for t in tracks.tracks}
        assert firsts == {1: 1, 2: 5}

    def test_records_sorted_by_frame_then_id(self):
        dets = [det(1), det(2), det(1, left=40.0), det(2, left=40.0)]
        partition = Partition.from_labels([0, 0, 1, 1])
        tracks = clusters_to_tracks(dets, partition, min_cluster_size=2)
        records = tracks.to_mot_records()
        keys = [(r.frame, r.track_id) for r in records]
        assert keys == sorted(keys)
        assert all(r.conf == 1.0 for r in records)


class TestTrackTypes:
    def test_tracklet_requires_members(self):
        with pytest.raises(ValueError, match="member"):
            Tracklet(label=0, members=())

    def test_tracklet_members_sorted(self):
        assert Tracklet(label=0, members=(3, 1, 2)).members == (1, 2, 3)

    def test_track_requires_contiguous_frames(self):
        with pytest.raises(ValueError, match="contiguous"):
            Track(track_id=1, boxes={1: BBox(0, 0, 1, 1), 3: BBox(0, 0, 1, 1)})

    def test_trackset_rejects_duplicate_ids(self):
        track = Track(track_id=1, boxes={1: BBox(0, 0, 1, 1)})
        with pytest.raises(ValueError, match="duplicate"):
            TrackSet((track, track))


class TestConfigIO:
    def test_roundtrip_preserves_every_field(self, tmp_path):
        config = PipelineConfig(
            max_frame_gap=4,
            lifted_gaps=(8, 16),
            lifted_percentile=75.0,
            pregroup_threshold=0.65,
            pregroup_max_gap=2,
            min_cluster_size=3,
            t_low=0.15,
            t_high=0.8,
            lambda_schedule=((0, 0.0), (5, 0.95)),
            learning_rate=0.0007,
            epochs=9,
            seed=42,
            nearby_features=("bias", "iou_dm"),
        )
        path = tmp_path / "run.cfg"
        write_config(path, config)
        assert read_config(path) == config

    def test_defaults_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        write_config(path, PipelineConfig())
        assert read_config(path) == PipelineConfig()

    def test_partial_file_fills_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 9\nepochs = 3\n")
        config = read_config(path)
        assert config.seed == 9
        assert config.epochs == 3
        assert config.max_frame_gap == PipelineConfig().max_frame_gap

    def test_unknown_key_cites_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nbogus = 2\n")
        with pytest.raises(ValueError, match=r":2.*bogus"):
            read_config(path)

    def test_missing_equals_cites_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 1\n")
        with pytest.raises(ValueError, match=r":1"):
            read_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nseed = 4\n")
        assert read_config(path).seed == 4

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            PipelineConfig(pregroup_threshold=1.5)

    def test_training_config_mapping(self):
        config = PipelineConfig(epochs=7, learning_rate=0.01,
                                lambda_schedule=((0, 0.0),), seed=3)
        training = config.training_config()
        assert training.epochs == 7
        assert training.learning_rate == 0.01
        assert training.lambda_schedule == ((0, 0.0),)
        assert training.seed == 3


class TestRunTrackingStages:
    """Each failure surfaces as PipelineError naming the stage it happened in."""

    MODELS = (
        AffinityModel(NEARBY_FEATURES, (-2.0, 6.0, -0.5, 0.0)),
        AffinityModel(LIFTED_FEATURES, (1.0, -0.5)),
    )

    def _detections(self, n=12):
        rng = np.random.default_rng(30)
        return [
            Detection(f, BBox(0.5 * f, 0.0, 10.0, 10.0),
                      image=rng.uniform(0.05, 0.95, size=(3, 8, 8)))
            for f in range(1, n + 1)
        ]

    def _track(self, dets, **overrides):
        config = dataclasses.replace(PipelineConfig(), min_cluster_size=1, **overrides)
        model = AutoEncoder(ArchConfig(input_shape=(3, 8, 8), conv_channels=(4, 6),
                                       latent_dim=5), seed=0)
        return run_tracking(dets, iou_match_table(dets), model, self.MODELS, config)

    def _failure(self, dets, **overrides):
        with pytest.raises(PipelineError) as info:
            self._track(dets, **overrides)
        assert isinstance(info.value.__cause__, ValueError)
        assert info.value.cause is info.value.__cause__
        return info.value

    def test_valid_input_passes_every_stage(self):
        tracks = self._track(self._detections(), lifted_gaps=(8,))
        assert tracks.tracks

    def test_missing_image_fails_at_encode(self):
        dets = self._detections()
        dets[3] = Detection(4, BBox(2.0, 0.0, 10.0, 10.0))
        error = self._failure(dets)
        assert error.stage == "encode"
        assert "detection 3 has no image" in str(error)

    def test_non_finite_patch_fails_at_encode(self):
        dets = self._detections()
        dets[5].image[1, 4, 4] = np.nan
        error = self._failure(dets, lifted_gaps=(8,))
        assert error.stage == "encode"
        assert "detection 5 has a non-finite latent code" in str(error)

    def test_lifted_gap_within_max_frame_gap_fails_at_graph(self):
        error = self._failure(self._detections(), max_frame_gap=5, lifted_gaps=(5,))
        assert error.stage == "graph"
        assert "lifted gap 5" in str(error)

    def test_all_lifted_edges_gated_away_tracks_as_without_lifted(self):
        # percentile 0 keeps no lifted edge: no distance is below the minimum
        dets = self._detections(24)
        gated = self._track(dets, lifted_gaps=(10,), lifted_percentile=0.0)
        plain = self._track(dets, lifted_gaps=())
        assert gated.tracks
        assert gated.to_mot_records() == plain.to_mot_records()


class TestFitStage:
    def test_single_label_class_fails_at_fit(self):
        # one slowly drifting box: every scored pair overlaps above t_high
        # or inside the dead zone, so no pair is labelled "different"
        dets = [det(f, left=0.5 * f) for f in range(1, 41)]
        with pytest.raises(PipelineError) as info:
            fit_affinity_models(dets, iou_match_table(dets), np.zeros((40, 4)),
                                PipelineConfig())
        assert info.value.stage == "fit"
        assert isinstance(info.value.cause, ValueError)
        assert "each label" in str(info.value)


    def test_non_finite_latent_fails_at_fit(self):
        # both label classes present: next-frame pairs overlap, two apart do not
        dets = [det(f) for f in range(1, 21)]
        table = MatchTable([(i, i + 1, 0.9) for i in range(19)]
                           + [(i, i + 2, 0.05) for i in range(18)])
        latents = np.random.default_rng(32).normal(size=(20, 4))
        latents[7, 2] = np.nan
        with pytest.raises(PipelineError) as info:
            fit_affinity_models(dets, table, latents, PipelineConfig())
        assert info.value.stage == "fit"
        assert isinstance(info.value.cause, ValueError)
        assert "non-finite feature vector" in str(info.value)


class TestFramesWithoutDetections:
    def _run(self, detections, table):
        config = dataclasses.replace(PipelineConfig(), epochs=2)
        tracklets = pregroup(detections, table, threshold=config.pregroup_threshold,
                             max_gap=config.pregroup_max_gap)
        model, _ = train_embedding(detections, tracklets, config)
        latents = latent_codes(model, detections)
        models = fit_affinity_models(detections, table, latents, config)
        return run_tracking(detections, table, model, models, config)

    def test_tracks_bridge_empty_frames(self):
        result = synth_sequence(benchmark_spec(num_frames=60), seed=0)
        dets = [d for d in result.detections if not 20 <= d.frame <= 22]
        assert {d.frame for d in dets} == set(range(1, 61)) - {20, 21, 22}
        table = iou_match_table(dets)
        first = self._run(dets, table)
        assert len(first.tracks) == 5
        for track in first.tracks:
            assert (track.first_frame, track.last_frame) == (1, 60)
        assert first.to_mot_records() == self._run(dets, table).to_mot_records()

class TestTrainStage:
    CONFIG = dataclasses.replace(PipelineConfig(), epochs=1)

    def test_no_detections_fail_at_train(self):
        with pytest.raises(PipelineError) as info:
            train_embedding([], [], self.CONFIG)
        assert info.value.stage == "train"
        assert isinstance(info.value.cause, ValueError)
        assert "empty dataset" in str(info.value)

    def test_non_finite_patch_fails_at_train(self):
        rng = np.random.default_rng(31)
        dets = [Detection(f, BBox(0.0, 0.0, 10.0, 10.0),
                          image=rng.uniform(0.05, 0.95, size=(3, 8, 8)))
                for f in range(1, 5)]
        dets[2].image[0, 3, 3] = np.nan
        tracklets = [Tracklet(label=i, members=(i,)) for i in range(len(dets))]
        arch = ArchConfig(input_shape=(3, 8, 8), conv_channels=(4, 6), latent_dim=5)
        with pytest.raises(PipelineError) as info:
            train_embedding(dets, tracklets, self.CONFIG, arch=arch)
        assert info.value.stage == "train"
        assert isinstance(info.value.cause, TrainingDiverged)
        assert "non-finite loss" in str(info.value)


class TestAblationCell:
    def test_gap_limit_drops_farther_table_pairs(self, monkeypatch):
        # A 1-3 cell fits and tracks on the table's pairs at most 3 frames
        # apart, so gap-4/5 pairs, here overlaps zeroed against their
        # boxes, change nothing. With latent distance as the only feature
        # those pairs would move the fit and the tracks.
        result = synth_sequence(benchmark_spec(num_frames=30), seed=0)
        dets = result.detections
        model = AutoEncoder(default_arch(dets[0].image.shape), seed=0)
        latents = latent_codes(model, dets)
        near = iou_match_table(dets, max_frame_gap=3)
        wide = MatchTable([*near.rows.tolist(), *(
            (u, v, 0.0) for u, v, _ in result.table.rows.tolist()
            if (u, v) not in near.entries
        )])
        features = ("bias", "d_ae")
        config = dataclasses.replace(PipelineConfig(), nearby_features=features)
        nearby_fits = [fit_affinity_models(dets, table, latents, config)[0]
                       for table in (near, wide)]
        assert nearby_fits[0] != nearby_fits[1]

        def encode_again(*args):
            raise AssertionError("ablation_cell encoded the detections again")

        monkeypatch.setattr(pipeline, "latent_codes", encode_again)
        reports = [ablation_cell(dets, table, result.gt, latents, features, 3, (),
                                 config)
                   for table in (near, wide)]
        assert reports[0] == reports[1]
