"""Tests for the synthetic sequence generator."""

import numpy as np
import pytest

from liftedtrack.graph import iou
from liftedtrack.metrics import evaluate_clear_mot
from liftedtrack.synth import (
    IdentitySpec,
    SequenceSpec,
    benchmark_spec,
    synth_sequence,
)


def one_identity(occlusions=(), **kwargs):
    return IdentitySpec(track_id=1, start=(5.0, 5.0), velocity=(2.0, 0.0),
                        occlusions=occlusions, appearance=0.4, **kwargs)


class TestGeneration:
    def test_single_identity_counts_and_gt_match(self):
        spec = SequenceSpec(identities=(one_identity(),), num_frames=10)
        result = synth_sequence(spec, seed=0)
        assert len(result.detections) == 10
        assert len(result.gt) == 10
        for det, gt in zip(result.detections, result.gt):
            assert det.frame == gt.frame
            assert det.box == gt.box
            assert det.score == 1.0
        assert result.images.shape == (10, 3, 16, 16)

    def test_occlusion_window_removes_detections(self):
        spec = SequenceSpec(identities=(one_identity(occlusions=((4, 6),)),),
                            num_frames=10)
        result = synth_sequence(spec, seed=0)
        frames = [det.frame for det in result.detections]
        assert frames == [1, 2, 3, 7, 8, 9, 10]

    def test_ground_truth_persists_through_occlusion(self):
        spec = SequenceSpec(identities=(one_identity(occlusions=((4, 6),)),),
                            num_frames=10)
        result = synth_sequence(spec, seed=0)
        assert [rec.frame for rec in result.gt] == list(range(1, 11))

    def test_fixed_seed_is_bitwise_identical(self):
        spec = benchmark_spec(num_frames=30)
        a = synth_sequence(spec, seed=7)
        b = synth_sequence(spec, seed=7)
        assert a.gt == b.gt
        assert len(a.detections) == len(b.detections)
        for da, db in zip(a.detections, b.detections):
            assert (da.frame, da.box, da.score) == (db.frame, db.box, db.score)
        assert np.array_equal(a.images, b.images)
        assert a.table == b.table

    def test_different_seeds_differ(self):
        spec = benchmark_spec(num_frames=30)
        a = synth_sequence(spec, seed=0)
        b = synth_sequence(spec, seed=1)
        assert not np.array_equal(a.images, b.images)

    def test_noise_moves_boxes_but_not_gt(self):
        spec = SequenceSpec(identities=(one_identity(),), num_frames=6,
                            box_noise=0.5)
        result = synth_sequence(spec, seed=3)
        ident = spec.identities[0]
        for det in result.detections:
            true_box = ident.box_at(det.frame)
            assert det.box != true_box
            assert iou(det.box, true_box) > 0.8

    def test_gt_as_hypothesis_is_perfect(self):
        second = IdentitySpec(track_id=2, start=(5.0, 60.0),
                              velocity=(2.0, 0.0), appearance=0.8)
        spec = SequenceSpec(identities=(one_identity(), second), num_frames=12)
        result = synth_sequence(spec, seed=0)
        report = evaluate_clear_mot(result.gt, result.gt)
        assert report.mota == 1.0
        assert report.ids == 0

    def test_match_table_respects_gap_window(self):
        spec = SequenceSpec(identities=(one_identity(),), num_frames=12,
                            match_gap=3)
        result = synth_sequence(spec, seed=0)
        frames = [det.frame for det in result.detections]
        gaps = {abs(frames[u] - frames[v]) for u, v, _ in result.table.rows.tolist()}
        assert gaps <= {1, 2, 3}

    def test_brightness_scales_patches(self):
        bright = SequenceSpec(identities=(one_identity(),), num_frames=1,
                              brightness_range=(1.5, 1.5))
        dim = SequenceSpec(identities=(one_identity(),), num_frames=1,
                           brightness_range=(0.5, 0.5))
        pb = synth_sequence(bright, seed=0).images[0]
        pd = synth_sequence(dim, seed=0).images[0]
        assert np.allclose(pb, np.clip(3.0 * pd, 0.0, 2.0))

    def test_periodic_brightness_is_smooth(self):
        spec = SequenceSpec(identities=(one_identity(),), num_frames=30,
                            brightness_range=(0.4, 1.6),
                            brightness_period=24.0)
        imgs = synth_sequence(spec, seed=0).images
        means = imgs.mean(axis=(1, 2, 3))
        steps = np.abs(np.diff(means))
        # one 24-frame cycle moves brightness by at most 2pi/24 * amplitude
        assert steps.max() < 0.6 * 2 * np.pi / 24 * 1.2 + 1e-6


class TestValidation:
    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError, match="num_frames"):
            SequenceSpec(identities=(one_identity(),), num_frames=0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SequenceSpec(identities=(one_identity(), one_identity()),
                         num_frames=5)

    def test_no_identities_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            SequenceSpec(identities=(), num_frames=5)

    def test_bad_occlusion_window_rejected(self):
        with pytest.raises(ValueError, match="occlusion"):
            one_identity(occlusions=((6, 4),))

    def test_bad_brightness_range_rejected(self):
        with pytest.raises(ValueError, match="brightness"):
            SequenceSpec(identities=(one_identity(),), num_frames=5,
                         brightness_range=(1.5, 0.5))


class TestBenchmarkSpec:
    def test_shape(self):
        spec = benchmark_spec(num_frames=100)
        assert spec.num_frames == 100
        assert len(spec.identities) == 5
        assert {i.track_id for i in spec.identities} == {1, 2, 3, 4, 5}

    def test_crossing_pairs_swap_lanes(self):
        spec = benchmark_spec(num_frames=100)
        by_id = {i.track_id: i for i in spec.identities}
        for a, b, cross in ((2, 3, 35), (4, 5, 65)):
            top_a0 = by_id[a].box_at(1).top
            top_b0 = by_id[b].box_at(1).top
            top_a1 = by_id[a].box_at(100).top
            top_b1 = by_id[b].box_at(100).top
            # lanes swap sides across the crossing
            assert (top_a0 - top_b0) * (top_a1 - top_b1) < 0
            cross_gap = abs(by_id[a].box_at(cross).top - by_id[b].box_at(cross).top)
            assert cross_gap < 1e-9

    def test_crossings_hide_inside_occlusions(self):
        spec = benchmark_spec(num_frames=100)
        by_id = {i.track_id: i for i in spec.identities}
        for a, cross in ((2, 35), (4, 65)):
            assert by_id[a].occluded(cross)

    def test_post_occlusion_trap_prefers_wrong_identity(self):
        # the box overlap across each occlusion window is higher for the
        # crossed (wrong) pairing than for the true continuation
        spec = benchmark_spec(num_frames=100)
        by_id = {i.track_id: i for i in spec.identities}
        for a, b, occ in ((2, 3, (34, 36)), (4, 5, (64, 66))):
            before, after = occ[0] - 1, occ[1] + 1
            true_iou = iou(by_id[a].box_at(before), by_id[a].box_at(after))
            trap_iou = iou(by_id[a].box_at(before), by_id[b].box_at(after))
            assert trap_iou > true_iou
