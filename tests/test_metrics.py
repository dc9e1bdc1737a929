"""Tests for CLEAR MOT scoring against hand-computed worked examples and
against the former scorer in `tests/metrics_reference.py`."""

import dataclasses
import random

import numpy as np
import pytest

from liftedtrack.graph import BBox, RowError, box_iou, iou
from liftedtrack.metrics import MotReport, evaluate_clear_mot
from liftedtrack.motio import MotRecord
from liftedtrack.pipeline import Track, TrackSet
from metrics_reference import reference_evaluate_clear_mot


def rec(frame, tid, left=0.0, top=0.0, size=10.0):
    return MotRecord(frame=frame, track_id=tid, left=left, top=top,
                     width=size, height=size, conf=1.0)


def straight_track(tid, frames, left0=0.0, step=2.0, top=0.0):
    return [rec(f, tid, left=left0 + step * (f - 1), top=top) for f in frames]


class TestWorkedExamples:
    def test_identical_hypothesis_is_perfect(self):
        gt = straight_track(1, range(1, 11)) + straight_track(2, range(1, 11),
                                                              top=50.0)
        hyp = [MotRecord(frame=r.frame, track_id=r.track_id + 7, left=r.left,
                         top=r.top, width=r.width, height=r.height, conf=1.0)
               for r in gt]
        report = evaluate_clear_mot(gt, hyp)
        assert report.mota == 1.0
        assert report.motp == 1.0
        assert report.idf1 == 1.0
        assert report.ids == 0
        assert report.fp == 0
        assert report.fn == 0
        assert report.mt == 2
        assert report.ml == 0

    def test_empty_hypothesis_scores_zero(self):
        gt = straight_track(1, range(1, 11))
        report = evaluate_clear_mot(gt, [])
        assert report.mota == 0.0
        assert report.fn == 10
        assert report.fp == 0
        assert report.ids == 0
        assert report.ml == 1
        assert report.mt == 0
        assert report.idf1 == 0.0

    def test_id_switch_at_frame_six(self):
        # 10-frame track; the hypothesis covers every box perfectly but
        # renames the identity from frame 6 on: IDs 1, MOTA 1 - 1/10.
        gt = straight_track(1, range(1, 11))
        hyp = [MotRecord(frame=r.frame, track_id=1 if r.frame <= 5 else 2,
                         left=r.left, top=r.top, width=r.width, height=r.height,
                         conf=1.0) for r in gt]
        report = evaluate_clear_mot(gt, hyp)
        assert report.ids == 1
        assert report.mota == pytest.approx(0.9)
        assert report.motp == 1.0
        assert report.fp == 0
        assert report.fn == 0
        assert report.mt == 1
        # identity matching can keep at most one of the two hypothesis
        # names: 2 * 5 / (10 + 10)
        assert report.idf1 == pytest.approx(0.5)


class TestMatchingRules:
    def test_persistence_beats_greedy_iou(self):
        # frame 1 pins gt 1 to hyp 1; in frame 2 a second hypothesis
        # sits marginally closer, but the established pairing holds while
        # it still clears the threshold, so no switch is counted.
        gt = [rec(1, 1), rec(2, 1)]
        hyp = [
            rec(1, 1),
            MotRecord(frame=2, track_id=1, left=2.0, top=0.0, width=10,
                      height=10, conf=1.0),
            MotRecord(frame=2, track_id=2, left=1.0, top=0.0, width=10,
                      height=10, conf=1.0),
        ]
        report = evaluate_clear_mot(gt, hyp)
        assert report.ids == 0
        assert report.fp == 1

    def test_below_threshold_overlap_is_a_miss(self):
        gt = [rec(1, 1)]
        hyp = [MotRecord(frame=1, track_id=1, left=7.0, top=0.0, width=10,
                         height=10, conf=1.0)]
        report = evaluate_clear_mot(gt, hyp)
        assert report.fn == 1
        assert report.fp == 1
        assert report.mota == pytest.approx(-1.0)

    def test_hyp_id_relabeling_invariance(self):
        gt = straight_track(1, range(1, 11)) + straight_track(2, range(1, 11),
                                                              top=40.0)
        hyp = [MotRecord(frame=r.frame, track_id=1 if r.frame <= 6 else 9,
                         left=r.left, top=r.top, width=r.width, height=r.height,
                         conf=1.0)
               for r in straight_track(1, range(1, 11))]
        relabeled = [MotRecord(frame=r.frame, track_id={1: 4, 9: 2}[r.track_id],
                               left=r.left, top=r.top, width=r.width,
                               height=r.height, conf=1.0) for r in hyp]
        first = evaluate_clear_mot(gt, hyp)
        second = evaluate_clear_mot(gt, relabeled)
        assert first == second

    def test_mota_monotone_in_injected_false_positives(self):
        gt = straight_track(1, range(1, 11))
        hyp = list(gt)
        scores = []
        for extra in range(3):
            # one id per clutter box: an id may not repeat within a frame
            clutter = [rec(f, 50 + 10 * extra + k, left=200.0 + 30 * k)
                       for k in range(extra) for f in (1, 2)]
            scores.append(evaluate_clear_mot(gt, hyp + clutter).mota)
        assert scores[0] >= scores[1] >= scores[2]
        assert scores[0] > scores[2]

    def test_switch_counted_against_last_known_partner(self):
        # gt 1 unmatched in frames 3-4 (hypothesis absent), then returns
        # under a new name: still one switch, detected across the hole.
        gt = straight_track(1, range(1, 7))
        hyp = [MotRecord(frame=r.frame, track_id=1 if r.frame <= 2 else 3,
                         left=r.left, top=r.top, width=r.width, height=r.height,
                         conf=1.0) for r in gt if r.frame not in (3, 4)]
        report = evaluate_clear_mot(gt, hyp)
        assert report.ids == 1
        assert report.fn == 2


class TestValidationAndReport:
    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate_clear_mot([], [rec(1, 1)])

    def test_non_positive_gt_id_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            evaluate_clear_mot([rec(1, -1)], [])

    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), 1.5])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        # at 0 or below, disjoint boxes (IoU 0.0) would count as matches
        gt = straight_track(1, range(1, 4))
        far = [rec(r.frame, 1, left=r.left + 500.0) for r in gt]
        with pytest.raises(ValueError, match=rf"^iou_threshold must be in \(0, 1\], "
                                             rf"got {threshold}$"):
            evaluate_clear_mot(gt, far, iou_threshold=threshold)
        assert evaluate_clear_mot(gt, gt, iou_threshold=1.0).mota == 1.0

    @pytest.mark.parametrize("which, name", [(0, "ground-truth"), (1, "hypothesis")])
    def test_repeated_id_in_a_frame_rejected(self, which, name):
        # id 7 twice in frame 1, one box on target and one stray: keeping
        # either one alone would score a record set it was not given
        tracks = [[rec(1, 7), rec(1, 7, left=200.0), rec(2, 7)], [rec(1, 1), rec(2, 1)]]
        gt, hyp = tracks if which == 0 else tracks[::-1]
        with pytest.raises(ValueError, match=f"^{name} records 0 and 1 both give id 7 "
                                             f"in frame 1$"):
            evaluate_clear_mot(gt, hyp)

    def test_report_rejects_mota_above_one(self):
        with pytest.raises(ValueError, match="mota"):
            MotReport(mota=1.5, motp=1.0, ids=0, mt=0, ml=0, fp=0, fn=0,
                      idf1=1.0)

    def test_report_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="negative"):
            MotReport(mota=0.5, motp=1.0, ids=-1, mt=0, ml=0, fp=0, fn=0,
                      idf1=1.0)

    def test_report_lines_format(self):
        report = MotReport(mota=0.75, motp=0.9, ids=2, mt=3, ml=1, fp=4, fn=5,
                           idf1=0.8)
        lines = report.lines()
        assert lines[0] == "MOTA 0.750"
        assert "IDs 2" in lines
        assert "FN 5" in lines


def _iou_matrix(first, second):
    """`box_iou` of every (first, second) record pair, in one broadcast call."""
    a, b = (np.array([(r.left, r.top, r.width, r.height) for r in recs],
                     dtype=np.float64).reshape(-1, 4) for recs in (first, second))
    return box_iou(a[:, None], b[None])


class TestIouMatrix:
    def test_entries_equal_pairwise_iou(self):
        # on a coarse grid, so boxes touch, nest and miss; two coincide
        rng = np.random.default_rng(12)

        def boxes(count):
            return [MotRecord(frame=1, track_id=k + 1,
                              left=float(rng.integers(0, 8)) * 2.5,
                              top=float(rng.integers(0, 8)) * 2.5,
                              width=float(rng.integers(1, 6)) * 2.5 + rng.choice([0, 0.1]),
                              height=float(rng.integers(1, 6)) * 2.5, conf=1.0)
                    for k in range(count)]

        first = boxes(40)
        second = boxes(30) + first[:2]
        scores = _iou_matrix(first, second)
        expected = [[iou(a.box, b.box) for b in second] for a in first]
        assert scores.tolist() == expected
        assert (scores == 0).any() and (scores > 0.99).any()
        assert _iou_matrix(first, []).shape == (40, 0)

    def test_motp_is_a_python_float(self):
        gt = straight_track(1, range(1, 6))
        hyp = [rec(r.frame, 2, left=r.left + np.float64(1.0)) for r in gt]
        assert type(evaluate_clear_mot(gt, hyp).motp) is float


def outcome(call):
    """("ok", report, field types) or ("error", exception type, message,
    rows) of `call()`."""
    try:
        report = call()
    except ValueError as exc:
        return "error", type(exc), str(exc), getattr(exc, "rows", None)
    return "ok", report, [type(v) for v in dataclasses.astuple(report)]


def fuzzed_sequence(rnd):
    """(gt, hyp), both shuffled: ground-truth tracks on a coarse grid, so
    boxes touch, nest and tie, and a hypothesis that shifts, renames, drops
    and adds boxes. Planted: frames on one side only, an empty hypothesis,
    an id given twice in a frame on either side, and ground-truth ids
    below 1."""
    num_frames = rnd.randint(1, 8)
    gt = []
    for tid in range(1, rnd.randint(1, 6) + 1):
        left, top, size = (rnd.randint(0, 8) * 5.0, rnd.randint(0, 8) * 5.0,
                           rnd.choice([10.0, 15.0, 20.0]))
        step = rnd.choice([0.0, 2.5, 5.0])
        first = rnd.randint(1, num_frames)
        gt += [MotRecord(f, tid, left + step * (f - first), top, size, size, 1.0)
               for f in range(first, rnd.randint(first, num_frames) + 1)]
    hyp, names = [], {}
    gone = {f for f in range(1, num_frames + 1) if rnd.random() < 0.1}
    if rnd.random() > 0.08:
        for r in gt:
            if r.frame in gone or rnd.random() < 0.15:
                continue
            if r.track_id not in names or rnd.random() < 0.1:
                names[r.track_id] = rnd.randint(1, 9)
            shift = (rnd.choice([0.0, 0.0, 1.25, 2.5, 5.0]), rnd.choice([0.0, 2.5, 7.5]))
            hyp.append(MotRecord(r.frame, names[r.track_id], r.left + shift[0],
                                 r.top + shift[1], r.width, r.height, 1.0))
        hyp += [MotRecord(rnd.randint(1, num_frames + 2), rnd.randint(1, 12),
                          rnd.randint(0, 8) * 5.0, rnd.randint(0, 8) * 5.0, 10.0, 10.0, 1.0)
                for _ in range(rnd.randrange(4))]
    # one record per (frame, id) on each side, unless a repeat is planted
    seen = set()
    hyp = [r for r in hyp if (r.frame, r.track_id) not in seen
           and not seen.add((r.frame, r.track_id))]
    for side in (gt, hyp):
        if side and rnd.random() < 0.04:
            twin = rnd.choice(side)
            side.append(dataclasses.replace(twin, left=twin.left + rnd.choice([0.0, 60.0])))
    if rnd.random() < 0.04:
        k = rnd.randrange(len(gt))
        gt[k] = dataclasses.replace(gt[k], track_id=rnd.choice([0, -1]))
    rnd.shuffle(gt)
    rnd.shuffle(hyp)
    return gt, hyp


class TestMatchesReference:
    def test_fuzzed_sequences(self):
        rnd = random.Random(41)
        kinds = set()
        for _ in range(1500):
            gt, hyp = fuzzed_sequence(rnd)
            threshold = rnd.choice([0.3, 0.5, 0.8])
            want = outcome(lambda: reference_evaluate_clear_mot(gt, hyp, threshold))
            got = outcome(lambda: evaluate_clear_mot(gt, hyp, threshold))
            case = (gt, hyp, threshold)
            if want[0] == "ok":
                assert got == want, case
                kinds.add("ok" if hyp else "ok-empty-hypothesis")
                if want[1].ids:
                    kinds.add("ok-switch")
            elif "positive" in want[2]:
                # the former scorer named no record; now the first is named
                bad = next(i for i, r in enumerate(gt) if r.track_id < 1)
                assert got == ("error", RowError, want[2], (bad,)), case
                kinds.add("positive")
            else:
                assert got == want, case
                kinds.add(want[2].split(" ")[0])
        assert kinds == {"ok", "ok-empty-hypothesis", "ok-switch", "positive",
                         "ground-truth", "hypothesis"}


def fuzzed_track_set(rnd):
    """A `TrackSet` of runs over frames 1-8, boxes on a coarse grid, with
    distinct ids that are rarely below 1."""
    ids = rnd.sample(range(-1, 12), rnd.randint(0, 6))
    tracks = []
    for tid in ids:
        first = rnd.randint(1, 8)
        tracks.append(Track(tid, {f: BBox(rnd.randint(0, 8) * 5.0, rnd.randint(0, 8) * 5.0,
                                          10.0, rnd.choice([10.0, 15.0]))
                                  for f in range(first, rnd.randint(first, 8) + 1)}))
    rnd.shuffle(tracks)
    return TrackSet.from_tracks(tracks)


class TestTrackSets:
    """A track set is scored from its boxes as its records are scored."""

    def test_fuzzed_track_sets_on_either_side(self):
        rnd = random.Random(43)
        kinds = set()
        for _ in range(600):
            gt, hyp = fuzzed_sequence(rnd)
            tracks = fuzzed_track_set(rnd)
            records = tracks.to_mot_records()
            threshold = rnd.choice([0.3, 0.5, 0.8])
            for got, want in (
                (lambda: evaluate_clear_mot(gt, tracks, threshold),
                 lambda: evaluate_clear_mot(gt, records, threshold)),
                (lambda: evaluate_clear_mot(tracks, hyp, threshold),
                 lambda: evaluate_clear_mot(records, hyp, threshold)),
            ):
                want = outcome(want)
                assert outcome(got) == want, (gt, hyp, tracks)
                kinds.add(want[0] if want[0] == "ok" else next(
                    k for k in ("empty", "positive", "both give") if k in want[2]))
        assert kinds == {"ok", "empty", "positive", "both give"}

    def test_ids_and_frames_near_2_62(self):
        # (frame, id) keys with a large offset on the ground-truth side, and
        # past int64 on the hypothesis side
        big = 2**62
        gt = [rec(big + f, tid, left=5.0 * f)
              for f in range(1, 4) for tid in (big, big + 1)]
        hyp = [rec(big + f, tid, left=5.0 * f + 1.0)
               for f in range(1, 4) for tid in (-big, 1, big - 1)]
        want = reference_evaluate_clear_mot(gt, hyp, 0.5)
        assert evaluate_clear_mot(gt, hyp) == want
        twice = hyp + [rec(big + 2, -big)]
        message = f"hypothesis records 3 and 9 both give id {-big}"
        with pytest.raises(RowError, match=message):
            evaluate_clear_mot(gt, twice)
