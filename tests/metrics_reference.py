"""Frozen CLEAR MOT scorer, kept as a reference.

Test-only differential reference: `tests/test_metrics.py` requires
`liftedtrack.metrics.evaluate_clear_mot`, which scores sorted arrays with
one `box_iou` call per sequence and finds a repeated (frame, id) with
`graph.repeated_pairs`, to give `==` reports (field values and types) and
the same error messages as this copy of its former body. Here each side is
keyed by frame, then id, in dicts, IoU is computed frame by frame, and
the IDF1 co-occurrence counts and the coverage counts are per-id dicts.
This copy raises a non-positive ground-truth id as a plain ValueError,
without the record's position, and it has no check on the threshold.
"""

from collections import defaultdict
from typing import Dict, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from liftedtrack.graph import RowError, box_iou
from liftedtrack.metrics import MotReport
from liftedtrack.motio import MotRecord, as_records


def _by_frame(records, name: str, offset: int) -> Dict[int, Dict[int, MotRecord]]:
    """Records keyed by frame, then id; an id given twice in a frame is
    rejected as a RowError naming both records' positions, whose `rows`
    are those positions plus `offset`."""
    frames: Dict[int, Dict[int, MotRecord]] = defaultdict(dict)
    first: Dict[Tuple[int, int], int] = {}
    for i, rec in enumerate(records):
        key = (rec.frame, rec.track_id)
        if key in first:
            raise RowError(f"{name} records {first[key]} and {i} both give "
                           f"id {rec.track_id} in frame {rec.frame}",
                           (offset + first[key], offset + i))
        first[key] = i
        frames[rec.frame][rec.track_id] = rec
    return frames


def reference_evaluate_clear_mot(gt, hyp, iou_threshold: float = 0.5) -> MotReport:
    """Score a hypothesis track set against ground-truth records.

    A (frame, id) given twice on one side raises a RowError whose `rows`
    count the ground-truth records first, then the hypothesis records.
    """
    gt_records = as_records(gt)
    hyp_records = as_records(hyp)
    if not gt_records:
        raise ValueError("ground truth is empty")
    if any(rec.track_id < 1 for rec in gt_records):
        raise ValueError("ground-truth ids must be positive")

    gt_frames = _by_frame(gt_records, "ground-truth", 0)
    hyp_frames = _by_frame(hyp_records, "hypothesis", len(gt_records))
    total_gt = len(gt_records)
    total_hyp = len(hyp_records)

    assoc: Dict[int, int] = {}
    ids = fp = fn = 0
    iou_sum = 0.0
    num_matches = 0
    gt_present: Dict[int, int] = defaultdict(int)
    gt_matched: Dict[int, int] = defaultdict(int)
    pair_frames: Dict[Tuple[int, int], int] = defaultdict(int)

    for frame in sorted(gt_frames.keys() | hyp_frames.keys()):
        gts = gt_frames.get(frame, {})
        hyps = hyp_frames.get(frame, {})
        for gid in gts:
            gt_present[gid] += 1
        row = {gid: i for i, gid in enumerate(gts)}
        col = {hid: j for j, hid in enumerate(hyps)}
        a, b = (np.array([(r.left, r.top, r.width, r.height) for r in recs.values()],
                         dtype=np.float64).reshape(-1, 4) for recs in (gts, hyps))
        scores = box_iou(a[:, None], b[None])
        overlaps = scores >= iou_threshold

        # identity matching counts every overlapping co-occurrence
        gid_list, hid_list = list(gts), list(hyps)
        for i, j in zip(*np.nonzero(overlaps)):
            pair_frames[(gid_list[i], hid_list[j])] += 1

        matches: Dict[int, int] = {}
        for gid in sorted(gts):
            hid = assoc.get(gid)
            if hid in hyps and hid not in matches.values():
                if overlaps[row[gid], col[hid]]:
                    matches[gid] = hid

        free_gt = sorted(g for g in gts if g not in matches)
        free_hyp = sorted(h for h in hyps if h not in matches.values())
        if free_gt and free_hyp:
            free_rows = [row[g] for g in free_gt]
            free_cols = [col[h] for h in free_hyp]
            free_scores = scores[np.ix_(free_rows, free_cols)]
            rows, cols = linear_sum_assignment(-free_scores)
            for r, c in zip(rows, cols):
                if free_scores[r, c] >= iou_threshold:
                    matches[free_gt[r]] = free_hyp[c]

        for gid, hid in matches.items():
            if gid in assoc and assoc[gid] != hid:
                ids += 1
            assoc[gid] = hid
            gt_matched[gid] += 1
            iou_sum += float(scores[row[gid], col[hid]])
            num_matches += 1
        fn += len(gts) - len(matches)
        fp += len(hyps) - len(matches)

    mota = 1.0 - (fp + fn + ids) / total_gt
    motp = iou_sum / num_matches if num_matches else 0.0

    mt = ml = 0
    for gid, present in gt_present.items():
        coverage = gt_matched[gid] / present
        if coverage >= 0.8:
            mt += 1
        elif coverage <= 0.2:
            ml += 1

    idtp = 0
    if pair_frames:
        gids = {g: i for i, g in enumerate(sorted({g for g, _ in pair_frames}))}
        hids = {h: j for j, h in enumerate(sorted({h for _, h in pair_frames}))}
        weights = np.zeros((len(gids), len(hids)))
        for (g, h), count in pair_frames.items():
            weights[gids[g], hids[h]] = count
        rows, cols = linear_sum_assignment(-weights)
        idtp = int(weights[rows, cols].sum())
    idf1 = 2.0 * idtp / (total_gt + total_hyp) if total_hyp else 0.0

    return MotReport(
        mota=mota, motp=motp, ids=ids, mt=mt, ml=ml, fp=fp, fn=fn, idf1=idf1
    )
