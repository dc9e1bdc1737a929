"""CLEAR MOT evaluation over MOT-format records.

Per frame, previously established ground-truth/hypothesis pairings are
kept while both boxes still overlap at the threshold; remaining boxes are
matched by maximum-IoU assignment. An identity switch is counted whenever
a ground-truth trajectory is matched to a different hypothesis id than
its last known partner. MOTP is reported as mean IoU over matches.
"""

from dataclasses import dataclass
from typing import Dict, List

import numpy as np
from scipy.optimize import linear_sum_assignment

from .graph import RowError, box_iou, repeated_pairs
from .motio import mot_columns


@dataclass(frozen=True)
class MotReport:
    mota: float
    motp: float
    ids: int
    mt: int
    ml: int
    fp: int
    fn: int
    idf1: float

    def __post_init__(self):
        if self.mota > 1.0 + 1e-12:
            raise ValueError(f"mota cannot exceed 1, got {self.mota}")
        if min(self.ids, self.fp, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    def lines(self) -> List[str]:
        return [
            f"MOTA {self.mota:.3f}",
            f"MOTP {self.motp:.3f}",
            f"IDF1 {self.idf1:.3f}",
            f"IDs {self.ids}",
            f"MT {self.mt}",
            f"ML {self.ml}",
            f"FP {self.fp}",
            f"FN {self.fn}",
        ]


def _side_arrays(source):
    """The (frames, ids, (n, 4) boxes) of one side, in record order: the
    columns of `mot_columns`, so a track set gives its own columns, in the
    (frame, id) order of its `to_mot_records`, without building records."""
    frames, ids, fields = mot_columns(source)
    return frames, ids, fields[:, :4]


def _sorted_side(frames, ids, boxes, name: str, offset: int):
    """The (frames, ids, boxes) of one side, sorted by (frame, id).

    An id given twice in a frame is rejected as a RowError naming the first
    two records that share it, whose `rows` are their positions plus
    `offset`.
    """
    order, repeat = repeated_pairs(frames, ids)
    if repeat.any():
        # the first repeat in input order is its key's second record, and
        # the stable order puts the key's first record just before it
        later = int(np.flatnonzero(repeat)[0])
        earlier = int(order[np.flatnonzero(order == later)[0] - 1])
        raise RowError(f"{name} records {earlier} and {later} both give "
                       f"id {ids[later]} in frame {frames[later]}",
                       (offset + earlier, offset + later))
    return frames[order], ids[order], boxes[order]


def evaluate_clear_mot(gt, hyp, iou_threshold: float = 0.5) -> MotReport:
    """Score a hypothesis track set against ground-truth records.

    Either side may be MOT records or a track set, which is scored from
    its boxes without building records. `iou_threshold` must lie in
    (0, 1]. A non-positive ground-truth id, or a (frame, id) given twice on
    one side, raises a RowError whose `rows` count the ground-truth records
    first, then the hypothesis records (a track set's records in the order
    of its `to_mot_records`).

    Every same-frame (gt, hyp) pair is scored in one `box_iou` call, so
    memory grows with the sum over frames of |gt_f| * |hyp_f|.
    """
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    gt_side, hyp_side = _side_arrays(gt), _side_arrays(hyp)
    num_gt, num_hyp = len(gt_side[0]), len(hyp_side[0])
    if not num_gt:
        raise ValueError("ground truth is empty")
    bad_id = np.flatnonzero(gt_side[1] < 1)
    if bad_id.size:
        raise RowError("ground-truth ids must be positive", (int(bad_id[0]),))
    gt_frames, gt_ids, gt_boxes = _sorted_side(*gt_side, "ground-truth", 0)
    hyp_frames, hyp_ids, hyp_boxes = _sorted_side(*hyp_side, "hypothesis", num_gt)

    # each gt record's slice of the hypothesis and every same-frame
    # (gt, hyp) pair, gt-major within a frame, so a frame's pairs are one block
    lo, hi = (np.searchsorted(hyp_frames, gt_frames, side) for side in ("left", "right"))
    starts = np.cumsum(hi - lo) - (hi - lo)
    pair_gt = np.repeat(np.arange(len(gt_frames)), hi - lo)
    pair_hyp = np.arange(len(pair_gt)) + np.repeat(lo - starts, hi - lo)
    scores = box_iou(gt_boxes[pair_gt], hyp_boxes[pair_hyp])

    assoc: Dict[int, int] = {}
    ids = 0
    matched: List[int] = []
    gid_list, hid_list = gt_ids.tolist(), hyp_ids.tolist()
    _, first, size = np.unique(gt_frames, return_index=True, return_counts=True)
    for g, n, h, m, p in zip(first.tolist(), size.tolist(), lo[first].tolist(),
                             (hi - lo)[first].tolist(), starts[first].tolist()):
        score = scores[p:p + n * m].reshape(n, m)
        col = {hid: j for j, hid in enumerate(hid_list[h:h + m])}
        # keep last frame's partner while it still overlaps, by ascending id
        matches: Dict[int, int] = {}
        for i, gid in enumerate(gid_list[g:g + n]):
            j = col.get(assoc.get(gid))
            if j is not None and j not in matches.values() and score[i, j] >= iou_threshold:
                matches[i] = j
        free_rows = [i for i in range(n) if i not in matches]
        free_cols = [j for j in range(m) if j not in matches.values()]
        if free_rows and free_cols:
            free_scores = score[np.ix_(free_rows, free_cols)]
            for r, c in zip(*linear_sum_assignment(-free_scores)):
                if free_scores[r, c] >= iou_threshold:
                    matches[free_rows[r]] = free_cols[c]
        for i, j in matches.items():
            gid, hid = gid_list[g + i], hid_list[h + j]
            if assoc.get(gid, hid) != hid:
                ids += 1
            assoc[gid] = hid
            matched.append(p + i * m + j)

    fn = num_gt - len(matched)
    fp = num_hyp - len(matched)
    mota = 1.0 - (fp + fn + ids) / num_gt
    # a running sum in match order: pairwise summation could move MOTP's last bit
    motp = float(np.cumsum(scores[matched])[-1]) / len(matched) if matched else 0.0

    _, track, present = np.unique(gt_ids, return_inverse=True, return_counts=True)
    coverage = np.bincount(track[pair_gt[matched]], minlength=len(present)) / present
    mt = int(np.count_nonzero(coverage >= 0.8))
    ml = int(np.count_nonzero(coverage <= 0.2))

    # identity matching counts every overlapping co-occurrence
    overlaps = scores >= iou_threshold
    gids, rows = np.unique(gt_ids[pair_gt[overlaps]], return_inverse=True)
    hids, cols = np.unique(hyp_ids[pair_hyp[overlaps]], return_inverse=True)
    weights = np.zeros((len(gids), len(hids)))
    np.add.at(weights, (rows, cols), 1.0)
    idtp = int(weights[linear_sum_assignment(-weights)].sum())
    idf1 = 2.0 * idtp / (num_gt + num_hyp) if num_hyp else 0.0

    return MotReport(
        mota=mota, motp=motp, ids=ids, mt=mt, ml=ml, fp=fp, fn=fn, idf1=idf1
    )
