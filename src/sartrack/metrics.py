"""MOT evaluation: CLEAR metrics, identity metrics, and the HOTA family."""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ._solver import linear_sum_assignment
from .core import TrajectorySet, iou

HOTA_ALPHAS = [round(0.05 * k, 2) for k in range(1, 20)]

_BIG = 1e9
_NO_ROWS = np.zeros(0, dtype=np.intp)  # so np.concatenate never gets []


@dataclass(frozen=True, slots=True)
class MetricsReport:
    mota: float
    fp: int
    fn: int
    idsw: int
    mt: int
    ml: int
    idf1: float
    idp: float
    idr: float
    hota: float
    deta: float
    assa: float


def _frame_tables(gt: TrajectorySet, pred: TrajectorySet):
    """(gt rows, pred rows, IoU matrix) of each frame either set covers, in
    frame order. A row is a track's index in ``.tracks``; rows ascend."""
    frames = defaultdict(lambda: ([], [], [], []))
    for side, tset in ((0, gt), (2, pred)):
        for row, (_, seq) in enumerate(tset.tracks):
            for f, b in seq:
                frames[f][side].append(row)
                frames[f][side + 1].append(b)
    return [(gr, pr, iou(gb, pb)) for gr, gb, pr, pb in (frames[f] for f in sorted(frames))]


def _track_lengths(tset: TrajectorySet) -> np.ndarray:
    return np.array([len(seq) for _, seq in tset.tracks], dtype=np.int64)


def _matches(m: np.ndarray, thr: float):
    """(rows, cols) of the Hungarian matching on 1 - IoU over the pairs of
    ``m`` at or above ``thr``; ``m`` has no empty side."""
    cost = np.where(m >= thr, 1.0 - m, _BIG)
    rows, cols = linear_sum_assignment(cost)
    keep = cost[rows, cols] < _BIG
    return rows[keep], cols[keep]


def clear_mot(gt: TrajectorySet, pred: TrajectorySet, iou_thr: float = 0.5):
    """CLEAR metrics with the standard match-persistence rule: last frame's
    pairings survive while still above the threshold, the rest are matched
    by Hungarian on 1 - IoU.

    Returns (MOTA, FP, FN, IDSW, MT, ML).
    """
    if not 0.0 < iou_thr <= 1.0:  # NaN fails too
        raise ValueError(f"iou_thr must be in (0, 1], got {iou_thr}")
    total_gt = gt.num_boxes()
    if total_gt == 0:
        raise ValueError("empty ground truth: MOTA undefined")
    fp = fn = idsw = 0
    prev: dict[int, int] = {}  # gt row -> pred row, last frame's matches
    last_pred = [-1] * len(gt.tracks)  # pred row each gt row last matched
    covered = [0] * len(gt.tracks)
    for gt_rows, pred_rows, m in _frame_tables(gt, pred):
        i_of = {g: i for i, g in enumerate(gt_rows)}
        j_of = {p: j for j, p in enumerate(pred_rows)}
        matches = {g: p for g, p in prev.items()
                   if g in i_of and p in j_of and m[i_of[g], j_of[p]] >= iou_thr}
        used = set(matches.values())
        rem_g = [i for i, g in enumerate(gt_rows) if g not in matches]
        rem_p = [j for j, p in enumerate(pred_rows) if p not in used]
        if rem_g and rem_p:
            for r, c in zip(*_matches(m[np.ix_(rem_g, rem_p)], iou_thr)):
                matches[gt_rows[rem_g[r]]] = pred_rows[rem_p[c]]
        fn += len(gt_rows) - len(matches)
        fp += len(pred_rows) - len(matches)
        for g, p in matches.items():
            idsw += last_pred[g] not in (-1, p)
            last_pred[g] = p
            covered[g] += 1
        prev = matches
    mota = 1.0 - (fp + fn + idsw) / total_gt
    frac = np.array(covered) / _track_lengths(gt)
    mt, ml = int(np.count_nonzero(frac >= 0.8)), int(np.count_nonzero(frac <= 0.2))
    return mota, fp, fn, idsw, mt, ml


def id_metrics(gt: TrajectorySet, pred: TrajectorySet, iou_thr: float = 0.5):
    """Identity metrics from the optimal global trajectory pairing.

    Returns (IDF1, IDP, IDR). Empty GT and empty prediction both give 1 by
    convention.
    """
    if not 0.0 < iou_thr <= 1.0:  # NaN fails too
        raise ValueError(f"iou_thr must be in (0, 1], got {iou_thr}")
    total_gt = gt.num_boxes()
    total_pred = pred.num_boxes()
    if total_gt == 0 and total_pred == 0:
        return 1.0, 1.0, 1.0
    ng, np_ = len(gt.tracks), len(pred.tracks)
    # ov[i, j]: frames where gt row i and pred row j overlap.
    ov = np.zeros((ng, np_), dtype=np.int64)
    for gt_rows, pred_rows, m in _frame_tables(gt, pred):
        ov[np.ix_(gt_rows, pred_rows)] += m >= iou_thr
    gt_len, pred_len = _track_lengths(gt), _track_lengths(pred)
    # Padded assignment: dummy columns/rows let any trajectory stay unpaired.
    cost = np.full((ng + np_, np_ + ng), _BIG)
    cost[:ng, :np_] = gt_len[:, None] + pred_len[None, :] - 2 * ov
    cost[np.arange(ng), np_ + np.arange(ng)] = gt_len
    cost[ng + np.arange(np_), np.arange(np_)] = pred_len
    cost[ng:, np_:] = 0.0
    rows, cols = linear_sum_assignment(cost)
    paired = (rows < ng) & (cols < np_)
    idtp = int(ov[rows[paired], cols[paired]].sum())
    idfp = total_pred - idtp
    idfn = total_gt - idtp
    idp = idtp / (idtp + idfp) if idtp + idfp else 1.0
    idr = idtp / (idtp + idfn) if idtp + idfn else 1.0
    idf1 = 2 * idtp / (2 * idtp + idfp + idfn) if (2 * idtp + idfp + idfn) else 1.0
    return idf1, idp, idr


def hota(gt: TrajectorySet, pred: TrajectorySet):
    """HOTA over the 19-point localization-threshold grid.

    Returns (HOTA, DetA, AssA), each the mean of its per-alpha value.
    """
    total_gt = gt.num_boxes()
    if total_gt == 0:
        raise ValueError("empty ground truth: HOTA undefined")
    total_pred = pred.num_boxes()
    tables = [(np.array(gr, dtype=np.intp), np.array(pr, dtype=np.intp), m)
              for gr, pr, m in _frame_tables(gt, pred) if m.size]
    gt_len, pred_len = _track_lengths(gt), _track_lengths(pred)
    scores = []  # (HOTA, DetA, AssA) per alpha
    for alpha in HOTA_ALPHAS:
        g, p = [_NO_ROWS], [_NO_ROWS]
        for gt_rows, pred_rows, m in tables:
            rows, cols = _matches(m, alpha)
            g.append(gt_rows[rows])
            p.append(pred_rows[cols])
        g, p = np.concatenate(g), np.concatenate(p)
        tp = len(g)
        deta = tp / (total_gt + total_pred - tp)
        # The match count n of each (gt row, pred row) pair, in first-match order.
        _, first, n = np.unique(g * len(pred_len) + p, return_index=True, return_counts=True)
        order = np.argsort(first)
        g, p, n = g[first[order]], p[first[order]], n[order]
        # Python's sum adds these np.float64 terms one at a time, in that order
        # (it compensates only Python floats); np.sum adds pairwise.
        assa = float(sum(n * (n / (gt_len[g] + pred_len[p] - n)))) / tp if tp else 0.0
        scores.append(((deta * assa) ** 0.5, deta, assa))
    return tuple(float(np.mean(col)) for col in zip(*scores))


def evaluate(gt: TrajectorySet, pred: TrajectorySet, iou_thr: float = 0.5) -> MetricsReport:
    """Full report combining all three metric families."""
    mota, fp, fn, idsw, mt, ml = clear_mot(gt, pred, iou_thr)
    idf1, idp, idr = id_metrics(gt, pred, iou_thr)
    h, deta, assa = hota(gt, pred)
    return MetricsReport(mota, fp, fn, idsw, mt, ml, idf1, idp, idr, h, deta, assa)
