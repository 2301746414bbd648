"""Frozen reference for the equivalence tests: the metrics module as it was
when every box pair was scored with a scalar IoU, kept verbatim apart from
this docstring and the scalar kernel copied in below. Test-only; do not
change it to follow the library.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from sartrack.core import BBox, TrajectorySet


def iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1]."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area() + b.area() - inter)


HOTA_ALPHAS = [round(0.05 * k, 2) for k in range(1, 20)]

_BIG = 1e9


@dataclass(frozen=True)
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


def _frame_matching(gt_frame, pred_frame, iou_thr, keep: dict[int, int]):
    """Match one frame's (id, box) lists.

    Pairings carried in ``keep`` survive if still above the threshold;
    the rest are matched by Hungarian on 1 - IoU. Returns {gt_id: pred_id}.
    """
    gt_ids = [g for g, _ in gt_frame]
    pred_ids = [p for p, _ in pred_frame]
    gt_box = dict(gt_frame)
    pred_box = dict(pred_frame)
    matches: dict[int, int] = {}
    for g, p in keep.items():
        if g in gt_box and p in pred_box and iou(gt_box[g], pred_box[p]) >= iou_thr:
            matches[g] = p
    rem_gt = [g for g in gt_ids if g not in matches]
    used_pred = set(matches.values())
    rem_pred = [p for p in pred_ids if p not in used_pred]
    if rem_gt and rem_pred:
        cost = np.full((len(rem_gt), len(rem_pred)), _BIG)
        for i, g in enumerate(rem_gt):
            for j, p in enumerate(rem_pred):
                ov = iou(gt_box[g], pred_box[p])
                if ov >= iou_thr:
                    cost[i, j] = 1.0 - ov
        rows, cols = linear_sum_assignment(cost)
        for r, c in zip(rows, cols):
            if cost[r, c] < _BIG:
                matches[rem_gt[r]] = rem_pred[c]
    return matches


def clear_mot(gt: TrajectorySet, pred: TrajectorySet, iou_thr: float = 0.5):
    """CLEAR metrics with the standard match-persistence rule.

    Returns (MOTA, FP, FN, IDSW, MT, ML).
    """
    total_gt = gt.num_boxes()
    if total_gt == 0:
        raise ValueError("empty ground truth: MOTA undefined")
    gt_frames = gt.boxes_by_frame()
    pred_frames = pred.boxes_by_frame()
    all_frames = sorted(set(gt_frames) | set(pred_frames))
    fp = fn = idsw = 0
    prev: dict[int, int] = {}
    last_pred_of_gt: dict[int, int] = {}
    covered: dict[int, int] = {}
    for f in all_frames:
        gf = gt_frames.get(f, [])
        pf = pred_frames.get(f, [])
        matches = _frame_matching(gf, pf, iou_thr, prev)
        fn += len(gf) - len(matches)
        fp += len(pf) - len(matches)
        for g, p in matches.items():
            if g in last_pred_of_gt and last_pred_of_gt[g] != p:
                idsw += 1
            last_pred_of_gt[g] = p
            covered[g] = covered.get(g, 0) + 1
        prev = matches
    mota = 1.0 - (fp + fn + idsw) / total_gt
    mt = ml = 0
    for tid, seq in gt.tracks:
        frac = covered.get(tid, 0) / len(seq)
        if frac >= 0.8:
            mt += 1
        elif frac <= 0.2:
            ml += 1
    return mota, fp, fn, idsw, mt, ml


def _overlap_counts(gt: TrajectorySet, pred: TrajectorySet, iou_thr: float):
    """Per (gt traj, pred traj) count of frames where both exist and overlap."""
    gt_by_id = gt.by_id()
    pred_by_id = pred.by_id()
    ov: dict[tuple[int, int], int] = {}
    for g, gseq in gt_by_id.items():
        for p, pseq in pred_by_id.items():
            n = sum(1 for f in gseq if f in pseq and iou(gseq[f], pseq[f]) >= iou_thr)
            if n:
                ov[(g, p)] = n
    return gt_by_id, pred_by_id, ov


def id_metrics(gt: TrajectorySet, pred: TrajectorySet, iou_thr: float = 0.5):
    """Identity metrics from the optimal global trajectory pairing.

    Returns (IDF1, IDP, IDR). Empty GT and empty prediction both give 1 by
    convention.
    """
    total_gt = gt.num_boxes()
    total_pred = pred.num_boxes()
    if total_gt == 0 and total_pred == 0:
        return 1.0, 1.0, 1.0
    gt_by_id, pred_by_id, ov = _overlap_counts(gt, pred, iou_thr)
    gids = list(gt_by_id)
    pids = list(pred_by_id)
    ng, np_ = len(gids), len(pids)
    # Padded assignment: dummy columns/rows let any trajectory stay unpaired.
    cost = np.full((ng + np_, np_ + ng), _BIG)
    for i, g in enumerate(gids):
        for j, p in enumerate(pids):
            o = ov.get((g, p), 0)
            cost[i, j] = len(gt_by_id[g]) + len(pred_by_id[p]) - 2 * o
        cost[i, np_ + i] = len(gt_by_id[g])
    for j, p in enumerate(pids):
        cost[ng + j, j] = len(pred_by_id[p])
    cost[ng:, np_:] = 0.0
    rows, cols = linear_sum_assignment(cost)
    idtp = 0
    for r, c in zip(rows, cols):
        if r < ng and c < np_:
            idtp += ov.get((gids[r], pids[c]), 0)
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
    gt_frames = gt.boxes_by_frame()
    pred_frames = pred.boxes_by_frame()
    all_frames = sorted(set(gt_frames) | set(pred_frames))

    # Precompute per-frame IoU tables once; reuse across alphas.
    tables = []
    for f in all_frames:
        gf = gt_frames.get(f, [])
        pf = pred_frames.get(f, [])
        m = np.zeros((len(gf), len(pf)))
        for i, (_, gb) in enumerate(gf):
            for j, (_, pb) in enumerate(pf):
                m[i, j] = iou(gb, pb)
        tables.append((f, [g for g, _ in gf], [p for p, _ in pf], m))

    gt_count = {tid: len(seq) for tid, seq in gt.tracks}
    pred_count = {tid: len(seq) for tid, seq in pred.tracks}

    hotas, detas, assas = [], [], []
    for alpha in HOTA_ALPHAS:
        pair_matches: dict[tuple[int, int], int] = {}
        tp = 0
        for _, gids, pids, m in tables:
            if not gids or not pids:
                continue
            cost = np.where(m >= alpha, 1.0 - m, _BIG)
            rows, cols = linear_sum_assignment(cost)
            for r, c in zip(rows, cols):
                if cost[r, c] < _BIG:
                    key = (gids[r], pids[c])
                    pair_matches[key] = pair_matches.get(key, 0) + 1
                    tp += 1
        fn = total_gt - tp
        fp = total_pred - tp
        deta = tp / (tp + fn + fp) if (tp + fn + fp) else 0.0
        if tp:
            acc = 0.0
            for (g, p), n in pair_matches.items():
                acc += n * (n / (gt_count[g] + pred_count[p] - n))
            assa = acc / tp
        else:
            assa = 0.0
        detas.append(deta)
        assas.append(assa)
        hotas.append((deta * assa) ** 0.5)
    return float(np.mean(hotas)), float(np.mean(detas)), float(np.mean(assas))


def evaluate(gt: TrajectorySet, pred: TrajectorySet, iou_thr: float = 0.5) -> MetricsReport:
    """Full report combining all three metric families."""
    mota, fp, fn, idsw, mt, ml = clear_mot(gt, pred, iou_thr)
    idf1, idp, idr = id_metrics(gt, pred, iou_thr)
    h, deta, assa = hota(gt, pred)
    return MetricsReport(mota, fp, fn, idsw, mt, ml, idf1, idp, idr, h, deta, assa)
