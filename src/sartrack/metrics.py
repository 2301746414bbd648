"""MOT evaluation: CLEAR metrics, identity metrics, and the HOTA family."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import TrajectorySet, iou

HOTA_ALPHAS = [round(0.05 * k, 2) for k in range(1, 20)]

_BIG = 1e9


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
    """(gt ids, pred ids, IoU matrix) for every frame either set covers, in
    frame order."""
    gt_frames = gt.boxes_by_frame()
    pred_frames = pred.boxes_by_frame()
    tables = []
    for f in sorted(set(gt_frames) | set(pred_frames)):
        gf = gt_frames.get(f, [])
        pf = pred_frames.get(f, [])
        tables.append(([g for g, _ in gf], [p for p, _ in pf],
                       iou([b for _, b in gf], [b for _, b in pf])))
    return tables


def clear_mot(gt: TrajectorySet, pred: TrajectorySet, iou_thr: float = 0.5):
    """CLEAR metrics with the standard match-persistence rule: last frame's
    pairings survive while still above the threshold, the rest are matched
    by Hungarian on 1 - IoU.

    Returns (MOTA, FP, FN, IDSW, MT, ML).
    """
    total_gt = gt.num_boxes()
    if total_gt == 0:
        raise ValueError("empty ground truth: MOTA undefined")
    fp = fn = idsw = 0
    prev: dict[int, int] = {}
    last_pred_of_gt: dict[int, int] = {}
    covered: dict[int, int] = {}
    for gids, pids, m in _frame_tables(gt, pred):
        row = {g: i for i, g in enumerate(gids)}
        col = {p: j for j, p in enumerate(pids)}
        matches = {g: p for g, p in prev.items()
                   if g in row and p in col and m[row[g], col[p]] >= iou_thr}
        used = set(matches.values())
        rem_g = [i for i, g in enumerate(gids) if g not in matches]
        rem_p = [j for j, p in enumerate(pids) if p not in used]
        if rem_g and rem_p:
            sub = m[np.ix_(rem_g, rem_p)]
            cost = np.where(sub >= iou_thr, 1.0 - sub, _BIG)
            rows, cols = linear_sum_assignment(cost)
            for r, c in zip(rows, cols):
                if cost[r, c] < _BIG:
                    matches[gids[rem_g[r]]] = pids[rem_p[c]]
        fn += len(gids) - len(matches)
        fp += len(pids) - len(matches)
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


def id_metrics(gt: TrajectorySet, pred: TrajectorySet, iou_thr: float = 0.5):
    """Identity metrics from the optimal global trajectory pairing.

    Returns (IDF1, IDP, IDR). Empty GT and empty prediction both give 1 by
    convention.
    """
    total_gt = gt.num_boxes()
    total_pred = pred.num_boxes()
    if total_gt == 0 and total_pred == 0:
        return 1.0, 1.0, 1.0
    row = {tid: i for i, (tid, _) in enumerate(gt.tracks)}
    col = {tid: j for j, (tid, _) in enumerate(pred.tracks)}
    ng, np_ = len(row), len(col)
    # ov[i, j]: frames where gt trajectory i and pred trajectory j overlap.
    ov = np.zeros((ng, np_), dtype=np.int64)
    for gids, pids, m in _frame_tables(gt, pred):
        ov[np.ix_([row[g] for g in gids], [col[p] for p in pids])] += m >= iou_thr
    gt_len = np.array([len(seq) for _, seq in gt.tracks], dtype=np.int64)
    pred_len = np.array([len(seq) for _, seq in pred.tracks], dtype=np.int64)
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
    tables = _frame_tables(gt, pred)
    gt_count = {tid: len(seq) for tid, seq in gt.tracks}
    pred_count = {tid: len(seq) for tid, seq in pred.tracks}

    hotas, detas, assas = [], [], []
    for alpha in HOTA_ALPHAS:
        pair_matches: dict[tuple[int, int], int] = {}
        tp = 0
        for gids, pids, m in tables:
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
