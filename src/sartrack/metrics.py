"""MOT evaluation: CLEAR metrics, identity metrics, and the HOTA family.

All three score from the (gt box, pred box, IoU) pairs on one frame with
IoU > 0; every threshold is above 0. A matching fills pairs below its
threshold with a 1e9 cost, so it takes as many pairs as it can, then the
least total 1 - IoU, per connected component of the pairs above it. Forced
or clear optima are taken in numpy; any other (frame, threshold) is solved
whole, as the filler's 1e9 duals make the solver's near-tie choices depend
on the whole frame.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._solver import linear_sum_assignment
from .core import TrajectorySet, iou, iou_of, run_starts

HOTA_ALPHAS = [round(0.05 * k, 2) for k in range(1, 20)]

_BIG = 1e9
# A clear optimum beats its runner-up by more than this IoU; with the filler
# in its frame, the solver can miss a better option by one step of 1e9 (1.2e-7).
_TIE = 1e-6
_ALPHA_BLOCK = 4


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


class _Pairs(NamedTuple):
    """Both sets' boxes and their overlap pairs. A box is its index in its
    side's columns, which run by frame and then by row (a track's index in
    ``.tracks``); a frame is its position in the sorted union of both sets'
    frames, so frames of any size work."""

    g_frame: np.ndarray
    g_row: np.ndarray
    g_cols: np.ndarray  # (4, N): x, y, w, h
    p_frame: np.ndarray
    p_row: np.ndarray
    p_cols: np.ndarray
    n_frames: int
    gi: np.ndarray  # gt box of each pair, ascending; pj ascends within it
    pj: np.ndarray  # pred box of each pair
    v: np.ndarray  # IoU of each pair, > 0

    def table(self, t: int):
        """(gt rows, pred rows, IoU matrix) of frame t, rows ascending."""
        g = slice(*np.searchsorted(self.g_frame, [t, t + 1]))
        p = slice(*np.searchsorted(self.p_frame, [t, t + 1]))
        return self.g_row[g], self.p_row[p], iou(self.g_cols[:, g].T, self.p_cols[:, p].T)


def _candidates(g_frame, g_cols, p_frame, p_cols, n_frames: int):
    """Yield (gt boxes, pred boxes) of pairs on one frame whose boxes start
    in nearby cells of a grid, one row of cells at a time; they include every
    pair with IoU > 0."""
    lo = np.minimum(g_cols.min(axis=1), p_cols.min(axis=1))[:2]
    hi, side = np.maximum(g_cols.max(axis=1), p_cols.max(axis=1)).reshape(2, 2)
    # A power-of-two cell makes x / cell exact, and boxes that overlap start
    # at most ceil(side / cell) cells apart: fl(px + pw) > gx implies
    # px > gx - side. Cells are wide enough for int64 keys; rows are at least
    # the tallest box, so a gt box searches three rows of fine columns.
    least = np.maximum((hi - lo) / math.isqrt(2**60 // (n_frames + 1)),
                       np.maximum(-lo, hi) / 2**50)
    cell = np.array([math.ldexp(1.0, math.frexp(max(s, m))[1])
                     for s, m in zip(side / [8, 1], least)])
    reach = np.ceil(side / cell)
    reach_x = int(reach[0])
    c0 = np.floor(lo / cell) - reach  # keeps reach free cells on each side
    nx, ny = (np.floor(hi / cell) - c0 + reach + 1).astype(np.int64)

    def sorted_keys(frame, cols):
        cx, cy = ((np.floor(cols[i] / cell[i]) - c0[i]).astype(np.int64) for i in (0, 1))
        key = (frame * ny + cy) * nx + cx
        order = np.argsort(key, kind="stable")
        return key[order], order

    p_key, p_order = sorted_keys(p_frame, p_cols)
    g_key, g_order = sorted_keys(g_frame, g_cols)
    g_bottom, p_bottom = g_cols[1] + g_cols[3], p_cols[1] + p_cols[3]
    for row in (-nx, 0, nx):
        # A row of a gt box's neighbourhood is one run of keys; searching
        # ascending keys lets searchsorted start where the last search ended.
        start = np.searchsorted(p_key, g_key + row - reach_x, side="left")
        count = np.searchsorted(p_key, g_key + row + reach_x, side="right") - start
        g = np.repeat(g_order, count)
        p = p_order[np.repeat(start - np.cumsum(count) + count, count) + np.arange(len(g))]
        # Rows are coarse: keep the pairs whose y ranges meet, as every pair
        # with IoU > 0 does.
        near = (g_bottom[g] > p_cols[1][p]) & (p_bottom[p] > g_cols[1][g])
        yield g[near], p[near]


def _pairs(gt: TrajectorySet, pred: TrajectorySet) -> _Pairs:
    """Every (gt box, pred box) pair on one frame with IoU > 0."""
    union, frame = np.unique(np.concatenate([gt.frame, pred.frame]), return_inverse=True)
    sides = []
    for tset, t in ((gt, frame[:gt.num_boxes()]), (pred, frame[gt.num_boxes():])):
        order = np.argsort(t, kind="stable")
        row = np.cumsum(run_starts(tset.ids)) - 1
        sides.append((t[order], row[order], tset.boxes[order].T.copy()))
    (g_frame, g_row, g_cols), (p_frame, p_row, p_cols) = sides
    found = [(np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0),)]
    if len(g_frame) and len(p_frame):
        for gi, pj in _candidates(g_frame, g_cols, p_frame, p_cols, len(union)):
            v = iou_of(g_cols[:, gi], p_cols[:, pj])
            found.append((gi[v > 0], pj[v > 0], v[v > 0]))
    gi, pj, v = map(np.concatenate, zip(*found))
    order = np.argsort(gi * len(p_frame) + pj)
    return _Pairs(g_frame, g_row, g_cols, p_frame, p_row, p_cols, len(union),
                  gi[order], pj[order], v[order])


def _matches(m: np.ndarray, thr: float):
    """(rows, cols) of the Hungarian matching on 1 - IoU over the pairs of
    ``m`` at or above ``thr``; ``m`` has no empty side."""
    cost = np.where(m >= thr, 1.0 - m, _BIG)
    rows, cols = linear_sum_assignment(cost)
    keep = cost[rows, cols] < _BIG
    return rows[keep], cols[keep]


def _components(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected-component label of each edge (a[k], b[k]) of a graph."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ea, eb = inv[:len(a)], inv[len(a):]
    label = np.arange(len(nodes))
    while True:
        low = np.minimum(label[ea], label[eb])
        nxt = label.copy()
        np.minimum.at(nxt, ea, low)
        np.minimum.at(nxt, eb, low)
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            return label[ea]
        label = nxt


def _alone(gi: np.ndarray, pj: np.ndarray) -> np.ndarray:
    """Which pairs share neither box with another pair."""
    return (np.bincount(gi)[gi] == 1) & (np.bincount(pj)[pj] == 1)


def _closed_forms(g: np.ndarray, p: np.ndarray, v: np.ndarray):
    """The matching of a bipartite graph, edge k joining gt node g[k] to pred
    node p[k] at IoU v[k], where it is clear per component: a single pair; a
    star (one gt or one pred node), which takes its best pair; a 2x2, which
    takes its only perfect matching or the better of its two.

    Returns (taken, unsure): per edge, whether the matching takes it, and
    whether its component is none of these or has no clear optimum."""
    deg_g = np.bincount(g)[g]
    deg_p = np.bincount(p)[p]
    # A star's centre is the only node its leaves touch.
    g_star = (deg_g > 1) & (np.bincount(g, weights=deg_p)[g] == deg_g)
    p_star = (deg_p > 1) & (np.bincount(p, weights=deg_g)[p] == deg_p)
    taken = (deg_g == 1) & (deg_p == 1)
    unsure = np.zeros(len(g), dtype=bool)

    star = np.flatnonzero(g_star | p_star)
    centre = np.where(g_star, g, -1 - p)[star]
    order = np.lexsort((-v[star], centre))
    star, centre = star[order], centre[order]
    best = np.flatnonzero(run_starts(centre))  # every star has a runner-up
    taken[star[best]] = True
    unsure[star[best]] = v[star[best]] - v[star[best + 1]] <= _TIE

    # The rest have two or more nodes a side. With three edges that makes a
    # 2x2 path, which takes its end edges; with four, a 2x2 when every
    # degree is 2, which takes the diagonal with more IoU.
    rest = np.flatnonzero(~(taken | g_star | p_star))
    label = _components(g[rest], -1 - p[rest])
    order = np.lexsort((p[rest], g[rest], label))
    rest, label = rest[order], label[order]
    first = np.flatnonzero(run_starts(label))
    n_edges = np.diff(np.r_[first, len(rest)])
    comp = np.repeat(np.arange(len(first)), n_edges)
    path = (n_edges == 3)[comp]
    taken[rest[path]] = np.minimum(deg_g, deg_p)[rest[path]] == 1
    square = (n_edges == 4) & (np.bincount(comp, (deg_g == 2)[rest] & (deg_p == 2)[rest]) == 4)
    unsure[rest[~(path | square[comp])]] = True
    four = rest[first[square][:, None] + np.arange(4)]  # (g1 p1) (g1 p2) (g2 p1) (g2 p2)
    gain = (v[four[:, 0]] + v[four[:, 3]]) - (v[four[:, 1]] + v[four[:, 2]])
    taken[np.where(gain[:, None] > 0, four[:, [0, 3]], four[:, [1, 2]])] = True
    unsure[four[:, 0]] = np.abs(gain) <= _TIE
    return taken, unsure


def clear_mot(gt: TrajectorySet, pred: TrajectorySet, iou_thr: float = 0.5, *, pairs=None):
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
    pr = _pairs(gt, pred) if pairs is None else pairs
    above = pr.v >= iou_thr
    gi, pj = pr.gi[above], pr.pj[above]
    frame = pr.g_frame[gi]
    # A frame where no box has two candidates takes all its pairs, whatever
    # the frame before matched; the rest follow the rule one frame at a time.
    contested = np.zeros(pr.n_frames, dtype=bool)
    contested[frame[~_alone(gi, pj)]] = True
    free = ~contested[frame]
    g, p, f = [pr.g_row[gi[free]]], [pr.p_row[pj[free]]], [frame[free]]
    bounds = np.searchsorted(frame, np.arange(pr.n_frames + 1))
    matched = {-1: {}}
    for t in np.flatnonzero(contested).tolist():
        prev = matched.get(t - 1)
        if prev is None:
            b = slice(bounds[t - 1], bounds[t])
            prev = dict(zip(pr.g_row[gi[b]].tolist(), pr.p_row[pj[b]].tolist()))
        gt_rows, pred_rows, m = pr.table(t)
        gt_rows, pred_rows = gt_rows.tolist(), pred_rows.tolist()
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
        matched[t] = matches
        g.append(np.array(list(matches), dtype=np.intp))
        p.append(np.array(list(matches.values()), dtype=np.intp))
        f.append(np.full(len(matches), t))
    g, p, f = np.concatenate(g), np.concatenate(p), np.concatenate(f)
    fn = total_gt - len(g)
    fp = pred.num_boxes() - len(g)
    order = np.lexsort((f, g))
    g, p = g[order], p[order]
    idsw = int(np.count_nonzero((g[1:] == g[:-1]) & (p[1:] != p[:-1])))
    mota = 1.0 - (fp + fn + idsw) / total_gt
    frac = np.bincount(g, minlength=len(gt)) / np.bincount(pr.g_row)
    mt, ml = int(np.count_nonzero(frac >= 0.8)), int(np.count_nonzero(frac <= 0.2))
    return mota, fp, fn, idsw, mt, ml


def id_metrics(gt: TrajectorySet, pred: TrajectorySet, iou_thr: float = 0.5, *, pairs=None):
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
    pr = _pairs(gt, pred) if pairs is None else pairs
    ng, np_ = len(gt), len(pred)
    gt_len, pred_len = np.bincount(pr.g_row), np.bincount(pr.p_row)
    # ov[i, j]: frames where gt row i and pred row j overlap.
    above = pr.v >= iou_thr
    ov = np.bincount(pr.g_row[pr.gi[above]] * np_ + pr.p_row[pr.pj[above]],
                     minlength=ng * np_).reshape(ng, np_)
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


def _hota_matches(pr: _Pairs):
    """The matches of every alpha, in two parts: the pairs whose boxes have
    no other pair, as (gt box, pred box, top), each matched at the alphas
    below index top; and the rest, as (alpha index, gt box, pred box)."""
    alphas = np.array(HOTA_ALPHAS)
    clear = pr.v >= alphas[0]
    gi, pj, v = pr.gi[clear], pr.pj[clear], pr.v[clear]
    top = np.searchsorted(alphas, v, side="right")
    alone = _alone(gi, pj)
    # A dense solve also matches the frame's lone pairs, which are counted apart.
    lone_gt = np.zeros(len(pr.g_row), dtype=bool)
    lone_gt[gi[alone]] = True
    # The other pairs are solved once per alpha they clear, on nodes
    # (alpha, box) numbered densely, a few alphas at a time to bound the
    # temporaries.
    rest = np.flatnonzero(~alone)
    nodes = [np.unique(box[rest], return_inverse=True)[1] for box in (gi, pj)]
    out = []
    for lo in range(0, len(alphas), _ALPHA_BLOCK):
        n = np.clip(top[rest] - lo, 0, _ALPHA_BLOCK)
        r = np.repeat(np.arange(len(rest)), n)
        a = lo + np.arange(len(r)) - np.repeat(np.cumsum(n) - n, n)
        k = rest[r]
        taken, unsure = _closed_forms(*(a * (ids.max(initial=-1) + 1) + ids[r] for ids in nodes),
                                      v[k])
        # An (alpha, frame) without a clear optimum is solved whole, in that order.
        where = a * pr.n_frames + pr.g_frame[gi[k]]
        dense = np.sort(where[unsure])
        dense = dense[run_starts(dense)]
        taken &= ~np.isin(where, dense)
        out.append((a[taken], gi[k[taken]], pj[k[taken]]))
        tables = {}
        for at in dense.tolist():
            i, t = divmod(at, pr.n_frames)
            if t not in tables:
                tables[t] = pr.table(t)[2]
            rows, cols = _matches(tables[t], HOTA_ALPHAS[i])
            rows = np.searchsorted(pr.g_frame, t) + rows
            cols = np.searchsorted(pr.p_frame, t) + cols
            keep = ~lone_gt[rows]
            out.append((np.full(np.count_nonzero(keep), i), rows[keep], cols[keep]))
    return (gi[alone], pj[alone], top[alone]), tuple(map(np.concatenate, zip(*out)))


def hota(gt: TrajectorySet, pred: TrajectorySet, *, pairs=None):
    """HOTA over the 19-point localization-threshold grid.

    Returns (HOTA, DetA, AssA), each the mean of its per-alpha value.
    """
    total_gt = gt.num_boxes()
    if total_gt == 0:
        raise ValueError("empty ground truth: HOTA undefined")
    total_pred = pred.num_boxes()
    pr = _pairs(gt, pred) if pairs is None else pairs
    (gi, pj, top), (a, mg, mp) = _hota_matches(pr)
    gt_len, pred_len = np.bincount(pr.g_row), np.bincount(pr.p_row)
    n_alphas, n_pred = len(HOTA_ALPHAS), len(pred)
    # Per (gt row, pred row) pair u and alpha: n, its match count, and first,
    # the gt box of its first match, which orders matches by frame, then gt row.
    keys, u = np.unique(np.r_[pr.g_row[gi] * n_pred + pr.p_row[pj],
                              pr.g_row[mg] * n_pred + pr.p_row[mp]], return_inverse=True)
    n = np.zeros((len(keys), n_alphas + 1), dtype=np.int64)
    first = np.full(n.shape, np.iinfo(np.intp).max)
    np.add.at(n, (u[:len(gi)], top), 1)
    np.minimum.at(first, (u[:len(gi)], top), gi)
    n = np.cumsum(n[:, ::-1], axis=1)[:, -2::-1]
    first = np.minimum.accumulate(first[:, ::-1], axis=1)[:, -2::-1]
    np.add.at(n, (u[len(gi):], a), 1)
    np.minimum.at(first, (u[len(gi):], a), mg)
    terms = n * (n / (gt_len[keys // n_pred, None] + pred_len[keys % n_pred, None] - n))
    # Add each alpha's terms one at a time in first-match order, as a Python
    # sum of np.float64 does; np.sum adds pairwise. Unmatched pairs add 0 last.
    terms = np.take_along_axis(terms, np.argsort(first, axis=0), axis=0)
    sums = np.cumsum(np.vstack([np.zeros(n_alphas), terms]), axis=0)[-1]
    scores = []  # (HOTA, DetA, AssA) per alpha
    for tp, acc in zip(n.sum(axis=0).tolist(), sums.tolist()):
        deta = tp / (total_gt + total_pred - tp)
        assa = acc / tp if tp else 0.0
        scores.append(((deta * assa) ** 0.5, deta, assa))
    return tuple(float(np.mean(col)) for col in zip(*scores))


def evaluate(gt: TrajectorySet, pred: TrajectorySet, iou_thr: float = 0.5) -> MetricsReport:
    """Full report combining all three metric families, which share one set
    of overlap pairs."""
    pairs = _pairs(gt, pred)
    mota, fp, fn, idsw, mt, ml = clear_mot(gt, pred, iou_thr, pairs=pairs)
    idf1, idp, idr = id_metrics(gt, pred, iou_thr, pairs=pairs)
    h, deta, assa = hota(gt, pred, pairs=pairs)
    return MetricsReport(mota, fp, fn, idsw, mt, ml, idf1, idp, idr, h, deta, assa)
